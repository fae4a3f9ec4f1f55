"""Constrained nonlinear tile-size solver (the AMPL/Ipopt substitute).

The paper formulates tile-size selection as constrained nonlinear
minimization problems and solves them with AMPL + Ipopt.  Neither is
available in this environment, so this module provides an equivalent solver
built on ``scipy.optimize``:

* objectives and constraints are supplied as plain Python callables over a
  flat vector of tile sizes,
* a multi-start SLSQP loop (with objective/constraint scaling) finds local
  minima from several deterministic and pseudo-random interior starting
  points,
* a projected random/coordinate search acts as a derivative-free fallback
  when SLSQP fails to return a feasible point (the objectives are smooth
  posynomial-like functions, so this is rare and exists for robustness).

Every problem runs SLSQP on one local driver over scipy's
reverse-communication kernel: the driver feeds the kernel exactly the
values ``scipy.optimize.minimize`` would compute, so every trajectory is
bitwise scipy's.  A problem with a generated gradient (every MOpt
optimizer problem) answers each gradient request with one call of
generated code that recomputes per probe only what the probed coordinate
reaches and writes the difference quotients straight into the kernel's
buffers; any other problem is differenced one probe row at a time
through its per-point callables.

The kernel is scipy's private extension ``scipy.optimize._slsqplib``.  It
is loaded by file from scipy's ``optimize`` directory
(:func:`_load_slsqp_kernel`) rather than imported: importing it would run
the ``scipy.optimize`` package init, which pulls in scipy.linalg,
scipy.sparse and scipy.fft (about 0.6 s and most of the import's memory)
for a solver that calls none of them.  The module is registered under its
own name, so a later ``import scipy.optimize`` (the oracle tests) runs on
the same kernel.  Because the loader depends on scipy's file layout and the
kernel's protocol, the package pins ``scipy>=1.16,<1.18`` and a missing or
changed kernel fails the import with the scipy version and the directory.

The problems involved are small — at most a few dozen variables — so a
multi-start local method reliably finds the same optima Ipopt would.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from ..obs.metrics import REGISTRY
from .config import TilingConfig
from .cost_model import compiled_cost_for, evaluator_compiles
from .tensor_spec import ConvSpec, LOOP_INDICES

#: scipy's package directory.
_SCIPY_DIR = Path(scipy.__file__).resolve().parent

#: Module name of scipy's SLSQP kernel, under which it is registered.
_KERNEL_MODULE = "scipy.optimize._slsqplib"


def _load_slsqp_kernel(directory: Path) -> Callable[..., None]:
    """scipy's SLSQP kernel ``slsqp``, from the ``_slsqplib`` extension in
    ``directory`` (scipy's ``optimize`` directory).

    The extension is loaded by file, without running the ``scipy.optimize``
    package init, and registered in ``sys.modules`` under its own name, so
    a later ``import scipy.optimize`` reuses this module object; when the
    module is already imported it is reused.  Raises ``ImportError`` naming
    the scipy version and ``directory`` when the file is missing or has no
    callable ``slsqp``.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is None:
        for suffix in EXTENSION_SUFFIXES:
            path = directory / f"_slsqplib{suffix}"
            if path.is_file():
                loader = ExtensionFileLoader(_KERNEL_MODULE, str(path))
                module = module_from_spec(
                    spec_from_file_location(_KERNEL_MODULE, path, loader=loader)
                )
                loader.exec_module(module)
                sys.modules[_KERNEL_MODULE] = module
                break
    kernel = getattr(module, "slsqp", None)
    if not callable(kernel):
        raise ImportError(
            f"scipy {scipy.__version__} has no SLSQP kernel _slsqplib.slsqp "
            f"in {directory} (this solver supports scipy >=1.16,<1.18)"
        )
    return kernel


_slsqp_kernel = _load_slsqp_kernel(_SCIPY_DIR / "optimize")


@dataclass(frozen=True)
class SolverOptions:
    """Tunable knobs of the nonlinear solver.

    ``multistarts`` counts additional pseudo-random interior starting points
    on top of the deterministic ones; ``maxiter`` bounds each SLSQP run;
    ``fallback_samples`` bounds the derivative-free rescue search.
    """

    multistarts: int = 3
    maxiter: int = 150
    seed: int = 0
    fallback_samples: int = 300
    tolerance: float = 1e-7


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one constrained minimization."""

    x: np.ndarray
    value: float
    feasible: bool
    success: bool
    message: str
    starts_tried: int

    def as_tiles(self, indices: Sequence[str] = LOOP_INDICES) -> Dict[str, float]:
        """Interpret the solution vector as a tile-size mapping (single level)."""
        return {index: float(v) for index, v in zip(indices, self.x)}


@dataclass(frozen=True)
class ConstrainedProblem:
    """A generic smooth constrained minimization problem.

    ``objective`` maps the variable vector to a scalar cost;
    ``inequalities`` are callables that must be **non-negative** at feasible
    points (scipy's convention for ``type='ineq'``) and may return either a
    scalar or an array of constraint values; ``bounds`` gives per-variable
    (low, high) pairs.  The driver differences these per-point callables
    one probe row at a time.

    ``point`` and ``gradient`` are the generated code the MOpt
    optimizer's problems carry instead (``optimizer._round_source``).
    ``point(x)`` returns the objective and the list of constraint values
    at ``x``, bitwise what ``objective`` and the one inequality give.
    ``gradient(x, flags, value, scale, constraints, grad, jac, columns)``
    answers one finite-difference gradient request of the driver at the
    point ``x`` whose objective is ``value`` and constraint values
    ``constraints``: for the k-th variable with ``flags`` set (the free
    ones), in order, it sets that variable of ``x + 0.0`` to the probe
    value ``columns`` gives and writes the quotients into the memoryviews
    ``grad[k]`` (the objective over ``scale``) and ``jac[k * C + r]``
    (constraint ``r``, column-major), leaving the constraint entries the
    variable cannot move to ``columns`` (:func:`_fused_gradient`).  A
    problem with a gradient has no inequalities or exactly one
    (vector-valued) inequality callable.

    ``single_basin`` declares that the problem has (to solver tolerance) a
    single basin of attraction — e.g. the optimizer's epigraph min-max
    problems, whose objective and constraints are posynomial-like and
    hence near-convex in log coordinates.  The multistart driver then
    polishes starts *in order* and stops at the first feasible local
    minimum: every start leads to the same basin floor, so additional
    polishes cannot improve the result.  Every other problem has every
    start polished and the best kept.
    """

    objective: Callable[[np.ndarray], float]
    inequalities: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    bounds: Tuple[Tuple[float, float], ...]
    point: Optional[Callable[[np.ndarray], Tuple[float, List[float]]]] = None
    gradient: Optional[Callable[..., None]] = None
    single_basin: bool = False
    #: Per-variable bounds as arrays, built once from ``bounds``.
    lows: np.ndarray = field(init=False, repr=False, compare=False)
    highs: np.ndarray = field(init=False, repr=False, compare=False)
    #: Indices of the variables not pinned by equal bounds, and their bounds.
    free: np.ndarray = field(init=False, repr=False, compare=False)
    free_lows: np.ndarray = field(init=False, repr=False, compare=False)
    free_highs: np.ndarray = field(init=False, repr=False, compare=False)
    #: Whether every free variable's box is wider than two FD steps.
    wide: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.point is None) != (self.gradient is None):
            raise ValueError("a generated gradient comes with its point evaluation")
        if self.gradient is not None and len(self.inequalities) > 1:
            raise ValueError(
                "a problem with a generated gradient has at most one "
                "inequality callable"
            )
        object.__setattr__(
            self, "lows", np.array([b[0] for b in self.bounds], dtype=float)
        )
        object.__setattr__(
            self, "highs", np.array([b[1] for b in self.bounds], dtype=float)
        )
        free = np.nonzero(self.lows != self.highs)[0]
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "free_lows", self.lows[free])
        object.__setattr__(self, "free_highs", self.highs[free])
        object.__setattr__(
            self,
            "wide",
            bool(np.all(self.highs[free] - self.lows[free] > 2.0 * _SQRT_EPS)),
        )

    @property
    def dimension(self) -> int:
        """Number of optimization variables."""
        return len(self.bounds)

    def within_bounds(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether a point lies in the bounds (up to ``tolerance``)."""
        return not (
            np.any(x < self.lows - tolerance) or np.any(x > self.highs + tolerance)
        )

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Check bounds and inequality constraints at a point."""
        if not self.within_bounds(x, tolerance):
            return False
        return all(np.min(np.atleast_1d(g(x))) >= -tolerance for g in self.inequalities)

    def constraints_at(self, x: np.ndarray) -> np.ndarray:
        """Every inequality's values at a point, concatenated in order
        (what scipy's SLSQP stacks into its constraint vector)."""
        values = [np.asarray(g(x), dtype=float).reshape(-1) for g in self.inequalities]
        return values[0] if len(values) == 1 else np.concatenate(values or [np.zeros(0)])

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point into the bounds."""
        return np.minimum(np.maximum(x, self.lows), self.highs)


#: Relative step of scipy's default '2-point' finite differences.
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

#: Errors that end one SLSQP run without aborting the multistart.
_RUN_ERRORS = (ValueError, OverflowError, FloatingPointError)

#: SLSQP's exit modes, worded as ``scipy.optimize.minimize`` reports them.
_EXIT_MODES = {
    -1: "Gradient evaluation required (g & a)",
    0: "Optimization terminated successfully",
    1: "Function evaluation required (f & c)",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}

# Solver activity in this process: SLSQP runs, the gradients the driver's
# runs asked for and the finite-difference probe points that answered
# them (one per free variable of each differenced point), and the runs and
# their kernel iterations by how they ended.  Each run is counted once,
# when it ends; serving solves on threads, hence the lock.
_EXIT_STATUS = {0: "converged", 9: "iteration_limit"}
_STATS = {"slsqp_runs": 0, "gradient_requests": 0, "probe_rows": 0}
for _status in ("converged", "iteration_limit", "other"):
    _STATS[f"runs_{_status}"] = _STATS[f"iterations_{_status}"] = 0
_STATS_LOCK = threading.Lock()


def _count(mode: Optional[int], iterations: int, requests: int, rows: int) -> None:
    """Count one finished run: its exit mode (``None`` when it raised),
    kernel iterations, gradient requests and probe rows."""
    status = _EXIT_STATUS.get(mode, "other")
    with _STATS_LOCK:
        _STATS["slsqp_runs"] += 1
        _STATS["gradient_requests"] += requests
        _STATS["probe_rows"] += rows
        _STATS[f"runs_{status}"] += 1
        _STATS[f"iterations_{status}"] += iterations


def solver_stats() -> Dict[str, object]:
    """Counters of SLSQP activity in this process (for the stats probe):
    runs, gradient requests and probe rows, and per exit status
    (``converged``, ``iteration_limit``, ``other``) the runs and their
    kernel iterations (``runs_<status>``, ``iterations_<status>``), with
    the generated evaluator sources compiled (``evaluator_compiles``) and
    whether scipy's OpenBLAS runs on one thread (``blas_threads_pinned``,
    see :func:`pin_blas_threads`)."""
    with _STATS_LOCK:
        stats: Dict[str, object] = dict(_STATS)
    stats["evaluator_compiles"] = evaluator_compiles()
    stats["blas_threads_pinned"] = _BLAS_PIN["pinned"]
    return stats


REGISTRY.register_collector("solver", solver_stats)


#: Outcome of :func:`pin_blas_threads`, decided once per process.
_BLAS_PIN: Dict[str, Optional[bool]] = {"pinned": None}
_BLAS_PIN_LOCK = threading.Lock()


def _scipy_openblas() -> Optional[ctypes.CDLL]:
    """scipy's bundled OpenBLAS (``scipy.libs/libscipy_openblas-*.so``),
    or ``None`` when this scipy build does not bundle it."""
    libs = _SCIPY_DIR.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def pin_blas_threads() -> bool:
    """Run scipy's OpenBLAS on one thread for the rest of the process.

    SLSQP's linear algebra runs on that library, and its rounding depends
    on its thread count, so without the pin the answers would depend on
    the host's core count (and on ``OPENBLAS_NUM_THREADS``).  The first
    call probes the library for ``scipy_openblas_set_num_threads`` and
    calls it with 1; later calls return the recorded outcome.  Returns
    ``False`` when the library or the symbol is missing (the answers then
    follow the environment) -- it never raises for that.
    """
    with _BLAS_PIN_LOCK:
        if _BLAS_PIN["pinned"] is None:
            library = _scipy_openblas()
            setter = getattr(library, "scipy_openblas_set_num_threads", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
            _BLAS_PIN["pinned"] = setter is not None
        return bool(_BLAS_PIN["pinned"])


def _fd_steps(
    points: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward-difference steps ``h`` and realized steps ``dx`` per point.

    Replicates the ``2-point`` scheme scipy's SLSQP uses for callables
    without a jacobian, elementwise over an ``(R, D)`` point matrix: the
    *absolute* step of its ``eps`` option (``sqrt(machine eps)``,
    unsigned), the signed relative step ``sqrt(eps) * max(1, |x|)`` only
    where the absolute one underflows, and the one-sided bounds adjustment
    of ``scipy.optimize._numdiff``.  Variables pinned by equal bounds get
    ``dx == 0``.
    """
    sign = np.where(points >= 0, 1.0, -1.0)
    h = np.full_like(points, _SQRT_EPS)
    underflow = (points + h) - points == 0.0
    if underflow.any():
        h = np.where(
            underflow, _SQRT_EPS * sign * np.maximum(1.0, np.abs(points)), h
        )
    probe = points + h
    violated = (probe < lows) | (probe > highs)
    fitting = np.abs(h) <= np.maximum(points - lows, highs - points)
    h = np.where(violated & fitting, -h, h)
    upper, lower = highs - points, points - lows
    h = np.where((upper >= lower) & ~fitting, upper, h)
    h = np.where((upper < lower) & ~fitting, -lower, h)
    return h, (points + h) - points


#: A gradient request: the point whose objective is differenced, the
#: point whose constraints are (the same object unless clipping moved
#: it), the objective value at the first and its scale, and the
#: constraint values at the second.
_Request = Tuple[np.ndarray, np.ndarray, float, float, np.ndarray]
#: Its answer over the free variables: the scaled objective gradient
#: ``(F,)`` and the constraint jacobian ``(C, F)`` (``None`` without
#: constraints).
_Gradient = Tuple[np.ndarray, Optional[np.ndarray]]
#: One finished polish: ``(x, success, message)``.
_Outcome = Tuple[np.ndarray, bool, str]


def _fd_probe(
    problem: ConstrainedProblem, point: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Probe values and realized steps of the free variables of ``point``.

    The steps are :func:`_fd_steps`'s.  When no step is lost to rounding
    and the point lies above its lower bound in a box wider than two
    steps, they reduce to the absolute step, forward or (where the
    forward probe would pass the upper bound) backward, which is checked
    first.  The flag says whether that fast path held (then no step is
    zero).
    """
    at = point[problem.free]
    lows, highs = problem.free_lows, problem.free_highs
    probe = at + _SQRT_EPS
    dx = probe - at
    if problem.wide and dx.all() and (at >= lows).all():
        over = probe > highs
        if not over.any():
            return probe, dx, True
        probe = np.where(over, at - _SQRT_EPS, probe)
        dx = probe - at
        if dx.all():
            return probe, dx, True
    h, dx = _fd_steps(at, lows, highs)
    return at + h, dx, False


def _probe_rows(
    problem: ConstrainedProblem, point: np.ndarray, probe: np.ndarray
) -> np.ndarray:
    """One probe row per free variable: the point's ``x + 0.0`` with that
    variable set to its probe value."""
    free = problem.free
    rows = np.repeat((point + 0.0)[None, :], free.size, axis=0)
    rows[np.arange(free.size), free] = probe
    return rows


def _fd_gradient(problem: ConstrainedProblem, request: _Request) -> _Gradient:
    """Answer one gradient request of a problem without a generated
    gradient by forward differences over the free variables (a pinned
    variable's derivative is zero and the driver drops it).

    The objective is differenced at the point and the constraints at its
    clipped copy, each probe row (:func:`_probe_rows`) evaluated through
    the per-point callables; each derivative is the probe value minus the
    base value over the realized step.
    """
    point, clipped, value, scale, cons = request
    probe, dx, exact = _fd_probe(problem, point)
    rows = _probe_rows(problem, point, probe)
    values = np.array([problem.objective(row) for row in rows], dtype=float)
    grad = _slopes(values / scale - value / scale, dx, exact)
    if not problem.inequalities:
        return grad, None
    if clipped is not point:
        probe, dx, exact = _fd_probe(problem, clipped)
        rows = _probe_rows(problem, clipped, probe)
    probe_cons = np.array([problem.constraints_at(row) for row in rows])
    return grad, _slopes(probe_cons - cons, dx[:, None], exact).T


def _slopes(differences: np.ndarray, steps: np.ndarray, exact: bool) -> np.ndarray:
    """Differences over steps; a zero step (only off the fast path) has
    slope 0."""
    if exact:
        return differences / steps
    zero = steps == 0.0
    return np.where(zero, 0.0, differences / np.where(zero, 1.0, steps))


def _fused_gradient(
    problem: ConstrainedProblem, grad: np.ndarray, jac: np.ndarray
) -> Callable[[np.ndarray, np.ndarray, float, float, List[float]], None]:
    """The answer to the gradient requests of one SLSQP run of a problem
    with a generated ``gradient``, written into the run's kernel buffers
    ``grad`` ``(F,)`` and ``jac`` ``(C, F)`` (Fortran order).

    Bitwise what differencing the problem's ``point`` one free variable
    at a time gives (the rule :func:`_fd_gradient` applies to the other
    problems):

    * ``columns(X)`` applies :func:`_fd_probe`'s step rule to each free
      variable of the point ``X`` -- the absolute step, forward or (past
      the upper bound) backward, and :func:`_fd_steps` for a variable
      where that fast path fails (off the fast path it is elementwise,
      and it gives the fast step wherever the fast path holds, so mixing
      the two per variable changes no step).  It returns ``X`` with each
      free variable set to its probe value and an iterator of the
      columns' ``(k, k * rows, probe, step)``.
    * The entries of column ``k`` a variable cannot move are ``(c - c) /
      dx``: ``+0.0`` or ``-0.0`` with the step's sign when every
      constraint value is finite (``NaN`` in the row of one that is not).
      ``columns`` copies the column's template in only when the step's
      sign changed since the run last wrote it; the generated code then
      overwrites the entries the variable moves.
    * A zero or non-finite step (only off the fast path) is differenced
      with step 1.0 and settled afterwards: a zero step's column is
      ``+0.0`` throughout, any other is divided by its step (``q / 1.0 /
      dx`` is ``q / dx``).

    The objective is differenced at the point and the constraints at its
    clipped copy: when clipping moved the point, the generated code runs
    once per point and the objective of the second run is discarded.
    """
    n, m = grad.size, jac.shape[0]
    grad_out = memoryview(grad)
    jac_out = memoryview(jac.ravel(order="F"))
    flags = (problem.lows != problem.highs).tolist()
    free = problem.free.tolist()
    lows, highs = problem.free_lows, problem.free_highs
    # The lower bound the fast path needs; NaN (never met) where a box is
    # no wider than two steps.
    fast_lows = np.where(highs - lows > 2.0 * _SQRT_EPS, lows, np.nan).tolist()
    zeros = (memoryview(np.zeros(m)), memoryview(np.full(m, -0.0)))
    templates = list(zeros)
    signs: List[Optional[bool]] = [False] * n  # the zeros' sign per column
    odd: List[Tuple[int, float]] = []

    def general(k: int, at: float) -> Tuple[float, float]:
        h, dx = _fd_steps(np.array([at]), lows[k : k + 1], highs[k : k + 1])
        probe, step = float(at + h[0]), float(dx[0])
        if not step or step - step:
            odd.append((k, step))
            step = 1.0
        return probe, step

    # Per column: its index, the offset of its first entry, the variable,
    # and the bounds the fast path reads.
    slots = [
        (k, k * m, d, low, high)
        for k, (d, low, high) in enumerate(zip(free, fast_lows, highs.tolist()))
    ]
    step_size, inf = _SQRT_EPS, float("inf")

    def columns(X: List[float]):
        probes, entries = X[:], []
        for k, b, d, low, high in slots:
            at = X[d]
            probe = at + step_size
            step = probe - at
            # At +inf the fast step is NaN; the general rule gives the same
            # NaN and marks the column odd.
            if step and low <= at < inf:
                if probe > high:
                    probe = at - step_size
                    step = probe - at
                    if not step:
                        probe, step = general(k, at)
            else:
                probe, step = general(k, at)
            sign = step < 0
            if sign is not signs[k]:
                signs[k] = sign
                jac_out[b : b + m] = templates[sign]
            probes[d] = probe
            entries.append((k, b, probe, step))
        return probes, iter(entries)

    def settle(target: np.ndarray) -> None:
        for k, step in odd:
            if step:
                target[k] /= step
                jac[:, k] /= step
            else:
                target[k] = 0.0
                jac[:, k] = 0.0
            signs[k] = None
        odd.clear()

    def answer(point, clipped, value, scale, constraints) -> None:
        total = sum(constraints)
        finite = total - total == 0.0  # else a constraint value is inf or NaN
        if not finite:
            values = np.array(constraints)
            with np.errstate(invalid="ignore"):
                differences = values - values
            templates[:] = (
                memoryview(differences / 1.0),
                memoryview(differences / -1.0),
            )
            signs[:] = [None] * n
        problem.gradient(
            point, flags, value, scale, constraints, grad_out, jac_out, columns
        )
        if odd:
            settle(grad)
        if clipped is not point:
            discarded = np.zeros(n)
            problem.gradient(
                clipped, flags, value, scale, constraints, memoryview(discarded),
                jac_out, columns,
            )
            settle(discarded)
        if not finite:
            templates[:] = zeros
            signs[:] = [None] * n

    return answer


def _slsqp_run(
    problem: ConstrainedProblem, start: np.ndarray, options: SolverOptions
) -> _Outcome:
    """One SLSQP polish of ``start`` on scipy's kernel.

    This is the loop of scipy's ``_minimize_slsqp``, fed exactly the values
    ``scipy.optimize.minimize(method="SLSQP")`` would compute with the
    finite-difference jacobians of :func:`_fd_gradient` supplied as
    callables (the inequalities concatenated, as scipy stacks them): the
    clipped start, the objective scaled by ``|f(x0)|``, the objective
    differenced at the iterate and the constraints at its clipped copy,
    with variables pinned by equal bounds removed from the problem (scipy
    removes them itself only when it differences, and a kept pinned
    variable would send SLSQP down a different trajectory).
    A problem with a generated gradient is evaluated by its ``point`` and
    answers each gradient request into the kernel's buffers
    (:func:`_fused_gradient`).

    Returns ``(x, success, message)`` with ``x`` clipped and expanded to
    the full dimension.  A problem with every variable pinned raises
    ``ValueError``, as scipy's loop fails on it.
    """
    run = {"mode": None, "iterations": 0, "requests": 0, "rows": 0}
    try:
        x, mode = _slsqp_loop(problem, start, options, run)
    finally:
        _count(run["mode"], run["iterations"], run["requests"], run["rows"])
    return x, mode == 0, _EXIT_MODES[mode]


def _slsqp_loop(
    problem: ConstrainedProblem,
    start: np.ndarray,
    options: SolverOptions,
    run: Dict[str, Optional[int]],
) -> Tuple[np.ndarray, int]:
    """The loop of :func:`_slsqp_run`: returns the clipped, expanded ``x``
    and the exit mode.  It counts its gradient requests and probe rows in
    ``run`` as it goes, and the exit mode and kernel iterations when it
    ends (a loop that raises leaves the mode ``None``)."""
    lows, highs = problem.lows, problem.highs
    free = problem.free
    if not free.size:
        raise ValueError("every variable is pinned by its bounds")
    reduce_vars = free.size < lows.size
    xl, xu = lows[free], highs[free]
    # The kernel reads a NaN bound as "unbounded" (scipy's marking of
    # infinite bounds).
    xl_kernel = np.where(np.isfinite(xl), xl, np.nan)
    xu_kernel = np.where(np.isfinite(xu), xu, np.nan)
    pinned_template = lows.copy()
    pinned_template[free] = 0.0

    def expand(reduced: np.ndarray) -> np.ndarray:
        if not reduce_vars:
            return reduced.copy()
        full = pinned_template.copy()
        full[free] = reduced
        return full

    if problem.point is not None:
        evaluate = problem.point

        def constraints_at(point: np.ndarray) -> List[float]:
            return problem.point(point)[1]

    else:
        objective, constraints_at = problem.objective, problem.constraints_at

        def evaluate(point: np.ndarray):
            return objective(point), constraints_at(point)

    x = np.clip(start[free], xl, xu)
    point = expand(x)
    evaluated = x.tobytes()
    value, cons = evaluate(point)
    base = abs(value)
    scale = base if base > 0 else 1.0
    fx = value / scale

    n, m = x.size, len(cons)
    state = {
        "acc": options.tolerance,
        "alpha": 0.0,
        "f0": 0.0,
        "gs": 0.0,
        "h1": 0.0,
        "h2": 0.0,
        "h3": 0.0,
        "h4": 0.0,
        "t": 0.0,
        "t0": 0.0,
        "tol": 10.0 * options.tolerance,
        "exact": 0,
        "inconsistent": 0,
        "reset": 0,
        "iter": 0,
        "itermax": int(options.maxiter),
        "line": 0,
        "m": m,
        "meq": 0,
        "mode": 0,
        "n": n,
    }
    # Workspace sizes of scipy's loop (no equality constraints).
    buffer_size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
    if m == 0:
        buffer_size += 2 * n * (n + 1)
    buffer = np.zeros(max(buffer_size, 1), dtype=np.float64)
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    mult = np.zeros(max(1, m + 2 * n + 2), dtype=np.float64)
    grad = np.zeros(n, dtype=np.float64)
    jac_matrix = np.zeros((max(1, m), n), dtype=np.float64, order="F")
    slack = np.zeros(max(1, m), dtype=np.float64)
    slack[:m] = cons

    if problem.gradient is not None:
        answer = _fused_gradient(problem, grad, jac_matrix)
    else:

        def answer(point, clipped, value, scale, constraints) -> None:
            slopes, jac = _fd_gradient(problem, (point, clipped, value, scale, constraints))
            grad[:] = slopes
            if m:
                jac_matrix[:m, :] = jac

    def gradient() -> None:
        # Objective differenced at the iterate, constraints at its clipped
        # copy: scipy clips before differencing constraint callables only.
        clipped = problem.clip(point)
        if clipped.tobytes() == point.tobytes():
            clipped, clipped_cons = point, cons
        else:
            clipped_cons = constraints_at(clipped) if m else cons
        answer(point, clipped, value, scale, clipped_cons)
        run["requests"] += 1
        run["rows"] += 2 * n if m and clipped is not point else n

    gradient()
    while True:
        _slsqp_kernel(
            state, fx, grad, jac_matrix, slack, x, mult, xl_kernel, xu_kernel,
            buffer, indices,
        )
        mode = state["mode"]
        if mode == 1 or (mode == -1 and x.tobytes() != evaluated):
            point = expand(x)
            evaluated = x.tobytes()
            value, cons = evaluate(point)
            if mode == 1:
                fx = value / scale
                slack[:m] = cons
        if mode == -1:
            gradient()
        elif mode != 1:
            break
    run["mode"], run["iterations"] = mode, state["iter"]
    return problem.clip(expand(x)), mode


def _default_starts(
    problem: ConstrainedProblem, options: SolverOptions
) -> List[np.ndarray]:
    """Deterministic + pseudo-random interior starting points."""
    lows, highs = problem.lows, problem.highs
    starts = [
        lows + 0.5 * (highs - lows),
        np.sqrt(np.maximum(lows, 1e-12) * np.maximum(highs, 1e-12)),  # geometric mid
        lows + 0.15 * (highs - lows),
        highs.copy(),
    ]
    rng = np.random.default_rng(options.seed)
    for _ in range(options.multistarts):
        fraction = rng.uniform(0.05, 0.95, size=len(lows))
        starts.append(lows + fraction * (highs - lows))
    return [problem.clip(s) for s in starts]


def _fallback_search(
    problem: ConstrainedProblem, options: SolverOptions
) -> Optional[Tuple[np.ndarray, float]]:
    """Derivative-free projected random search used when SLSQP fails.

    Samples log-uniformly (tile-size objectives vary over orders of
    magnitude) and keeps the first minimum among the feasible samples.  A
    problem with a generated ``point`` scores each sample with one call of
    it, which gives bitwise what the feasibility check and the objective
    give.
    """
    rng = np.random.default_rng(options.seed + 1)
    lows, highs = problem.lows, problem.highs
    log_lo = np.log(np.maximum(lows, 1e-9))
    log_hi = np.log(np.maximum(highs, 1e-9))
    # A clipped sample can leave the bounds only where a box is inverted.
    check_bounds = bool((lows > highs).any())
    best: Optional[Tuple[np.ndarray, float]] = None
    for _ in range(options.fallback_samples):
        u = rng.uniform(size=len(lows))
        x = problem.clip(np.exp(log_lo + u * (log_hi - log_lo)))
        if problem.point is not None:
            value, constraints = problem.point(x)
            # A NaN constraint fails this check as it fails ``is_feasible``
            # (``np.min`` propagates it).
            if (check_bounds and not problem.within_bounds(x)) or not all(
                c >= -1e-6 for c in constraints
            ):
                continue
        elif problem.is_feasible(x):
            value = problem.objective(x)
        else:
            continue
        if best is None or value < best[1]:
            best = (x, value)
    return best


def minimize_from_starts(
    problem: ConstrainedProblem,
    starts: Sequence[np.ndarray],
    options: Optional[SolverOptions] = None,
) -> SolverResult:
    """Constrained minimization polished with SLSQP from explicit starts.

    This is the engine behind :func:`minimize_constrained`, exposed so the
    optimizer can supply its own starting points.  Every start is polished
    by the local driver (:func:`_slsqp_run`), in order, with bitwise the
    trajectory ``scipy.optimize.minimize`` would take; a ``single_basin``
    problem stops at the first feasible polish.  The best feasible value
    wins (strict ``<``, so ties keep the earlier start), and the
    random-search fallback runs when no polish is feasible.  A start
    whose run raises ``ValueError``, ``OverflowError`` or
    ``FloatingPointError`` is dropped; the others are unaffected.
    """
    options = options or SolverOptions()
    pin_blas_threads()
    best_x: Optional[np.ndarray] = None
    best_value = float("inf")
    any_success = False
    message = "no feasible solution found"
    # Clipping collapses starts that differ only outside the box (or only
    # in pinned coordinates) onto the same point; polishing a duplicate
    # start re-runs an identical SLSQP trajectory whose result the strict
    # best-value comparison would discard anyway.
    seen_starts: set = set()
    polished = 0
    for start in starts:
        start = problem.clip(np.asarray(start, dtype=float))
        key = start.tobytes()
        if key in seen_starts:
            continue
        seen_starts.add(key)
        polished += 1
        try:
            x, success, run_message = _slsqp_run(problem, start, options)
        except _RUN_ERRORS:
            continue
        if not problem.is_feasible(x, tolerance=1e-5):
            continue
        value = problem.objective(x)
        any_success = any_success or success
        if value < best_value:
            best_value = value
            best_x = x
            message = run_message
        if problem.single_basin and best_x is not None:
            # One basin: the first feasible local minimum is the minimum.
            break

    if best_x is None:
        fallback = _fallback_search(problem, options)
        if fallback is not None:
            best_x, best_value = fallback
            message = "fallback projected random search"
        else:
            # Last resort: return the most conservative corner (all lower bounds).
            best_x = problem.lows.copy()
            best_value = problem.objective(best_x)
            message = "no feasible point found; returned lower-bound corner"

    return SolverResult(
        x=np.asarray(best_x, dtype=float),
        value=float(best_value),
        feasible=problem.is_feasible(np.asarray(best_x)),
        success=any_success,
        message=message,
        starts_tried=polished,
    )


def minimize_constrained(
    problem: ConstrainedProblem, options: Optional[SolverOptions] = None
) -> SolverResult:
    """Multi-start constrained minimization of a smooth problem.

    Returns the best feasible local minimum found across all starting
    points; falls back to projected random search if every SLSQP run fails
    or returns an infeasible point.
    """
    options = options or SolverOptions()
    return minimize_from_starts(problem, _default_starts(problem, options), options)


# ----------------------------------------------------------------------
# Single-level tile-size optimization (Section 3/4 problems)
# ----------------------------------------------------------------------
def _single_level_problem(
    spec: ConvSpec, permutation: Sequence[str], capacity_elements: float
) -> ConstrainedProblem:
    """Build the Eq. 4-constrained volume-minimization problem of one permutation.

    The objective is the permutation's generated plan function
    (``volume_floats``, bitwise :func:`~repro.core.cost_model.volume_general`)
    and the constraint the capacity slack of the combined footprint,
    summed Out + In + Ker like
    :func:`~repro.core.cost_model.combined_footprint`.
    """
    volume = compiled_cost_for(
        tuple(permutation), stride=spec.stride, dilation=spec.dilation
    ).volume_floats
    extents = [float(spec.loop_extents[i]) for i in LOOP_INDICES]
    stride, dilation = spec.stride, spec.dilation
    scale = max(capacity_elements, 1.0)

    def objective(x: np.ndarray) -> float:
        return volume(extents, x.tolist())

    def capacity_constraint(x: np.ndarray) -> float:
        n, k, c, r, s, h, w = x.tolist()
        ext_h = (h - 1) * stride + (r - 1) * dilation + 1
        ext_w = (w - 1) * stride + (s - 1) * dilation + 1
        footprint = n * k * h * w + n * c * ext_h * ext_w + k * c * r * s
        return (capacity_elements - footprint) / scale

    return ConstrainedProblem(
        objective, (capacity_constraint,), tuple((1.0, e) for e in extents)
    )


def solve_single_level(
    spec: ConvSpec,
    permutation: Sequence[str],
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
) -> Tuple[TilingConfig, float]:
    """Optimal real-valued tile sizes for one permutation and one cache level.

    Minimizes the single-level data-movement volume of
    :func:`repro.core.cost_model.volume_general` subject to the capacity
    constraint (Eq. 4) and ``1 <= T_j <= N_j``.  Returns the (real-valued)
    optimal configuration and its modeled volume.
    """
    problem = _single_level_problem(spec, permutation, capacity_elements)
    result = minimize_constrained(problem, options)
    config = TilingConfig(permutation, result.as_tiles())
    return config, result.value


def solve_best_single_level(
    spec: ConvSpec,
    permutations: Sequence[Sequence[str]],
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
) -> Tuple[TilingConfig, float]:
    """Best single-level configuration across a set of candidate permutations."""
    best_config: Optional[TilingConfig] = None
    best_volume = float("inf")
    for permutation in permutations:
        config, volume = solve_single_level(
            spec, permutation, capacity_elements, options=options
        )
        if volume < best_volume:
            best_volume = volume
            best_config = config
    assert best_config is not None
    return best_config, best_volume
