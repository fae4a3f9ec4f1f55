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

Problems that carry a generated gradient (every MOpt optimizer problem)
or batched evaluators run SLSQP on a local driver over scipy's
reverse-communication kernel instead of ``scipy.optimize.minimize``: the
driver feeds the kernel exactly the values scipy's own loop would, so
every trajectory is bitwise scipy's, but each gradient is one
finite-difference evaluation of all probes of the point at once -- for
the MOpt problems, one call of generated code that recomputes per probe
only what the probed coordinate reaches and writes the difference
quotients straight into the kernel's buffers.

The problems involved are small — at most a few dozen variables — so a
multi-start local method reliably finds the same optima Ipopt would.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy
from scipy import optimize
from scipy.optimize._slsqplib import slsqp as _slsqp_kernel

from ..obs.metrics import REGISTRY
from .capacity import max_feasible_uniform_tile
from .config import TilingConfig
from .cost_model import (
    combined_footprint,
    compiled_cost_for,
    evaluator_compiles,
    volume_general,
)
from .tensor_spec import ConvSpec, LOOP_INDICES


@dataclass(frozen=True)
class SolverOptions:
    """Tunable knobs of the nonlinear solver.

    ``multistarts`` counts additional pseudo-random interior starting points
    on top of the deterministic ones; ``maxiter`` bounds each SLSQP run;
    ``fallback_samples`` bounds the derivative-free rescue search.
    ``polish_starts`` only affects problems that carry batched evaluators
    and declare neither ``single_basin`` nor ``polish_all`` — today the
    batched single-level problems of the exhaustive baseline; the MOpt
    optimizer's problems never consult it.  Every starting point is first
    pushed toward its basin floor by the batched refiner
    (:func:`_refine_scores`), and only the ``polish_starts`` best-refined
    starts get a full SLSQP polish.  Kept starts are polished from their
    *original* positions, so screening removes solver runs without
    altering any.  ``polish_starts=0`` polishes every start, reproducing
    the unscreened multistart run for run; the default of 2 preserves the
    argmin configuration in practice (the refiner, unlike raw start
    values, is a reliable basin ranker).
    """

    multistarts: int = 3
    maxiter: int = 150
    seed: int = 0
    fallback_samples: int = 300
    tolerance: float = 1e-7
    polish_starts: int = 2


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
    (low, high) pairs.

    ``batch_objective`` / ``batch_inequalities`` optionally evaluate many
    points at once (``(M, D) -> (M,)`` and ``(M, D) -> (M, C)``).  When
    present, the multistart driver screens starting points in one
    vectorized sweep and runs SLSQP on its own driver, where every
    gradient is one batched finite-difference sweep instead of scipy
    differencing the per-point callables one coordinate at a time.  The
    batched evaluators must agree with the per-point callables (the base
    value of each difference comes from the per-point callables and the
    probe values from the batched ones).

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
    variable cannot move to ``columns`` (:func:`_fused_gradient`).  The
    driver then runs SLSQP on the problem like on a batched one.  A
    problem with batched evaluators or a gradient has no inequalities or
    exactly one (vector-valued) inequality callable, with a
    ``batch_inequalities`` counterpart when it is batched.

    ``single_basin`` declares that the problem has (to solver tolerance) a
    single basin of attraction — e.g. the optimizer's epigraph min-max
    problems, whose objective and constraints are posynomial-like and
    hence near-convex in log coordinates.  The multistart driver then
    polishes starts *in order* and stops at the first feasible local
    minimum: every start leads to the same basin floor, so additional
    polishes cannot improve the result.  The policy never consults
    ``SolverOptions.polish_starts``, which makes the screened and exact
    solver modes identical by construction on such problems (the loss-free
    screening contract pinned by ``tests/test_differential.py``).

    ``polish_all`` is the opposite declaration for problems whose optimum
    sits on a near-flat ridge (e.g. the optimizer's hypothesis-refine
    problems, where the dominance boundary pins the objective): distinct
    polishes land on distinct ridge points whose downstream value differs
    far more than their objective values, so *every* start must be
    polished and the best kept.  Like ``single_basin`` it never consults
    ``SolverOptions.polish_starts`` — screened and exact modes again
    coincide by construction, this time by doing the exact mode's full
    work on a deliberately small start list.
    """

    objective: Callable[[np.ndarray], float]
    inequalities: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    bounds: Tuple[Tuple[float, float], ...]
    batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_inequalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    point: Optional[Callable[[np.ndarray], Tuple[float, List[float]]]] = None
    gradient: Optional[Callable[..., None]] = None
    single_basin: bool = False
    polish_all: bool = False
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
        batched = self.batch_objective is not None
        if (batched or self.gradient is not None) and self.inequalities and (
            len(self.inequalities) != 1 or (batched and self.batch_inequalities is None)
        ):
            raise ValueError(
                "a batched problem needs exactly one inequality callable "
                "with a batch_inequalities counterpart (or no inequalities)"
            )
        if (self.point is None) != (self.gradient is None):
            raise ValueError("a generated gradient comes with its point evaluation")
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

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Check bounds and inequality constraints at a point."""
        if np.any(x < self.lows - tolerance) or np.any(x > self.highs + tolerance):
            return False
        return all(np.min(np.atleast_1d(g(x))) >= -tolerance for g in self.inequalities)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point (or an ``(M, D)`` batch of points) into the bounds."""
        return np.minimum(np.maximum(x, self.lows), self.highs)

    def evaluate_batch(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective values and worst constraint violations at many points.

        Uses the batched evaluators when present, otherwise falls back to
        the scalar callables point-by-point.  Returns ``(values,
        violations)`` where ``violations[i] == 0`` iff the inequality
        constraints hold at ``points[i]`` (bounds are not re-checked; the
        callers pass clipped points).
        """
        points = np.asarray(points, dtype=float)
        if self.batch_objective is not None:
            values = np.asarray(self.batch_objective(points), dtype=float)
        else:
            values = np.array([self.objective(x) for x in points], dtype=float)
        if self.batch_inequalities is not None:
            cons = np.atleast_2d(np.asarray(self.batch_inequalities(points), dtype=float))
            worst = -np.min(cons, axis=-1)
        elif self.inequalities:
            worst = np.array(
                [
                    -min(
                        float(np.min(np.atleast_1d(g(x)))) for g in self.inequalities
                    )
                    for x in points
                ]
            )
        else:
            worst = np.zeros(len(points))
        return values, np.maximum(worst, 0.0)


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
# them (one per free variable of each differenced point).  Serving solves
# on threads, hence the lock.
_STATS = {"slsqp_runs": 0, "gradient_requests": 0, "probe_rows": 0}
_STATS_LOCK = threading.Lock()


def _count(runs: int = 0, requests: int = 0, rows: int = 0) -> None:
    with _STATS_LOCK:
        _STATS["slsqp_runs"] += runs
        _STATS["gradient_requests"] += requests
        _STATS["probe_rows"] += rows


def solver_stats() -> Dict[str, object]:
    """Counters of SLSQP activity in this process (for the stats probe),
    with the generated evaluator sources compiled (``evaluator_compiles``)
    and whether scipy's OpenBLAS runs on one thread
    (``blas_threads_pinned``, see :func:`pin_blas_threads`)."""
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
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
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


def _fd_sweep(
    problem: ConstrainedProblem,
    point: np.ndarray,
    probe: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Objective and constraint values at the probes of a problem with
    batched evaluators: one sweep of probe rows, one per free variable
    (the point's ``x + 0.0`` with that variable set to its probe value),
    through each batched evaluator."""
    free = problem.free
    rows = np.repeat((point + 0.0)[None, :], free.size, axis=0)
    rows[np.arange(free.size), free] = probe
    values = np.asarray(problem.batch_objective(rows), dtype=float)
    if not problem.inequalities:
        return values, None
    return values, np.asarray(problem.batch_inequalities(rows), dtype=float)


def _fd_gradient(problem: ConstrainedProblem, request: _Request) -> _Gradient:
    """Answer one gradient request of a batched problem by forward
    differences over the free variables (a pinned variable's derivative
    is zero and the driver drops it).

    The objective is differenced at the point and the constraints at its
    clipped copy, each probe value coming from one batched sweep
    (:func:`_fd_sweep`); each derivative is the probe value minus the
    base value over the realized step.
    """
    point, clipped, value, scale, cons = request
    probe, dx, exact = _fd_probe(problem, point)
    values, probe_cons = _fd_sweep(problem, point, probe)
    rows = dx.size
    grad = _slopes(values / scale - value / scale, dx, exact)
    if not problem.inequalities:
        _count(requests=1, rows=rows)
        return grad, None
    if clipped is not point:
        probe, dx, exact = _fd_probe(problem, clipped)
        _, probe_cons = _fd_sweep(problem, clipped, probe)
        rows += dx.size
    _count(requests=1, rows=rows)
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
    at a time gives (the rule :func:`_fd_gradient` applies to batched
    problems):

    * ``columns(X)`` applies :func:`_fd_probe`'s step rule to each free
      variable of the point ``X`` -- the absolute step, forward or (past
      the upper bound) backward, and :func:`_fd_steps` for a variable
      where that fast path fails (off the fast path it is elementwise,
      and it gives the fast step wherever the fast path holds, so mixing
      the two per variable changes no step).
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
        probes, entries = [], []
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
            probes.append(probe)
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
        _count(requests=1, rows=n if clipped is point else 2 * n)

    return answer


def _slsqp_run(
    problem: ConstrainedProblem, start: np.ndarray, options: SolverOptions
) -> _Outcome:
    """One SLSQP polish of ``start`` on scipy's kernel.

    This is the loop of scipy's ``_minimize_slsqp``, fed exactly the values
    ``scipy.optimize.minimize(method="SLSQP")`` would compute with the
    finite-difference jacobians of :func:`_fd_gradient` supplied as
    callables: the clipped start, the objective scaled by ``|f(x0)|``, the
    objective differenced at the iterate and the constraints at its
    clipped copy, with variables pinned by equal bounds removed from the
    problem (scipy removes them itself only when it differences, and a
    kept pinned variable would send SLSQP down a different trajectory).
    A problem with a generated gradient is evaluated by its ``point`` and
    answers each gradient request into the kernel's buffers
    (:func:`_fused_gradient`).

    Returns ``(x, success, message)`` with ``x`` clipped and expanded to
    the full dimension.  A problem with every variable pinned raises
    ``ValueError``, as scipy's loop fails on it.
    """
    _count(runs=1)
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

    objective = problem.objective
    inequality = problem.inequalities[0] if problem.inequalities else None
    if problem.point is not None:
        evaluate = problem.point

        def constraints_at(point: np.ndarray) -> List[float]:
            return problem.point(point)[1]

    else:

        def constraints_at(point: np.ndarray) -> np.ndarray:
            return np.asarray(inequality(point), dtype=float).reshape(-1)

        def evaluate(point: np.ndarray):
            value = objective(point)
            return value, constraints_at(point) if inequality is not None else ()

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
            clipped_cons = constraints_at(clipped) if inequality is not None else cons
        answer(point, clipped, value, scale, clipped_cons)

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
    return problem.clip(expand(x)), mode == 0, _EXIT_MODES[mode]


def _scipy_polish(
    problem: ConstrainedProblem, start: np.ndarray, options: SolverOptions
) -> Optional[_Outcome]:
    """One SLSQP polish through ``scipy.optimize.minimize`` (no batched
    evaluators: scipy differences the per-point callables itself)."""
    _count(runs=1)
    try:
        base = abs(problem.objective(start))
        scale = base if base > 0 else 1.0
        result = optimize.minimize(
            lambda x: problem.objective(x) / scale,
            start,
            method="SLSQP",
            bounds=problem.bounds,
            constraints=[{"type": "ineq", "fun": g} for g in problem.inequalities],
            options={"maxiter": options.maxiter, "ftol": options.tolerance},
        )
    except _RUN_ERRORS:
        return None
    x = problem.clip(np.asarray(result.x, dtype=float))
    return x, bool(result.success), str(result.message)


def _penalized_scores(
    problem: ConstrainedProblem, points: np.ndarray
) -> np.ndarray:
    """Log-objective plus violation penalty, batched: lower is better.

    The objectives involved span many orders of magnitude, so basins are
    compared on ``log`` scale; the constraint functions of the tile
    problems are normalized (capacities, extents), so a fixed penalty
    weight suffices to push the refiner toward feasibility.
    """
    values, violations = problem.evaluate_batch(points)
    values = np.nan_to_num(values, nan=np.inf, posinf=np.inf, neginf=-np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.maximum(values, 1e-300))
    logs = np.nan_to_num(logs, nan=np.inf, posinf=np.inf)
    return logs + 10.0 * violations


def _refine_scores(
    problem: ConstrainedProblem,
    starts: List[np.ndarray],
    *,
    iterations: int = 12,
) -> np.ndarray:
    """Descend every start toward its basin floor, batched, and score it.

    A projected-gradient search in log coordinates over *all* starts at
    once: each iteration takes one ``(S * (D + 1), D)`` forward-difference
    sweep through the problem's batched evaluators and one backtracking
    step per start.  The refined scores approximate each basin's floor far
    better than the raw start values (on the tile problems the
    initially-worst start frequently leads to the best local minimum), so
    ranking by them decides which starts deserve a full SLSQP polish.
    Returns the refined score per start; the starts themselves are not
    modified.
    """
    lows, highs = problem.lows, problem.highs
    log_lo = np.log(np.maximum(lows, 1e-12))
    log_hi = np.log(np.maximum(highs, 1e-12))
    span = np.maximum(log_hi - log_lo, 0.0)
    free = problem.free  # pinned variables cannot move
    if free.size == 0:
        return _penalized_scores(problem, np.stack(starts))

    Z = np.log(np.maximum(np.stack(starts), 1e-12))
    S, D = Z.shape
    scores = _penalized_scores(problem, np.exp(Z))
    step = np.full(S, 0.25)
    h = 1e-6
    probes_eye = np.zeros((free.size, D))
    probes_eye[np.arange(free.size), free] = h
    for _ in range(iterations):
        probes = Z[:, None, :] + probes_eye[None, :, :]
        flat = np.exp(np.clip(probes.reshape(S * free.size, D), log_lo, log_hi))
        probe_scores = _penalized_scores(problem, flat).reshape(S, free.size)
        grad = np.zeros((S, D))
        grad[:, free] = (probe_scores - scores[:, None]) / h
        grad = np.nan_to_num(grad, nan=0.0, posinf=0.0, neginf=0.0)
        norm = np.max(np.abs(grad), axis=1)
        direction = grad / np.maximum(norm, 1e-12)[:, None]
        moved = False
        for _attempt in range(2):
            trial = np.clip(Z - (step[:, None] * span[None, :]) * direction, log_lo, log_hi)
            trial_scores = _penalized_scores(problem, np.exp(trial))
            better = trial_scores < scores
            if better.any():
                Z[better] = trial[better]
                scores[better] = trial_scores[better]
                step[better] = np.minimum(step[better] * 1.3, 0.5)
                moved = True
            step[~better] *= 0.5
            if better.all():
                break
        if not moved and (step < 1e-4).all():
            break
    return scores




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

    When the problem carries batched evaluators every sample is generated
    and scored in one vectorized sweep; the sample stream and the selection
    rule (first minimum among feasible points) are identical to the scalar
    loop, so both paths rescue the same point.
    """
    rng = np.random.default_rng(options.seed + 1)
    lows, highs = problem.lows, problem.highs
    log_lo = np.log(np.maximum(lows, 1e-9))
    log_hi = np.log(np.maximum(highs, 1e-9))

    if problem.batch_objective is not None:
        # Sample log-uniformly: tile-size objectives vary over orders of magnitude.
        u = rng.uniform(size=(options.fallback_samples, len(lows)))
        points = problem.clip(np.exp(log_lo + u * (log_hi - log_lo)))
        values, violations = problem.evaluate_batch(points)
        feasible = violations <= 1e-6
        if not feasible.any():
            return None
        values = np.where(feasible, values, np.inf)
        index = int(np.argmin(values))
        return points[index], float(values[index])

    best: Optional[Tuple[np.ndarray, float]] = None
    for _ in range(options.fallback_samples):
        u = rng.uniform(size=len(lows))
        x = np.exp(log_lo + u * (log_hi - log_lo))
        x = problem.clip(x)
        if not problem.is_feasible(x):
            continue
        value = problem.objective(x)
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
    optimizer can supply its own starting points.  Relative to the plain
    per-point loop:

    * for problems carrying batched evaluators, when
      ``options.polish_starts`` is positive and smaller than the number of
      starts (and the problem declares neither ``single_basin`` nor
      ``polish_all``), all starts are scored in one vectorized sweep and
      only the most promising ones are polished;
    * for problems carrying batched evaluators or a generated
      ``gradient``, SLSQP runs on the local driver (:func:`_slsqp_run`)
      over scipy's kernel, with bitwise the trajectory
      ``scipy.optimize.minimize`` would take, where each gradient is one
      finite-difference evaluation of all probes (:func:`_fd_gradient`,
      :func:`_fused_gradient`) instead of ``D + 1`` Python-level
      evaluations.

    Other problems go through ``scipy.optimize.minimize`` with scipy's
    own differencing.  The rest —
    objective scaling, bound clipping, feasibility filtering, best-value
    selection in start order (strict ``<``, so ties keep the earlier
    start) and the random-search fallback — is the same for both paths.
    A start whose run raises ``ValueError``, ``OverflowError`` or
    ``FloatingPointError`` is dropped; the others are unaffected.
    """
    options = options or SolverOptions()
    pin_blas_threads()
    starts = [problem.clip(np.asarray(s, dtype=float)) for s in starts]
    # Clipping collapses starts that differ only outside the box (or only
    # in pinned coordinates) onto the same point; polishing a duplicate
    # start re-runs an identical SLSQP trajectory whose result the strict
    # best-value comparison below would discard anyway, so dropping
    # duplicates is loss-free on every path.
    seen_starts: set = set()
    deduped: List[np.ndarray] = []
    for candidate in starts:
        key = candidate.tobytes()
        if key not in seen_starts:
            seen_starts.add(key)
            deduped.append(candidate)
    starts = deduped
    batched = problem.batch_objective is not None
    driven = batched or problem.gradient is not None
    # Screening: rank basins by the batched refiner, polish only the most
    # promising starts up front, and keep the rest as rescue candidates.
    # Kept starts are polished from their *original* positions, so a kept
    # start produces exactly the SLSQP run the scalar multistart would.
    # Single-basin problems skip the refiner entirely: their loss-free
    # policy (first feasible polish wins) lives in the polish loop below.
    screened_out: List[Tuple[np.ndarray, float]] = []
    if (
        not problem.single_basin
        and not problem.polish_all
        and batched
        and 0 < options.polish_starts < len(starts)
    ):
        scores = _refine_scores(problem, starts)
        order = np.argsort(scores, kind="stable")
        screened_out = [
            (starts[i], float(scores[i])) for i in order[options.polish_starts :]
        ]
        starts = [starts[i] for i in order[: options.polish_starts]]

    def polish(start: np.ndarray) -> Optional[_Outcome]:
        if not driven:
            return _scipy_polish(problem, start, options)
        try:
            return _slsqp_run(problem, start, options)
        except _RUN_ERRORS:
            return None

    best_x: Optional[np.ndarray] = None
    best_value = float("inf")
    any_success = False
    message = "no feasible solution found"

    def keep_best(outcome: Optional[_Outcome]) -> None:
        nonlocal best_x, best_value, any_success, message
        if outcome is None:
            return
        x, success, run_message = outcome
        if not problem.is_feasible(x, tolerance=1e-5):
            return
        value = problem.objective(x)
        any_success = any_success or success
        if value < best_value:
            best_value = value
            best_x = x
            message = run_message

    polished = 0
    for start in starts:
        keep_best(polish(start))
        polished += 1
        if problem.single_basin and not problem.polish_all and best_x is not None:
            # One basin: the first feasible local minimum is the minimum.
            break

    # Adaptive rescue for screened-out starts.  (a) If no kept run produced
    # a feasible point, polish the remainder so screening can never flip
    # the caller's feasible/relaxed decision relative to polishing all
    # starts.  (b) A discarded start whose refined (penalized log) score is
    # clearly below the best polished value sits in a basin whose floor
    # beats everything found so far — it must be polished, not skipped.
    # The 2% log-margin keeps noise-level score differences from triggering
    # polishes that cannot meaningfully improve the result.
    for start, score in screened_out:
        if best_x is None or score < float(np.log(max(best_value, 1e-300))) - 0.02:
            keep_best(polish(start))
            polished += 1

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
    spec: ConvSpec,
    permutation: Sequence[str],
    capacity_elements: float,
    *,
    line_size: int = 1,
    vectorized: bool = False,
) -> ConstrainedProblem:
    """Build the Eq. 4-constrained volume-minimization problem of one permutation.

    With ``vectorized=True`` (and element-granularity modeling; the
    cache-line extension of Section 12 has no batched form) the problem
    also carries batched evaluators backed by a
    :class:`~repro.core.batched.BatchedCostTable`, enabling start screening
    and batched jacobians in :func:`minimize_from_starts`.
    """
    extents = spec.loop_extents
    problem_map = {i: float(extents[i]) for i in LOOP_INDICES}
    bounds = tuple((1.0, float(extents[i])) for i in LOOP_INDICES)

    def tiles_of(x: np.ndarray) -> Dict[str, float]:
        return {index: float(v) for index, v in zip(LOOP_INDICES, x)}

    def objective(x: np.ndarray) -> float:
        config = TilingConfig(permutation, tiles_of(x))
        return volume_general(
            problem_map,
            config,
            stride=spec.stride,
            dilation=spec.dilation,
            line_size=line_size,
        )

    def capacity_constraint(x: np.ndarray) -> float:
        footprint = combined_footprint(
            tiles_of(x), stride=spec.stride, dilation=spec.dilation
        )
        return (capacity_elements - footprint) / max(capacity_elements, 1.0)

    batch_objective = None
    batch_inequalities = None
    if vectorized and line_size == 1:
        compiled = compiled_cost_for(
            tuple(permutation), stride=spec.stride, dilation=spec.dilation
        )
        extents_row = np.array([problem_map[i] for i in LOOP_INDICES], dtype=float)
        scale = max(capacity_elements, 1.0)
        stride, dilation = spec.stride, spec.dilation

        def batch_objective(points: np.ndarray) -> np.ndarray:
            return compiled.volume_rows(extents_row, np.asarray(points, dtype=float))

        def batch_inequalities(points: np.ndarray) -> np.ndarray:
            t = np.asarray(points, dtype=float)
            # Mirrors combined_footprint's Out + In + Ker summation order so
            # the batched constraint is bitwise-equal to the scalar one.
            ext_h = (t[:, 5] - 1) * stride + (t[:, 3] - 1) * dilation + 1
            ext_w = (t[:, 6] - 1) * stride + (t[:, 4] - 1) * dilation + 1
            footprints = (
                t[:, 0] * t[:, 1] * t[:, 5] * t[:, 6]
                + t[:, 0] * t[:, 2] * ext_h * ext_w
                + t[:, 1] * t[:, 2] * t[:, 3] * t[:, 4]
            )
            return ((capacity_elements - footprints) / scale)[:, None]

    return ConstrainedProblem(
        objective,
        (capacity_constraint,),
        bounds,
        batch_objective=batch_objective,
        batch_inequalities=batch_inequalities,
    )


def solve_single_level(
    spec: ConvSpec,
    permutation: Sequence[str],
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
    line_size: int = 1,
    vectorized: bool = False,
) -> Tuple[TilingConfig, float]:
    """Optimal real-valued tile sizes for one permutation and one cache level.

    Minimizes the single-level data-movement volume of
    :func:`repro.core.cost_model.volume_general` subject to the capacity
    constraint (Eq. 4) and ``1 <= T_j <= N_j``.  Returns the (real-valued)
    optimal configuration and its modeled volume.  ``vectorized=True``
    routes the multistart through the batched evaluation core.
    """
    problem = _single_level_problem(
        spec,
        permutation,
        capacity_elements,
        line_size=line_size,
        vectorized=vectorized,
    )
    result = minimize_constrained(problem, options)
    config = TilingConfig(permutation, result.as_tiles())
    return config, result.value


def solve_single_level_batch(
    spec: ConvSpec,
    permutations: Sequence[Sequence[str]],
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
    line_size: int = 1,
) -> List[Tuple[TilingConfig, float]]:
    """Single-level solves for many permutations through the batched core.

    All permutations share the same bounds and capacity constraint, so the
    multistart pool is generated once and reused for every permutation;
    each permutation's solve runs through
    :func:`minimize_from_starts`, whose batched refiner (and adaptive
    rescue of screened-out starts) decides which starts deserve an SLSQP
    polish — raw start-point values are *not* a reliable ranking on these
    problems.  Returns one ``(config, volume)`` pair per permutation, in
    input order.
    """
    options = options or SolverOptions()
    perms = tuple(tuple(p) for p in permutations)
    if not perms:
        return []
    if line_size > 1:
        # The cache-line extension has no batched form; fall back per permutation.
        return [
            solve_single_level(
                spec, p, capacity_elements, options=options, line_size=line_size
            )
            for p in perms
        ]
    problems = [
        _single_level_problem(
            spec, p, capacity_elements, line_size=line_size, vectorized=True
        )
        for p in perms
    ]
    starts = _default_starts(problems[0], options)
    results: List[Tuple[TilingConfig, float]] = []
    for permutation, problem in zip(perms, problems):
        result = minimize_from_starts(problem, starts, options)
        results.append((TilingConfig(permutation, result.as_tiles()), result.value))
    return results


def solve_best_single_level(
    spec: ConvSpec,
    permutations: Sequence[Sequence[str]],
    capacity_elements: float,
    *,
    options: Optional[SolverOptions] = None,
    line_size: int = 1,
    vectorized: bool = True,
) -> Tuple[TilingConfig, float]:
    """Best single-level configuration across a set of candidate permutations."""
    if vectorized:
        solutions = solve_single_level_batch(
            spec, permutations, capacity_elements, options=options, line_size=line_size
        )
    else:
        solutions = [
            solve_single_level(
                spec, p, capacity_elements, options=options, line_size=line_size
            )
            for p in permutations
        ]
    best_config: Optional[TilingConfig] = None
    best_volume = float("inf")
    for config, volume in solutions:
        if volume < best_volume:
            best_volume = volume
            best_config = config
    assert best_config is not None
    return best_config, best_volume
