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

Problems that carry batched evaluators (every MOpt optimizer problem) run
SLSQP on a local driver over scipy's reverse-communication kernel instead
of ``scipy.optimize.minimize``: the driver feeds the kernel exactly the
values scipy's own loop would, so every trajectory is bitwise scipy's,
but each gradient is one batched finite-difference sweep, and the starts
of a ``polish_all`` problem advance in lockstep so all of their waiting
gradients share one sweep.

The problems involved are small — at most a few dozen variables — so a
multi-start local method reliably finds the same optima Ipopt would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize
from scipy.optimize._slsqplib import slsqp as _slsqp_kernel

from ..obs.metrics import REGISTRY
from .capacity import max_feasible_uniform_tile
from .config import TilingConfig
from .cost_model import combined_footprint, compiled_cost_for, volume_general
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
    differencing the per-point callables one coordinate at a time — every
    MOpt optimizer problem carries them.  A batched problem has either no
    inequalities or exactly one (vector-valued) inequality callable with a
    ``batch_inequalities`` counterpart.  The batched evaluators must agree
    with the per-point callables (bitwise, for the optimizer's problems:
    the base row of each sweep comes from the per-point callables and the
    probe rows from the batched ones), and each row of their result must
    depend on that row's point only: lockstep polishes stack the probe
    rows of several SLSQP runs into one call.

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
    work on a deliberately small start list.  Because every start is
    polished anyway, a batched ``polish_all`` problem polishes them in
    lockstep: the runs advance together and each round of gradient
    requests is one shared finite-difference sweep.  The best result is
    still picked in start order, so it equals polishing each start alone.
    """

    objective: Callable[[np.ndarray], float]
    inequalities: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    bounds: Tuple[Tuple[float, float], ...]
    batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_inequalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    single_basin: bool = False
    polish_all: bool = False
    #: Per-variable bounds as arrays, built once from ``bounds``.
    lows: np.ndarray = field(init=False, repr=False, compare=False)
    highs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.batch_objective is not None and self.inequalities and (
            self.batch_inequalities is None or len(self.inequalities) != 1
        ):
            raise ValueError(
                "a batched problem needs exactly one inequality callable "
                "with a batch_inequalities counterpart (or no inequalities)"
            )
        object.__setattr__(
            self, "lows", np.array([b[0] for b in self.bounds], dtype=float)
        )
        object.__setattr__(
            self, "highs", np.array([b[1] for b in self.bounds], dtype=float)
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
# runs asked for, and the batched finite-difference sweeps that served
# them (fewer sweeps than requests means lockstep runs shared sweeps).
# Serving solves on threads, hence the lock.
_STATS = {"slsqp_runs": 0, "gradient_requests": 0, "fd_sweeps": 0}
_STATS_LOCK = threading.Lock()


def _count(runs: int, requests: int = 0, sweeps: int = 0) -> None:
    with _STATS_LOCK:
        _STATS["slsqp_runs"] += runs
        _STATS["gradient_requests"] += requests
        _STATS["fd_sweeps"] += sweeps


def solver_stats() -> Dict[str, int]:
    """Counters of SLSQP activity in this process (for the stats probe)."""
    with _STATS_LOCK:
        return dict(_STATS)


REGISTRY.register_collector("solver", solver_stats)


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


#: A gradient request: the point whose objective is differenced and the
#: point whose constraints are (the same object unless clipping moved it).
_Request = Tuple[np.ndarray, np.ndarray]
#: Its answer: objective probe values ``(D,)`` and steps ``(D,)``, then
#: constraint probe values ``(D, C)`` (``None`` without constraints) and
#: steps ``(D,)``.
_Sweep = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]
#: One finished polish: ``(x, success, message)``.
_Outcome = Tuple[np.ndarray, bool, str]


def _fd_sweep(problem: ConstrainedProblem, requests: Sequence[_Request]) -> List[_Sweep]:
    """Answer many gradient requests with one batched evaluation.

    Every requested point contributes its ``D`` forward-difference probe
    rows (``x + diag(h)``) to one stacked matrix, which goes through
    ``batch_objective`` and ``batch_inequalities`` once each.  The base
    rows are not part of the sweep: the runs already hold the per-point
    values at their iterates.
    """
    points: List[np.ndarray] = []
    slots: List[Tuple[int, int]] = []
    for objective_point, constraint_point in requests:
        row = len(points)
        points.append(objective_point)
        if constraint_point is not objective_point:
            points.append(constraint_point)
        slots.append((row, len(points) - 1))
    stacked = np.stack(points)
    count, dim = stacked.shape
    h, dx = _fd_steps(stacked, problem.lows, problem.highs)
    diagonal = np.arange(dim)
    steps = np.zeros((count, dim, dim))
    steps[:, diagonal, diagonal] = h
    probes = (stacked[:, None, :] + steps).reshape(count * dim, dim)
    values = np.asarray(problem.batch_objective(probes), dtype=float).reshape(
        count, dim
    )
    cons = None
    if problem.inequalities:
        cons = np.asarray(problem.batch_inequalities(probes), dtype=float).reshape(
            count, dim, -1
        )
    return [
        (values[o], dx[o], None if cons is None else cons[c], dx[c])
        for o, c in slots
    ]


def _slsqp_run(
    problem: ConstrainedProblem, start: np.ndarray, options: SolverOptions
) -> Generator[_Request, _Sweep, _Outcome]:
    """One SLSQP polish of ``start`` on scipy's kernel, as a generator.

    This is the loop of scipy's ``_minimize_slsqp``, fed exactly the values
    ``scipy.optimize.minimize(method="SLSQP")`` would compute with the
    batched jacobians supplied as callables: the clipped start, the
    objective scaled by ``|f(x0)|``, the objective differenced at the
    iterate and the constraints at its clipped copy, with variables pinned
    by equal bounds removed from the problem (scipy removes them itself
    only when it differences, and a kept pinned variable would send SLSQP
    down a different trajectory).  Pinned columns get a zero derivative.

    Every gradient is a request yielded to the caller, which answers it
    with a :func:`_fd_sweep` entry — possibly one shared with other runs.
    Returns ``(x, success, message)`` with ``x`` clipped and expanded to
    the full dimension.  A problem with every variable pinned raises
    ``ValueError``, as scipy's loop fails on it.
    """
    lows, highs = problem.lows, problem.highs
    free = lows != highs
    if not free.any():
        raise ValueError("every variable is pinned by its bounds")
    reduce_vars = not free.all()
    xl, xu = lows[free], highs[free]
    # The kernel reads a NaN bound as "unbounded" (scipy's marking of
    # infinite bounds).
    xl_kernel = np.where(np.isfinite(xl), xl, np.nan)
    xu_kernel = np.where(np.isfinite(xu), xu, np.nan)
    pinned_template = np.where(free, 0.0, lows)

    def expand(reduced: np.ndarray) -> np.ndarray:
        if not reduce_vars:
            return reduced.copy()
        full = pinned_template.copy()
        full[free] = reduced
        return full

    objective = problem.objective
    inequality = problem.inequalities[0] if problem.inequalities else None

    def constraints_at(point: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(inequality(point), dtype=float)).ravel()

    x = np.clip(start[free], xl, xu)
    point = expand(x)
    evaluated = x.tobytes()
    value = objective(point)
    base = abs(value)
    scale = base if base > 0 else 1.0
    fx = value / scale
    cons = constraints_at(point) if inequality is not None else np.zeros(0)

    def gradient():
        # Objective differenced at the iterate, constraints at its clipped
        # copy: scipy clips before differencing constraint callables only.
        clipped = problem.clip(point)
        if clipped.tobytes() == point.tobytes():
            clipped, clipped_cons = point, cons
        else:
            clipped_cons = constraints_at(clipped) if inequality is not None else cons
        values, dx, probe_cons, cons_dx = yield (point, clipped)
        pinned = dx == 0.0
        scaled = np.concatenate(([float(value)], values)) / scale
        grad = np.where(
            pinned, 0.0, (scaled[1:] - scaled[0]) / np.where(pinned, 1.0, dx)
        )
        jac = None
        if probe_cons is not None:
            pinned = cons_dx == 0.0
            jac = np.where(
                pinned[:, None],
                0.0,
                (probe_cons - clipped_cons) / np.where(pinned, 1.0, cons_dx)[:, None],
            ).T
        if reduce_vars:
            grad = grad[free]
            jac = None if jac is None else jac[:, free]
        return grad, jac

    n, m = x.size, cons.size
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
    jac_matrix = np.zeros((max(1, m), n), dtype=np.float64, order="F")
    slack = np.zeros(max(1, m), dtype=np.float64)
    slack[:m] = cons
    grad, jac = yield from gradient()
    if m:
        jac_matrix[:m, :] = jac
    while True:
        _slsqp_kernel(
            state, fx, grad, jac_matrix, slack, x, mult, xl_kernel, xu_kernel,
            buffer, indices,
        )
        mode = state["mode"]
        if mode == 1 or (mode == -1 and x.tobytes() != evaluated):
            point = expand(x)
            evaluated = x.tobytes()
            value = objective(point)
            if inequality is not None:
                cons = constraints_at(point)
            if mode == 1:
                fx = value / scale
                slack[:m] = cons
        if mode == -1:
            grad, jac = yield from gradient()
            if m:
                jac_matrix[:m, :] = jac
        elif mode != 1:
            break
    return problem.clip(expand(x)), mode == 0, _EXIT_MODES[mode]


def _slsqp_lockstep(
    problem: ConstrainedProblem,
    starts: Sequence[np.ndarray],
    options: SolverOptions,
) -> List[Optional[_Outcome]]:
    """Polish every start on the driver, advancing the runs together.

    Whenever the live runs wait on gradients, all of their requests go
    through one :func:`_fd_sweep`.  Each run's trajectory is exactly its
    solo trajectory (sweep rows are independent of one another).  A run
    that raises one of :data:`_RUN_ERRORS` drops only its own start; so
    does a failing shared sweep, which is retried request by request to
    find the runs it belongs to.  Returns one ``(x, success, message)``
    per start, in start order, or ``None`` for a dropped start.
    """
    outcomes: List[Optional[_Outcome]] = [None] * len(starts)
    waiting: Dict[int, Tuple[Generator, _Request]] = {}
    requests = sweeps = 0

    def advance(index: int, run: Generator, answer: Optional[_Sweep]) -> None:
        nonlocal requests
        try:
            request = run.send(answer)
        except StopIteration as done:
            outcomes[index] = done.value
        except _RUN_ERRORS:
            pass
        else:
            requests += 1
            waiting[index] = (run, request)

    for index, start in enumerate(starts):
        advance(index, _slsqp_run(problem, start, options), None)
    while waiting:
        batch = list(waiting.items())
        waiting.clear()
        answers: List[Optional[_Sweep]] = [None] * len(batch)
        try:
            sweeps += 1
            answers[:] = _fd_sweep(problem, [request for _, (_, request) in batch])
        except _RUN_ERRORS:
            if len(batch) > 1:
                for position, (_, (_, request)) in enumerate(batch):
                    try:
                        sweeps += 1
                        answers[position] = _fd_sweep(problem, [request])[0]
                    except _RUN_ERRORS:
                        pass
        for (index, (run, _)), answer in zip(batch, answers):
            if answer is None:
                run.close()
            else:
                advance(index, run, answer)
    _count(len(starts), requests, sweeps)
    return outcomes


def _scipy_polish(
    problem: ConstrainedProblem, start: np.ndarray, options: SolverOptions
) -> Optional[_Outcome]:
    """One SLSQP polish through ``scipy.optimize.minimize`` (no batched
    evaluators: scipy differences the per-point callables itself)."""
    _count(1)
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
    free = np.nonzero(lows != highs)[0]  # pinned variables cannot move
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
    optimizer can supply its own starting points.  For problems carrying
    batched evaluators three things change relative to the plain per-point
    loop:

    * when ``options.polish_starts`` is positive and smaller than the
      number of starts (and the problem declares neither ``single_basin``
      nor ``polish_all``), all starts are scored in one vectorized sweep
      and only the most promising ones are polished;
    * SLSQP runs on the local driver (:func:`_slsqp_run`) over scipy's
      kernel, with bitwise the trajectory ``scipy.optimize.minimize``
      would take, where each gradient is one batched finite-difference
      sweep instead of ``D + 1`` Python-level evaluations;
    * the starts of a ``polish_all`` problem are polished in lockstep
      (:func:`_slsqp_lockstep`): whenever runs wait on gradients, all of
      their probe rows go through one batched call.

    Problems without batched evaluators go through
    ``scipy.optimize.minimize`` with scipy's own differencing.  The rest —
    objective scaling, bound clipping, feasibility filtering, best-value
    selection in start order (strict ``<``, so ties keep the earlier
    start) and the random-search fallback — is the same for both paths.
    A start whose run raises ``ValueError``, ``OverflowError`` or
    ``FloatingPointError`` is dropped; the others are unaffected.
    """
    options = options or SolverOptions()
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

    def polish(batch: Sequence[np.ndarray]) -> List[Optional[_Outcome]]:
        if batched:
            return _slsqp_lockstep(problem, batch, options)
        return [_scipy_polish(problem, start, options) for start in batch]

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
    if problem.polish_all:
        for outcome in polish(starts):
            keep_best(outcome)
        polished = len(starts)
    else:
        for start in starts:
            keep_best(polish([start])[0])
            polished += 1
            if problem.single_basin and best_x is not None:
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
            keep_best(polish([start])[0])
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
