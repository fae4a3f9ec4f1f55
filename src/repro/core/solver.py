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

The problems involved are small — at most a few dozen variables — so a
multi-start local method reliably finds the same optima Ipopt would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

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
    vectorized sweep and supplies SLSQP with batched finite-difference
    jacobians instead of letting scipy difference the per-point callables
    one coordinate at a time — every MOpt optimizer problem carries them.
    They must agree with the per-point callables (bitwise, for the
    optimizer's problems: the base row of each sweep comes from the
    per-point callables and the probe rows from the batched ones).

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
    single_basin: bool = False
    polish_all: bool = False

    @property
    def dimension(self) -> int:
        """Number of optimization variables."""
        return len(self.bounds)

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Check bounds and inequality constraints at a point."""
        for value, (low, high) in zip(x, self.bounds):
            if value < low - tolerance or value > high + tolerance:
                return False
        return all(np.min(np.atleast_1d(g(x))) >= -tolerance for g in self.inequalities)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point (or an ``(M, D)`` batch of points) into the bounds."""
        lows = np.array([b[0] for b in self.bounds])
        highs = np.array([b[1] for b in self.bounds])
        return np.minimum(np.maximum(x, lows), highs)

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


def _scaled(problem: ConstrainedProblem, x0: np.ndarray) -> ConstrainedProblem:
    """Rescale the objective so SLSQP sees O(1) values (helps convergence)."""
    base = abs(problem.objective(x0))
    scale = base if base > 0 else 1.0

    def objective(x: np.ndarray) -> float:
        return problem.objective(x) / scale

    return ConstrainedProblem(objective, problem.inequalities, problem.bounds)


#: Relative step of scipy's default '2-point' finite differences.
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def _batched_fd_jacobians(problem: ConstrainedProblem):
    """Objective/constraint jacobians via one batched forward-difference sweep.

    Replicates scipy's default ``2-point`` scheme — the ``sqrt(eps) *
    max(1, |x|)`` step and the one-sided bounds adjustment of
    ``scipy.optimize._numdiff`` — but evaluates all ``D + 1`` probe points
    through the problem's batched evaluators in a single call instead of
    ``D + 1`` Python-level evaluations per gradient.  Columns whose
    variables are pinned (equal bounds give a zero step) get a zero
    derivative; scipy leaves them 0/0, which SLSQP ignores for the same
    reason (the variable cannot move).

    Returns ``fd(x) -> (values, cons, dx)`` — the raw sweep — with a small
    memo so the objective-jacobian and constraint-jacobian callbacks SLSQP
    invokes at the same iterate share one evaluation.  Variables pinned by
    equal bounds get a zero step; the resulting 0/0 derivatives are
    replaced by 0 in the jacobian wrappers.  (scipy's internal
    differencing leaves them NaN, which its driver happens to tolerate —
    but the same NaNs in *explicitly supplied* jacobians abort SLSQP with
    "inequality constraints incompatible", while zeros reproduce the
    internal-differencing trajectory bit for bit: the pinned variables
    cannot move either way.)
    """
    lows = np.array([b[0] for b in problem.bounds], dtype=float)
    highs = np.array([b[1] for b in problem.bounds], dtype=float)
    cache: Dict[bytes, Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]] = {}

    def fd(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = cache.get(key)
        if hit is not None:
            return hit
        # SLSQP differences with the *absolute* step of its ``eps`` option
        # (default sqrt(machine eps), unsigned), falling back to the signed
        # relative step only where the absolute one underflows.
        sign = np.where(x >= 0, 1.0, -1.0)
        h = np.full_like(x, _SQRT_EPS)
        underflow = (x + h) - x == 0.0
        if underflow.any():
            h = np.where(underflow, _SQRT_EPS * sign * np.maximum(1.0, np.abs(x)), h)
        probe = x + h
        violated = (probe < lows) | (probe > highs)
        fitting = np.abs(h) <= np.maximum(x - lows, highs - x)
        h = np.where(violated & fitting, -h, h)
        upper, lower = highs - x, x - lows
        h = np.where((upper >= lower) & ~fitting, upper, h)
        h = np.where((upper < lower) & ~fitting, -lower, h)
        dx = (x + h) - x
        # The base row comes from the scalar callables: SLSQP has already
        # evaluated (and memoized) the objective/constraints at the current
        # iterate, and the per-point values are bitwise-equal to the
        # batched ones by construction — so the sweep only needs the D
        # probe points.
        points = x[None, :] + np.diag(h)
        base_value = float(problem.objective(x))
        probe_values = np.asarray(problem.batch_objective(points), dtype=float)
        values = np.concatenate(([base_value], probe_values))
        cons: Optional[np.ndarray] = None
        if problem.batch_inequalities is not None:
            base_cons = np.atleast_1d(
                np.asarray(problem.inequalities[0](x), dtype=float)
            )
            probe_cons = np.atleast_2d(
                np.asarray(problem.batch_inequalities(points), dtype=float)
            )
            cons = np.concatenate((base_cons[None, :], probe_cons))
        if len(cache) > 64:
            cache.clear()
        cache[key] = (values, cons, dx)
        return values, cons, dx

    return fd


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
    lows = np.array([b[0] for b in problem.bounds], dtype=float)
    highs = np.array([b[1] for b in problem.bounds], dtype=float)
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
    lows = np.array([b[0] for b in problem.bounds], dtype=float)
    highs = np.array([b[1] for b in problem.bounds], dtype=float)
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
    lows = np.array([b[0] for b in problem.bounds], dtype=float)
    highs = np.array([b[1] for b in problem.bounds], dtype=float)
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
    batched evaluators two things change relative to the plain per-point
    loop:

    * when ``options.polish_starts`` is positive and smaller than the
      number of starts, all starts are scored in one vectorized sweep and
      only the most promising ones are polished;
    * each SLSQP run receives batched finite-difference jacobians for the
      objective and the (single, vector-valued) inequality callable, so a
      gradient costs one vectorized evaluation instead of ``D + 1``
      Python-level ones.

    The per-start polish itself — objective scaling, bound clipping,
    feasibility filtering, best-value selection and the random-search
    fallback — is the same code for both paths.
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

    best_x: Optional[np.ndarray] = None
    best_value = float("inf")
    any_success = False
    message = "no feasible solution found"

    jacobian = None
    constraint_jac = None
    # When any variable is pinned by equal bounds, scipy's driver removes it
    # from the problem before SLSQP runs — but only when it has to compute a
    # finite-difference jacobian itself.  Supplying jacobians would silently
    # switch SLSQP to the full-dimensional problem and a different
    # trajectory, so the same reduction is replicated here: SLSQP solves
    # over the free variables only, and solutions are re-expanded.  It only
    # applies when *both* jacobians are supplied (single vector-valued
    # inequality with a batched evaluator): with any jacobian left to
    # scipy, scipy performs its own reduction — and a local reduction
    # would hand reduced-dimension vectors to unwrapped constraint
    # callables.
    supplies_both_jacobians = (
        batched
        and problem.batch_inequalities is not None
        and len(problem.inequalities) == 1
    )
    lows_arr = np.array([b[0] for b in problem.bounds], dtype=float)
    highs_arr = np.array([b[1] for b in problem.bounds], dtype=float)
    fixed_mask = lows_arr == highs_arr
    reduce_vars = supplies_both_jacobians and bool(fixed_mask.any())
    if reduce_vars:
        free_mask = ~fixed_mask
        fixed_values = lows_arr[fixed_mask]
        slsqp_bounds = tuple(
            b for b, keep in zip(problem.bounds, free_mask) if keep
        )

        def expand(reduced: np.ndarray) -> np.ndarray:
            full = np.empty(len(fixed_mask), dtype=float)
            full[fixed_mask] = fixed_values
            full[free_mask] = reduced
            return full

    else:
        slsqp_bounds = problem.bounds

        def expand(reduced: np.ndarray) -> np.ndarray:
            return np.asarray(reduced, dtype=float)

    if batched:
        fd = _batched_fd_jacobians(problem)
        if supplies_both_jacobians:

            # scipy's internal constraint differencing clips the iterate into
            # the bounds before the sweep; mirror it for exact equivalence.
            def constraint_jac(x, _fd=fd):
                full = problem.clip(expand(np.asarray(x, dtype=float)))
                _, cons, dx = _fd(full)
                pinned = dx == 0.0
                safe_dx = np.where(pinned, 1.0, dx)
                jac_full = np.where(
                    pinned[:, None], 0.0, (cons[1:] - cons[0:1]) / safe_dx[:, None]
                ).T
                return jac_full[:, free_mask] if reduce_vars else jac_full

    constraints = [{"type": "ineq", "fun": g} for g in problem.inequalities]
    if constraint_jac is not None:
        if reduce_vars:
            def reduced_inequality(x):
                return problem.inequalities[0](expand(np.asarray(x, dtype=float)))
        else:
            reduced_inequality = problem.inequalities[0]
        constraints = [
            {"type": "ineq", "fun": reduced_inequality, "jac": constraint_jac}
        ]
    def polish(start: np.ndarray) -> None:
        nonlocal best_x, best_value, any_success, message
        scaled = _scaled(problem, start)
        if reduce_vars:
            def slsqp_fun(x, _f=scaled.objective):
                return _f(expand(np.asarray(x, dtype=float)))
        else:
            slsqp_fun = scaled.objective
        slsqp_start = start[free_mask] if reduce_vars else start
        jacobian = None
        if batched:
            base = abs(problem.objective(start))
            scale = base if base > 0 else 1.0

            # Difference the *scaled* values, exactly as scipy's internal
            # 2-point scheme differences the scaled objective it is given.
            def jacobian(x, _fd=fd, _scale=scale):
                values, _, dx = _fd(expand(np.asarray(x, dtype=float)))
                scaled_values = values / _scale
                pinned = dx == 0.0
                safe_dx = np.where(pinned, 1.0, dx)
                jac_full = np.where(
                    pinned, 0.0, (scaled_values[1:] - scaled_values[0]) / safe_dx
                )
                return jac_full[free_mask] if reduce_vars else jac_full

        try:
            result = optimize.minimize(
                slsqp_fun,
                slsqp_start,
                method="SLSQP",
                jac=jacobian,
                bounds=slsqp_bounds,
                constraints=constraints,
                options={"maxiter": options.maxiter, "ftol": options.tolerance},
            )
        except (ValueError, OverflowError, FloatingPointError):  # pragma: no cover
            return
        x = problem.clip(expand(np.asarray(result.x, dtype=float)))
        if not problem.is_feasible(x, tolerance=1e-5):
            return
        value = problem.objective(x)
        any_success = any_success or bool(result.success)
        if value < best_value:
            best_value = value
            best_x = x
            message = str(result.message)

    polished = 0
    for start in starts:
        polish(start)
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
            polish(start)
            polished += 1

    if best_x is None:
        fallback = _fallback_search(problem, options)
        if fallback is not None:
            best_x, best_value = fallback
            message = "fallback projected random search"
        else:
            # Last resort: return the most conservative corner (all lower bounds).
            best_x = np.array([b[0] for b in problem.bounds], dtype=float)
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
