"""MOpt permutation and tile-size selection (Algorithm 1 of the paper).

For each of the eight pruned permutation classes, the optimizer solves a
sequence of constrained nonlinear problems that realize the min–max
formulation of Section 5:

1. The register-level tile is either fixed by the microkernel design
   (Section 6/8: the microkernel shape depends only on the machine) or left
   to the solver.
2. While unvisited levels remain, one *epigraph* problem is solved per
   round: minimize a bottleneck variable ``tau`` over the tile sizes of
   all unvisited levels subject to capacity/nesting constraints and
   ``tau >= t_l`` for every level's bandwidth-scaled data time.  Because
   the level times are posynomial-like (near-convex in log coordinates),
   this single certified solve is an exact reformulation of the paper's
   per-level bottleneck-hypothesis scan — each hypothesis problem is the
   restriction of the min-max problem to the piece of the space where that
   level dominates, and the pieces cover the space — at a fraction of the
   solves (one per round instead of one per unvisited level plus relaxed
   fallbacks).  The level attaining ``tau`` at the optimum is the true
   bottleneck; its tile sizes are frozen and the loop repeats on the
   remaining levels, warm-started from the previous round's solution.
3. The real-valued solution is floored/snapped to integer tile sizes and,
   in the parallel case, a core-distribution plan is chosen and load
   balanced (Section 7, Algorithm 1 lines 23–24).

Permutation classes whose cost expressions coincide after dropping
extent-1 loops (e.g. all the spatial loops of a matmul-like operator) are
solved once and the solution is shared — the collapse is certified
bitwise-exact by :meth:`CompiledPermutationCost.plan_signature`.  The
per-class solves are independent, so they can also be fanned out across a
process pool (``OptimizerSettings.class_workers``).

The result records every candidate (one per permutation class) so the
``MOpt-5`` variant of the paper's evaluation (take the best of the top five
modeled configurations) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..machine.spec import MachineSpec
from ..obs.trace import span as _span
from .capacity import level_capacities
from .config import MultiLevelConfig, TilingConfig
from .cost_model import (
    DEFAULT_COMPILE_CACHE,
    CompileCache,
    CompiledPermutationCost,
    compile_generated,
    compiled_cost_for,
)
from .loadbalance import integerize_config
from .microkernel import MicrokernelDesign, design_microkernel
from .multilevel import MultiLevelCost, multilevel_cost
from .parallel import (
    ParallelPlan,
    choose_parallel_plan,
    parallel_bandwidth_overrides,
    parallel_multilevel_cost,
)
from .pruning import PermutationClass, pruned_permutation_classes
from .solver import ConstrainedProblem, SolverOptions, minimize_from_starts
from .tensor_spec import LOOP_INDICES, ConvSpec


@dataclass(frozen=True)
class OptimizerSettings:
    """Configuration of the MOpt optimizer.

    Parameters
    ----------
    levels:
        Tiling levels from innermost outwards.  ``"Reg"`` plus the machine's
        cache levels reproduces the paper's four-level setup.
    fix_register_tile:
        Freeze the register tile to the microkernel design (the paper's
        choice) instead of solving for it.
    parallel:
        Use the parallel cost model (Section 7) and select a core plan.
    threads:
        Number of threads for the parallel model (defaults to all cores).
    capacity_fraction:
        Fraction of each cache level the tiles may occupy.  Real caches also
        hold stack data, prefetches and suffer conflict misses, so planning
        for ~80% of the nominal capacity is the usual practice.
    line_size_elements:
        When > 1, model data movement at cache-line granularity
        (Section 12's spatial-locality extension).
    top_k:
        Number of candidate configurations retained (for MOpt-5).
    snap_to_divisors:
        Integerize tile sizes to divisors of the problem extents.
    solver:
        Options of the nonlinear solver.
    permutation_class_names:
        Restrict the search to a subset of the eight pruned classes (mainly
        for tests and ablations); ``None`` searches all eight.
    class_workers:
        Fan the independent per-class solves of this *single* operator out
        across a process pool.  ``None`` or ``1`` solves serially; the pool
        is also suppressed inside operator-level worker processes, so a
        network sweep's process budget is never multiplied (one budget for
        both fan-out layers).  Results are bitwise-identical to the serial
        order — this knob never enters cache keys.
    """

    levels: Tuple[str, ...] = ("Reg", "L1", "L2", "L3")
    fix_register_tile: bool = True
    parallel: bool = False
    threads: Optional[int] = None
    capacity_fraction: float = 0.8
    line_size_elements: int = 1
    top_k: int = 5
    snap_to_divisors: bool = True
    solver: SolverOptions = field(default_factory=SolverOptions)
    permutation_class_names: Optional[Tuple[str, ...]] = None
    class_workers: Optional[int] = None

    def with_solver(self, solver: SolverOptions) -> "OptimizerSettings":
        """Copy with different solver options."""
        return replace(self, solver=solver)


def fast_settings(**overrides) -> OptimizerSettings:
    """Settings tuned for sweeps over many operators (fewer solver restarts)."""
    solver = SolverOptions(
        multistarts=1, maxiter=60, fallback_samples=120, tolerance=1e-6
    )
    defaults = dict(solver=solver, top_k=5)
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


@dataclass(frozen=True)
class CandidateSolution:
    """One fully-solved configuration (one pruned permutation class)."""

    class_name: str
    permutation: Tuple[str, ...]
    config: MultiLevelConfig
    cost: MultiLevelCost
    parallel_plan: Optional[ParallelPlan]
    data_time_seconds: float
    compute_time_seconds: float

    @property
    def predicted_time_seconds(self) -> float:
        """Modeled execution time: data movement and compute overlap."""
        return max(self.data_time_seconds, self.compute_time_seconds)

    def predicted_gflops(self, spec: ConvSpec) -> float:
        """Modeled performance in GFLOP/s."""
        return spec.flops / self.predicted_time_seconds / 1e9

    @property
    def bottleneck_level(self) -> str:
        """Hierarchy level predicted to limit performance."""
        return self.cost.bottleneck_level


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one conv2d operator on one machine."""

    spec: ConvSpec
    machine: MachineSpec
    settings: OptimizerSettings
    candidates: Tuple[CandidateSolution, ...]
    search_seconds: float
    microkernel: MicrokernelDesign

    @property
    def best(self) -> CandidateSolution:
        """The configuration with the lowest predicted execution time (MOpt-1)."""
        return self.candidates[0]

    def top(self, k: int) -> Tuple[CandidateSolution, ...]:
        """The ``k`` best candidates by predicted time (MOpt-5 uses k=5)."""
        return self.candidates[:k]

    @property
    def predicted_gflops(self) -> float:
        """Predicted performance of the best configuration."""
        return self.best.predicted_gflops(self.spec)


class MOptOptimizer:
    """Modeling-based optimizer: analytical design-space exploration for conv2d.

    Typical use::

        machine = presets.coffee_lake_i7_9700k()
        optimizer = MOptOptimizer(machine)
        result = optimizer.optimize(spec)
        best = result.best            # MOpt-1
        topk = result.top(5)          # MOpt-5 candidates
    """

    def __init__(
        self,
        machine: MachineSpec,
        settings: Optional[OptimizerSettings] = None,
        *,
        compile_cache: Optional[CompileCache] = None,
    ):
        self.machine = machine
        self.settings = settings or OptimizerSettings()
        self.compile_cache = compile_cache
        unknown = [
            level
            for level in self.settings.levels
            if level != "Reg" and level not in machine.cache_names
        ]
        if unknown:
            raise ValueError(
                f"levels {unknown} not present on machine {machine.name!r}; "
                f"available: {('Reg',) + machine.cache_names}"
            )

    def _compiled_for(self, permutation: Sequence[str], spec: ConvSpec) -> CompiledPermutationCost:
        return compiled_cost_for(
            tuple(permutation),
            stride=spec.stride,
            dilation=spec.dilation,
            cache=self.compile_cache,
        )

    # ------------------------------------------------------------------
    def optimize(self, spec: ConvSpec) -> OptimizationResult:
        """Run Algorithm 1 and return all candidate solutions, best first."""
        settings = self.settings
        with _span("solve.operator", operator=spec.name) as op_span:
            with _span("solve.compile"):
                microkernel = design_microkernel(self.machine, spec)
                classes = self._permutation_classes()
                groups = self._collapse_groups(spec, classes)
            tiles_by_group = self._solve_groups(spec, groups, microkernel)
            # Fill per-class results in the original class order (shared tiles
            # within a group) so candidate tie-breaking is group-independent.
            by_name: Dict[str, CandidateSolution] = {}
            levels = tuple(settings.levels)
            for group, tiles in zip(groups, tiles_by_group):
                for cls in group:
                    config = MultiLevelConfig(
                        levels,
                        tuple(
                            TilingConfig(cls.representative, tiles[level])
                            for level in levels
                        ),
                    )
                    with _span("solve.integerize", class_name=cls.name):
                        config = integerize_config(
                            spec, config, snap_to_divisors=settings.snap_to_divisors
                        )
                    with _span("solve.parallel_plan", class_name=cls.name):
                        by_name[cls.name] = self._evaluate_candidate(
                            spec, cls, config, microkernel
                        )
            candidates = [by_name[cls.name] for cls in classes]
            candidates.sort(key=lambda c: c.predicted_time_seconds)
        # The span's own clock is the one source of truth for the search
        # wall: the trace record and `search_seconds` cannot disagree.
        return OptimizationResult(
            spec=spec,
            machine=self.machine,
            settings=settings,
            candidates=tuple(candidates[: max(settings.top_k, 1)]),
            search_seconds=op_span.elapsed,
            microkernel=microkernel,
        )

    # ------------------------------------------------------------------
    def _collapse_groups(
        self, spec: ConvSpec, classes: Sequence[PermutationClass]
    ) -> List[List[PermutationClass]]:
        """Group classes whose solves are certified bitwise-identical.

        Loops of extent 1 have tile bounds ``(1, 1)`` at every level, so
        their ratio factors are exactly 1.0 and their partial-reuse steps
        exactly 0.0 at every point the solver can visit; classes whose
        compiled plans agree modulo such loops evaluate identically
        everywhere and therefore produce the same solver trajectory.  One
        solve per group suffices — each member still gets its own
        permutation in the final configuration.
        """
        pinned = frozenset(
            position
            for position, index in enumerate(LOOP_INDICES)
            if spec.loop_extents[index] <= 1
        )
        groups: "Dict[Tuple, List[PermutationClass]]" = {}
        order: List[Tuple] = []
        for cls in classes:
            compiled = self._compiled_for(cls.representative, spec)
            signature = compiled.plan_signature(pinned)
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append(cls)
        return [groups[signature] for signature in order]

    def _solve_groups(
        self,
        spec: ConvSpec,
        groups: Sequence[Sequence[PermutationClass]],
        microkernel: MicrokernelDesign,
    ) -> List[Dict[str, Dict[str, float]]]:
        """Solve one representative per group, serially or across the pool."""
        from . import solve_pool

        representatives = [group[0] for group in groups]
        workers = solve_pool.resolve_workers(
            self.settings.class_workers, len(representatives)
        )
        if workers > 1:
            return solve_pool.run_class_solves(
                self.machine,
                self.settings,
                spec,
                [cls.name for cls in representatives],
                workers,
            )
        return [
            self._solve_class_tiles(spec, cls, microkernel)
            for cls in representatives
        ]

    # ------------------------------------------------------------------
    def _permutation_classes(self) -> Tuple[PermutationClass, ...]:
        classes = pruned_permutation_classes()
        names = self.settings.permutation_class_names
        if names is None:
            return classes
        selected = tuple(cls for cls in classes if cls.name in names)
        if not selected:
            raise ValueError(f"no permutation classes matched {names}")
        return selected

    def _bandwidths(self) -> Dict[str, float]:
        """Per-level bandwidths in elements/second used during solving."""
        settings = self.settings
        machine = self.machine
        threads = settings.threads or machine.cores
        if settings.parallel:
            overrides = parallel_bandwidth_overrides(machine, threads)
            return {
                level: overrides[level] * 1e9 / machine.dtype_bytes
                for level in settings.levels
            }
        return {
            level: machine.bandwidth_elements_per_second(level)
            for level in settings.levels
        }

    def _capacities(self) -> Dict[str, float]:
        caps = level_capacities(self.machine, self.settings.levels)
        frac = self.settings.capacity_fraction
        # The register file is fully managed by the microkernel; do not derate it.
        return {
            level: cap * (1.0 if level == "Reg" else frac) for level, cap in caps.items()
        }

    # ------------------------------------------------------------------
    def _solve_class_tiles(
        self,
        spec: ConvSpec,
        cls: PermutationClass,
        microkernel: MicrokernelDesign,
    ) -> Dict[str, Dict[str, float]]:
        """Algorithm 1's round loop for one class: real-valued tiles per level."""
        settings = self.settings
        permutation = cls.representative
        compiled = self._compiled_for(permutation, spec)
        levels = list(settings.levels)
        extents = {i: float(e) for i, e in spec.loop_extents.items()}
        capacities = self._capacities()
        bandwidths = self._bandwidths()

        fixed: Dict[str, Dict[str, float]] = {}
        if settings.fix_register_tile and "Reg" in levels:
            fixed["Reg"] = {
                i: float(min(microkernel.register_tiles[i], spec.loop_extents[i]))
                for i in LOOP_INDICES
            }

        cache = self.compile_cache
        if cache is None:
            cache = DEFAULT_COMPILE_CACHE
        not_visited = [level for level in levels if level not in fixed]
        warm: Optional[Dict[str, Dict[str, float]]] = None
        while not_visited:
            round_ = _RoundEvaluator(
                compiled,
                levels,
                extents,
                capacities,
                bandwidths,
                fixed,
                not_visited,
                cache,
            )
            if len(not_visited) > 1:
                # Selection solve: the epigraph min-max identifies the
                # round's bottleneck level in one solve (the old scan needed
                # one hypothesis solve per unvisited level just to rank them).
                with _span("solve.select", class_name=cls.name):
                    times, tiles = self._bottleneck_solve(round_, warm)
                # The level attaining the bottleneck at the min-max optimum
                # is the round's most constraining unvisited level (ties keep
                # the innermost, matching the hypothesis-scan order).
                best_level = not_visited[0]
                for level in not_visited[1:]:
                    if times[level] > times[best_level]:
                        best_level = level
                warm = tiles
            else:
                best_level = not_visited[0]
            # Refine solve: the min-max optimum is flat in coordinates that
            # do not touch the bottleneck, so its tiles are a poor freeze.
            # Re-solve the round as the *hypothesis problem* for the selected
            # level (minimize that level's time subject to it dominating,
            # with the relaxed fallback of the original scan) and freeze the
            # refined tiles — the objective now shapes every coordinate.
            with _span("solve.refine", class_name=cls.name, level=best_level):
                tiles = self._refine_solve(
                    round_, best_level, dominate=len(not_visited) > 1
                )
            fixed[best_level] = tiles[best_level]
            not_visited.remove(best_level)
            warm = tiles
        return fixed

    # ------------------------------------------------------------------
    def _bottleneck_solve(
        self,
        round_: "_RoundEvaluator",
        warm: Optional[Mapping[str, Mapping[str, float]]],
    ) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """One epigraph round of Algorithm 1: min ``tau`` s.t. every level fits.

        The decision vector is the concatenated tile sizes of the unvisited
        levels plus the bottleneck variable ``tau``; the constraints are the
        capacity and nesting conditions of the hypothesis scan plus
        ``tau >= t_l`` for *every* level.  Minimizing ``tau`` solves the
        round's min-max problem directly: the old per-level hypothesis
        problems are exactly the restrictions of this problem to the pieces
        of the space where one level dominates, so their scan minimum
        equals this single optimum — without the per-hypothesis SLSQP runs
        or the relaxed re-solves infeasible hypotheses used to need.

        ``tau`` is boxed between a *certified interval lower bound* of the
        achievable bottleneck time (no feasible tiling of this class can
        beat it — the per-class basin floor) and the best starting point's
        bottleneck value.  The problem is declared ``single_basin`` (the
        level times are posynomial-like, hence near-convex in log
        coordinates), so the solver polishes the best-ranked start only and
        the screened and exact solver modes coincide bitwise.

        The problem itself (level times, footprints, the log-space nesting
        and epigraph constraints) comes from the round's shared evaluator;
        this solve picks the bounds and the starts.

        Returns the per-level times at the solution and the per-level tile
        sizes (free and fixed).
        """
        compiled = round_.compiled
        level_order = round_.level_order
        free_levels = round_.free_levels
        extents = round_.extents

        # Certified floor of the bottleneck: interval arithmetic over the
        # tile boxes bounds every level's time from below; no feasible
        # tiling of this permutation class can beat the largest floor.
        floors: List[float] = []
        for index, level in enumerate(level_order):
            inner_lo, inner_hi = round_.box(level)
            if index + 1 < len(level_order):
                outer_lo, outer_hi = round_.box(level_order[index + 1])
            else:
                outer_lo = outer_hi = extents
            volume_floor = compiled.volume_interval_bound(
                outer_lo.tolist(),
                outer_hi.tolist(),
                inner_lo.tolist(),
                inner_hi.tolist(),
                upper=False,
            )
            count_floor = float(np.prod(extents / outer_hi))
            floors.append(volume_floor * count_floor / round_.bandwidth_list[index])
        tau_floor = max(floors)

        # The solver works in log coordinates: the decision vector is
        # ``z = [log(tiles), v]`` with ``v = log(tau)``.  The level times are
        # posynomial-like, so ``log t_l`` is a near-convex, O(1)-scaled
        # function of ``log(tiles)`` (the geometric-programming form), the
        # nesting constraints become *linear* variable differences, and the
        # objective ``v`` is linear — SLSQP converges on this form where the
        # linear-coordinate epigraph (tau spanning eight decades against
        # tile extents in the thousands) stalls its line search.
        lows_arr, highs_arr = round_.lows, round_.highs
        log_bounds: List[Tuple[float, float]] = [
            (float(lo), float(hi))
            for lo, hi in zip(np.log(lows_arr), np.log(highs_arr))
        ]

        # Starting points: the previous round's solution (warm handoff), the
        # deterministic interior points of the multistart recipe, and the
        # all-lows corner.  The corner equals the nearest fixed inner tile
        # (or all ones) at every free level, so it satisfies nesting and
        # capacity by construction — its bottleneck value is therefore a
        # *sound* upper bound on the constrained optimum, which makes the
        # tau box below provably non-empty.  Each start is augmented with
        # its own bottleneck value and ranked by it — on a single-basin
        # problem the best-ranked start is polished and the rest are
        # deterministic failovers.
        raw_tile_starts: List[np.ndarray] = []
        if warm is not None:
            raw_tile_starts.append(
                np.concatenate(
                    [
                        np.array([warm[level][i] for i in LOOP_INDICES], dtype=float)
                        for level in free_levels
                    ]
                )
            )
        raw_tile_starts.extend(
            [
                lows_arr + 0.5 * (highs_arr - lows_arr),
                np.sqrt(
                    np.maximum(lows_arr, 1e-12) * np.maximum(highs_arr, 1e-12)
                ),
                lows_arr + 0.15 * (highs_arr - lows_arr),
                highs_arr.copy(),
                lows_arr.copy(),
            ]
        )
        scored_starts: List[Tuple[float, int, np.ndarray]] = []
        for order_index, tile_start in enumerate(raw_tile_starts):
            clipped = np.minimum(np.maximum(tile_start, lows_arr), highs_arr)
            # Round-trip through log space so the scored bottleneck value is
            # exactly the one the solver's constraints see at this start.
            log_tiles = np.log(clipped)
            tau_start = max(round_.level_times(np.exp(log_tiles)))
            scored_starts.append((tau_start, order_index, log_tiles))
        scored_starts.sort(key=lambda item: (item[0], item[1]))

        tau_ceiling = max(item[0] for item in scored_starts)
        tau_floor = max(tau_floor, tau_ceiling * 1e-12, 1e-300)
        if not tau_ceiling > tau_floor:  # degenerate box: keep tau movable
            tau_ceiling = tau_floor * (1.0 + 1e-9)
        v_floor = float(np.log(tau_floor))
        v_ceiling = float(np.log(tau_ceiling))
        log_bounds.append((v_floor, v_ceiling))
        starts = [
            np.concatenate(
                [log_tiles, [min(max(float(np.log(tau)), v_floor), v_ceiling)]]
            )
            for tau, _, log_tiles in scored_starts
        ]

        # One inequality function: capacity constraints of the free levels,
        # nesting between adjacent levels that involve a free level (linear
        # in log coordinates), and ``v`` dominating every level's log-time.
        problem = round_.problem("select", log_bounds, single_basin=True)
        result = minimize_from_starts(problem, starts, self.settings.solver)

        tiles_vector = np.exp(np.asarray(result.x, dtype=float)[:-1])
        times = dict(zip(level_order, round_.level_times(tiles_vector)))
        return times, round_.tiles_by_level(tiles_vector)

    # ------------------------------------------------------------------
    def _refine_solve(
        self,
        round_: "_RoundEvaluator",
        objective_level: str,
        dominate: bool = True,
    ) -> Dict[str, Dict[str, float]]:
        """One ``ArgMinSolve`` call of Algorithm 1 (line 9) for one level.

        Minimizes the bandwidth-scaled volume of ``objective_level`` over the
        tile sizes of all unvisited levels, subject to capacity and nesting
        constraints and to ``objective_level`` dominating the other levels.
        Returns the per-level tile sizes (free and fixed).

        This is the freeze-quality half of each round: the epigraph solve
        (:meth:`_bottleneck_solve`) identifies the round's bottleneck level
        in one solve, but its min-max optimum is flat in every coordinate
        that does not touch the bottleneck, so its tiles are a poor freeze.
        The hypothesis objective below shapes them all.  The problem is
        solved in *linear* tile coordinates on purpose — its optimum sits on
        a near-flat ridge (the dominance boundary), and the linear-space
        SLSQP trajectories from the interior starts stop at the small-tile
        end of the ridge, which survives integerization and parallel
        planning far better than the large-tile end the log-space
        trajectories drift to.

        The problems are marked ``polish_all`` and solved from three
        deterministic interior starts only (no seeded random starts): every
        start is polished and the best kept, so the screened and exact
        solver modes coincide bitwise (no lossy top-k start screening on
        this path) and the result is independent of the solver seed.

        ``dominate=False`` skips the dominance-constrained solve and goes
        straight to the relaxed problem.  The caller passes it on the final
        round: with a single unvisited level there is no selection left for
        the dominance hypothesis to inform, and that hypothesis (the
        innermost remaining level out-timing every frozen outer level) is
        almost always infeasible — solving it first just to discard it
        roughly doubled the cost of every final round.
        """
        lows_arr, highs_arr = round_.lows, round_.highs
        bounds = tuple(zip(lows_arr.tolist(), highs_arr.tolist()))
        refine_starts = [
            lows_arr + 0.5 * (highs_arr - lows_arr),
            np.sqrt(np.maximum(lows_arr, 1e-12) * np.maximum(highs_arr, 1e-12)),
            highs_arr.copy(),
        ]

        # Capacity constraints of the free levels and nesting between
        # adjacent levels that involve a free level; the hypothesis problem
        # adds the dominance of the objective level over every other level.
        result = None
        if dominate:
            problem = round_.problem(
                "refine", bounds, objective_level, polish_all=True
            )
            result = minimize_from_starts(problem, refine_starts, self.settings.solver)
        if result is None or not result.feasible:
            # The hypothesis "objective_level dominates all other levels" may
            # simply be unsatisfiable for this permutation (that level can
            # never be the bottleneck).  Re-solve without the dominance
            # constraints so the returned tiles are still sensible.
            relaxed = round_.problem(
                "relaxed", bounds, objective_level, polish_all=True
            )
            result = minimize_from_starts(relaxed, refine_starts, self.settings.solver)

        return round_.tiles_by_level(np.asarray(result.x, dtype=float))

    # ------------------------------------------------------------------
    def _evaluate_candidate(
        self,
        spec: ConvSpec,
        cls: PermutationClass,
        config: MultiLevelConfig,
        microkernel: MicrokernelDesign,
    ) -> CandidateSolution:
        settings = self.settings
        machine = self.machine
        threads = settings.threads or machine.cores

        plan: Optional[ParallelPlan] = None
        if settings.parallel:
            levels = config.levels
            outer_tiles = config.tiles(levels[-1])
            inner_level = levels[-2] if len(levels) > 1 else levels[-1]
            inner_tiles = config.tiles(inner_level)
            plan = choose_parallel_plan(spec, outer_tiles, inner_tiles, threads)
            cost = parallel_multilevel_cost(
                spec,
                config,
                machine,
                plan,
                threads=threads,
                line_size=settings.line_size_elements,
            )
            compute_threads = threads
        else:
            cost = multilevel_cost(
                spec,
                config,
                machine,
                parallel=False,
                line_size=settings.line_size_elements,
            )
            compute_threads = 1

        compute_time = spec.flops / (
            machine.peak_gflops(compute_threads) * microkernel.efficiency * 1e9
        )
        return CandidateSolution(
            class_name=cls.name,
            permutation=cls.representative,
            config=config,
            cost=cost,
            parallel_plan=plan,
            data_time_seconds=cost.bottleneck_time,
            compute_time_seconds=compute_time,
        )


#: Key of the problem extents, the "tile" above the outermost level.
_WHOLE = "__whole__"


def _round_source(
    kind: str, objective: Optional[int], free: Tuple[bool, ...]
) -> Tuple[str, Tuple[Tuple[bool, Tuple[int, ...]], ...]]:
    """Source of one round problem's evaluator factory, and its layout.

    ``free`` marks the free levels of the round in level order, ``kind``
    is ``"select"`` (the log-space epigraph problem), ``"refine"`` (the
    hypothesis problem with dominance) or ``"relaxed"`` (without it), and
    ``objective`` is the hypothesis level's index.  The generated
    ``make(vol, fp, exp, log, array, c)`` binds the plan's
    ``volume_floats``/``footprint_floats`` and the round's numbers (the
    dict ``c``) as closure constants and returns ``(point, times,
    jacobian)``:

    * ``point(x) -> (objective, constraints)`` evaluates every level time,
      capacity slack, nesting and dominance value of the problem in one
      straight-line body (select calls NumPy's ``exp`` on the log-tile
      array and ``log`` per level time).
    * ``times(tiles)`` (select only; else ``None``) returns the level
      times at a flat tile list.
    * ``jacobian(x, probe, u)`` evaluates the finite-difference probes of
      ``x``: for each coordinate ``d`` with ``u[d]`` true, in order, the
      point ``x + 0.0`` with coordinate ``d`` set to the next value of
      ``probe``.  It recomputes only the values that coordinate reaches.
      Probing tile ``j`` of free level ``p`` moves the times of ``p`` and
      of ``p - 1`` (whose tile count ``p``'s tiles set), the capacity
      slack of ``p``, the nesting values of loop ``j`` on either side of
      ``p`` and the dominance values of the moved times -- all of them,
      with the objective, when the objective's time moved.  Select's
      ``v`` coordinate moves the objective and every dominance value.
      It returns the moved values of all probes in one flat list.

    The layout gives, per coordinate ``d``, ``(moves_objective, rows)``:
    the values ``jacobian`` returns for it, in order -- the objective if
    it moves, then the constraint rows ``rows``.  ``jacobian`` performs
    the IEEE-754 operations of ``point``, in its order, so a recomputed
    value equals ``point`` at the probe bitwise, and every value it skips
    equals the value at ``x``.  Frozen level times, the counts of levels
    below a frozen level and the frozen levels' tiles enter as constants.
    """
    count = len(free)
    select = kind == "select"
    offsets: Dict[int, int] = {}
    for index, is_free in enumerate(free):
        if is_free:
            offsets[index] = 7 * len(offsets)
    used: List[str] = []
    unpack = set()  # free levels whose scalars a body reads

    def const(name: str) -> str:
        if name not in used:
            used.append(name)
        return name

    # The probes of free level ``probed`` replace its tile list by ``P``.
    def tile_list(index: int, probed: Optional[int] = None) -> str:
        if index == count:
            return const("W")
        if index == probed:
            return "P"
        return f"A{index}" if free[index] else const(f"F{index}")

    def scalar(index: int, j: int) -> str:
        if free[index]:
            unpack.add(index)
            return f"a{index}_{j}"
        return const(f"f{index}_{j}")

    def log_scalar(index: int, j: int) -> str:
        return f"y{index}_{j}" if free[index] else const(f"g{index}_{j}")

    def counted(index: int) -> str:
        if not (index + 1 < count and free[index + 1]):
            return const(f"C{index}")
        ratios = [f"{const(f'E{j}')} / {scalar(index + 1, j)}" for j in range(7)]
        return f"({' * '.join([ratios[0]] + [f'({r})' for r in ratios[1:]])})"

    def level_time(index: int, counts: str, probed: Optional[int] = None) -> str:
        return (
            f"vol({tile_list(index + 1, probed)}, {tile_list(index, probed)})"
            f" * {counts} / {const(f'B{index}')}"
        )

    needed = list(range(count)) if kind != "relaxed" else [objective]
    frozen = {
        index
        for index in needed
        if not free[index] and not (index + 1 < count and free[index + 1])
    }
    time_of: Dict[int, str] = {
        index: const(f"T{index}") if index in frozen else f"t{index}"
        for index in needed
    }

    # Constraint rows: capacity slacks of the free levels, nesting of each
    # adjacent pair that involves a free level, then dominance.
    rows: List[Tuple] = [("capacity", index) for index in range(count) if free[index]]
    rows += [
        ("nesting", inner, j)
        for inner in range(count - 1)
        if free[inner] or free[inner + 1]
        for j in range(7)
    ]
    if select:
        rows += [("dominance", index) for index in range(count)]
    elif kind == "refine":
        rows += [("dominance", index) for index in range(count) if index != objective]

    def value(row: Tuple, times=time_of, v="v", scale="scale") -> str:
        if row[0] == "capacity":
            capacity = const(f"K{row[1]}")
            return f"({capacity} - fp({tile_list(row[1])})) / {capacity}"
        if row[0] == "nesting":
            _, inner, j = row
            if select:
                return f"{log_scalar(inner + 1, j)} - {log_scalar(inner, j)}"
            return f"({scalar(inner + 1, j)} - {scalar(inner, j)}) / {const(f'E{j}')}"
        index = row[1]
        if not select:
            return f"({times[objective]} - {times[index]}) / {scale}"
        if index in frozen:
            return f"{v} - {const(f'LT{index}')}"
        return f"{v} - float(log({times[index]}))"

    def tiles_prologue(flat: str) -> List[str]:
        lines = [
            f"A{index} = {flat}[{offset}:{offset + 7}]"
            for index, offset in offsets.items()
        ]
        lines += [
            f"{', '.join(f'a{index}_{j}' for j in range(7))} = A{index}"
            for index in sorted(unpack)
        ]
        return lines

    def logs_prologue(flat: str) -> List[str]:
        return [
            f"{', '.join(f'y{index}_{j}' for j in range(7))}"
            f" = {flat}[{offset}:{offset + 7}]"
            for index, offset in offsets.items()
        ]

    # point(x): every value at one point.
    time_lines = [
        f"t{index} = {level_time(index, counted(index))}"
        for index in needed
        if index not in frozen
    ]
    values = [value(row) for row in rows]
    body: List[str] = []
    if select:
        body += ["y = x[:-1]", "v = float(x[-1])", "T = exp(y).tolist()"]
        body += tiles_prologue("T")
        body.append("Y = y.tolist()")
        body += logs_prologue("Y")
        result = "v"
    else:
        body += ["X = x.tolist()"] + tiles_prologue("X")
        result = time_of[objective]
    body += time_lines
    if kind == "refine":
        body.append(f"scale = 1e-30 if 1e-30 > {result} else {result}")
    body.append(f"return {result}, array([")
    body += [f"    {entry}," for entry in values]
    body.append("])")
    times_body = tiles_prologue("T") + time_lines

    # jacobian(x, probe, u): what each probe moves, one loop over the
    # seven tiles per free level (the probed tile ``q``, or its log ``r``,
    # at ``j``).  The base point is the probes' ``x + 0.0``.  A level's
    # tile count comes from its outer level: a probe of that outer level
    # recomputes it (``count``), every other probe reads the base ``n``.
    def item(index: int, probed: int) -> str:
        if index == probed:
            return "r" if select else "q"
        if not select:
            return f"{tile_list(index)}[j]"
        return f"Y{index}[j]" if free[index] else f"{const(f'G{index}')}[j]"

    unpack.clear()
    jac: List[str] = ["X = (x + 0.0).tolist()", "R = iter(probe.tolist())"]
    last = 7 * len(offsets)  # select's log(tau) coordinate
    if select:
        tiles = f"probe[:-1] if u[{last}] else probe"
        jac += ["T = exp(x[:-1]).tolist()", f"Q = iter(exp({tiles}).tolist())"]
        jac += ["v = X[-1]"] + tiles_prologue("T")
        jac += [
            f"Y{index} = X[{offset}:{offset + 7}]" for index, offset in offsets.items()
        ]
    else:
        jac += tiles_prologue("X")
    base_counts: Dict[int, str] = {}
    for index in needed:
        if index in frozen:
            continue
        if index + 1 < count and free[index + 1]:
            jac.append(f"n{index} = count(A{index + 1})")
            base_counts[index] = f"n{index}"
        else:
            base_counts[index] = const(f"C{index}")
    if kind != "relaxed":
        jac += [
            f"t{index} = {level_time(index, base_counts[index])}"
            for index in needed
            if index not in frozen
        ]
    if kind == "refine":
        jac.append(f"scale = 1e-30 if 1e-30 > {result} else {result}")
    jac.append("V = []")
    layout: List[Tuple[bool, Tuple[int, ...]]] = []
    for probed, offset in offsets.items():
        moved: Dict[int, str] = {}
        block = [f"q = next({'Q' if select else 'R'})", f"P = A{probed}[:]", "P[j] = q"]
        if select:
            block.insert(1, "r = next(R)")
        if probed in needed:
            moved[probed] = "tp"
            block.append(f"tp = {level_time(probed, base_counts[probed], probed)}")
        if probed >= 1 and probed - 1 in needed:
            moved[probed - 1] = "tm"
            block.append(f"tm = {level_time(probed - 1, 'count(P)', probed)}")
        times = {**time_of, **moved}
        moves_objective = not select and objective in moved
        scale = "scale"
        entries = []
        if moves_objective:
            moved_objective = times[objective]
            entries.append(moved_objective)
            if kind == "refine":
                block.append(
                    f"sc = 1e-30 if 1e-30 > {moved_objective} else {moved_objective}"
                )
                scale = "sc"
        capacity = const(f"K{probed}")
        entries.append(f"({capacity} - fp(P)) / {capacity}")
        touched = {j: [rows.index(("capacity", probed))] for j in range(7)}
        for inner in (probed - 1, probed):
            if 0 <= inner < count - 1:
                outer_item = item(inner + 1, probed)
                inner_item = item(inner, probed)
                if select:
                    entries.append(f"{outer_item} - {inner_item}")
                else:
                    entries.append(f"({outer_item} - {inner_item}) / {const('W')}[j]")
                for j in range(7):
                    touched[j].append(rows.index(("nesting", inner, j)))
        for position, row in enumerate(rows):
            if row[0] == "dominance" and (row[1] in moved or moves_objective):
                entries.append(value(row, times, scale=scale))
                for j in range(7):
                    touched[j].append(position)
        block.append(f"V += ({', '.join(entries)},)")
        jac.append("for j in range(7):")
        jac.append(f"    if u[{offset} + j]:")
        jac += [f"        {line}" for line in block]
        layout += [(moves_objective, tuple(touched[j])) for j in range(7)]
    if select:
        entries = ["w"] + [value(row, v="w") for row in rows if row[0] == "dominance"]
        jac.append(f"if u[{last}]:")
        jac.append("    w = next(R)")
        jac.append(f"    V += ({', '.join(entries)},)")
        layout.append(
            (True, tuple(p for p, row in enumerate(rows) if row[0] == "dominance"))
        )
    jac.append("return V")
    helpers: List[str] = []
    if any("count(" in line for line in jac):
        # The tile count of the level inside tiles T, as ``point`` forms it.
        ratios = [f"{const(f'E{j}')} / b{j}" for j in range(7)]
        product = " * ".join([ratios[0]] + [f"({r})" for r in ratios[1:]])
        helpers = [
            "",
            "    def count(T):",
            f"        {', '.join(f'b{j}' for j in range(7))} = T",
            f"        return {product}",
        ]

    functions = [("point", "x", body)]
    if select:
        returned = ", ".join(time_of[index] for index in range(count))
        functions.append(("times", "T", times_body + [f"return [{returned}]"]))
    functions.append(("jacobian", "x, probe, u", jac))
    lines = ["def make(vol, fp, exp, log, array, c):"]
    lines += [f"    {name} = c[{name!r}]" for name in used]
    lines += helpers
    for name, args, function_body in functions:
        lines += ["", f"    def {name}({args}):"]
        lines += [f"        {line}" for line in function_body]
    lines += ["", f"    return point, {'times' if select else 'None'}, jacobian", ""]
    return "\n".join(lines), tuple(layout)


def _one_slot(point):
    """Objective and constraint callables sharing one evaluation per point.

    The solver asks for the objective and the constraints of each point
    back to back; the slot holds the last point's pair.
    """
    slot: List[object] = [None, None]

    def evaluate(x: np.ndarray):
        key = x.tobytes()
        if key != slot[0]:
            slot[1] = point(x)
            slot[0] = key
        return slot[1]

    return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])


def _sparse_probes(jacobian, layout, free: np.ndarray):
    """A problem's ``probes`` from its generated ``jacobian`` and ``layout``
    (see :func:`_round_source`) for the free coordinates ``free``.

    Every value a probe does not move is its base value: the probes start
    from the base objective and constraints and only the moved entries
    are replaced, so the solver's difference of an unmoved entry is
    ``(c - c) / dx`` -- a zero signed like the step, as differencing a
    full evaluation of the probe gives, never a literal ``0.0``.
    """
    flags = [False] * len(layout)
    columns: List[int] = []
    entries: List[int] = []  # 0 is the objective, 1 + r constraint row r
    for column, coordinate in enumerate(free.tolist()):
        flags[coordinate] = True
        moves_objective, rows = layout[coordinate]
        moved = ([0] if moves_objective else []) + [1 + row for row in rows]
        columns += [column] * len(moved)
        entries += moved
    flags = tuple(flags)
    width = free.size
    moved_at = (np.array(columns, dtype=np.intp), np.array(entries, dtype=np.intp))

    def probes(x, probe, value, constraints):
        base = np.concatenate(((value,), constraints))
        table = np.repeat(base[None, :], width, axis=0)
        table[moved_at] = jacobian(x, probe, flags)
        return table[:, 0], table[:, 1:]

    return probes


class _RoundEvaluator:
    """The cost model of one round of Algorithm 1, shared by its solves.

    A round freezes the levels solved so far and leaves ``not_visited``
    free.  The free tiles form the decision vector, concatenated in
    :data:`LOOP_INDICES` order per free level.  This object owns what the
    epigraph selection solve and the hypothesis refine solves have in
    common: the free/fixed levels, the tile bounds, and the problems
    themselves (:meth:`problem`).  Each problem is generated code
    (:func:`_round_source`, cached by round structure in the compile
    cache): one function per point (SLSQP's line search) and one that
    recomputes, per finite-difference probe of a point, only the values
    the probed coordinate reaches (the gradients).
    """

    def __init__(
        self,
        compiled: CompiledPermutationCost,
        levels: Sequence[str],
        extents: Mapping[str, float],
        capacities: Mapping[str, float],
        bandwidths: Mapping[str, float],
        fixed: Mapping[str, Mapping[str, float]],
        not_visited: Sequence[str],
        cache: CompileCache,
    ):
        self.compiled = compiled
        self._cache = cache
        self.level_order = list(levels)
        self.free_levels = list(not_visited)
        self.extents = np.array([extents[i] for i in LOOP_INDICES], dtype=float)
        self.extents_list = self.extents.tolist()
        self.fixed = {
            level: np.array([values[i] for i in LOOP_INDICES], dtype=float)
            for level, values in fixed.items()
        }
        self._fixed_logs = {level: np.log(array) for level, array in self.fixed.items()}
        self.bandwidth_list = [float(bandwidths[level]) for level in self.level_order]
        self._capacity_list = [capacities[level] for level in self.free_levels]
        order = self.level_order
        self._free_mask = tuple(level in self.free_levels for level in order)
        self._outer = [
            order[index + 1] if index + 1 < len(order) else _WHOLE
            for index in range(len(order))
        ]

        # Bounds: each free level's tile is bounded below by the nearest fixed
        # inner level (or 1) and above by the nearest fixed outer level (or N).
        self._boxes: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for level in self.free_levels:
            index = order.index(level)
            lower = np.ones(7)
            for inner in reversed(order[:index]):
                if inner in self.fixed:
                    lower = self.fixed[inner]
                    break
            upper = self.extents
            for outer in order[index + 1 :]:
                if outer in self.fixed:
                    upper = self.fixed[outer]
                    break
            low = np.minimum(lower, upper)
            self._boxes[level] = (low, np.maximum(low, upper))
        self.lows = np.concatenate([self._boxes[level][0] for level in self.free_levels])
        self.highs = np.concatenate(
            [self._boxes[level][1] for level in self.free_levels]
        )

        # Levels below a frozen level (or the whole problem) have a
        # constant tile count; levels that are frozen themselves too have
        # the same time at every point (Reg in round 2; Reg and L1 in
        # round 3).
        self._fixed_floats = {
            level: array.tolist() for level, array in self.fixed.items()
        }
        outer_tiles = dict(self._fixed_floats)
        outer_tiles[_WHOLE] = self.extents_list
        self._counts: Dict[int, float] = {}
        self._frozen_times: Dict[int, float] = {}
        for index, (level, outer_level) in enumerate(zip(order, self._outer)):
            outer = outer_tiles.get(outer_level)
            if outer is None:
                continue
            counted = self.extents_list[0] / outer[0]
            for j in range(1, 7):
                counted *= self.extents_list[j] / outer[j]
            self._counts[index] = counted
            if level in self.fixed:
                self._frozen_times[index] = (
                    compiled.volume_floats(outer, self._fixed_floats[level])
                    * counted
                    / self.bandwidth_list[index]
                )

        self._instances: Dict[Tuple, Tuple] = {}

    def box(self, level: str) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinatewise (low, high) tile bounds of any level."""
        if level in self.fixed:
            array = self.fixed[level]
            return array, array
        return self._boxes[level]

    # -- per point (generated code) --------------------------------------
    def _constants(self) -> Dict[str, object]:
        """The round's numbers under the names :func:`_round_source` uses."""
        extents = self.extents_list
        constants: Dict[str, object] = {"W": extents}
        constants.update((f"E{j}", value) for j, value in enumerate(extents))
        free_position = 0
        for index, level in enumerate(self.level_order):
            constants[f"B{index}"] = self.bandwidth_list[index]
            if level in self.fixed:
                tiles = self._fixed_floats[level]
                logs = self._fixed_logs[level].tolist()
                constants[f"F{index}"] = tiles
                constants[f"G{index}"] = logs
                for j in range(7):
                    constants[f"f{index}_{j}"] = tiles[j]
                    constants[f"g{index}_{j}"] = logs[j]
            else:
                constants[f"K{index}"] = self._capacity_list[free_position]
                free_position += 1
            if index in self._counts:
                constants[f"C{index}"] = self._counts[index]
            if index in self._frozen_times:
                time = self._frozen_times[index]
                constants[f"T{index}"] = time
                constants[f"LT{index}"] = float(np.log(time))
        return constants

    def _generated(self, kind: str, objective: Optional[int] = None):
        instance = self._instances.get((kind, objective))
        if instance is not None:
            return instance
        key = ("round", kind, objective, self._free_mask)

        def build():
            source, layout = _round_source(kind, objective, self._free_mask)
            return compile_generated(source, "make"), layout

        make, layout = self._cache.generated(key, build)
        compiled = self.compiled
        instance = make(
            compiled.volume_floats,
            compiled.footprint_floats,
            np.exp,
            np.log,
            np.array,
            self._constants(),
        ) + (layout,)
        self._instances[(kind, objective)] = instance
        return instance

    def level_times(self, tiles_vector: np.ndarray) -> List[float]:
        """Bandwidth-scaled data time of every level (level order) at one
        tile vector."""
        return self._generated("select")[1](tiles_vector.tolist())

    def tiles_by_level(self, tiles_vector: np.ndarray) -> Dict[str, Dict[str, float]]:
        """Tile sizes of every level (fixed and free) as index mappings."""
        flat = tiles_vector.tolist()
        by_level = dict(self._fixed_floats)
        for position, level in enumerate(self.free_levels):
            by_level[level] = flat[position * 7 : (position + 1) * 7]
        return {
            level: dict(zip(LOOP_INDICES, values)) for level, values in by_level.items()
        }

    def problem(
        self,
        kind: str,
        bounds: Sequence[Tuple[float, float]],
        objective_level: Optional[str] = None,
        **declarations,
    ) -> ConstrainedProblem:
        """One of the round's problems: ``"select"`` (log-space epigraph,
        decision vector ``[log(tiles), log(tau)]``), ``"refine"`` (minimize
        ``objective_level``'s time subject to it dominating) or
        ``"relaxed"`` (the same without dominance), in linear tiles."""
        objective = (
            None if objective_level is None else self.level_order.index(objective_level)
        )
        point, _, jacobian, layout = self._generated(kind, objective)
        objective_fn, constraints_fn = _one_slot(point)
        problem = ConstrainedProblem(
            objective_fn, (constraints_fn,), tuple(bounds), **declarations
        )
        return replace(problem, probes=_sparse_probes(jacobian, layout, problem.free))


def optimize_conv(
    spec: ConvSpec,
    machine: MachineSpec,
    *,
    settings: Optional[OptimizerSettings] = None,
) -> OptimizationResult:
    """Convenience wrapper: optimize one operator with default settings."""
    return MOptOptimizer(machine, settings).optimize(spec)
