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
        this path) and the result is independent of the solver seed.  The
        three polishes run in lockstep on the solver's SLSQP driver, so
        each step's gradients cost one batched sweep over the probe rows
        of all three runs.

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


def _round_source(kind: str, objective: Optional[int], free: Tuple[bool, ...]) -> str:
    """Source of one round problem's per-point evaluator factory.

    ``free`` marks the free levels of the round in level order, ``kind``
    is ``"select"`` (the log-space epigraph problem), ``"refine"`` (the
    hypothesis problem with dominance) or ``"relaxed"`` (without it), and
    ``objective`` is the hypothesis level's index.  The generated
    ``make(vol, fp, exp, log, array, c)`` binds the plan's
    ``volume_floats``/``footprint_floats`` and the round's numbers (the
    dict ``c``) as closure constants and returns ``(point, times)``:
    ``point(x) -> (objective, constraints)`` evaluates every level time,
    capacity slack, nesting and dominance value of the problem in one
    straight-line body, with the IEEE-754 operations, their order and the
    NumPy ``exp``/``log`` calls of the row evaluators
    (:meth:`_RoundEvaluator.batch` and the problem assembly around it),
    so a point agrees bitwise with its row.  ``times(tiles)`` (select
    only; else ``None``) returns the level times at a flat tile list.
    Frozen level times, the counts of levels below a frozen level and the
    frozen levels' tiles enter as constants.
    """
    count = len(free)
    offsets: Dict[int, int] = {}
    for index, is_free in enumerate(free):
        if is_free:
            offsets[index] = 7 * len(offsets)
    used: List[str] = []

    def const(name: str) -> str:
        if name not in used:
            used.append(name)
        return name

    def tile_list(index: int) -> str:
        if index == count:
            return const("W")
        return f"A{index}" if free[index] else const(f"F{index}")

    def scalar(index: int, j: int) -> str:
        return f"a{index}_{j}" if free[index] else const(f"f{index}_{j}")

    select = kind == "select"
    needed = list(range(count)) if kind != "relaxed" else [objective]
    unpack = set()  # free levels whose scalars the body reads
    time_lines: List[str] = []
    time_of: Dict[int, str] = {}
    frozen = set()
    for index in needed:
        outer_free = index + 1 < count and free[index + 1]
        if not free[index] and not outer_free:
            time_of[index] = const(f"T{index}")
            frozen.add(index)
            continue
        if outer_free:
            unpack.add(index + 1)
            ratios = [f"{const(f'E{j}')} / a{index + 1}_{j}" for j in range(7)]
            counted = f"({' * '.join([ratios[0]] + [f'({r})' for r in ratios[1:]])})"
        else:
            counted = const(f"C{index}")
        time_lines.append(
            f"t{index} = vol({tile_list(index + 1)}, {tile_list(index)})"
            f" * {counted} / {const(f'B{index}')}"
        )
        time_of[index] = f"t{index}"

    values = [
        f"({const(f'K{index}')} - fp(A{index})) / K{index}"
        for index in range(count)
        if free[index]
    ]
    for inner in range(count - 1):
        outer = inner + 1
        if not (free[inner] or free[outer]):
            continue
        for j in range(7):
            if select:
                outer_y = f"y{outer}_{j}" if free[outer] else const(f"g{outer}_{j}")
                inner_y = f"y{inner}_{j}" if free[inner] else const(f"g{inner}_{j}")
                values.append(f"{outer_y} - {inner_y}")
            else:
                for level in (inner, outer):
                    if free[level]:
                        unpack.add(level)
                values.append(
                    f"({scalar(outer, j)} - {scalar(inner, j)}) / {const(f'E{j}')}"
                )
    if select:
        for index in range(count):
            if index in frozen:
                values.append(f"v - {const(f'LT{index}')}")
            else:
                values.append(f"v - float(log({time_of[index]}))")
    elif kind == "refine":
        values += [
            f"({time_of[objective]} - {time_of[index]}) / scale"
            for index in range(count)
            if index != objective
        ]

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

    body: List[str] = []
    if select:
        body += ["y = x[:-1]", "v = float(x[-1])", "T = exp(y).tolist()"]
        body += tiles_prologue("T")
        body.append("Y = y.tolist()")
        body += [
            f"{', '.join(f'y{index}_{j}' for j in range(7))} = Y[{offset}:{offset + 7}]"
            for index, offset in offsets.items()
        ]
        result = "v"
    else:
        body += ["X = x.tolist()"] + tiles_prologue("X")
        result = time_of[objective]
    body += time_lines
    if kind == "refine":
        body.append(f"scale = 1e-30 if 1e-30 > {result} else {result}")
    body.append(f"return {result}, array([")
    body += [f"    {value}," for value in values]
    body.append("])")

    lines = ["def make(vol, fp, exp, log, array, c):"]
    lines += [f"    {name} = c[{name!r}]" for name in used]
    lines.append("")
    lines.append("    def point(x):")
    lines += [f"        {line}" for line in body]
    if select:
        lines += ["", "    def times(T):"]
        lines += [f"        {line}" for line in tiles_prologue("T") + time_lines]
        returned = ", ".join(time_of[index] for index in range(count))
        lines.append(f"        return [{returned}]")
        lines += ["", "    return point, times", ""]
    else:
        lines += ["", "    return point, None", ""]
    return "\n".join(lines)


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


class _RoundEvaluator:
    """The cost model of one round of Algorithm 1, shared by its solves.

    A round freezes the levels solved so far and leaves ``not_visited``
    free.  The free tiles form the decision vector, concatenated in
    :data:`LOOP_INDICES` order per free level.  This object owns what the
    epigraph selection solve and the hypothesis refine solves have in
    common: the free/fixed levels, the tile bounds, and the problems
    themselves (:meth:`problem`).  Per point (SLSQP's line search) each
    problem is one generated function (:func:`_round_source`, cached by
    round structure in the compile cache); per ``(M, D)`` point matrix
    (the batched finite-difference sweeps) it is one fused
    ``volume_rows`` / ``footprint_rows`` sweep (:meth:`batch`) plus the
    problem's constraint assembly.  Both forms perform the same IEEE-754
    operations in the same order, so they agree bitwise.
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
        self._bandwidths = np.array(
            [bandwidths[level] for level in self.level_order], dtype=float
        )
        self.bandwidth_list = self._bandwidths.tolist()
        self._capacity_list = [capacities[level] for level in self.free_levels]
        self._capacity_column = np.array(self._capacity_list, dtype=float)[:, None]
        order = self.level_order
        self._free_mask = tuple(level in self.free_levels for level in order)
        self._outer = [
            order[index + 1] if index + 1 < len(order) else _WHOLE
            for index in range(len(order))
        ]
        self.nesting_pairs = [
            (order[index], order[index + 1])
            for index in range(len(order) - 1)
            if order[index] in self.free_levels or order[index + 1] in self.free_levels
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

        # Broadcast views of the fixed tiles / problem extents per batch
        # size (almost always the FD sweep's probe count).
        self._broadcast: Dict[int, Dict[str, np.ndarray]] = {}
        # One-slot memo of the refine row assembly: the FD sweep asks for
        # the objective and the constraint values of one point matrix
        # back to back.
        self._rows_memo: Tuple[object, object] = (None, None)
        self._all_levels = list(range(len(order)))
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
        make = self._cache.generated(
            key,
            lambda: compile_generated(
                _round_source(kind, objective, self._free_mask), "make"
            ),
        )
        compiled = self.compiled
        instance = make(
            compiled.volume_floats,
            compiled.footprint_floats,
            np.exp,
            np.log,
            np.array,
            self._constants(),
        )
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

    # -- per point matrix (one fused sweep) ------------------------------
    def rows_by_level(self, free_points: np.ndarray, fixed: Mapping) -> Dict:
        """Per-level ``(M, 7)`` slices of ``free_points`` plus the ``(7,)``
        rows of ``fixed`` (broadcast by the arithmetic that uses them)."""
        by_level = dict(fixed)
        for position, level in enumerate(self.free_levels):
            by_level[level] = free_points[:, position * 7 : (position + 1) * 7]
        return by_level

    def batch(
        self, tile_points: np.ndarray, indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Times ``(len(indices), M)`` of the levels at ``indices`` (level
        order positions) and capacity slacks ``(M, free)`` at once.

        Row ``m`` equals the generated per-point evaluation at
        ``tile_points[m]`` bitwise; frozen levels take their constant.
        """
        count_points = tile_points.shape[0]
        views = self._broadcast.get(count_points)
        if views is None:
            views = {
                level: np.broadcast_to(array, (count_points, 7))
                for level, array in self.fixed.items()
            }
            views[_WHOLE] = np.broadcast_to(self.extents, (count_points, 7))
            if len(self._broadcast) > 8:
                self._broadcast.clear()
            self._broadcast[count_points] = views
        tiles = self.rows_by_level(tile_points, views)
        live = [index for index in indices if index not in self._frozen_times]
        outer_stack = np.concatenate([tiles[self._outer[index]] for index in live])
        inner_stack = np.concatenate([tiles[self.level_order[index]] for index in live])
        volumes = self.compiled.volume_rows(outer_stack, inner_stack).reshape(
            len(live), count_points
        )
        counts = np.prod(self.extents / outer_stack, axis=-1).reshape(
            len(live), count_points
        )
        times = volumes * counts / self._bandwidths[live, None]
        if len(live) < len(indices):
            computed = dict(zip(live, times))
            times = np.array(
                [
                    computed[index]
                    if index in computed
                    else np.full(count_points, self._frozen_times[index])
                    for index in indices
                ]
            )
        footprints = self.compiled.footprint_rows(
            np.concatenate([tiles[level] for level in self.free_levels])
        ).reshape(len(self.free_levels), count_points)
        caps = self._capacity_column
        return times, ((caps - footprints) / caps).T

    def _select_rows(self, points: np.ndarray) -> np.ndarray:
        """Epigraph constraints of an ``(M, D)`` log-space point matrix."""
        points = np.asarray(points, dtype=float)
        y_points = points[:, :-1]
        times, slacks = self.batch(np.exp(y_points), self._all_levels)
        logs = self.rows_by_level(y_points, self._fixed_logs)
        nesting = [
            logs[outer_level] - logs[inner_level]
            for inner_level, outer_level in self.nesting_pairs
        ]
        dominance = points[:, -1:] - np.log(times).T
        return np.concatenate([slacks] + nesting + [dominance], axis=1)

    def _refine_rows(self, points: np.ndarray, objective: int, relaxed: bool):
        """Objective times and constraint columns (relaxed, or with the
        dominance columns) of an ``(M, D)`` point matrix, memoized on the
        last matrix."""
        points = np.asarray(points, dtype=float)
        key = (objective, relaxed, points.tobytes())
        if self._rows_memo[0] == key:
            return self._rows_memo[1]
        times, slacks = self.batch(
            points, [objective] if relaxed else self._all_levels
        )
        tiles = self.rows_by_level(points, self.fixed)
        columns = [slacks] + [
            (tiles[outer_level] - tiles[inner_level]) / self.extents
            for inner_level, outer_level in self.nesting_pairs
        ]
        if relaxed:
            objective_times = times[0]
        else:
            objective_times = times[objective]
            others = [index for index in self._all_levels if index != objective]
            scale = np.maximum(objective_times, 1e-30)
            columns.append(((objective_times - times[others]) / scale).T)
        value = (objective_times, np.concatenate(columns, axis=1))
        self._rows_memo = (key, value)
        return value

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
        point = self._generated(kind, objective)[0]
        objective_fn, constraints_fn = _one_slot(point)
        if kind == "select":
            batch_objective = lambda points: np.asarray(points, dtype=float)[:, -1]
            batch_inequalities = self._select_rows
        else:
            relaxed = kind == "relaxed"
            batch_objective = lambda points: self._refine_rows(
                points, objective, relaxed
            )[0]
            batch_inequalities = lambda points: self._refine_rows(
                points, objective, relaxed
            )[1]
        return ConstrainedProblem(
            objective_fn,
            (constraints_fn,),
            tuple(bounds),
            batch_objective=batch_objective,
            batch_inequalities=batch_inequalities,
            **declarations,
        )


def optimize_conv(
    spec: ConvSpec,
    machine: MachineSpec,
    *,
    settings: Optional[OptimizerSettings] = None,
) -> OptimizationResult:
    """Convenience wrapper: optimize one operator with default settings."""
    return MOptOptimizer(machine, settings).optimize(spec)
