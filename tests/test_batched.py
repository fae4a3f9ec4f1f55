"""Tests for the batched evaluation core of the optimizer.

Three layers of guarantees are pinned here, none of them host-dependent:

* the batched cost tables agree with the scalar model (to machine
  precision), and the compiled plans' row evaluators agree with their
  per-point float evaluators *bitwise*, row for row (the solver mixes
  the two forms in one problem), and with the generic model
  (``volume_general``/``combined_footprint``) to rounding;
* the multistart driver returns bitwise the same solution whether a
  problem carries batched evaluators (batched finite-difference
  jacobians) or leaves differencing to scipy;
* the local SLSQP driver over scipy's kernel takes bitwise the trajectory
  ``scipy.optimize.minimize`` takes with the same jacobians, on the
  optimizer's real problems, and lockstep polishes equal solo ones;
* solver edge cases (infeasible capacity, 1-extent loops, stride and
  dilation > 1) produce valid configurations.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

import repro.core.optimizer as optimizer_module

from repro.core.batched import (
    BatchedCostTable,
    batched_footprints,
    spec_extents_array,
    table_for,
    tiles_to_array,
)
from repro.core.config import TilingConfig
from repro.core.cost_model import (
    combined_footprint,
    compiled_cost_for,
    volume_general,
)
from repro.core.optimizer import MOptOptimizer, OptimizerSettings
from repro.core.pruning import all_permutations, pruned_representatives
from repro.core.solver import (
    ConstrainedProblem,
    SolverOptions,
    _fd_sweep,
    _slsqp_lockstep,
    minimize_constrained,
    minimize_from_starts,
    solve_single_level,
    solve_single_level_batch,
    solver_stats,
)
from repro.core.tensor_spec import LOOP_INDICES, ConvSpec
from repro.machine.presets import coffee_lake_i7_9700k
from repro.workloads.benchmarks import benchmark_by_name

QUICK = SolverOptions(multistarts=0, maxiter=40, fallback_samples=50)


def _random_points(spec, rng, count):
    extents = spec_extents_array(spec)
    points = 1.0 + rng.uniform(size=(count, 7)) * (extents - 1.0)
    return points


# ----------------------------------------------------------------------
# Batched cost table vs. scalar model
# ----------------------------------------------------------------------
class TestBatchedCostTable:
    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 2), (2, 3)])
    def test_matches_scalar_model(self, stride, dilation):
        rng = np.random.default_rng(0)
        perms = list(pruned_representatives())
        perms += [p for i, p in enumerate(all_permutations()) if i % 997 == 0]
        table = BatchedCostTable(perms, stride=stride, dilation=dilation)
        problem = rng.uniform(4, 64, size=(1, 5, 7))
        tiles = np.maximum(problem * rng.uniform(0.05, 1.0, size=(len(perms), 5, 7)), 1.0)
        got = table.volumes(problem, tiles)
        for p, perm in enumerate(perms):
            for m in range(5):
                config = TilingConfig(perm, dict(zip(LOOP_INDICES, tiles[p, m])))
                expected = volume_general(
                    dict(zip(LOOP_INDICES, problem[0, m])),
                    config,
                    stride=stride,
                    dilation=dilation,
                )
                assert got[p, m] == pytest.approx(expected, rel=1e-12)

    def test_footprints_match_scalar(self, strided_spec):
        rng = np.random.default_rng(1)
        points = _random_points(strided_spec, rng, 8)
        got = batched_footprints(
            points, stride=strided_spec.stride, dilation=strided_spec.dilation
        )
        for m in range(len(points)):
            expected = combined_footprint(
                dict(zip(LOOP_INDICES, points[m])),
                stride=strided_spec.stride,
                dilation=strided_spec.dilation,
            )
            assert got[m] == pytest.approx(expected, rel=1e-12)

    def test_spec_volumes_shared_points(self, small_spec):
        rng = np.random.default_rng(2)
        perms = pruned_representatives()[:3]
        table = BatchedCostTable(perms)
        points = _random_points(small_spec, rng, 4)
        got = table.spec_volumes(small_spec, points)
        assert got.shape == (3, 4)
        extents = {i: float(e) for i, e in small_spec.loop_extents.items()}
        for p, perm in enumerate(perms):
            config = TilingConfig(perm, dict(zip(LOOP_INDICES, points[0])))
            assert got[p, 0] == pytest.approx(
                volume_general(extents, config), rel=1e-12
            )

    def test_leading_axis_validation(self):
        table = BatchedCostTable(pruned_representatives()[:3])
        with pytest.raises(ValueError):
            table.volumes(np.ones((5, 7)), np.ones((5, 7)))

    def test_table_for_is_memoized(self):
        a = table_for((tuple(LOOP_INDICES),), 1, 1)
        b = table_for((tuple(LOOP_INDICES),), 1, 1)
        assert a is b


STRIDE_DILATION = [(1, 1), (2, 1), (1, 2), (2, 3)]


class TestRowAndFloatEvaluators:
    """Row evaluators == float evaluators bitwise; both == generic model."""

    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    def test_volume_rows_equal_volume_floats(self, stride, dilation):
        rng = np.random.default_rng(3)
        for perm in pruned_representatives():
            compiled = compiled_cost_for(tuple(perm), stride=stride, dilation=dilation)
            problem = rng.uniform(4, 100, size=(6, 7))
            tiles = np.maximum(problem * rng.uniform(0.1, 1.0, size=(6, 7)), 1.0)
            rows = compiled.volume_rows(problem, tiles)
            for m in range(6):
                value = compiled.volume_floats(problem[m].tolist(), tiles[m].tolist())
                assert rows[m] == value
                config = TilingConfig(perm, dict(zip(LOOP_INDICES, tiles[m])))
                assert value == pytest.approx(
                    volume_general(
                        dict(zip(LOOP_INDICES, problem[m])),
                        config,
                        stride=stride,
                        dilation=dilation,
                    ),
                    rel=1e-12,
                )

    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    def test_footprint_rows_equal_footprint_floats(self, stride, dilation):
        rng = np.random.default_rng(4)
        for perm in pruned_representatives():
            compiled = compiled_cost_for(tuple(perm), stride=stride, dilation=dilation)
            tiles = rng.uniform(1, 50, size=(5, 7))
            rows = compiled.footprint_rows(tiles)
            for m in range(5):
                value = compiled.footprint_floats(tiles[m].tolist())
                assert rows[m] == value
                assert value == pytest.approx(
                    combined_footprint(
                        dict(zip(LOOP_INDICES, tiles[m])),
                        stride=stride,
                        dilation=dilation,
                    ),
                    rel=1e-12,
                )


def _settings(**overrides):
    defaults = dict(
        levels=("L1", "L2"),
        fix_register_tile=False,
        solver=QUICK,
        top_k=8,
        permutation_class_names=None,
    )
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


# ----------------------------------------------------------------------
# Solver edge cases
# ----------------------------------------------------------------------
class TestSolverEdgeCases:
    def test_infeasible_capacity(self, tiny_machine, small_spec):
        """A capacity below the smallest possible footprint cannot be met;
        the optimizer must report the best-effort point (clamped into
        bounds) rather than crash."""
        settings = _settings(capacity_fraction=1e-6)
        result = MOptOptimizer(tiny_machine, settings).optimize(small_spec)
        result.best.config.validate(small_spec, integral=True)
        assert result.best.predicted_time_seconds > 0

    def test_one_extent_loops(self, tiny_machine, pointwise_spec):
        """1x1 kernels (and batch 1) pin several variables to [1, 1]."""
        result = MOptOptimizer(tiny_machine, _settings()).optimize(pointwise_spec)
        result.best.config.validate(pointwise_spec, integral=True)
        for level in result.best.config.levels:
            tiles = result.best.config.tiles(level)
            assert tiles["r"] == 1 and tiles["s"] == 1 and tiles["n"] == 1

    def test_stride_and_dilation(self, tiny_machine):
        spec = ConvSpec(
            "dilated", 1, 16, 8, 20, 20, 3, 3, stride=2, dilation=2, padding=2
        )
        result = MOptOptimizer(tiny_machine, _settings()).optimize(spec)
        result.best.config.validate(spec, integral=True)
        assert result.best.predicted_time_seconds > 0

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_single_level_solve(self, small_spec, vectorized):
        permutation = pruned_representatives()[0]
        config, volume = solve_single_level(
            small_spec, permutation, 2048.0, options=QUICK, vectorized=vectorized
        )
        assert combined_footprint(config.tiles) <= 2048.0 * 1.01
        assert volume > 0


class TestBatchedSingleLevel:
    def test_batch_agrees_with_scalar_solves(self, small_spec):
        perms = pruned_representatives()[:4]
        batch = solve_single_level_batch(
            small_spec, perms, 2048.0, options=replace(QUICK, polish_starts=0)
        )
        assert len(batch) == 4
        for permutation, (config, volume) in zip(perms, batch):
            ref_config, ref_volume = solve_single_level(
                small_spec, permutation, 2048.0, options=replace(QUICK, polish_starts=0),
                vectorized=True,
            )
            assert config.permutation == tuple(permutation)
            assert volume == pytest.approx(ref_volume, rel=1e-9)

    @pytest.mark.parametrize("capacity", [128.0, 1024.0])
    def test_screened_batch_keeps_scalar_quality(self, small_spec, capacity):
        """The default (screened) batch path must not lose solution quality
        against the scalar multistart — the refiner screening and rescue
        rules, not raw start values, decide which starts get polished."""
        perms = pruned_representatives()
        batch = solve_single_level_batch(small_spec, perms, capacity)
        for permutation, (config, volume) in zip(perms, batch):
            _, ref_volume = solve_single_level(
                small_spec, permutation, capacity, vectorized=False
            )
            assert volume <= ref_volume * 1.02

    def test_empty_input(self, small_spec):
        assert solve_single_level_batch(small_spec, [], 1024.0) == []


class TestBatchedMeasurementParity:
    def test_batch_matches_scalar_protocol(self, small_spec, i7_machine):
        """virtual_measurement_batch must agree with the scalar
        per-configuration protocol it replaces — any future edit to
        estimate_performance that is not mirrored in the batch path fails
        here rather than silently desynchronizing the searchers."""
        from repro.baselines.random_search import _default_measure, _trial_seed
        from repro.sim.perfmodel import virtual_measurement_batch
        from repro.workloads.sampling import SamplerOptions, sample_configurations

        configs = sample_configurations(
            small_spec, count=12, options=SamplerOptions(seed=5)
        )
        measure = _default_measure(small_spec, i7_machine, 1, 3)
        scalar = [measure(config, i) for i, config in enumerate(configs)]
        batch = virtual_measurement_batch(
            small_spec,
            configs,
            i7_machine,
            threads=1,
            seeds=[_trial_seed(3, i) for i in range(len(configs))],
        )
        for a, b in zip(scalar, batch):
            assert b.gflops == pytest.approx(a.gflops, rel=1e-9)
            assert b.bottleneck == a.bottleneck
            assert b.packing_time_seconds == pytest.approx(
                a.packing_time_seconds, rel=1e-12
            )


class TestBatchedMultistartDriver:
    def test_fallback_search_identical_across_paths(self):
        """When every SLSQP run fails, the vectorized fallback rescues the
        same sample the scalar loop does (identical stream + selection)."""

        def objective(x):
            return float(x[0] + x[1])

        def constraint(x):
            # Feasible only in a thin shell that SLSQP's FD steps skate over.
            return np.array([np.sin(50.0 * x[0]) - 0.999])

        def batch_objective(points):
            return points[:, 0] + points[:, 1]

        def batch_constraint(points):
            return (np.sin(50.0 * points[:, 0]) - 0.999)[:, None]

        bounds = ((1.0, 40.0), (1.0, 40.0))
        options = SolverOptions(multistarts=0, maxiter=5, fallback_samples=200)
        scalar = ConstrainedProblem(objective, (constraint,), bounds)
        batched = ConstrainedProblem(
            objective,
            (constraint,),
            bounds,
            batch_objective=batch_objective,
            batch_inequalities=batch_constraint,
        )
        a = minimize_constrained(scalar, options)
        b = minimize_constrained(batched, options)
        if a.message == "fallback projected random search":
            assert b.message == a.message
            assert np.allclose(a.x, b.x)
            assert a.value == pytest.approx(b.value, rel=1e-12)

    @pytest.mark.parametrize("flag", ["polish_all", "single_basin"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_batched_jacobians_match_scipy_differencing(self, flag, pinned):
        """Batch evaluators that loop over the problem's own per-point
        callables change only *how* the jacobians are differenced, so the
        solution must be bitwise the one scipy's own differencing finds —
        also when an equal-bound (pinned) variable forces the driver's
        fixed-variable reduction."""

        def objective(x):
            return float(
                x[0] * x[1] * x[2] + 40.0 / x[0] + 90.0 / (x[1] * x[2]) + 5.0 * x[2] / x[0]
            )

        def constraints(x):
            return np.array(
                [(60.0 - x[0] * x[1] - x[1] * x[2]) / 60.0, (x[1] - x[0]) / 10.0]
            )

        bounds = ((1.0, 20.0), (1.0, 20.0), (2.0, 2.0) if pinned else (1.0, 8.0))
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        starts = [lows + 0.5 * (highs - lows), np.sqrt(lows * highs), highs.copy()]
        plain = ConstrainedProblem(objective, (constraints,), bounds, **{flag: True})
        batched = replace(
            plain,
            batch_objective=lambda points: np.array([objective(p) for p in points]),
            batch_inequalities=lambda points: np.array(
                [constraints(p) for p in points]
            ),
        )
        options = SolverOptions(maxiter=60)
        expected = minimize_from_starts(plain, starts, options)
        got = minimize_from_starts(batched, starts, options)
        assert expected.feasible and expected.success
        assert got.x.tobytes() == expected.x.tobytes()
        assert got.value == expected.value

    def test_minimize_from_starts_screens(self):
        calls = {"n": 0}

        def objective(x):
            calls["n"] += 1
            return float((x[0] - 3.0) ** 2 + (x[1] - 5.0) ** 2)

        def batch_objective(points):
            return (points[:, 0] - 3.0) ** 2 + (points[:, 1] - 5.0) ** 2

        problem = ConstrainedProblem(
            objective,
            (),
            ((0.0, 10.0), (0.0, 10.0)),
            batch_objective=batch_objective,
        )
        starts = [np.array([x, x]) for x in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)]
        options = SolverOptions(maxiter=60, polish_starts=2)
        result = minimize_from_starts(problem, starts, options)
        assert result.feasible
        assert result.x[0] == pytest.approx(3.0, abs=1e-4)
        assert result.x[1] == pytest.approx(5.0, abs=1e-4)
        assert result.starts_tried == 2


# ----------------------------------------------------------------------
# The local SLSQP driver and lockstep polishes
# ----------------------------------------------------------------------
def _stats_delta(before):
    after = solver_stats()
    return {key: after[key] - before[key] for key in after}


@pytest.fixture(scope="module")
def r3_problems():
    """Every solver problem of one permutation class of a cold R3 solve on
    the i7-9700k (select and refine of each round), with the solver
    counters the solve moved."""
    captured = []
    real = optimizer_module.minimize_from_starts

    def capture(problem, starts, options):
        captured.append((problem, [np.asarray(s, dtype=float) for s in starts], options))
        return real(problem, starts, options)

    spec = benchmark_by_name("R3")
    settings = OptimizerSettings(permutation_class_names=("inner-w",))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "minimize_from_starts", capture)
        before = solver_stats()
        MOptOptimizer(coffee_lake_i7_9700k(), settings).optimize(spec)
        delta = _stats_delta(before)
    return captured, delta


def _scipy_polish_oracle(problem, start, options):
    """The old path: ``scipy.optimize.minimize`` over the pinned-reduced
    problem with the batched jacobians supplied as callables."""
    free = problem.lows != problem.highs

    def expand(reduced):
        full = problem.lows.copy()
        full[free] = reduced
        return full

    base = abs(problem.objective(start))
    scale = base if base > 0 else 1.0

    def jacobian(reduced):
        x = expand(np.asarray(reduced, dtype=float))
        ((values, dx, _, _),) = _fd_sweep(problem, [(x, x)])
        scaled = np.concatenate(([float(problem.objective(x))], values)) / scale
        pinned = dx == 0.0
        safe = np.where(pinned, 1.0, dx)
        return np.where(pinned, 0.0, (scaled[1:] - scaled[0]) / safe)[free]

    def constraint_jacobian(reduced):
        x = problem.clip(expand(np.asarray(reduced, dtype=float)))
        ((_, _, cons, dx),) = _fd_sweep(problem, [(x, x)])
        base_cons = np.atleast_1d(problem.inequalities[0](x))
        pinned = dx == 0.0
        safe = np.where(pinned, 1.0, dx)
        return np.where(pinned[:, None], 0.0, (cons - base_cons) / safe[:, None]).T[
            :, free
        ]

    result = optimize.minimize(
        lambda reduced: problem.objective(expand(np.asarray(reduced, dtype=float)))
        / scale,
        start[free],
        method="SLSQP",
        jac=jacobian,
        bounds=[b for b, keep in zip(problem.bounds, free) if keep],
        constraints=[
            {
                "type": "ineq",
                "fun": lambda reduced: problem.inequalities[0](
                    expand(np.asarray(reduced, dtype=float))
                ),
                "jac": constraint_jacobian,
            }
        ],
        options={"maxiter": options.maxiter, "ftol": options.tolerance},
    )
    return problem.clip(expand(result.x)), bool(result.success), str(result.message)


class TestSlsqpDriver:
    def test_captured_every_round(self, r3_problems):
        captured, _ = r3_problems
        assert any(problem.single_basin for problem, _, _ in captured)
        assert any(problem.polish_all for problem, _, _ in captured)
        # R3 is a 1x1 convolution at batch 1: n, r and s are pinned.
        assert all((p.lows == p.highs).any() for p, _, _ in captured)

    def test_driver_matches_scipy_minimize(self, r3_problems):
        """The driver feeds scipy's kernel exactly what scipy's own loop
        does: bitwise the same ``x`` and exit message from every start of
        every real problem (a scipy release that changes the kernel
        protocol fails here)."""
        captured, _ = r3_problems
        runs = 0
        for problem, starts, options in captured:
            for start in starts:
                start = problem.clip(start)
                expected = _scipy_polish_oracle(problem, start, options)
                (got,) = _slsqp_lockstep(problem, [start], options)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1:] == expected[1:]
                runs += 1
        assert runs >= 10

    def test_lockstep_equals_solo_polishes(self, r3_problems):
        captured, _ = r3_problems
        refines = [item for item in captured if item[0].polish_all]
        assert refines
        for problem, starts, options in refines:
            lockstep = minimize_from_starts(problem, starts, options)
            # Neither declaration and no screening: every start is polished
            # alone, in order, and the best kept by the same rule.
            solo = minimize_from_starts(
                replace(problem, polish_all=False),
                starts,
                replace(options, polish_starts=0),
            )
            assert lockstep.x.tobytes() == solo.x.tobytes()
            assert lockstep.value == solo.value
            assert lockstep.message == solo.message
            assert lockstep.starts_tried == solo.starts_tried == len(starts)

    def test_counters_show_shared_sweeps(self, r3_problems):
        captured, delta = r3_problems
        assert delta["slsqp_runs"] > 0
        assert 0 < delta["fd_sweeps"] < delta["gradient_requests"]
        problem, starts, options = next(item for item in captured if item[0].single_basin)
        before = solver_stats()
        minimize_from_starts(problem, starts, options)
        select = _stats_delta(before)
        assert select["slsqp_runs"] >= 1
        assert select["fd_sweeps"] == select["gradient_requests"] > 0


def _bowl_problem(**overrides):
    """A smooth batched problem whose three starts all polish cleanly."""

    def objective(x):
        return float((x[0] - 3.0) ** 2 + (x[1] - 5.0) ** 2 + x[0] * x[1] / 10.0)

    def constraints(x):
        return np.array([(40.0 - x[0] * x[1]) / 40.0])

    fields = dict(
        batch_objective=lambda points: np.array([objective(p) for p in points]),
        batch_inequalities=lambda points: np.array([constraints(p) for p in points]),
        polish_all=True,
    )
    fields.update(overrides)
    return ConstrainedProblem(
        fields.pop("objective", objective),
        (constraints,),
        ((1.0, 10.0), (1.0, 10.0)),
        **fields,
    )


class TestLockstepFailures:
    STARTS = [np.array([2.0, 2.0]), np.array([9.0, 1.5]), np.array([5.0, 8.0])]
    OPTIONS = SolverOptions(maxiter=60)

    @pytest.mark.parametrize("where", ["objective", "sweep"])
    def test_raising_start_drops_only_itself(self, where):
        bad = self.STARTS[1]
        healthy = _bowl_problem()

        def near_bad(point):
            return bool(np.all(np.abs(np.asarray(point) - bad) < 1e-3))

        if where == "objective":

            def objective(x):
                if near_bad(x):
                    raise FloatingPointError("overflow at the bad start")
                return healthy.objective(x)

            faulty = _bowl_problem(objective=objective)
        else:

            def batch_objective(points):
                if any(near_bad(p) for p in points):
                    raise FloatingPointError("overflow in the shared sweep")
                return healthy.batch_objective(points)

            faulty = _bowl_problem(batch_objective=batch_objective)
        expected = minimize_from_starts(
            healthy, [self.STARTS[0], self.STARTS[2]], self.OPTIONS
        )
        got = minimize_from_starts(faulty, self.STARTS, self.OPTIONS)
        assert expected.feasible
        assert got.x.tobytes() == expected.x.tobytes()
        assert got.value == expected.value
        assert got.message == expected.message
        assert got.starts_tried == len(self.STARTS)

    def test_every_variable_pinned(self):
        """Empty reduced bounds: the run is dropped (as scipy's loop fails
        on it) and the fallback search returns the pinned point."""
        problem = ConstrainedProblem(
            lambda x: float(x[0] * x[1]),
            (lambda x: np.array([1.0 - x[0] / 10.0]),),
            ((2.0, 2.0), (3.0, 3.0)),
            batch_objective=lambda points: points[:, 0] * points[:, 1],
            batch_inequalities=lambda points: (1.0 - points[:, 0] / 10.0)[:, None],
            polish_all=True,
        )
        before = solver_stats()
        result = minimize_from_starts(problem, [np.array([2.0, 3.0])], self.OPTIONS)
        assert result.x.tolist() == [2.0, 3.0]
        assert result.feasible
        assert result.message == "fallback projected random search"
        assert _stats_delta(before)["gradient_requests"] == 0

    def test_batched_problem_needs_one_batched_inequality(self):
        with pytest.raises(ValueError, match="batch_inequalities"):
            ConstrainedProblem(
                lambda x: 0.0,
                (lambda x: np.ones(1),),
                ((0.0, 1.0),),
                batch_objective=lambda points: np.zeros(len(points)),
            )
