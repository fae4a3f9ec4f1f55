"""Tests for the batched evaluation core of the optimizer.

Three layers of guarantees are pinned here, none of them host-dependent:

* the batched cost tables agree with the scalar model (to machine
  precision), and the compiled plans' row evaluators agree with their
  generated per-point float evaluators *bitwise*, row for row (the
  solver mixes the two forms in one problem), and with the generic model
  (``volume_general``/``combined_footprint``) to rounding; the generated
  sparse jacobians of the round problems equal differencing their
  per-point evaluators one coordinate at a time, at every gradient the
  solver asks for;
* the multistart driver returns bitwise the same solution whether a
  problem carries batched evaluators (batched finite-difference
  jacobians) or leaves differencing to scipy;
* the local SLSQP driver over scipy's kernel takes bitwise the trajectory
  ``scipy.optimize.minimize`` takes when it differences the per-point
  callables itself, on the optimizer's real problems;
* solver edge cases (infeasible capacity, 1-extent loops, stride and
  dilation > 1) produce valid configurations.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import repro.core.optimizer as optimizer_module
import repro.core.solver as solver_module

from repro.core.batched import (
    BatchedCostTable,
    batched_footprints,
    spec_extents_array,
    table_for,
    tiles_to_array,
)
from repro.core.config import TilingConfig
from repro.core.cost_model import (
    CompileCache,
    combined_footprint,
    compiled_cost_for,
    evaluator_compiles,
    volume_general,
)
from repro.core.optimizer import (
    MOptOptimizer,
    OptimizerSettings,
    _RoundEvaluator,
    fast_settings,
)
from repro.core.pruning import all_permutations, pruned_representatives
from repro.core.solver import (
    ConstrainedProblem,
    SolverOptions,
    _fd_gradient,
    _fd_probe,
    _slsqp_run,
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


@st.composite
def _plan_points(draw):
    """Problem extents (extent-1 loops included) and tiles inside them:
    at 1, at the extent, or anywhere in between."""
    problem = [float(draw(st.integers(1, 64))) for _ in LOOP_INDICES]
    tiles = []
    for extent in problem:
        where = draw(st.sampled_from(("one", "bound", "inside")))
        if where == "one":
            tiles.append(1.0)
        elif where == "bound":
            tiles.append(extent)
        else:
            tiles.append(draw(st.floats(1.0, extent)))
    return problem, tiles


class TestGeneratedPlanEvaluators:
    """The generated per-point plan functions equal the row evaluators
    bitwise and the generic model to rounding, on every pruned class."""

    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    @settings(max_examples=40, deadline=None)
    @given(point=_plan_points())
    def test_generated_floats_equal_rows(self, stride, dilation, point):
        problem, tiles = point
        for perm in pruned_representatives():
            compiled = compiled_cost_for(tuple(perm), stride=stride, dilation=dilation)
            value = compiled.volume_floats(problem, tiles)
            row = compiled.volume_rows(np.array([problem]), np.array([tiles]))[0]
            assert value == row
            config = TilingConfig(perm, dict(zip(LOOP_INDICES, tiles)))
            expected = volume_general(
                dict(zip(LOOP_INDICES, problem)),
                config,
                stride=stride,
                dilation=dilation,
            )
            assert value == pytest.approx(expected, rel=1e-12)
            footprint = compiled.footprint_floats(tiles)
            assert footprint == compiled.footprint_rows(np.array([tiles]))[0]

    def test_source_is_kept_and_unit_strides_are_not_multiplied(self):
        perm = tuple(pruned_representatives()[0])
        unit = compiled_cost_for(perm).volume_floats.source
        strided = compiled_cost_for(perm, stride=2, dilation=3).volume_floats.source
        assert "def volume_floats(problem, tiles):" in unit
        assert "stride" not in unit.split("def volume_floats", 1)[1]
        assert "* stride" in strided and "* dilation" in strided
        # Numbers are closure constants: the source names them only.
        assert "2)" not in strided and "3)" not in strided


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
# The local SLSQP driver
# ----------------------------------------------------------------------
def _stats_delta(before):
    after = solver_stats()
    return {
        key: after[key] - before[key] for key in after if key != "blas_threads_pinned"
    }


@pytest.fixture(scope="module")
def r3_problems():
    """Every solver problem of one permutation class of a cold R3 solve on
    the i7-9700k (select and refine of each round), with the solver
    counters the solve moved."""
    before = solver_stats()
    settings = OptimizerSettings(permutation_class_names=("inner-w",))
    captured = _round_problems(benchmark_by_name("R3"), settings)
    delta = _stats_delta(before)
    return [(problem, starts, options) for _, problem, starts, options in captured], delta


def _scipy_polish_oracle(problem, start, options):
    """``scipy.optimize.minimize`` differencing the problem's per-point
    callables itself, with the driver's objective scaling: independent of
    the driver, its batched sweeps and the batched evaluators (scipy also
    removes the variables pinned by equal bounds itself when it
    differences)."""
    base = abs(problem.objective(start))
    scale = base if base > 0 else 1.0
    result = optimize.minimize(
        lambda x: problem.objective(x) / scale,
        start,
        method="SLSQP",
        bounds=problem.bounds,
        constraints=[{"type": "ineq", "fun": problem.inequalities[0]}],
        options={"maxiter": options.maxiter, "ftol": options.tolerance},
    )
    x = problem.clip(np.asarray(result.x, dtype=float))
    return x, bool(result.success), str(result.message)


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
        protocol fails here).  scipy differences the per-point callables
        itself, so neither the driver's differencing nor the generated
        jacobians take part in the oracle."""
        captured, _ = r3_problems
        assert len(captured) == 5
        runs = 0
        for problem, starts, options in captured:
            for start in starts:
                start = problem.clip(start)
                expected = _scipy_polish_oracle(problem, start, options)
                got = _slsqp_run(problem, start, options)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1:] == expected[1:]
                runs += 1
        assert runs >= 10

    def test_polish_all_equals_solo_polishes(self, r3_problems):
        captured, _ = r3_problems
        refines = [item for item in captured if item[0].polish_all]
        assert refines
        for problem, starts, options in refines:
            every = minimize_from_starts(problem, starts, options)
            # Neither declaration and no screening: every start is polished
            # alone, in order, and the best kept by the same rule.
            solo = minimize_from_starts(
                replace(problem, polish_all=False),
                starts,
                replace(options, polish_starts=0),
            )
            assert every.x.tobytes() == solo.x.tobytes()
            assert every.value == solo.value
            assert every.message == solo.message
            assert every.starts_tried == solo.starts_tried == len(starts)

    def test_counters_count_runs_and_requests(self, r3_problems):
        captured, delta = r3_problems
        assert delta["slsqp_runs"] > 0
        assert delta["gradient_requests"] > delta["slsqp_runs"]
        problem, starts, options = next(item for item in captured if item[0].single_basin)
        before = solver_stats()
        minimize_from_starts(problem, starts, options)
        select = _stats_delta(before)
        assert select["slsqp_runs"] >= 1
        assert select["gradient_requests"] > 0


class TestProbeRows:
    def test_cold_r3_probes_only_free_coordinates(self, r3_problems):
        """One probe row per free variable of every gradient request: the
        pinned coordinates of R3 (n, r, s) are never differenced."""
        captured, delta = r3_problems
        assert any(problem.free.size < problem.dimension for problem, _, _ in captured)
        expected = replayed = 0
        for problem, starts, options in captured:
            before = solver_stats()
            minimize_from_starts(problem, starts, options)
            replay = _stats_delta(before)
            expected += replay["gradient_requests"] * problem.free.size
            replayed += replay["probe_rows"]
        assert delta["probe_rows"] == replayed == expected > 0


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _round_problems(spec, settings):
    """``(kind, problem, starts, options)`` of every round problem of one
    cold solve, in solve order."""
    kinds = {}
    captured = []
    real_problem = _RoundEvaluator.problem
    real_minimize = optimizer_module.minimize_from_starts

    def problem(self, kind, *args, **kwargs):
        built = real_problem(self, kind, *args, **kwargs)
        kinds[id(built)] = kind
        return built

    def capture(problem, starts, options):
        starts = [np.asarray(s, dtype=float) for s in starts]
        captured.append((kinds[id(problem)], problem, starts, options))
        return real_minimize(problem, starts, options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RoundEvaluator, "problem", problem)
        patch.setattr(optimizer_module, "minimize_from_starts", capture)
        MOptOptimizer(coffee_lake_i7_9700k(), settings).optimize(spec)
    return captured


def _requests(problem, starts, options):
    """Every gradient request the driver makes, replaying one solve."""
    requests = []

    def record(problem, request):
        requests.append(request)
        return _fd_gradient(problem, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "_fd_gradient", record)
        minimize_from_starts(problem, starts, options)
    return requests


def _dense_gradient(problem, request):
    """Forward differences of the per-point callables, one free coordinate
    at a time: the probe point is the point's ``x + 0.0`` with that
    coordinate set to the driver's probe value (its step rule).  The
    objective is differenced at the point and the constraints at its
    clipped copy, as the driver does."""
    point, clipped, value, scale, cons = request
    free = problem.free

    def columns(at, evaluate, base):
        probe, dx, _ = _fd_probe(problem, at)
        slopes = []
        for k, coordinate in enumerate(free):
            row = at + 0.0
            row[coordinate] = probe[k]
            difference = np.asarray(evaluate(row) - base, dtype=float)
            zero = np.zeros_like(difference)
            slopes.append(difference / dx[k] if dx[k] != 0.0 else zero)
        return np.array(slopes)

    grad = columns(point, lambda row: problem.objective(row) / scale, value / scale)
    jac = columns(
        clipped, lambda row: np.asarray(problem.inequalities[0](row), dtype=float), cons
    )
    return grad, jac.T


def _request_at(problem, point):
    """The request the driver makes at ``point`` (see ``_slsqp_run``)."""
    value = problem.objective(point)
    scale = abs(value) if value != 0 else 1.0
    clipped = problem.clip(point)
    if clipped.tobytes() == point.tobytes():
        clipped = point
    cons = np.asarray(problem.inequalities[0](clipped), dtype=float)
    return point, clipped, value, scale, cons


class TestGeneratedRoundProblems:
    """Each round problem's generated sparse jacobian equals differencing
    its per-point evaluator one free coordinate at a time, bitwise, at
    every gradient request of a cold solve; round code is shared by
    structure."""

    @pytest.mark.parametrize(
        "name",
        [
            "R3",
            pytest.param("R4", marks=pytest.mark.slow),
            pytest.param("R11", marks=pytest.mark.slow),
        ],
    )
    def test_jacobian_equals_dense_differencing(self, name):
        spec = benchmark_by_name(name).with_batch(8)
        captured = _round_problems(spec, fast_settings(parallel=True))
        assert {kind for kind, _, _, _ in captured} == {"select", "refine", "relaxed"}
        checked = 0
        for kind, problem, starts, options in captured:
            assert problem.probes is not None and problem.batch_objective is None
            for request in _requests(problem, starts, options):
                grad, jac = _fd_gradient(problem, request)
                expected_grad, expected_jac = _dense_gradient(problem, request)
                assert _bits(grad) == _bits(expected_grad), kind
                assert _bits(jac) == _bits(expected_jac), kind
                checked += 1
        assert checked > 100

    def test_fallback_steps_and_clipped_constraint_point(self):
        """Off the forward-step path: at a point on its upper bound the
        probes step backward (so unreachable entries are -0.0) -- through
        ``_fd_steps`` where a box is narrower than two steps -- and at a
        point below its lower bound the steps come from ``_fd_steps`` and
        the constraints are differenced at the clipped copy."""
        spec = benchmark_by_name("R3").with_batch(8)
        captured = _round_problems(spec, fast_settings(parallel=True))
        kinds, paths = set(), set()
        for kind, problem, starts, _ in captured:
            start = problem.clip(starts[0])
            at_upper = start.copy()
            at_upper[problem.free] = problem.free_highs
            below = start.copy()
            below[problem.free[0]] = problem.lows[problem.free[0]] - 0.25
            for where, point in (("upper", at_upper), ("below", below)):
                request = _request_at(problem, point)
                _, dx, exact = _fd_probe(problem, point)
                paths.add((where, exact))
                grad, jac = _fd_gradient(problem, request)
                expected_grad, expected_jac = _dense_gradient(problem, request)
                assert _bits(grad) == _bits(expected_grad)
                assert _bits(jac) == _bits(expected_jac)
                if where == "upper":
                    assert exact == problem.wide and (dx <= 0).all()
                    # Entries the probes cannot reach are (c - c) / dx < 0.
                    assert np.signbit(jac[jac == 0.0]).any()
                else:
                    assert not exact and request[1] is not point
            kinds.add(kind)
        assert kinds == {"select", "refine", "relaxed"}
        assert paths == {("upper", True), ("upper", False), ("below", False)}

    def test_same_round_structure_compiles_no_new_code(self, tiny_machine):
        """Round code depends on the round's structure only: another class
        on another machine with the same free levels reuses it."""
        cache = CompileCache()
        spec = ConvSpec("c", 2, 16, 8, 12, 12, 3, 3, padding=1)
        levels = ["L1", "L2", "L3"]
        extents = {i: float(e) for i, e in spec.loop_extents.items()}
        reg = {i: 1.0 for i in LOOP_INDICES}
        other = tiny_machine.with_cache("L2", capacity_bytes=64 * 1024)
        rounds = []
        for perm, machine in zip(pruned_representatives()[:2], (tiny_machine, other)):
            compiled = compiled_cost_for(tuple(perm), cache=cache)
            optimizer = MOptOptimizer(machine, OptimizerSettings(levels=tuple(levels)))
            rounds.append(
                _RoundEvaluator(
                    compiled,
                    ["Reg"] + levels,
                    extents,
                    optimizer._capacities() | {"Reg": 1e9},
                    optimizer._bandwidths() | {"Reg": 1e12},
                    {"Reg": reg},
                    levels,
                    cache,
                )
            )
        compiles = []
        for round_ in rounds:
            before = evaluator_compiles()
            bounds = list(zip(round_.lows.tolist(), round_.highs.tolist()))
            round_.problem("select", bounds + [(-30.0, 0.0)], single_basin=True)
            round_.problem("refine", bounds, "L2", polish_all=True)
            round_.problem("relaxed", bounds, "L2", polish_all=True)
            compiles.append(evaluator_compiles() - before)
        assert compiles == [3, 0]


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


class TestMultiStartFailures:
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
