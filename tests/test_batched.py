"""Tests for the batched evaluation core of the optimizer.

Three layers of guarantees are pinned here, none of them host-dependent:

* the batched cost tables agree with the scalar model (to machine
  precision); the compiled plans' generated per-point evaluators and the
  single-level problem agree with the generic model
  (``volume_general``/``combined_footprint``) *bitwise*; what the
  generated gradients of the round problems write into the kernel's
  buffers equals differencing their per-point evaluators one coordinate
  at a time, at every gradient the solver asks for;
* the local SLSQP driver over scipy's kernel takes bitwise the trajectory
  ``scipy.optimize.minimize`` takes when it differences the per-point
  callables itself, on the optimizer's real problems, on plain problems
  and on the single-level baseline problems;
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
    _default_starts,
    _fd_probe,
    _fused_gradient,
    _single_level_problem,
    _slsqp_run,
    minimize_constrained,
    minimize_from_starts,
    solve_single_level,
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


def _reference_single_level_problem(spec, permutation, capacity):
    """The single-level problem over the generic model's mapping-based
    callables (``volume_general``/``combined_footprint``)."""
    extents = {i: float(spec.loop_extents[i]) for i in LOOP_INDICES}
    stride, dilation = spec.stride, spec.dilation

    def objective(x):
        config = TilingConfig(permutation, dict(zip(LOOP_INDICES, x.tolist())))
        return volume_general(extents, config, stride=stride, dilation=dilation)

    def capacity_constraint(x):
        footprint = combined_footprint(
            dict(zip(LOOP_INDICES, x.tolist())), stride=stride, dilation=dilation
        )
        return (capacity - footprint) / max(capacity, 1.0)

    return ConstrainedProblem(
        objective, (capacity_constraint,), tuple((1.0, e) for e in extents.values())
    )


class TestSingleLevelProblem:
    """The single-level baseline problem (generated plan function plus an
    explicit footprint) is the generic model, bitwise, and its solve is
    bitwise a ``scipy.optimize.minimize`` multistart over the generic
    model's callables."""

    def test_objective_and_constraint_equal_reference(self):
        rng = np.random.default_rng(11)
        permutations = list(all_permutations())
        for _ in range(300):
            permutation = permutations[int(rng.integers(len(permutations)))]
            stride, dilation = (int(v) for v in rng.integers(1, 4, size=2))
            kernel = int(rng.choice([1, 3, 5]))
            spec = ConvSpec(
                "draw",
                int(rng.integers(1, 4)),
                int(rng.integers(1, 40)),
                int(rng.integers(1, 40)),
                24,
                24,
                kernel,
                kernel,
                stride=stride,
                dilation=dilation,
                padding=(kernel - 1) // 2 * dilation,
            )
            capacity = float(rng.uniform(10.0, 1e5))
            problem = _single_level_problem(spec, permutation, capacity)
            reference = _reference_single_level_problem(spec, permutation, capacity)
            extents = problem.highs
            x = 1.0 + rng.uniform(size=7) * (extents - 1.0)
            x[rng.uniform(size=7) < 0.2] = 1.0  # tiles on their lower bound
            assert _bits(problem.objective(x)) == _bits(reference.objective(x))
            assert _bits(problem.inequalities[0](x)) == _bits(
                reference.inequalities[0](x)
            )

    @pytest.mark.parametrize("capacity", [128.0, 1024.0])
    def test_solve_single_level_matches_scipy_multistart(self, strided_spec, capacity):
        """Every default start polished by ``scipy.optimize.minimize`` over
        the reference callables, the best feasible kept: bitwise the
        driver's answer, on two permutations."""
        options = SolverOptions(multistarts=1, maxiter=50)
        for permutation in pruned_representatives()[:2]:
            config, volume = solve_single_level(
                strided_spec, permutation, capacity, options=options
            )
            reference = _reference_single_level_problem(
                strided_spec, permutation, capacity
            )
            best_x, best_value, _ = _scipy_multistart(
                reference, _default_starts(reference, options), options
            )
            assert best_x is not None
            tiles = np.array([config.tiles[i] for i in LOOP_INDICES])
            assert _bits(tiles) == _bits(best_x)
            assert _bits(volume) == _bits(best_value)


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
    """The generated per-point plan functions equal the generic model
    bitwise (the volume) and to rounding (the footprint, summed in another
    order), on every pruned class."""

    @pytest.mark.parametrize("stride,dilation", STRIDE_DILATION)
    @settings(max_examples=40, deadline=None)
    @given(point=_plan_points())
    def test_generated_floats_equal_reference(self, stride, dilation, point):
        problem, tiles = point
        for perm in pruned_representatives():
            compiled = compiled_cost_for(tuple(perm), stride=stride, dilation=dilation)
            value = compiled.volume_floats(problem, tiles)
            config = TilingConfig(perm, dict(zip(LOOP_INDICES, tiles)))
            expected = volume_general(
                dict(zip(LOOP_INDICES, problem)),
                config,
                stride=stride,
                dilation=dilation,
            )
            assert _bits(value) == _bits(expected)
            footprint = compiled.footprint_floats(tiles)
            assert footprint == pytest.approx(
                combined_footprint(
                    dict(zip(LOOP_INDICES, tiles)), stride=stride, dilation=dilation
                ),
                rel=1e-12,
            )

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

    @pytest.mark.parametrize("repeated", [True, False])
    def test_single_level_solve(self, small_spec, repeated):
        """A repeated solve runs on the already compiled plan and generated
        round code; it must return the first answer bitwise."""
        permutation = pruned_representatives()[0]
        config, volume = solve_single_level(
            small_spec, permutation, 2048.0, options=QUICK
        )
        assert combined_footprint(config.tiles) <= 2048.0 * 1.01
        assert volume > 0
        if repeated:
            again, again_volume = solve_single_level(
                small_spec, permutation, 2048.0, options=QUICK
            )
            assert again_volume == volume
            assert again.tiles == config.tiles


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
        """When every SLSQP run fails, the fallback rescues the same sample
        whether it scores samples through the feasibility check and the
        objective or, for a problem with a generated ``point``, through one
        ``point(x)`` call per sample (identical stream + selection)."""
        calls = {"objective": 0, "point": 0}

        def objective(x):
            calls["objective"] += 1
            return float(x[0] + x[1])

        def constraint(x):
            # Feasible only in a thin shell that SLSQP's FD steps skate over.
            return np.array([np.sin(50.0 * x[0]) - 0.999])

        def point(x):
            calls["point"] += 1
            return float(x[0] + x[1]), [float(np.sin(50.0 * x[0]) - 0.999)]

        bounds = ((1.0, 40.0), (1.0, 40.0))
        options = SolverOptions(multistarts=0, maxiter=5, fallback_samples=200)
        plain = ConstrainedProblem(objective, (constraint,), bounds)
        carrying = ConstrainedProblem(
            objective, (constraint,), bounds, point=point, gradient=lambda *_: None
        )
        solved = minimize_constrained(plain, options)
        assert solved.message == "fallback projected random search"
        expected = solver_module._fallback_search(plain, options)
        calls.update(objective=0, point=0)
        got = solver_module._fallback_search(carrying, options)
        assert calls == {"objective": 0, "point": options.fallback_samples}
        assert got[0].tobytes() == expected[0].tobytes() == solved.x.tobytes()
        assert _bits(got[1]) == _bits(expected[1]) == _bits(solved.value)

    @pytest.mark.parametrize(
        "single_basin", [False, True], ids=["every_start", "single_basin"]
    )
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_batched_jacobians_match_scipy_differencing(self, single_basin, pinned):
        """The driver differences a plain problem one probe row at a time
        through its per-point callables: the solution is bitwise the one a
        ``scipy.optimize.minimize`` multistart finds with scipy's own
        differencing, also when an equal-bound (pinned) variable forces
        the driver's fixed-variable reduction, and with two inequality
        callables (scipy stacks them as the driver does)."""

        def objective(x):
            return float(
                x[0] * x[1] * x[2] + 40.0 / x[0] + 90.0 / (x[1] * x[2]) + 5.0 * x[2] / x[0]
            )

        def capacity(x):
            return (60.0 - x[0] * x[1] - x[1] * x[2]) / 60.0

        def order(x):
            return np.array([(x[1] - x[0]) / 10.0])

        bounds = ((1.0, 20.0), (1.0, 20.0), (2.0, 2.0) if pinned else (1.0, 8.0))
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        starts = [lows + 0.5 * (highs - lows), np.sqrt(lows * highs), highs.copy()]
        problem = ConstrainedProblem(
            objective, (capacity, order), bounds, single_basin=single_basin
        )
        options = SolverOptions(maxiter=60)
        # conftest pins scipy's BLAS to one thread for the session, so the
        # driver and the oracle run on the same BLAS.
        got = minimize_from_starts(problem, starts, options)
        expected_x, expected_value, tried = _scipy_multistart(problem, starts, options)
        assert got.feasible and got.success
        assert got.x.tobytes() == expected_x.tobytes()
        assert got.value == expected_value
        assert got.starts_tried == tried == (1 if single_basin else 3)


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
    the driver, its differencing and the generated jacobians (scipy also
    removes the variables pinned by equal bounds itself when it
    differences)."""
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
    x = problem.clip(np.asarray(result.x, dtype=float))
    return x, bool(result.success), str(result.message)


def _scipy_multistart(problem, starts, options):
    """The best feasible :func:`_scipy_polish_oracle` polish over the
    starts by the driver's rule (strict ``<`` in start order; a
    ``single_basin`` problem stops at the first feasible polish):
    ``(x, value, polishes)``."""
    best_x, best_value, tried = None, float("inf"), 0
    for start in starts:
        x, _, _ = _scipy_polish_oracle(problem, problem.clip(start), options)
        tried += 1
        if problem.is_feasible(x, tolerance=1e-5):
            value = problem.objective(x)
            if value < best_value:
                best_x, best_value = x, value
            if problem.single_basin and best_x is not None:
                break
    return best_x, best_value, tried


class TestSlsqpDriver:
    def test_captured_every_round(self, r3_problems):
        captured, _ = r3_problems
        assert any(problem.single_basin for problem, _, _ in captured)
        assert any(not problem.single_basin for problem, _, _ in captured)
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
        """A refine problem polishes every start: its answer is the best
        feasible one of the starts' solo polishes, by the same rule."""
        captured, _ = r3_problems
        refines = [item for item in captured if not item[0].single_basin]
        assert refines
        for problem, starts, options in refines:
            every = minimize_from_starts(problem, starts, options)
            best = None
            for start in starts:
                x, _, message = _slsqp_run(problem, problem.clip(start), options)
                if problem.is_feasible(x, tolerance=1e-5):
                    value = problem.objective(x)
                    if best is None or value < best[1]:
                        best = (x, value, message)
            assert best is not None
            assert every.x.tobytes() == best[0].tobytes()
            assert every.value == best[1]
            assert every.message == best[2]
            assert every.starts_tried == len(starts)

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


class TestColdPathCounters:
    def test_cold_r3_counters(self):
        """A cold R3 solve takes the pinned trajectory and compiles the
        pinned number of sources: a change to either fails here, not only
        in the answer digest."""
        before = solver_stats()
        MOptOptimizer(
            coffee_lake_i7_9700k(),
            fast_settings(parallel=True),
            compile_cache=CompileCache(),
        ).optimize(benchmark_by_name("R3"))
        assert _stats_delta(before) == {
            "slsqp_runs": 72,
            "gradient_requests": 1135,
            "probe_rows": 10875,
            "evaluator_compiles": 19,
        }


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


def _answers(problem, starts, options):
    """Every gradient request the driver makes replaying one solve, with
    the gradient and jacobian its answer left in the kernel's buffers."""
    answered = []
    real = solver_module._fused_gradient

    def recording(problem, grad, jac):
        answer = real(problem, grad, jac)

        def record(*request):
            answer(*request)
            answered.append((request, grad.copy(), jac.copy()))

        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "_fused_gradient", recording)
        minimize_from_starts(problem, starts, options)
    return answered


def _fused_at(problem, request):
    """What the answer of a fresh run writes for ``request``."""
    n, m = problem.free.size, len(request[4])
    grad, jac = np.zeros(n), np.zeros((m, n), order="F")
    _fused_gradient(problem, grad, jac)(*request)
    return grad, jac


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
        clipped,
        lambda row: np.asarray(problem.inequalities[0](row), dtype=float),
        np.asarray(cons, dtype=float),
    )
    return grad, jac.T


def _request_at(problem, point):
    """The request the driver makes at ``point`` (see ``_slsqp_run``)."""
    value = problem.objective(point)
    scale = abs(value) if abs(value) > 0 else 1.0
    clipped = problem.clip(point)
    if clipped.tobytes() == point.tobytes():
        clipped = point
    return point, clipped, value, scale, problem.point(clipped)[1]


def _assert_dense(problem, request, grad, jac):
    expected_grad, expected_jac = _dense_gradient(problem, request)
    assert _bits(grad) == _bits(expected_grad)
    assert _bits(jac) == _bits(expected_jac)


class TestGeneratedRoundProblems:
    """What each round problem's generated gradient writes into the
    kernel's buffers equals differencing its per-point evaluator one free
    coordinate at a time, bitwise, at every gradient request of a cold
    solve and off the forward-step path; round code is shared by
    structure."""

    @pytest.mark.parametrize(
        "name, batch", [("R3", 1), ("R4", 1), ("R11", 8)], ids=["R3", "R4", "R11"]
    )
    def test_jacobian_equals_dense_differencing(self, name, batch):
        """R3 pins n, r and s; R4 has stride 2; R11 at batch 8 frees n.
        The replay reaches backward-step columns (unreachable entries
        -0.0) and the ``_fd_steps`` fallback inside the runs."""
        spec = benchmark_by_name(name).with_batch(batch)
        captured = _round_problems(spec, fast_settings(parallel=True))
        assert {kind for kind, _, _, _ in captured} == {"select", "refine", "relaxed"}
        checked = backward = fallback = 0
        for kind, problem, starts, options in captured:
            assert problem.gradient is not None
            for request, grad, jac in _answers(problem, starts, options):
                expected_grad, expected_jac = _dense_gradient(problem, request)
                assert _bits(grad) == _bits(expected_grad), kind
                assert _bits(jac) == _bits(expected_jac), kind
                _, dx, exact = _fd_probe(problem, request[0])
                backward += bool((dx < 0).any())
                fallback += not exact
                checked += 1
        assert checked > 100
        assert backward > 0
        if name == "R3":
            assert fallback > 0

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
                grad, jac = _fused_at(problem, request)
                _assert_dense(problem, request, grad, jac)
                if where == "upper":
                    assert exact == problem.wide and (dx <= 0).all()
                    # Entries the probes cannot reach are (c - c) / dx < 0.
                    assert np.signbit(jac[jac == 0.0]).any()
                else:
                    assert not exact and request[1] is not point
            kinds.add(kind)
        assert kinds == {"select", "refine", "relaxed"}
        assert paths == {("upper", True), ("upper", False), ("below", False)}

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_values_and_odd_steps(self):
        """Off the finite path, bitwise as differencing ``point``:

        * a NaN coordinate makes constraint values NaN (their unreachable
          entries are NaN, not a signed zero) and its own step NaN; one
          run answers it, an ordinary point and it again, so the columns
          it dirties are rewritten in between;
        * an inverted box gives a zero step: that column is +0.0
          throughout, NaN rows (another coordinate is NaN) included;
        * an unbounded coordinate at +inf steps by NaN, so its column is
          NaN where a finite step would leave a signed zero.
        """
        spec = benchmark_by_name("R3").with_batch(8)
        captured = _round_problems(spec, fast_settings(parallel=True))
        kinds = set()
        for kind, problem, starts, _ in captured:
            start = problem.clip(starts[0])
            first, second = problem.free[:2]
            m = len(problem.point(start)[1])

            def with_bound(low, high):
                bounds = list(problem.bounds)
                bounds[first] = (low, high)
                return replace(problem, bounds=tuple(bounds))

            nan_point = start.copy()
            nan_point[first] = np.nan
            grad = np.zeros(problem.free.size)
            jac = np.zeros((m, problem.free.size), order="F")
            answer = _fused_gradient(problem, grad, jac)
            for point in (nan_point, start, nan_point):
                request = _request_at(problem, point)
                assert request[1] is point
                answer(*request)
                _assert_dense(problem, request, grad, jac)
            assert not np.isfinite(_request_at(problem, nan_point)[4]).all()
            assert np.isnan(jac[:, 0]).all()

            low, high = problem.bounds[first]
            inverted = with_bound(max(high, low + 1.0), low)
            point = inverted.clip(start)
            point[second] = np.nan
            request = _request_at(inverted, point)
            assert _fd_probe(inverted, point)[1][0] == 0.0
            grad, jac = _fused_at(inverted, request)
            _assert_dense(inverted, request, grad, jac)
            assert _bits(jac[:, 0]) == _bits(np.zeros(m)) and grad[0] == 0.0
            assert np.isnan(jac).any()

            unbounded = with_bound(low, np.inf)
            point = start.copy()
            point[first] = np.inf
            request = _request_at(unbounded, point)
            assert request[1] is point
            grad, jac = _fused_at(unbounded, request)
            _assert_dense(unbounded, request, grad, jac)
            assert np.isnan(jac[:, 0]).all()
            kinds.add(kind)
        assert kinds == {"select", "refine", "relaxed"}

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
            round_.problem("refine", bounds, "L2")
            round_.problem("relaxed", bounds, "L2")
            compiles.append(evaluator_compiles() - before)
        assert compiles == [3, 0]


def _bowl_problem(objective=None):
    """A smooth problem whose three starts all polish cleanly."""

    def bowl(x):
        return float((x[0] - 3.0) ** 2 + (x[1] - 5.0) ** 2 + x[0] * x[1] / 10.0)

    def constraints(x):
        return np.array([(40.0 - x[0] * x[1]) / 40.0])

    return ConstrainedProblem(
        objective or bowl, (constraints,), ((1.0, 10.0), (1.0, 10.0))
    )


class TestMultiStartFailures:
    STARTS = [np.array([2.0, 2.0]), np.array([9.0, 1.5]), np.array([5.0, 8.0])]
    OPTIONS = SolverOptions(maxiter=60)

    @pytest.mark.parametrize("where", ["objective", "sweep"])
    def test_raising_start_drops_only_itself(self, where):
        """A start whose objective raises at the start itself or (``sweep``)
        only at the finite-difference probes around it is dropped."""
        bad = self.STARTS[1]
        healthy = _bowl_problem()

        def raises_at(x):
            near = bool(np.all(np.abs(np.asarray(x) - bad) < 1e-3))
            return near and (where == "objective" or x.tobytes() != bad.tobytes())

        def objective(x):
            if raises_at(x):
                raise FloatingPointError(f"overflow near the bad start ({where})")
            return healthy.objective(x)

        faulty = _bowl_problem(objective=objective)
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
        )
        before = solver_stats()
        result = minimize_from_starts(problem, [np.array([2.0, 3.0])], self.OPTIONS)
        assert result.x.tolist() == [2.0, 3.0]
        assert result.feasible
        assert result.message == "fallback projected random search"
        assert _stats_delta(before)["gradient_requests"] == 0

    def test_batched_problem_needs_one_batched_inequality(self):
        """A generated gradient answers for one (vector-valued) inequality
        and comes with its ``point`` evaluation."""
        with pytest.raises(ValueError, match="at most one"):
            ConstrainedProblem(
                lambda x: 0.0,
                (lambda x: np.ones(1), lambda x: np.ones(1)),
                ((0.0, 1.0),),
                point=lambda x: (0.0, [1.0, 1.0]),
                gradient=lambda *_: None,
            )
        with pytest.raises(ValueError, match="point evaluation"):
            ConstrainedProblem(
                lambda x: 0.0, (), ((0.0, 1.0),), gradient=lambda *_: None
            )
