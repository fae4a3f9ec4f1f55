"""Shape-family compile sharing, the process pool and cache-token policy.

Raw-speed round 2 keys the compiled permutation-class plans by *shape
family* — the permutation plus stride/dilation, never the loop extents —
and shares one bounded, counted table (:class:`repro.core.cost_model.
CompileCache`) across every optimizer, network sweep and DSE exploration
in the process.  The searches of an ``executor="process"`` network run
on one long-lived process pool (:mod:`repro.core.solve_pool`).  Neither
mechanism may ever change a result:

* two specs of the same family must reuse one compiled table *and*
  produce bitwise-identical costs to fresh compilation;
* differing stride/dilation must never share an entry;
* pooled and serial searches must agree bitwise at any worker count,
  also when another thread shut the shared pool down under a search,
  and the pinned-dimension class collapse must hand every member of a
  group the tiles its own solve would have produced;
* recorded settings carry no execution-path knobs, while the loss-free
  screening rework (new refine-solve numerics) must be visible as a
  ``STRATEGY_VERSION`` bump.
"""

import sys
import threading
from dataclasses import dataclass, field, replace

import pytest

from repro.core import solve_pool
from repro.core.batched import table_cache_stats, table_for
from repro.core.cost_model import (
    DEFAULT_COMPILE_CACHE,
    CompileCache,
    CompiledPermutationCost,
    compiled_cost_for,
    evaluator_compiles,
)
from repro.core.optimizer import MOptOptimizer, OptimizerSettings
from repro.core.pruning import pruned_representatives
from repro.core.solver import SolverOptions
from repro.core.tensor_spec import LOOP_INDICES, ConvSpec
from repro.engine import NetworkOptimizer, StrategyResult
from repro.engine.serialization import settings_to_dict

QUICK = SolverOptions(multistarts=0, maxiter=40, fallback_samples=50)

REP = pruned_representatives()[0]


def _settings(**overrides) -> OptimizerSettings:
    defaults = dict(
        levels=("L1", "L2"),
        fix_register_tile=False,
        solver=QUICK,
        top_k=8,
        permutation_class_names=None,
    )
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


def _sample_points():
    """A few (problem, tiles) evaluation points over all seven loops."""
    points = []
    for scale, tile in ((16.0, 4.0), (24.0, 3.0), (9.0, 2.5)):
        points.append(([scale] * len(LOOP_INDICES), [tile] * len(LOOP_INDICES)))
    return points


def _candidate_table(result):
    return {
        c.class_name: (c.config, c.predicted_time_seconds)
        for c in result.candidates
    }


@dataclass(frozen=True)
class _TableStrategy:
    """mopt answering with its whole candidate table (module level, so a
    pool worker can unpickle it)."""

    settings: OptimizerSettings
    name: str = field(default="mopt-table", init=False)

    def search(self, spec, machine):
        result = MOptOptimizer(machine, self.settings).optimize(spec)
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=result.predicted_gflops,
            time_seconds=result.best.predicted_time_seconds,
            search_seconds=0.0,
            extras={"table": _candidate_table(result)},
        )

    def cache_token(self):
        return {"settings": settings_to_dict(self.settings)}


POOLED_NET = (
    ConvSpec("pooled", 1, 16, 8, 8, 8, 3, 3, padding=1),
    ConvSpec("pooled-1x1", 1, 8, 16, 8, 8, 1, 1),
    ConvSpec("pooled-wide", 1, 8, 8, 10, 10, 3, 3, padding=1),
)


def _network_tables(machine, specs, **execution):
    """Per-layer candidate tables of one network optimize."""
    optimizer = NetworkOptimizer(machine, _TableStrategy(_settings()), **execution)
    result = optimizer.optimize(list(specs))
    return [op.result.extras["table"] for op in result.operators]


# ----------------------------------------------------------------------
# CompileCache unit behavior
# ----------------------------------------------------------------------
class TestCompileCache:
    def test_same_family_shares_one_instance(self):
        cache = CompileCache()
        first = cache.get(REP, stride=1, dilation=1)
        second = cache.get(REP, stride=1, dilation=1)
        assert first is second
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["size"] == 1

    def test_cached_costs_bitwise_equal_fresh_compilation(self):
        cache = CompileCache()
        for stride, dilation in ((1, 1), (2, 1), (1, 2), (2, 3)):
            cached = cache.get(REP, stride=stride, dilation=dilation)
            fresh = CompiledPermutationCost(REP, stride=stride, dilation=dilation)
            for problem, tiles in _sample_points():
                assert cached.volume_floats(problem, tiles) == fresh.volume_floats(
                    problem, tiles
                )

    def test_differing_stride_or_dilation_never_shares(self):
        cache = CompileCache()
        entries = {
            (stride, dilation): cache.get(REP, stride=stride, dilation=dilation)
            for stride, dilation in ((1, 1), (2, 1), (1, 2))
        }
        assert len({id(entry) for entry in entries.values()}) == 3
        assert len(cache) == 3
        assert cache.stats()["hits"] == 0

    def test_lru_bound_and_eviction_counter(self):
        cache = CompileCache(maxsize=2)
        representatives = pruned_representatives()[:3]
        for rep in representatives:
            cache.get(rep)
        stats = cache.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        # The least-recently-used family was evicted: re-asking recompiles.
        cache.get(representatives[0])
        assert cache.stats()["misses"] == 4

    def test_clear_resets_entries_and_counters(self):
        cache = CompileCache()
        cache.get(REP)
        cache.get(REP)
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0

    def test_generated_code_is_built_once_and_dropped_by_clear(self):
        cache = CompileCache()
        builds = []

        def build():
            builds.append(len(builds))
            return lambda: None

        first = cache.generated(("round", "select"), build)
        assert cache.generated(("round", "select"), build) is first
        assert builds == [0]
        # Round code is not a plan: the plan counters do not move.
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        cache.clear()
        assert cache.generated(("round", "select"), build) is not first
        assert builds == [0, 1]

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileCache(maxsize=0)

    def test_default_route_is_process_global(self):
        first = compiled_cost_for(REP, stride=1, dilation=1)
        second = compiled_cost_for(REP, stride=1, dilation=1)
        assert first is second
        assert DEFAULT_COMPILE_CACHE.stats()["size"] >= 1

    def test_batched_table_memo_is_family_keyed_and_counted(self):
        before = table_cache_stats()
        table_for((REP,), 1, 1)
        table_for((REP,), 1, 1)
        after = table_cache_stats()
        assert after["hits"] >= before["hits"] + 1
        assert set(after) == {"hits", "misses", "size", "maxsize"}


# ----------------------------------------------------------------------
# Shape-family property at the optimizer level
# ----------------------------------------------------------------------
class TestShapeFamilySharing:
    def test_same_family_specs_reuse_one_table_bitwise(self, tiny_machine):
        """Two same-family specs: one compile, bitwise-equal to fresh caches."""
        spec_a = ConvSpec("fam-a", 1, 16, 8, 10, 10, 3, 3, padding=1)
        spec_b = ConvSpec("fam-b", 2, 24, 12, 14, 14, 3, 3, padding=1)
        shared = CompileCache()
        optimizer = MOptOptimizer(tiny_machine, _settings(), compile_cache=shared)
        result_a = optimizer.optimize(spec_a)
        misses_after_first = shared.stats()["misses"]
        result_b = optimizer.optimize(spec_b)
        stats = shared.stats()
        # The second spec is the same family: every lookup hits.
        assert stats["misses"] == misses_after_first
        assert stats["hits"] > 0
        for result, spec in ((result_a, spec_a), (result_b, spec_b)):
            fresh = MOptOptimizer(
                tiny_machine, _settings(), compile_cache=CompileCache()
            ).optimize(spec)
            assert _candidate_table(result) == _candidate_table(fresh)

    def test_warm_cache_compiles_no_evaluators(self, tiny_machine):
        """Plans and round code are both cached: a repeated solve on a warm
        compile cache generates no code, a cleared one does again."""
        spec = ConvSpec("warm", 1, 16, 8, 10, 10, 3, 3, padding=1)
        shared = CompileCache()
        optimizer = MOptOptimizer(tiny_machine, _settings(), compile_cache=shared)
        before = evaluator_compiles()
        first = optimizer.optimize(spec)
        cold = evaluator_compiles() - before
        second = optimizer.optimize(spec)
        assert evaluator_compiles() - before == cold > 0
        assert _candidate_table(first) == _candidate_table(second)
        shared.clear()
        optimizer.optimize(spec)
        assert evaluator_compiles() - before == 2 * cold

    def test_cold_r3_compiles_one_source_per_plan_and_round(self):
        """The sparse jacobian lives in its round's generated source: a
        cold R3 solve (default ``mopt`` settings) compiles as many
        evaluator sources as solved plans plus round structures, 17:
        the 2 classes that collapse into another's solve build no plan."""
        from repro.core.optimizer import fast_settings
        from repro.machine.presets import coffee_lake_i7_9700k
        from repro.workloads.benchmarks import benchmark_by_name

        optimizer = MOptOptimizer(
            coffee_lake_i7_9700k(),
            fast_settings(parallel=True),
            compile_cache=CompileCache(),
        )
        before = evaluator_compiles()
        optimizer.optimize(benchmark_by_name("R3"))
        assert evaluator_compiles() - before == 17

    def test_plan_code_is_built_on_first_evaluator_use(self):
        """The signature and the interval bound read only the analysis;
        the first evaluator use compiles all three functions once."""
        plan = CompiledPermutationCost(REP, stride=2, dilation=1)
        before = evaluator_compiles()
        plan.plan_signature(frozenset())
        plan.volume_interval_bound([16.0] * 7, [16.0] * 7, [4.0] * 7, [4.0] * 7)
        assert evaluator_compiles() == before
        (problem, tiles), *_ = _sample_points()
        volume = plan.volume_floats(problem, tiles)
        plan.footprint_floats(tiles)
        plan.lanes
        assert evaluator_compiles() == before + 1
        assert plan.lanes.source == plan.volume_floats.source
        fresh = CompiledPermutationCost(REP, stride=2, dilation=1)
        assert fresh.volume_floats(problem, tiles) == volume
        with pytest.raises(AttributeError):
            plan.no_such_attribute

    def test_racing_first_uses_all_get_working_code(self):
        """Threads racing on a plan's first use may each build its code;
        every one of them evaluates with a working, equal function."""
        problem, tiles = _sample_points()[0]
        expected = CompiledPermutationCost(REP).volume_floats(problem, tiles)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                plan = CompiledPermutationCost(REP)
                start = threading.Barrier(8)
                seen = []

                def first_use(name):
                    start.wait(timeout=10)
                    getattr(plan, name)
                    seen.append(plan.volume_floats(problem, tiles))

                names = CompiledPermutationCost._EVALUATORS
                threads = [
                    threading.Thread(target=first_use, args=(names[i % len(names)],))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [expected] * 8
        finally:
            sys.setswitchinterval(switch)

    def test_differing_family_compiles_new_entries(self, tiny_machine):
        plain = ConvSpec("plain", 1, 16, 8, 10, 10, 3, 3, padding=1)
        strided = replace(plain, name="strided", stride=2)
        shared = CompileCache()
        optimizer = MOptOptimizer(tiny_machine, _settings(), compile_cache=shared)
        optimizer.optimize(plain)
        misses_after_plain = shared.stats()["misses"]
        optimizer.optimize(strided)
        assert shared.stats()["misses"] > misses_after_plain


# ----------------------------------------------------------------------
# The process pool of executor="process"
# ----------------------------------------------------------------------
class TestSolvePool:
    def test_pooled_solves_bitwise_identical_to_serial(self, tiny_machine):
        serial = _network_tables(tiny_machine, POOLED_NET[:2])
        before = solve_pool.pool_stats()
        try:
            pooled = _network_tables(
                tiny_machine, POOLED_NET[:2], executor="process", max_workers=2
            )
        finally:
            solve_pool.shutdown_pool()
        after = solve_pool.pool_stats()
        assert after["pool_batches"] == before["pool_batches"] + 1
        assert after["pool_solves"] == before["pool_solves"] + 2
        assert pooled == serial

    def test_answers_do_not_depend_on_the_worker_count(self, tiny_machine):
        """One worker and two give bitwise the serial candidate tables,
        and a second call reuses the pool the first one grew."""
        serial = _network_tables(tiny_machine, POOLED_NET)
        solve_pool.shutdown_pool()
        try:
            one = _network_tables(
                tiny_machine, POOLED_NET, executor="process", max_workers=1
            )
            two = _network_tables(
                tiny_machine, POOLED_NET, executor="process", max_workers=2
            )
            pool = solve_pool._EXECUTOR
            before = solve_pool.pool_stats()
            again = _network_tables(
                tiny_machine, POOLED_NET, executor="process", max_workers=2
            )
            after = solve_pool.pool_stats()
            assert solve_pool._EXECUTOR is pool
        finally:
            solve_pool.shutdown_pool()
        assert after["pool_solves"] == before["pool_solves"] + len(POOLED_NET)
        assert after["pool_rebuilds"] == before["pool_rebuilds"]
        assert one == serial
        assert two == serial
        assert again == serial

    def test_concurrent_calls_share_the_pool_and_count_every_search(
        self, tiny_machine
    ):
        """Four callers (more leader threads than cores) share the one
        pool: every search is answered bitwise and counted once."""
        serial = _network_tables(tiny_machine, POOLED_NET)
        before = solve_pool.pool_stats()
        answers = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(
                    target=lambda: answers.append(
                        _network_tables(
                            tiny_machine, POOLED_NET, executor="process", max_workers=2
                        )
                    )
                )
                for _ in range(4)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(switch)
            solve_pool.shutdown_pool()
        after = solve_pool.pool_stats()
        assert answers == [serial] * 4
        assert after["pool_solves"] == before["pool_solves"] + 4 * len(POOLED_NET)
        assert after["pool_batches"] == before["pool_batches"] + 4

    def test_pool_shut_down_by_another_thread_is_recovered(
        self, tiny_machine, monkeypatch
    ):
        """Leader threads share one pool, and a thread that saw it break
        (or grew it) shuts it down under the others' searches: their
        submits then raise RuntimeError, which must be recovered like a
        break."""
        serial = _network_tables(tiny_machine, POOLED_NET[:1])
        get_executor = solve_pool._get_executor
        handed_out = []

        def shut_down_first(workers):
            executor = get_executor(workers)
            if not handed_out:
                executor.shutdown(wait=True)
            handed_out.append(executor)
            return executor

        monkeypatch.setattr(solve_pool, "_get_executor", shut_down_first)
        try:
            pooled = _network_tables(
                tiny_machine, POOLED_NET[:1], executor="process", max_workers=2
            )
        finally:
            solve_pool.shutdown_pool()
        assert handed_out[1] is not handed_out[0]
        assert pooled == serial

    def test_discarding_a_broken_pool_keeps_its_replacement(self):
        """Two threads that saw the same pool break both discard it; the
        second discard must not shut down the pool the first one rebuilt."""
        broken = solve_pool._get_executor(2)
        assert solve_pool._discard_broken_executor(broken)
        replacement = solve_pool._get_executor(2)
        try:
            assert not solve_pool._discard_broken_executor(broken)
            assert solve_pool._get_executor(2) is replacement
            assert replacement.submit(int, 7).result() == 7
        finally:
            solve_pool.shutdown_pool()


# ----------------------------------------------------------------------
# Pinned-dimension class collapse
# ----------------------------------------------------------------------
class TestDedupClasses:
    # A GEMM-shaped operator pins r/s/h/w, collapsing most classes.
    GEMM = ConvSpec("gemm", 8, 16, 8, 1, 1, 1, 1)

    def test_matmul_like_spec_solves_once_per_group(self, tiny_machine, monkeypatch):
        """The eight classes collapse to three groups on a GEMM: their
        plans differ only in where n, k and c sit once r/s/h/w are pinned."""
        solved = []
        original = MOptOptimizer._solve_class_tiles

        def counting(self, spec, cls, microkernel):
            solved.append(cls.name)
            return original(self, spec, cls, microkernel)

        monkeypatch.setattr(MOptOptimizer, "_solve_class_tiles", counting)
        result = MOptOptimizer(tiny_machine, _settings()).optimize(self.GEMM)
        assert solved == ["inner-w", "inner-s", "inner-wk"]
        assert len(result.candidates) == 8

    def test_every_member_gets_its_own_solve_bitwise(self, tiny_machine):
        from repro.core.microkernel import design_microkernel

        optimizer = MOptOptimizer(tiny_machine, _settings())
        microkernel = design_microkernel(tiny_machine, self.GEMM)
        groups = optimizer._collapse_groups(
            self.GEMM, optimizer._permutation_classes()
        )
        assert sorted(len(group) for group in groups) != [1] * 8
        shared = optimizer._solve_groups(self.GEMM, groups, microkernel)
        for group, tiles in zip(groups, shared):
            for cls in group:
                assert optimizer._solve_class_tiles(
                    self.GEMM, cls, microkernel
                ) == tiles, cls.name


# ----------------------------------------------------------------------
# Cache-token / version policy
# ----------------------------------------------------------------------
class TestCacheTokenPolicy:
    def test_strategy_version_bumped_for_lossfree_screening(self):
        from repro.engine.cache import STRATEGY_VERSION

        # The refine-solve restructure changed per-class tiles and
        # predicted times, so results cached under version 3 are stale.
        assert STRATEGY_VERSION == 4

    def test_settings_has_no_execution_path_knobs(self):
        from repro.engine.serialization import settings_to_dict

        payload = settings_to_dict(_settings())
        assert "vectorized" not in payload and "dedup_classes" not in payload
        assert "polish_starts" not in payload["solver"]

    def test_settings_from_dict_loads_payloads_with_retired_knobs(self):
        from repro.engine.serialization import settings_from_dict, settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        # Recorded before the scalar path and the dedup switch were retired.
        payload.update(vectorized=True, dedup_classes=True)
        assert settings_from_dict(payload) == base

    def test_settings_from_dict_loads_payloads_with_retired_solver_options(self):
        from repro.engine.serialization import settings_from_dict, settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        # Recorded while the solver still screened multistart starts.
        payload["solver"]["polish_starts"] = 2
        assert settings_from_dict(payload) == base

    def test_settings_from_dict_tolerates_execution_only_keys(self):
        from repro.engine.serialization import settings_from_dict, settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        payload["future_execution_flag"] = 8  # recorded by a newer revision
        restored = settings_from_dict(payload)
        assert restored == base


# ----------------------------------------------------------------------
# Serving stats probe
# ----------------------------------------------------------------------
class TestServingStatsProbe:
    def test_snapshot_includes_cache_and_pool_counters(self, tiny_machine):
        from repro.serving.server import OptimizationServer

        server = OptimizationServer(tiny_machine, "mopt")
        snapshot = server.stats_snapshot()
        for key in ("hits", "misses", "size", "maxsize"):
            assert key in snapshot["compile_cache"]
            assert key in snapshot["batched_table_cache"]
        assert set(snapshot["solve_pool"]) == {
            "pool_batches", "pool_solves", "pool_rebuilds", "serial_fallbacks",
        }
        assert snapshot["accepted"] == 0
        assert snapshot["queue_depth"] == 0

    def test_session_performance_stats_mirror_probe(self):
        from repro.api import Session

        stats = Session("tiny", "mopt").performance_stats()
        assert set(stats) == {
            "compile_cache",
            "batched_table_cache",
            "solve_pool",
            "solver",
            "reliability",
        }
        for key in ("hits", "misses", "size", "maxsize"):
            assert key in stats["compile_cache"]
        assert set(stats["solver"]) == {
            "slsqp_runs",
            "gradient_requests",
            "probe_rows",
            "runs_converged",
            "runs_iteration_limit",
            "runs_other",
            "iterations_converged",
            "iterations_iteration_limit",
            "iterations_other",
            "evaluator_compiles",
            "blas_threads_pinned",
        }
