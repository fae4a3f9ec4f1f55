"""Shape-family compile sharing, intra-operator pool and cache-token policy.

Raw-speed round 2 keys the compiled permutation-class plans by *shape
family* — the permutation plus stride/dilation, never the loop extents —
and shares one bounded, counted table (:class:`repro.core.cost_model.
CompileCache`) across every optimizer, network sweep and DSE exploration
in the process.  The per-class solves of one operator can additionally
fan out across a process pool (:mod:`repro.core.solve_pool`).  Neither
mechanism may ever change a result:

* two specs of the same family must reuse one compiled table *and*
  produce bitwise-identical costs to fresh compilation;
* differing stride/dilation must never share an entry;
* pooled and serial class solves must agree bitwise, also when another
  thread shut the shared pool down under a batch, and the pinned-
  dimension class collapse must hand every member of a group the tiles
  its own solve would have produced;
* ``class_workers`` is execution-only, so it must be invisible to cache
  keys and recorded settings, while the loss-free screening rework (new
  refine-solve numerics) must be visible as a ``STRATEGY_VERSION`` bump.
"""

from dataclasses import replace

import pytest

from repro.core import solve_pool
from repro.core.batched import table_cache_stats, table_for
from repro.core.cost_model import (
    DEFAULT_COMPILE_CACHE,
    CompileCache,
    CompiledPermutationCost,
    compiled_cost_for,
)
from repro.core.optimizer import MOptOptimizer, OptimizerSettings
from repro.core.pruning import pruned_representatives
from repro.core.solver import SolverOptions
from repro.core.tensor_spec import LOOP_INDICES, ConvSpec

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
# Intra-operator process pool
# ----------------------------------------------------------------------
class TestSolvePool:
    def test_resolve_workers_policy(self):
        assert solve_pool.resolve_workers(None, 8) == 1
        assert solve_pool.resolve_workers(1, 8) == 1
        assert solve_pool.resolve_workers(4, 8) == 4
        assert solve_pool.resolve_workers(4, 1) == 1
        assert solve_pool.resolve_workers(16, 3) == 3

    def test_pool_suppressed_inside_worker(self, monkeypatch):
        monkeypatch.setattr(solve_pool, "_IN_WORKER", True)
        assert solve_pool.resolve_workers(4, 8) == 1

    def test_pooled_solves_bitwise_identical_to_serial(self, tiny_machine):
        spec = ConvSpec("pooled", 1, 16, 8, 8, 8, 3, 3, padding=1)
        serial = MOptOptimizer(tiny_machine, _settings()).optimize(spec)
        before = solve_pool.pool_stats()
        try:
            pooled = MOptOptimizer(
                tiny_machine, _settings(class_workers=2)
            ).optimize(spec)
        finally:
            solve_pool.shutdown_pool()
        after = solve_pool.pool_stats()
        assert after["pool_batches"] == before["pool_batches"] + 1
        assert after["pool_solves"] > before["pool_solves"]
        assert _candidate_table(pooled) == _candidate_table(serial)

    def test_pool_shut_down_by_another_thread_is_recovered(
        self, tiny_machine, monkeypatch
    ):
        """Operator threads share one pool, and a thread that saw it break
        shuts it down under the others' batches: their submits then raise
        RuntimeError, which must be recovered like a break."""
        spec = ConvSpec("pooled", 1, 16, 8, 8, 8, 3, 3, padding=1)
        serial = MOptOptimizer(tiny_machine, _settings()).optimize(spec)
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
            pooled = MOptOptimizer(
                tiny_machine, _settings(class_workers=2)
            ).optimize(spec)
        finally:
            solve_pool.shutdown_pool()
        assert handed_out[1] is not handed_out[0]
        assert _candidate_table(pooled) == _candidate_table(serial)

    def test_discarding_a_broken_pool_keeps_its_replacement(self):
        """Two threads that saw the same pool break both discard it; the
        second discard must not shut down the pool the first one rebuilt."""
        broken = solve_pool._get_executor(2)
        solve_pool._discard_broken_executor(broken)
        replacement = solve_pool._get_executor(2)
        try:
            solve_pool._discard_broken_executor(broken)
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

    def test_settings_to_dict_excludes_class_workers(self):
        from repro.engine.serialization import settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        assert "class_workers" not in payload
        assert payload == settings_to_dict(replace(base, class_workers=8))

    def test_settings_has_no_execution_path_knobs(self):
        from repro.engine.serialization import settings_to_dict

        payload = settings_to_dict(_settings())
        assert "vectorized" not in payload and "dedup_classes" not in payload

    def test_settings_from_dict_loads_payloads_with_retired_knobs(self):
        from repro.engine.serialization import settings_from_dict, settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        # Recorded before the scalar path and the dedup switch were retired.
        payload.update(vectorized=True, dedup_classes=True)
        assert settings_from_dict(payload) == base

    def test_settings_from_dict_tolerates_execution_only_keys(self):
        from repro.engine.serialization import settings_from_dict, settings_to_dict

        base = _settings()
        payload = settings_to_dict(base)
        payload["future_execution_flag"] = 8  # recorded by a newer revision
        restored = settings_from_dict(payload)
        assert restored == base

    def test_mopt_cache_token_invariant_under_class_workers(self, tiny_machine):
        from repro.engine.strategy import get_strategy

        plain = get_strategy("mopt", settings=_settings())
        pooled = get_strategy("mopt", settings=_settings(class_workers=4))
        assert dict(plain.cache_token()) == dict(pooled.cache_token())


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
            "fd_sweeps",
        }
