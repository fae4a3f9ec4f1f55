"""Tests for the network-level optimization engine (repro.engine).

Covers the strategy registry (lookup, errors, custom registration), the
stable serialization layer, the two-tier result cache (memory LRU +
on-disk JSON round-trips, corruption handling), operator deduplication,
parallel fan-out equivalence with the serial path, and the memoization
satellites in :mod:`repro.core`.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import pytest
import scipy

from repro.core.microkernel import design_microkernel
from repro.core.optimizer import OptimizerSettings
from repro.core.pruning import pruned_permutation_classes
from repro.core.solver import SolverOptions
from repro.core.tensor_spec import ConvSpec
from repro.engine import (
    NetworkOptimizer,
    ResultCache,
    StrategyResult,
    UnknownStrategyError,
    available_strategies,
    compare_network_strategies,
    config_from_dict,
    config_to_dict,
    get_strategy,
    optimize_network,
    result_cache_key,
    settings_from_dict,
    settings_to_dict,
    spec_from_dict,
    spec_shape_key,
    spec_to_dict,
    strategy_registry,
)
from repro.engine.cache import CACHE_FORMAT_VERSION, STRATEGY_VERSION
from repro.engine.chunk_store import ChunkedResultStore
from repro.engine.serialization import machine_to_dict, stable_hash
from repro.machine.presets import get_machine, tiny_test_machine
from repro.workloads.benchmarks import all_benchmarks


@pytest.fixture(scope="module")
def machine():
    return tiny_test_machine()


def _spec(name: str, *, in_channels: int = 8, kernel: int = 3) -> ConvSpec:
    return ConvSpec(
        name,
        batch=1,
        out_channels=16,
        in_channels=in_channels,
        in_height=14,
        in_width=14,
        kernel_h=kernel,
        kernel_w=kernel,
        padding=(kernel - 1) // 2,
    )


RANDOM_OPTS = {"trials": 6, "threads": 2, "seed": 3}


@dataclass(frozen=True)
class _PoolConstantStrategy:
    """Module-level (hence picklable) fixed-output strategy for pool tests."""

    name: str = field(default="constant-pool", init=False)
    gflops: float = 1.0

    def search(self, spec, machine):
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=0.0,
        )

    def cache_token(self):
        return {"gflops": self.gflops}


class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = available_strategies()
        for expected in ("mopt", "onednn", "autotvm", "random", "grid"):
            assert expected in names
            assert expected in strategy_registry

    def test_unknown_strategy_raises(self):
        with pytest.raises(UnknownStrategyError):
            get_strategy("no-such-system")

    def test_unknown_strategy_is_a_key_error(self):
        with pytest.raises(KeyError):
            strategy_registry.create("still-missing")

    def test_error_message_lists_available(self):
        with pytest.raises(UnknownStrategyError, match="random"):
            get_strategy("no-such-system")

    def test_custom_strategy_roundtrip(self, machine):
        @dataclass(frozen=True)
        class ConstantStrategy:
            name: str = field(default="constant", init=False)
            gflops: float = 1.0

            def search(self, spec, machine):
                return StrategyResult(
                    strategy=self.name,
                    spec_name=spec.name,
                    gflops=self.gflops,
                    time_seconds=spec.flops / (self.gflops * 1e9),
                    search_seconds=0.0,
                )

            def cache_token(self):
                return {"gflops": self.gflops}

        strategy_registry.register("constant", ConstantStrategy)
        try:
            result = optimize_network(
                [_spec("A")], machine, strategy="constant",
                strategy_options={"gflops": 2.0}, executor="serial",
            )
            assert result.operators[0].gflops == 2.0
        finally:
            strategy_registry._factories.pop("constant")

    def test_bad_executor_mode_rejected(self, machine):
        with pytest.raises(ValueError, match="executor"):
            NetworkOptimizer(machine, "random", executor="fleet")


class TestSerialization:
    def test_spec_roundtrip(self):
        spec = _spec("Rt", in_channels=12)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("batch", [1, 8])
    def test_spec_to_dict_equals_asdict_for_table1(self, batch):
        specs = all_benchmarks(batch=batch)
        assert len(specs) == 32
        for spec in specs:
            expected = dataclasses.asdict(spec)
            payload = spec_to_dict(spec)
            assert payload == expected
            assert list(payload) == list(expected)  # same field order
            del expected["name"]
            assert spec_to_dict(spec, include_name=False) == expected

    @pytest.mark.parametrize("batch", [1, 8])
    def test_cache_keys_unchanged_for_table1(self, batch):
        """Keys equal the ones ``dataclasses.asdict`` specs gave: stores stay warm."""
        machine = get_machine("i7-9700k")
        strategy = get_strategy("mopt", measure=False)
        cache = ResultCache()
        for spec in all_benchmarks(batch=batch):
            nameless = dataclasses.asdict(spec)
            del nameless["name"]
            expected = stable_hash(
                {
                    "version": CACHE_FORMAT_VERSION,
                    "strategy_version": STRATEGY_VERSION,
                    "scipy": scipy.__version__,
                    "spec": nameless,
                    "machine": machine_to_dict(machine),
                    "strategy": {
                        "name": strategy.name,
                        "options": dict(strategy.cache_token()),
                    },
                }
            )
            assert cache.key_for(spec, machine, strategy) == expected
            assert spec_shape_key(spec) == stable_hash(nameless)

    def test_shape_key_ignores_name(self):
        assert spec_shape_key(_spec("A")) == spec_shape_key(_spec("B"))
        assert spec_shape_key(_spec("A")) != spec_shape_key(_spec("A", kernel=1))

    def test_settings_roundtrip(self):
        settings = OptimizerSettings(
            levels=("L1", "L2"),
            parallel=True,
            threads=4,
            solver=SolverOptions(multistarts=1, maxiter=17),
            permutation_class_names=("inner-w",),
        )
        assert settings_from_dict(settings_to_dict(settings)) == settings

    def test_config_roundtrip(self, machine):
        result = get_strategy("random", **RANDOM_OPTS).search(_spec("C"), machine)
        rebuilt = config_from_dict(config_to_dict(result.best_config))
        assert rebuilt.levels == result.best_config.levels
        for level in rebuilt.levels:
            assert rebuilt.tiles(level) == result.best_config.tiles(level)

    def test_strategy_result_roundtrip_is_json_safe(self, machine):
        result = get_strategy("random", **RANDOM_OPTS).search(_spec("D"), machine)
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = StrategyResult.from_dict(payload)
        assert rebuilt.gflops == result.gflops
        assert rebuilt.time_seconds == result.time_seconds
        assert rebuilt.best_config.levels == result.best_config.levels


class TestResultCache:
    def test_disk_round_trip(self, machine, tmp_path):
        spec = _spec("A")
        strategy = get_strategy("random", **RANDOM_OPTS)
        result = strategy.search(spec, machine)
        key = result_cache_key(spec, machine, strategy)

        cache = ResultCache(tmp_path / "store")
        assert cache.get(key) is None  # cold miss
        cache.put(key, result)
        assert cache.get(key) is not None
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1

        # A fresh cache instance over the same directory must be served
        # from disk, bit-identical to the stored result.
        reopened = ResultCache(tmp_path / "store")
        loaded = reopened.get(key)
        assert loaded is not None
        assert reopened.stats.disk_hits == 1
        assert loaded.to_dict() == result.to_dict()

    def test_key_depends_on_strategy_and_machine(self, machine, tmp_path):
        spec = _spec("A")
        random6 = get_strategy("random", **RANDOM_OPTS)
        random9 = get_strategy("random", trials=9)
        grid = get_strategy("grid")
        keys = {
            result_cache_key(spec, machine, random6),
            result_cache_key(spec, machine, random9),
            result_cache_key(spec, machine, grid),
            result_cache_key(spec, machine.with_cores(2), random6),
            result_cache_key(_spec("A", kernel=1), machine, random6),
        }
        assert len(keys) == 5

    def test_key_ignores_operator_name(self, machine):
        strategy = get_strategy("random", **RANDOM_OPTS)
        assert result_cache_key(_spec("A"), machine, strategy) == result_cache_key(
            _spec("Z"), machine, strategy
        )

    def test_corrupt_disk_entry_is_a_miss(self, machine, tmp_path):
        spec = _spec("A")
        strategy = get_strategy("random", **RANDOM_OPTS)
        result = strategy.search(spec, machine)
        key = result_cache_key(spec, machine, strategy)
        store = ChunkedResultStore(tmp_path)
        store.put(key, result.to_dict())
        # The entry's bytes are garbled behind the store's back.
        (chunk,) = tmp_path.glob("chunk-*.bin")
        chunk.write_bytes(chunk.read_bytes()[:-8] + b"{notjson")
        assert store.get(key) is None
        assert store.quarantined == 1
        assert ResultCache(tmp_path).get(key) is None

    def test_disk_store_expands_user_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = ChunkedResultStore("~/repro-cache")
        assert store.root == tmp_path / "repro-cache"
        assert store.root.is_dir()

    def test_memory_lru_eviction(self):
        cache = ResultCache(memory_entries=2)
        results = {
            name: StrategyResult(
                strategy="constant", spec_name=name, gflops=1.0,
                time_seconds=1.0, search_seconds=0.0,
            )
            for name in ("k1", "k2", "k3")
        }
        for name, result in results.items():
            cache.put(name, result)
        assert cache.get("k1") is None  # evicted, no disk tier
        assert cache.get("k3") is not None


def _constant_result(name: str) -> StrategyResult:
    return StrategyResult(
        strategy="constant",
        spec_name=name,
        gflops=1.0,
        time_seconds=1.0,
        search_seconds=0.0,
    )


class TestDiskEvictionAndVersioning:
    def test_disk_store_caps_entries(self, tmp_path):
        store = ChunkedResultStore(tmp_path, max_entries=3)
        for index in range(6):
            store.put(f"key{index}", _constant_result(f"s{index}").to_dict())
        assert len(store) == 3
        assert store.evictions == 3
        # The most recently written entries survive.
        assert store.get("key5") is not None
        assert store.get("key0") is None

    def test_at_cap_puts_do_not_rescan_every_call(self, tmp_path, monkeypatch):
        """Eviction is batched, not per-put: a pass drops whole chunks
        down to ~90% of the cap, which buys the next puts headroom."""
        store = ChunkedResultStore(tmp_path, max_entries=30)
        for index in range(30):
            store.put(f"key{index}", _constant_result(f"s{index}").to_dict())
        scans = []
        original = ChunkedResultStore._evict_over_cap
        monkeypatch.setattr(
            ChunkedResultStore,
            "_evict_over_cap",
            lambda self: (scans.append(1), original(self))[1],
        )
        for index in range(30, 40):
            store.put(f"key{index}", _constant_result(f"s{index}").to_dict())
        assert len(scans) <= 4  # the per-put behavior would be 10
        assert len(store) <= 30

    def test_put_warm_path_never_stats_the_target(self, tmp_path, monkeypatch):
        """``put`` appends to an open handle: no ``exists`` per call."""
        from pathlib import Path

        store = ChunkedResultStore(tmp_path, max_entries=100)
        payload = _constant_result("s").to_dict()
        exists_calls = []
        original = Path.exists
        monkeypatch.setattr(
            Path,
            "exists",
            lambda self, **kw: (exists_calls.append(self), original(self, **kw))[1],
        )
        for index in range(20):
            store.put(f"key{index}", payload)
        assert exists_calls == []

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ChunkedResultStore(tmp_path)
        for index in range(8):
            store.put(f"key{index}", _constant_result(f"s{index}").to_dict())
        assert len(store) == 8
        assert store.evictions == 0

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedResultStore(tmp_path, max_entries=0)

    def test_result_cache_forwards_cap(self, tmp_path):
        cache = ResultCache(tmp_path / "store", max_disk_entries=2)
        for index in range(4):
            cache.put(f"key{index}", _constant_result(f"s{index}"))
        assert len(cache.disk) == 2

    def test_strategy_version_stamps_keys(self, machine, monkeypatch):
        import repro.engine.cache as cache_mod

        spec = _spec("A")
        strategy = get_strategy("random", **RANDOM_OPTS)
        before = result_cache_key(spec, machine, strategy)
        monkeypatch.setattr(
            cache_mod, "STRATEGY_VERSION", cache_mod.STRATEGY_VERSION + 1
        )
        after = result_cache_key(spec, machine, strategy)
        assert before != after  # numerics changes invalidate cached entries

    def test_scipy_version_stamps_keys(self, machine, monkeypatch):
        spec = _spec("A")
        strategy = get_strategy("random", **RANDOM_OPTS)
        before = result_cache_key(spec, machine, strategy)
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".other")
        after = result_cache_key(spec, machine, strategy)
        assert before != after  # a store written under another kernel misses


class TestNetworkOptimizer:
    def test_dedup_of_repeated_shapes(self, machine):
        specs = [_spec("A"), _spec("B", kernel=1), _spec("A-again")]
        result = optimize_network(
            specs, machine, strategy="random",
            strategy_options=RANDOM_OPTS, executor="serial",
        )
        assert result.num_operators == 3
        assert result.distinct_operators == 2
        a, again = result.outcome("A"), result.outcome("A-again")
        assert a.result.gflops == again.result.gflops
        assert again.result.spec_name == "A-again"  # relabeled copy
        assert a.shape_key == again.shape_key

    def test_search_cost_counted_once_per_distinct_shape(self, machine):
        specs = [_spec("A"), _spec("A-dup"), _spec("A-tri")]
        result = optimize_network(
            specs, machine, strategy="random",
            strategy_options=RANDOM_OPTS, executor="serial",
        )
        assert result.distinct_operators == 1
        # One solve, shared by three layers: cost of the run, not 3x it.
        assert result.total_search_seconds == pytest.approx(
            result.operators[0].result.search_seconds
        )

    def test_runtime_registered_strategy_in_process_pool(self, machine):
        # The pool ships strategy *instances*, so a strategy registered at
        # runtime (absent from a fresh worker's registry) must still work.
        strategy_registry.register("constant-pool", _PoolConstantStrategy)
        try:
            result = optimize_network(
                [_spec("A"), _spec("B", kernel=1)], machine,
                strategy="constant-pool", strategy_options={"gflops": 3.0},
                executor="process", max_workers=2,
            )
            assert [o.gflops for o in result.operators] == [3.0, 3.0]
        finally:
            strategy_registry._factories.pop("constant-pool")

    def test_parallel_fanout_matches_serial(self, machine):
        specs = [_spec("A"), _spec("B", kernel=1), _spec("C", in_channels=4)]
        serial = optimize_network(
            specs, machine, strategy="random",
            strategy_options=RANDOM_OPTS, executor="serial",
        )
        pooled = optimize_network(
            specs, machine, strategy="random",
            strategy_options=RANDOM_OPTS, executor="process", max_workers=2,
        )
        assert serial.gflops_by_layer() == pooled.gflops_by_layer()
        assert serial.total_time_seconds == pooled.total_time_seconds

    def test_warm_cache_run_hits_every_distinct_shape(self, machine, tmp_path):
        specs = [_spec("A"), _spec("B", kernel=1), _spec("A2")]
        cold = optimize_network(
            specs, machine, strategy="random", strategy_options=RANDOM_OPTS,
            cache=ResultCache(tmp_path / "net"), executor="serial",
        )
        assert cold.cache_hits == 0
        warm = optimize_network(
            specs, machine, strategy="random", strategy_options=RANDOM_OPTS,
            cache=ResultCache(tmp_path / "net"), executor="serial",
        )
        assert warm.cache_hits == warm.distinct_operators == 2
        assert warm.gflops_by_layer() == cold.gflops_by_layer()
        assert warm.total_search_seconds == 0.0

    def test_aggregates_are_consistent(self, machine):
        specs = [_spec("A"), _spec("B", kernel=1)]
        result = optimize_network(
            specs, machine, strategy="grid",
            strategy_options={"per_index": 2}, executor="serial",
        )
        assert result.total_flops == sum(s.flops for s in specs)
        assert result.total_time_seconds == pytest.approx(
            sum(o.time_seconds for o in result.operators)
        )
        assert result.total_gflops == pytest.approx(
            result.total_flops / result.total_time_seconds / 1e9
        )
        assert result.network == "custom"
        assert "2 layers" in result.summary()

    def test_network_by_name_resolves_table1(self, machine):
        result = optimize_network(
            "mobilenet", machine, strategy="grid",
            strategy_options={"per_index": 2}, executor="serial",
        )
        assert result.network == "mobilenet"
        assert result.num_operators == 9
        # Table 1 MobileNet rows are all distinct shapes.
        assert result.distinct_operators == 9

    def test_geomean_speedup_between_strategies(self, machine):
        specs = [_spec("A"), _spec("B", kernel=1)]
        results = compare_network_strategies(
            specs, machine,
            {"random": RANDOM_OPTS, "grid": {"per_index": 2}},
            executor="serial",
        )
        speedup = results["random"].geomean_speedup_vs(results["grid"])
        inverse = results["grid"].geomean_speedup_vs(results["random"])
        assert speedup > 0
        assert speedup * inverse == pytest.approx(1.0)

    def test_geomean_requires_matching_layers(self, machine):
        one = optimize_network(
            [_spec("A")], machine, strategy="grid",
            strategy_options={"per_index": 2}, executor="serial",
        )
        other = optimize_network(
            [_spec("B", kernel=1)], machine, strategy="grid",
            strategy_options={"per_index": 2}, executor="serial",
        )
        with pytest.raises(ValueError, match="layer sets differ"):
            one.geomean_speedup_vs(other)

    def test_mopt_strategy_through_engine(self, machine):
        settings = OptimizerSettings(
            levels=("L1", "L2"),
            fix_register_tile=False,
            solver=SolverOptions(multistarts=0, maxiter=30, fallback_samples=40),
            permutation_class_names=("inner-w",),
        )
        result = optimize_network(
            [_spec("A")], machine, strategy="mopt",
            strategy_options={"settings": settings, "measure": False},
            executor="serial",
        )
        outcome = result.operators[0]
        assert outcome.gflops > 0
        assert outcome.result.best_config is not None
        assert outcome.result.extras["class_name"] == "inner-w"


class _FailingStrategy:
    """Counts its searches per operator and raises on the named one.

    The count is per instance, so a search in a worker process counts
    in the worker's copy, not in the caller's.
    """

    name = "failing-probe"

    def __init__(self, failing: str):
        self.failing = failing
        self.searches: dict = {}

    def search(self, spec, machine):
        self.searches[spec.name] = self.searches.get(spec.name, 0) + 1
        if spec.name == self.failing:
            raise RuntimeError(f"search of {spec.name} failed")
        return _constant_result(spec.name)

    def cache_token(self):
        return {}


class TestFailingLeader:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_error_reaches_caller_and_releases_the_key(self, machine, executor):
        specs = [_spec("A"), _spec("B", kernel=1), _spec("C", in_channels=4)]
        strategy = _FailingStrategy("B")
        cache = ResultCache()
        optimizer = NetworkOptimizer(
            machine, strategy, cache=cache, executor=executor, max_workers=3
        )
        failing_key = cache.key_for(specs[1], machine, strategy)
        for attempt in (1, 2):
            with pytest.raises(RuntimeError, match="search of B failed"):
                optimizer.optimize(specs)
            # Released, not stored: the next call searches B again.
            if executor == "serial":
                assert strategy.searches["B"] == attempt
            assert failing_key not in cache
            assert not cache._inflight
        strategy.failing = None
        result = optimizer.optimize(specs)
        if executor == "serial":
            assert strategy.searches == {"A": 1, "B": 3, "C": 1}
        assert result.outcome("B").gflops == 1.0 and failing_key in cache


class TestMemoizationSatellites:
    def test_pruned_permutation_classes_memoized(self):
        assert pruned_permutation_classes() is pruned_permutation_classes()

    def test_design_microkernel_memoized(self, machine):
        spec = _spec("A")
        assert design_microkernel(machine, spec) is design_microkernel(machine, spec)

    def test_design_microkernel_distinguishes_specs(self, machine):
        assert design_microkernel(machine, _spec("A")) is not design_microkernel(
            machine, _spec("A", kernel=1)
        )
