"""Tests for the unified public API (repro.api + the `python -m repro` CLI).

Covers the Session façade round-trips (single op, whole network, batched
dedup, async serving path), by-name vs by-object construction
equivalence, the workload builders and `parse()` edge cases, cache
warming, the CLI subcommands and the golden equivalence between
``python -m repro optimize`` and the pre-redesign ``NetworkOptimizer``
path.
"""

import asyncio
import json
import threading
from dataclasses import dataclass, field

import pytest

import repro
from repro.api import (
    Session,
    conv,
    matmul,
    network,
    operator,
    parse,
)
from repro.api.session import optimize as one_shot_optimize
import repro.api.types as types_module
from repro.api.types import OptimizeRequest
from repro.core.tensor_spec import InvalidSpecError
from repro.engine.serialization import spec_to_dict
from repro.cli import main as cli_main
from repro.engine import (
    NetworkOptimizer,
    NetworkResult,
    OneDnnStrategy,
    OpResult,
    ResultCache,
    StrategyResult,
    result_cache_key,
    strategy_registry,
)
from repro.machine.presets import (
    coffee_lake_i7_9700k,
    get_machine,
    machine_registry,
    register_machine,
    tiny_test_machine,
)
from repro.workloads.benchmarks import benchmark_by_name, network_benchmarks

# ----------------------------------------------------------------------
# Instrumented stub strategy (solve counting for dedup assertions)
# ----------------------------------------------------------------------
_SOLVE_LOCK = threading.Lock()
_SOLVE_LOG: list = []


@dataclass(frozen=True)
class CountingStrategy:
    """Deterministic fixed-output strategy logging every actual solve."""

    name: str = field(default="api-probe", init=False)
    gflops: float = 4.0

    def search(self, spec, machine):
        with _SOLVE_LOCK:
            _SOLVE_LOG.append(spec.name)
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=0.0,
        )

    def cache_token(self):
        return {"gflops": self.gflops}


@pytest.fixture(autouse=True)
def _probe_registry():
    strategy_registry.register("api-probe", CountingStrategy)
    with _SOLVE_LOCK:
        _SOLVE_LOG.clear()
    yield
    strategy_registry._factories.pop("api-probe", None)


class _CountingStore:
    """A disk store that counts the reads reaching it."""

    def __init__(self, root):
        from repro.engine.chunk_store import ChunkedResultStore

        self.inner = ChunkedResultStore(root)
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return self.inner.get(key)

    def put(self, key, payload):
        self.inner.put(key, payload)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _session(**kwargs):
    kwargs.setdefault("machine", "tiny")
    kwargs.setdefault("strategy", "api-probe")
    return Session(**kwargs)


# ----------------------------------------------------------------------
# Builders and parse()
# ----------------------------------------------------------------------
class TestBuilders:
    def test_conv_matches_table1_row(self):
        built = conv(256, 256, 14, 3, name="R9")
        table = benchmark_by_name("R9")
        assert built == table

    def test_conv_same_padding_and_explicit(self):
        assert conv(8, 8, 12, 3).padding == 1
        assert conv(8, 8, 12, 5).padding == 2
        assert conv(8, 8, 12, 3, padding=0).padding == 0
        assert conv(8, 8, 12, 3, padding="valid").padding == 0
        assert conv(8, 8, 12, 3, dilation=2).padding == 2

    def test_conv_rectangular(self):
        spec = conv(8, 4, h=12, w=10, kernel_h=3, kernel_w=1)
        assert (spec.in_height, spec.in_width) == (12, 10)
        assert (spec.kernel_h, spec.kernel_w) == (3, 1)

    def test_conv_requires_extent(self):
        with pytest.raises(ValueError, match="hw"):
            conv(8, 8)
        with pytest.raises(ValueError, match="padding"):
            conv(8, 8, 12, padding="bogus")

    def test_matmul_is_pointwise_conv(self):
        spec = matmul(64, 32, 16)
        assert spec.out_channels == 32 and spec.in_channels == 16
        assert (spec.in_height, spec.in_width) == (64, 1)
        assert (spec.kernel_h, spec.kernel_w) == (1, 1)
        # FLOPs match 2*m*n*k.
        assert spec.flops == 2 * 64 * 32 * 16

    def test_network_builder_truncation(self):
        assert len(network("resnet18")) == 12
        head = network("resnet18", layers=4)
        assert [s.name for s in head] == ["R1", "R2", "R3", "R4"]
        with pytest.raises(ValueError):
            network("resnet18", layers=0)

    def test_operator_builder(self):
        assert operator("Y5").name == "Y5"
        assert operator("Y5", batch=4).batch == 4


class TestParse:
    def test_whole_network(self):
        specs = parse("resnet18")
        assert isinstance(specs, list) and len(specs) == 12

    def test_network_layer_by_name(self):
        assert parse("resnet18/R3").name == "R3"
        assert parse("resnet18/r3").name == "R3"  # layer part case-folded
        assert parse("RESNET18/R3").name == "R3"  # network case-folded

    def test_network_layer_by_index(self):
        assert parse("resnet18/1").name == "R1"
        assert parse("resnet18/12").name == "R12"

    def test_bare_operator(self):
        assert parse("M2").name == "M2"

    def test_batch_propagates(self):
        assert parse("resnet18/R3", batch=8).batch == 8
        assert all(s.batch == 8 for s in parse("mobilenet", batch=8))

    def test_whitespace_tolerated(self):
        assert parse(" resnet18 / R3 ").name == "R3"

    def test_edge_cases_raise(self):
        with pytest.raises(ValueError, match="empty"):
            parse("   ")
        with pytest.raises(ValueError, match="malformed"):
            parse("a/b/c")
        with pytest.raises(ValueError, match="malformed"):
            parse("resnet18/")
        with pytest.raises(KeyError, match="unknown network"):
            parse("no-such-net/R1")
        with pytest.raises(KeyError, match="no layer"):
            parse("mobilenet/R3")  # R3 belongs to resnet18
        with pytest.raises(KeyError, match="layers 1..12"):
            parse("resnet18/0")
        with pytest.raises(KeyError, match="layers 1..12"):
            parse("resnet18/13")
        with pytest.raises(KeyError, match="unknown benchmark operator"):
            parse("Q7")
        with pytest.raises(TypeError):
            parse(7)


# ----------------------------------------------------------------------
# Session: synchronous paths
# ----------------------------------------------------------------------
class TestSessionSync:
    def test_single_op_round_trip(self, small_spec):
        session = _session()
        result = session.optimize(small_spec)
        assert isinstance(result, OpResult)
        assert result.name == "small" and not result.cached
        again = session.optimize(small_spec)
        assert again.cached
        assert again.gflops == result.gflops
        assert _SOLVE_LOG == ["small"]  # one solve despite two calls

    def test_string_references_route_like_parse(self):
        session = _session()
        assert isinstance(session.optimize("mobilenet/M1"), OpResult)
        assert isinstance(session.optimize("M2"), OpResult)
        assert isinstance(session.optimize("mobilenet"), NetworkResult)

    def test_network_round_trip_matches_engine(self):
        session = _session()
        via_session = session.optimize("mobilenet")
        reference = NetworkOptimizer(
            tiny_test_machine(), "api-probe"
        ).optimize("mobilenet")
        assert via_session.num_operators == reference.num_operators
        assert via_session.total_gflops == pytest.approx(reference.total_gflops)
        assert via_session.gflops_by_layer() == reference.gflops_by_layer()

    def test_spec_list_is_custom_network(self, small_spec, pointwise_spec):
        result = _session().optimize([small_spec, pointwise_spec])
        assert isinstance(result, NetworkResult)
        assert result.network == "custom" and result.num_operators == 2

    def test_spec_list_rejects_non_specs(self):
        with pytest.raises(TypeError, match="ConvSpec"):
            _session().optimize([1, 2, 3])

    def test_single_op_looks_the_cache_up_once(self, small_spec, tmp_path):
        """A cold op is one miss and one disk read, not a get and then a
        blocking flight (which counted two misses and read the store twice)."""
        store = _CountingStore(tmp_path / "store")
        session = _session(cache=ResultCache(path=store))
        cold = session.optimize(small_spec)
        assert not cold.cached and store.gets == 1
        warm = session.optimize(small_spec)
        assert warm.cached and store.gets == 1  # served from memory
        stats = session.cache.stats
        assert stats.lookups == 2 and stats.misses == 1
        assert _SOLVE_LOG == ["small"]

    def test_cache_disabled_session(self, small_spec):
        session = _session(cache=False)
        session.optimize(small_spec)
        session.optimize(small_spec)
        assert _SOLVE_LOG == ["small", "small"]  # no caching

    def test_optimize_many_dedups_across_items(self, small_spec):
        session = _session()
        results = session.optimize_many(
            ["mobilenet", "mobilenet/M1", small_spec, "M3"]
        )
        assert [type(r).__name__ for r in results] == [
            "NetworkResult", "OpResult", "OpResult", "OpResult",
        ]
        # 9 distinct mobilenet shapes + small: M1/M3 shapes shared with
        # the network — solved exactly once across the whole batch.
        assert len(_SOLVE_LOG) == 10
        assert results[1].gflops == results[0].outcome("M1").gflops

    def test_one_shot_convenience(self, small_spec):
        result = one_shot_optimize(
            small_spec, machine="tiny", strategy="api-probe"
        )
        assert isinstance(result, OpResult) and result.gflops == 4.0

    def test_describe_mentions_configuration(self, tmp_path):
        text = _session(cache=tmp_path / "c").describe()
        assert "tiny-test" in text and "api-probe" in text and "disk" in text


class _GatedProbe:
    """A fixed-output strategy whose searches wait until ``callers`` of
    them are waiting at once; from then on the gate stays open."""

    name = "gated-probe"

    def __init__(self, callers: int):
        self.callers = callers
        self.searched: list = []
        self._arrived = threading.Condition()

    def search(self, spec, machine):
        with self._arrived:
            self.searched.append(spec.name)
            self._arrived.notify_all()
            if not self._arrived.wait_for(
                lambda: len(self.searched) >= self.callers, timeout=30
            ):
                raise AssertionError("the callers never overlapped")
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=4.0,
            time_seconds=spec.flops / 4e9,
            search_seconds=0.0,
        )

    def cache_token(self):
        return {}


class TestOneComputationPerKey:
    def test_blocking_callers_share_each_search(self):
        """Two threads optimizing one network on one cache search each of
        its 9 shapes once: a shape one call leads, the other joins."""
        probe = _GatedProbe(callers=2)
        cache = ResultCache()
        results = [None, None]

        def run(index):
            session = Session("tiny", probe, cache=cache, executor="serial")
            (results[index],) = session.optimize_many(["mobilenet"])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(probe.searched) == sorted(set(probe.searched))
        assert len(probe.searched) == 9
        # Each call's 9 shapes were searched, joined or hit: a joined
        # shape is not a cache hit of the call that joined it.
        hits = results[0].cache_hits + results[1].cache_hits
        assert cache.stats.coalesced >= 1
        assert hits == cache.stats.memory_hits
        assert hits + cache.stats.coalesced + len(probe.searched) == 2 * 9
        assert results[0].gflops_by_layer() == results[1].gflops_by_layer()


class TestByNameVsByObject:
    def test_machine_by_name_equals_by_object(self, small_spec):
        by_name = _session(machine="tiny")
        by_object = _session(machine=tiny_test_machine())
        assert by_name.machine == by_object.machine
        assert (
            by_name.optimize(small_spec).gflops
            == by_object.optimize(small_spec).gflops
        )

    def test_strategy_by_name_equals_by_object(self, small_spec):
        by_name = Session("tiny", "onednn", strategy_options={"threads": 2})
        by_object = Session("tiny", OneDnnStrategy(threads=2))
        assert by_name.strategy == by_object.strategy
        # Identical cache keys: results are shared between both forms.
        machine = tiny_test_machine()
        assert result_cache_key(
            small_spec, machine, by_name.strategy
        ) == result_cache_key(small_spec, machine, by_object.strategy)
        assert (
            by_name.optimize(small_spec).gflops
            == by_object.optimize(small_spec).gflops
        )

    def test_strategy_object_rejects_options(self):
        with pytest.raises(ValueError, match="strategy_options"):
            Session("tiny", OneDnnStrategy(), strategy_options={"threads": 2})

    def test_cache_by_path_is_persistent(self, small_spec, tmp_path):
        first = _session(cache=tmp_path / "store")
        first.optimize(small_spec)
        second = _session(cache=tmp_path / "store")
        assert second.optimize(small_spec).cached
        assert _SOLVE_LOG == ["small"]
        # The one disk layout: chunk files, no per-entry JSON.
        assert list((tmp_path / "store").glob("chunk-*.bin"))
        assert list((tmp_path / "store").glob("*.json")) == []

    def test_bad_arguments_rejected(self):
        with pytest.raises(KeyError, match="unknown machine"):
            Session(machine="no-such-machine")
        with pytest.raises(TypeError, match="machine"):
            Session(machine=123)
        with pytest.raises(TypeError, match="cache"):
            _session(cache=123)

    def test_registered_machine_resolves_everywhere(self, small_spec):
        register_machine("api-test-machine", tiny_test_machine)
        try:
            assert "api-test-machine" in machine_registry
            session = Session("API-Test-Machine", "api-probe")  # case-insensitive
            assert session.machine == tiny_test_machine()
            assert session.optimize(small_spec).gflops == 4.0
        finally:
            machine_registry._factories.pop("api-test-machine", None)


# ----------------------------------------------------------------------
# Session: warm_cache
# ----------------------------------------------------------------------
class TestWarmCache:
    def test_dry_run_then_warm_then_clean(self):
        session = _session()
        dry = session.warm_cache(["mobilenet"], dry_run=True)
        assert dry.missing == 9 and dry.solved == 0 and not _SOLVE_LOG
        warm = session.warm_cache(["mobilenet"])
        assert warm.solved == 9 and len(_SOLVE_LOG) == 9
        again = session.warm_cache(["mobilenet"], dry_run=True)
        assert again.missing == 0
        # Warmed results actually serve the optimize path.
        result = session.optimize("mobilenet")
        assert result.cache_hits == result.distinct_operators == 9
        assert len(_SOLVE_LOG) == 9

    def test_default_covers_all_networks(self):
        report = _session().warm_cache(dry_run=True)
        assert set(report.networks) == {"yolo9000", "resnet18", "mobilenet"}
        assert report.distinct_operators == 32

    def test_requires_cache(self):
        with pytest.raises(ValueError, match="cache"):
            _session(cache=False).warm_cache(dry_run=True)


# ----------------------------------------------------------------------
# Session: async path
# ----------------------------------------------------------------------
class TestSessionAsync:
    def test_async_round_trip_matches_sync(self):
        sync_session = _session()
        sync_result = sync_session.optimize("mobilenet")

        async def scenario():
            session = _session()
            async with session:
                events = []
                response = await session.optimize_async(
                    "mobilenet", on_event=events.append
                )
            return response, events, session.server

        response, events, server = asyncio.run(scenario())
        assert response.network == "mobilenet"
        assert response.num_operators == sync_result.num_operators
        assert response.total_gflops == pytest.approx(sync_result.total_gflops)
        operator_events = [e for e in events if e.type == "operator"]
        assert len(operator_events) == 9  # streamed one per layer
        assert server is None  # aclose() ran on context exit

    def test_async_requests_share_session_cache(self, small_spec):
        async def scenario():
            session = _session()
            async with session:
                first = await session.optimize_async([small_spec])
                second = await session.optimize_async([small_spec])
            # The sync path shares the same cache as the async server.
            assert session.optimize(small_spec).cached
            return first, second

        first, second = asyncio.run(scenario())
        assert _SOLVE_LOG == ["small"]
        assert second.cache_hits == 1

    def test_async_single_op_reference(self):
        async def scenario():
            async with _session() as session:
                return await session.optimize_async("mobilenet/M1")

        response = asyncio.run(scenario())
        assert response.num_operators == 1
        assert response.operators[0].name == "M1"

    def test_server_rebuilt_for_new_event_loop(self, small_spec):
        session = _session()

        async def one_round():
            return await session.optimize_async([small_spec])

        first = asyncio.run(one_round())
        second = asyncio.run(one_round())  # fresh loop: server must rebuild
        asyncio.run(session.aclose())
        assert first.num_operators == second.num_operators == 1
        assert _SOLVE_LOG == ["small"]  # cache still shared across loops


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_list_subcommand(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "i7-9700k" in out and "mopt" in out and "resnet18" in out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "tiny" in payload["machines"]
        assert payload["networks"]["resnet18"][0] == "R1"

    def test_optimize_single_operator_json(self, capsys):
        code = cli_main(
            [
                "optimize", "mobilenet/M1",
                "--machine", "tiny",
                "--strategy", "api-probe",
                "--threads", "0",
            ]
        )
        assert code == 0
        assert "M1 via 'api-probe'" in capsys.readouterr().out

    def test_optimize_network_layers_and_json(self, capsys):
        code = cli_main(
            [
                "optimize", "resnet18",
                "--machine", "tiny",
                "--strategy", "api-probe",
                "--threads", "0",
                "--layers", "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "resnet18"
        assert payload["num_operators"] == 3
        assert set(payload["layers"]) == {"R1", "R2", "R3"}

    def test_warm_dry_run_subcommand(self, capsys):
        code = cli_main(
            [
                "warm", "--dry-run",
                "--machine", "tiny",
                "--strategy", "api-probe",
                "--threads", "0",
                "--networks", "mobilenet",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["missing"] == 9
        assert not _SOLVE_LOG

    def test_warm_without_cache_dir_rejected(self, capsys):
        # Warming an in-memory cache would discard every solve at exit.
        code = cli_main(["warm", "--machine", "tiny", "--strategy", "api-probe"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert not _SOLVE_LOG

    def test_warm_with_cache_dir_persists(self, capsys, tmp_path):
        args = [
            "warm",
            "--machine", "tiny",
            "--strategy", "api-probe",
            "--threads", "0",
            "--networks", "mobilenet",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert cli_main(args) == 0
        assert len(_SOLVE_LOG) == 9
        assert cli_main(args) == 0  # second run: everything already cached
        assert len(_SOLVE_LOG) == 9
        out = capsys.readouterr().out
        assert "9 already cached" in out

    def test_bench_subcommand(self, capsys):
        code = cli_main(
            [
                "bench", "--quick",
                "--machine", "tiny",
                "--strategy", "api-probe",
                "--threads", "0",
                "--network", "mobilenet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["layers"] == 4
        assert payload["warm_s"] < payload["cold_s"] or payload["warm_s"] < 0.1

    def test_strategy_option_passthrough(self, capsys):
        code = cli_main(
            [
                "optimize", "M1",
                "--machine", "tiny",
                "--strategy", "api-probe",
                "--threads", "0",
                "--option", "gflops=8.0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gflops"] == pytest.approx(8.0, rel=1e-3)


class TestCLIGolden:
    """`python -m repro optimize` must match the pre-redesign engine path."""

    @staticmethod
    def _deterministic(summary_line: str) -> str:
        # Strip the timing tail ("search X s, wall Y s"): everything
        # before it — layer counts, cache hits, predicted time, GFLOPS —
        # is deterministic.
        return summary_line.split(", search")[0]

    def _assert_cli_matches_engine(self, capsys, cli_args, machine, strategy,
                                   strategy_options):
        code = cli_main(cli_args + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        reference = NetworkOptimizer(
            machine, strategy, strategy_options=strategy_options
        ).optimize("resnet18")
        assert payload["network"] == "resnet18"
        assert payload["num_operators"] == reference.num_operators
        assert payload["distinct_operators"] == reference.distinct_operators
        assert payload["total_gflops"] == pytest.approx(reference.total_gflops)
        assert payload["total_time_seconds"] == pytest.approx(
            reference.total_time_seconds
        )
        assert payload["layers"] == pytest.approx(reference.gflops_by_layer())
        # And the human-readable summary agrees, timing aside.
        code = cli_main(cli_args)
        out = capsys.readouterr().out.strip().splitlines()[0]
        assert self._deterministic(out) == self._deterministic(
            reference.summary()
        )

    def test_golden_onednn_i7(self, capsys):
        self._assert_cli_matches_engine(
            capsys,
            [
                "optimize", "resnet18",
                "--machine", "i7-9700k",
                "--strategy", "onednn",
                "--threads", "8",
            ],
            coffee_lake_i7_9700k(),
            "onednn",
            {"threads": 8},
        )

    @pytest.mark.slow
    def test_golden_default_mopt_i7(self, capsys):
        """The acceptance command, verbatim: full analytical MOpt path."""
        self._assert_cli_matches_engine(
            capsys,
            ["optimize", "resnet18", "--machine", "i7-9700k"],
            coffee_lake_i7_9700k(),
            "mopt",
            {"threads": 8, "measure": False},
        )


# ----------------------------------------------------------------------
# Unified types
# ----------------------------------------------------------------------
class TestUnifiedTypes:
    def test_request_type_is_shared_with_serving(self):
        from repro.serving.protocol import OptimizeRequest as wire_request

        assert wire_request is OptimizeRequest
        request = OptimizeRequest("resnet18", priority=2)
        assert OptimizeRequest.from_dict(request.to_dict()) == request

    def test_equal_wire_operators_share_one_spec(self):
        spec = benchmark_by_name("R3")
        payload = OptimizeRequest((spec,)).to_dict()
        first = OptimizeRequest.from_dict(payload).network[0]
        again = OptimizeRequest.from_dict(json.loads(json.dumps(payload))).network[0]
        assert first == spec and again is first

    def test_invalid_wire_operators_are_not_kept(self):
        payload = OptimizeRequest((benchmark_by_name("R3"),)).to_dict()
        before = types_module._memo_spec.cache_info().currsize
        for value in (0, 1.0, True):  # a float or a bool equals 1 but is no extent
            payload["network"][0]["stride"] = value
            with pytest.raises(InvalidSpecError):
                OptimizeRequest.from_dict(payload)
        payload["network"][0]["stride"] = [1]  # unhashable: the plain path
        with pytest.raises(InvalidSpecError):
            OptimizeRequest.from_dict(payload)
        payload["network"] = ["not a mapping"]
        with pytest.raises(ValueError):
            OptimizeRequest.from_dict(payload)
        assert types_module._memo_spec.cache_info().currsize == before

    def test_spec_memo_is_bounded(self):
        base = spec_to_dict(benchmark_by_name("R3"))
        for index in range(types_module.SPEC_MEMO_SIZE + 10):
            operator = dict(base, name=f"memo-{index}")
            OptimizeRequest.from_dict({"network": [operator]})
        info = types_module._memo_spec.cache_info()
        assert info.currsize == info.maxsize == types_module.SPEC_MEMO_SIZE

    def test_top_level_exports(self):
        assert repro.Session is Session
        assert repro.OpResult is OpResult
        assert repro.conv is conv
        from repro.api import OptimizeResponse
        from repro.serving.protocol import OptimizeResponse as wire_response

        assert OptimizeResponse is wire_response
