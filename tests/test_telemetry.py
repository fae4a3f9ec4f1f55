"""Tests for the serving-telemetry surface.

Covers the metrics export surface (golden Prometheus text and JSON
renderings of a seeded snapshot, histogram bucket-boundary edge cases,
quantile estimation), the TCP ``stats`` verb round-trip against a live
server, end-to-end request tracing (one trace id from the client span
through queue/coalesce/solve/respond children summing to the request
wall), the ``repro top`` dashboard model, and the ``dse status`` health
exit code.
"""

import asyncio
import json
import re
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro import cli
from repro.engine import StrategyResult, strategy_registry
from repro.machine.presets import tiny_test_machine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import (
    histogram_quantile,
    render_json,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.summary import render_summary, summarize
from repro.obs.top import compute_dashboard, merge_histograms, render_dashboard
from repro.core.tensor_spec import ConvSpec
from repro.serving import (
    OptimizationServer,
    ServerConfig,
    ServingClient,
    TCPServingClient,
    start_tcp_server,
)


# ----------------------------------------------------------------------
# Stub strategy (same shape as test_serving's probe)
# ----------------------------------------------------------------------
_SOLVE_LOCK = threading.Lock()


@dataclass(frozen=True)
class ProbeStrategy:
    """Deterministic fixed-output strategy with a controllable delay."""

    name: str = field(default="probe", init=False)
    delay_s: float = 0.0
    gflops: float = 2.0

    def search(self, spec, machine):
        if self.delay_s:
            time.sleep(self.delay_s)
        return StrategyResult(
            strategy=self.name,
            spec_name=spec.name,
            gflops=self.gflops,
            time_seconds=spec.flops / (self.gflops * 1e9),
            search_seconds=self.delay_s,
        )

    def cache_token(self):
        return {"delay_s": self.delay_s, "gflops": self.gflops}


@pytest.fixture(autouse=True)
def _probe_registry():
    strategy_registry.register("probe", ProbeStrategy)
    yield
    strategy_registry._factories.pop("probe", None)


@pytest.fixture(autouse=True)
def _clean_serving_metrics():
    # Serving instruments live in the process-wide registry; drop them so
    # counts asserted here are not polluted by other test modules.
    obs_metrics.REGISTRY.remove("serving.")
    yield
    obs_metrics.REGISTRY.remove("serving.")


@pytest.fixture
def machine():
    return tiny_test_machine()


def run(coro):
    return asyncio.run(coro)


def _specs(n=2):
    return tuple(
        ConvSpec(
            name=f"tele{i}",
            batch=1,
            out_channels=8 + 8 * i,
            in_channels=4,
            in_height=6,
            in_width=6,
            kernel_h=3,
            kernel_w=3,
            padding=1,
        )
        for i in range(n)
    )


def _server(machine, *, cache=None, config=None, **strategy_options):
    return OptimizationServer(
        machine,
        "probe",
        strategy_options=strategy_options,
        cache=cache,
        config=config or ServerConfig(workers=2, solve_threads=2),
    )


# ----------------------------------------------------------------------
# Export surface: golden renderings of a seeded snapshot
# ----------------------------------------------------------------------
def _seeded_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serving.requests.warm").inc(3)
    registry.gauge("serving.queue_depth").set(2)
    hist = registry.histogram(
        "serving.latency_s.warm", boundaries=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.5, 2.0):
        hist.observe(value)
    registry.register_collector(
        "serving",
        lambda: {"completed": 3, "nested": {"ratio": 0.5}, "label": "x"},
    )
    return registry


GOLDEN_PROMETHEUS = """\
# TYPE repro_serving_requests_warm counter
repro_serving_requests_warm 3
# TYPE repro_serving_queue_depth gauge
repro_serving_queue_depth 2
# TYPE repro_serving_latency_s_warm histogram
repro_serving_latency_s_warm_bucket{le="0.01"} 1
repro_serving_latency_s_warm_bucket{le="0.1"} 2
repro_serving_latency_s_warm_bucket{le="1"} 3
repro_serving_latency_s_warm_bucket{le="+Inf"} 4
repro_serving_latency_s_warm_sum 2.555
repro_serving_latency_s_warm_count 4
# TYPE repro_serving_completed gauge
repro_serving_completed 3
# TYPE repro_serving_nested_ratio gauge
repro_serving_nested_ratio 0.5
"""


class TestExportSurface:
    def test_prometheus_golden(self):
        assert render_prometheus(_seeded_registry().snapshot()) == GOLDEN_PROMETHEUS

    def test_prometheus_deterministic(self):
        snap = _seeded_registry().snapshot()
        assert render_prometheus(snap) == render_prometheus(snap)

    def test_json_golden_roundtrip(self):
        snap = _seeded_registry().snapshot()
        text = render_json(snap)
        assert text.endswith("\n")
        assert json.loads(text) == snap
        # Key-sorted: serialization is stable across runs.
        assert render_json(snap) == render_json(json.loads(text))

    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("serving.latency_s.cold-warm")
            == "serving_latency_s_cold_warm"
        )
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("ok_name:x") == "ok_name:x"

    def test_prometheus_line_shapes(self):
        # Every non-comment line is `name{labels}? value` — the parse
        # contract a scraper relies on.
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? \S+$"
        )
        for line in GOLDEN_PROMETHEUS.strip().splitlines():
            if line.startswith("# TYPE"):
                continue
            assert sample.match(line), line


class TestHistogramEdges:
    def test_boundary_values_are_upper_inclusive(self):
        hist = Histogram("h", boundaries=(0.1, 1.0))
        hist.observe(0.1)  # exactly on the first edge -> first bucket
        hist.observe(1.0)  # exactly on the last edge -> second bucket
        hist.observe(1.0000001)  # just past the last edge -> +inf
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_0.1": 1, "le_1": 1, "le_inf": 1}
        assert snap["count"] == 3
        assert snap["min"] == 0.1
        assert snap["max"] == 1.0000001

    def test_empty_histogram_quantile_is_none(self):
        assert histogram_quantile(Histogram("h").snapshot(), 0.5) is None

    def test_single_observation_quantile_is_exact(self):
        hist = Histogram("h", boundaries=(0.1, 1.0))
        hist.observe(0.5)
        snap = hist.snapshot()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram_quantile(snap, q) == pytest.approx(0.5)

    def test_quantile_clamped_by_min_max(self):
        hist = Histogram("h", boundaries=(0.1, 1.0, 10.0))
        for value in (0.2, 0.3, 0.4, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        p99 = histogram_quantile(snap, 0.99)
        assert 0.2 <= histogram_quantile(snap, 0.25) <= 1.0
        assert p99 is not None and p99 <= 5.0  # never past the observed max

    def test_quantile_out_of_range_inputs_clamp(self):
        hist = Histogram("h", boundaries=(1.0,))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert histogram_quantile(snap, -3.0) == pytest.approx(0.5)
        assert histogram_quantile(snap, 7.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# TCP stats verb round-trip against a live server
# ----------------------------------------------------------------------
@pytest.mark.serving
class TestStatsVerb:
    def test_stats_roundtrip_json_and_prometheus(self, machine):
        async def scenario():
            server = _server(machine)
            await server.start()
            tcp = await start_tcp_server(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with await TCPServingClient.connect(
                    "127.0.0.1", port
                ) as client:
                    await client.optimize(_specs(2))
                    stats = await client.stats()
                    text = await client.stats(prometheus=True)
                return stats, text
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()

        stats, text = run(scenario())
        assert stats["completed"] == 1
        assert stats["operators_served"] == 2
        # The request classified and observed into the registry views.
        assert sum(stats["requests_by_class"].values()) == 1
        (cls,) = stats["requests_by_class"]
        assert stats["latency_s"][cls]["count"] == 1
        # TCP peer attribution: one client, host:port label.
        assert len(stats["clients"]) == 1
        assert next(iter(stats["clients"])).startswith("127.0.0.1:")
        # Prometheus text is structurally valid and carries the serving
        # collector plus the latency histogram family.
        assert text.endswith("\n")
        assert "# TYPE repro_serving_completed gauge" in text
        assert "repro_serving_completed 1" in text
        assert f"# TYPE repro_serving_latency_s_{cls} histogram" in text
        sample = re.compile(
            r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]*"
            r" (counter|gauge|histogram))$"
            r"|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? \S+$"
        )
        for line in text.strip().splitlines():
            assert sample.match(line), line

    def test_stats_verb_bad_format_fails_cleanly(self, machine):
        async def scenario():
            server = _server(machine)
            await server.start()
            tcp = await start_tcp_server(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    writer.write(
                        json.dumps(
                            {
                                "verb": "stats",
                                "request_id": "s-1",
                                "format": "xml",
                            }
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 5)
                    return json.loads(line)
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()

        reply = run(scenario())
        assert reply["type"] == "failed"
        assert "xml" in reply["error"]

    def test_stats_cli_prometheus(self, machine, capsys):
        async def scenario():
            server = _server(machine)
            await server.start()
            tcp = await start_tcp_server(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                import argparse

                return await cli._run_stats(
                    argparse.Namespace(
                        endpoint=f"127.0.0.1:{port}",
                        prometheus=True,
                        timeout=10.0,
                    )
                )
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()

        assert run(scenario()) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serving_completed gauge" in out


# ----------------------------------------------------------------------
# End-to-end request tracing
# ----------------------------------------------------------------------
@pytest.mark.serving
class TestEndToEndTracing:
    def _drive(self, machine, delay_s):
        async def scenario():
            server = _server(machine, delay_s=delay_s)
            await server.start()
            tcp = await start_tcp_server(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with await TCPServingClient.connect(
                    "127.0.0.1", port
                ) as client:
                    await client.optimize(_specs(1))
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()

        return scenario()

    def test_disk_lookup_spans_join_the_request_trace(self, machine, tmp_path):
        """The disk-tier lookup runs on the event loop inside the
        request's processing; spans a store opens there must carry the
        request's trace id, not start orphan traces of their own."""
        from repro.engine.cache import ResultCache
        from repro.engine.chunk_store import ChunkedResultStore

        class SpanStore:
            def __init__(self, inner):
                self.inner = inner

            def get(self, key):
                with obs_trace.span("test.store.get"):
                    return self.inner.get(key)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        store = SpanStore(ChunkedResultStore(tmp_path / "store"))

        async def request(cache):
            async with _server(machine, cache=cache) as server:
                await ServingClient(server).optimize(_specs(1))

        # Fill the disk tier, then ask again through an empty memory tier:
        # the second request is answered by the disk lookup alone.
        run(request(ResultCache(path=store)))
        obs_trace.enable()
        obs_trace.drain()
        try:
            run(request(ResultCache(path=store)))
            records = obs_trace.drain()
        finally:
            obs_trace.disable()
        (request_span,) = [r for r in records if r["name"] == "serving.request"]
        gets = [r for r in records if r["name"] == "test.store.get"]
        assert gets
        assert all(r["trace_id"] == request_span["trace_id"] for r in gets)
        assert not [r for r in records if r["name"] == "serving.solve"]

    def test_one_trace_id_client_to_solve_with_tight_children(self, machine):
        obs_trace.enable()
        try:
            run(self._drive(machine, delay_s=0.2))
            records = obs_trace.drain()
        finally:
            obs_trace.disable()

        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)
        (client_span,) = by_name["serving.client.request"]
        (request,) = by_name["serving.request"]
        # One trace id covers client -> server request.
        assert request["trace_id"] == client_span["trace_id"]
        assert request["parent_id"] == client_span["span_id"]
        # The request decomposes into the four child phases, all parented
        # to the request span, all in the same trace.
        children = {}
        for name in (
            "serving.queue_wait",
            "serving.coalesce",
            "serving.solve",
            "serving.respond",
        ):
            (child,) = by_name[name]
            assert child["trace_id"] == request["trace_id"], name
            assert child["parent_id"] == request["span_id"], name
            children[name] = child
        # Children are contiguous phases of the request: their durations
        # sum to the request wall within 5%.
        child_sum = sum(c["duration_s"] for c in children.values())
        wall = request["duration_s"]
        assert wall > 0
        assert abs(child_sum - wall) / wall <= 0.05, (child_sum, wall)
        # The client span encloses the server-side request.
        assert client_span["duration_s"] >= wall * 0.95
        # Attribution attrs are on the terminal span.
        attrs = request["attrs"]
        assert attrs["request_class"] == "cold"
        assert attrs["client"].startswith("127.0.0.1:")

        # `trace summary` grows a per-class serving section.
        summary = summarize(records)
        assert summary["serving"]["requests"] == 1
        (cls_row,) = summary["serving"]["classes"]
        assert cls_row["request_class"] == "cold"
        assert cls_row["count"] == 1
        rendered = render_summary(summary)
        assert "serving requests: 1" in rendered
        assert "cold" in rendered

    def test_all_hit_request_is_one_tight_tree(self, machine):
        """A traced request answered at admission joins the TCP client's
        trace, and its children tile its wall."""

        async def scenario():
            async with _server(machine) as server:
                tcp = await start_tcp_server(server, "127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    async with await TCPServingClient.connect(
                        "127.0.0.1", port
                    ) as client:
                        await client.optimize(_specs(2))  # solves, untraced
                        obs_trace.enable()
                        obs_trace.drain()
                        await client.optimize(_specs(2))
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        try:
            run(scenario())
            records = obs_trace.drain()
        finally:
            obs_trace.disable()

        (client_span,) = [r for r in records if r["name"] == "serving.client.request"]
        (request,) = [r for r in records if r["name"] == "serving.request"]
        assert request["trace_id"] == client_span["trace_id"]
        assert request["parent_id"] == client_span["span_id"]
        assert request["attrs"]["request_class"] == "warm"
        children = [r for r in records if r["parent_id"] == request["span_id"]]
        names = [child["name"] for child in children]
        assert len(names) == len(set(names)), names
        assert {"serving.coalesce", "serving.respond"} <= set(names)
        assert "serving.solve" not in names
        assert all(child["trace_id"] == request["trace_id"] for child in children)
        child_sum = sum(child["duration_s"] for child in children)
        wall = request["duration_s"]
        assert wall > 0
        assert abs(child_sum - wall) / wall <= 0.05, (child_sum, wall)

    def test_untraced_serving_records_no_spans(self, machine):
        assert not obs_trace.is_enabled()
        before = len(obs_trace.snapshot_spans())
        run(self._drive(machine, delay_s=0.0))
        assert len(obs_trace.snapshot_spans()) == before

    def test_request_classes_observed_in_metrics(self, machine):
        async def scenario():
            server = _server(machine)
            await server.start()
            tcp = await start_tcp_server(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                async with await TCPServingClient.connect(
                    "127.0.0.1", port
                ) as client:
                    await client.optimize(_specs(2))  # cold
                    await client.optimize(_specs(2))  # warm (all cached)
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.stop()

        run(scenario())
        registry = obs_metrics.REGISTRY
        assert registry.counter_value("serving.requests.cold") == 1
        assert registry.counter_value("serving.requests.warm") == 1
        warm = registry.histogram("serving.latency_s.warm").snapshot()
        assert warm["count"] == 1


# ----------------------------------------------------------------------
# repro top dashboard model
# ----------------------------------------------------------------------
class TestTopDashboard:
    def _payload(self, completed=10, served=40):
        hist = Histogram("lat", boundaries=(0.01, 0.1, 1.0))
        for value in (0.02, 0.03, 0.05, 0.9):
            hist.observe(value)
        return {
            "completed": completed,
            "accepted": completed + 1,
            "operators_served": served,
            "operators_cached": served // 2,
            "queue_depth": 1,
            "active_requests": 2,
            "latency_s": {"warm": hist.snapshot()},
            "requests_by_class": {"warm": 8, "cold": 2},
            "reliability": {"fallbacks": 1, "cache": {"errors": 0}},
            "clients": {"127.0.0.1:5000": 7, "127.0.0.1:5001": 3},
        }

    def test_compute_dashboard_rates_and_percentiles(self):
        previous = self._payload(completed=5, served=20)
        model = compute_dashboard(self._payload(), previous, interval_s=5.0)
        assert model["req_per_s"] == pytest.approx(1.0)
        assert model["ops_per_s"] == pytest.approx(4.0)
        assert model["cache_hit_rate"] == pytest.approx(0.5)
        assert model["p50_s"] is not None and model["p50_s"] <= 0.1
        assert model["p99_s"] is not None and model["p99_s"] <= 0.9
        assert model["queue_depth"] == 1
        assert model["clients"][0] == ("127.0.0.1:5000", 7)
        # Nested reliability dicts are skipped; numeric leaves kept.
        assert model["reliability"] == {"fallbacks": 1}

    def test_first_poll_has_no_rates(self):
        model = compute_dashboard(self._payload(), None, 0.0)
        assert model["req_per_s"] is None
        assert model["ops_per_s"] is None

    def test_render_dashboard_deterministic(self):
        model = compute_dashboard(
            self._payload(), self._payload(5, 20), 5.0
        )
        text = render_dashboard(model, endpoint="127.0.0.1:8763")
        assert text == render_dashboard(model, endpoint="127.0.0.1:8763")
        assert "repro top — 127.0.0.1:8763" in text
        assert "req/s=1.0" in text
        assert "hit_rate=50.0%" in text
        assert "cold=2 warm=8" in text

    def test_merge_histograms_sums_buckets(self):
        a = Histogram("a", boundaries=(0.1, 1.0))
        b = Histogram("b", boundaries=(0.1, 1.0))
        a.observe(0.05)
        b.observe(0.5)
        b.observe(2.0)
        merged = merge_histograms(
            {"a": a.snapshot(), "b": b.snapshot()}
        )
        assert merged["count"] == 3
        assert merged["buckets"] == {"le_0.1": 1, "le_1": 1, "le_inf": 1}
        assert merged["min"] == 0.05
        assert merged["max"] == 2.0
        assert merge_histograms({}) is None

    def test_top_cli_sweep_mode(self, tmp_path, capsys):
        hb = {
            "status": "running",
            "shard": "1/2",
            "done": 5,
            "total": 10,
            "failed": 0,
            "percent": 50.0,
            "rate_per_s": 1.0,
            "updated_at": time.time(),
        }
        (tmp_path / "sweep.jsonl.hb.json").write_text(json.dumps(hb))
        rc = cli.main(["top", "--sweep", str(tmp_path), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep status:" in out
        assert "1/2" in out


# ----------------------------------------------------------------------
# dse status health exit code
# ----------------------------------------------------------------------
class TestDseStatusExitCode:
    def _write_hb(self, directory, name, **overrides):
        payload = {
            "status": "running",
            "shard": name,
            "done": 1,
            "total": 2,
            "failed": 0,
            "percent": 50.0,
            "rate_per_s": 1.0,
            "updated_at": time.time(),
        }
        payload.update(overrides)
        (directory / f"{name}.hb.json").write_text(json.dumps(payload))

    def test_healthy_fleet_exits_zero(self, tmp_path):
        self._write_hb(tmp_path, "shard-1")
        self._write_hb(tmp_path, "shard-2", status="done", done=2)
        assert cli.main(["dse", "status", str(tmp_path)]) == 0

    def test_stale_shard_exits_three(self, tmp_path):
        self._write_hb(tmp_path, "shard-1", updated_at=time.time() - 120.0)
        assert cli.main(["dse", "status", str(tmp_path)]) == 3
        # A generous threshold clears the staleness verdict.
        assert (
            cli.main(
                ["dse", "status", str(tmp_path), "--stale-after", "3600"]
            )
            == 0
        )

    def test_failed_or_aborted_shard_exits_three(self, tmp_path):
        self._write_hb(tmp_path, "shard-1", status="done", done=2)
        self._write_hb(tmp_path, "shard-2", status="failed")
        assert cli.main(["dse", "status", str(tmp_path)]) == 3
        (tmp_path / "shard-2.hb.json").unlink()
        self._write_hb(tmp_path, "shard-3", status="aborted")
        assert cli.main(["dse", "status", str(tmp_path)]) == 3
