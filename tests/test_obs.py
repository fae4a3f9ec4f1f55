"""Observability subsystem: tracing, metrics registry, heartbeats, summary.

The obs package (PR 9) threads three facilities through the codebase:

* **Structured tracing** — nestable ``span()`` context managers recording
  into a bounded ring, with explicit context propagation across the DSE
  thread pool (:func:`~repro.obs.trace.activate`) and the fork-based
  solve pool (:func:`~repro.obs.trace.remote_capture` + ``ingest``).
  One trace id must survive both hops.
* **Unified metrics registry** — counters / gauges / fixed-bucket
  histograms plus named collectors, subsuming the per-subsystem stat
  dicts (the ``health.*`` counters, ``CompileCache.stats()``,
  ``table_cache_stats()``, ``pool_stats()``) while every historical
  payload shape stays bit-identical.
* **Heartbeat sidecars** — atomic per-shard progress files that
  ``python -m repro dse status DIR`` aggregates into fleet health,
  flagging stale (hung/killed) shards a progress store alone cannot
  distinguish from slow ones.

These tests pin the concurrency contracts (16 writer threads plus an
asyncio loop against one ring/registry), the fork-boundary trace-id
propagation, the heartbeat round-trip including stale detection, and a
golden rendering of ``trace summary``.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.optimizer import MOptOptimizer, OptimizerSettings
from repro.core.solver import SolverOptions
from repro.obs import heartbeat as hb
from repro.obs import trace as obs_trace
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, REGISTRY
from repro.obs.summary import render_summary, summarize
import repro.reliability  # noqa: F401 — registers the "reliability" collector

QUICK = SolverOptions(multistarts=0, maxiter=40, fallback_samples=50)


def _settings(**overrides) -> OptimizerSettings:
    defaults = dict(levels=("L1", "L2"), solver=QUICK, top_k=4)
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


@pytest.fixture()
def traced():
    """Enable tracing around one test, leaving global state clean."""
    obs_trace.drain()
    obs_trace.enable()
    yield
    obs_trace.disable()
    obs_trace.drain()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_create_on_first_use_and_inc(self):
        reg = MetricsRegistry()
        assert reg.counter("a").inc() == 1
        assert reg.counter("a").inc(3) == 4
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter_value("a") == 4
        assert reg.counter_value("never_created") == 0

    def test_counters_with_prefix_only_what_fired(self):
        reg = MetricsRegistry()
        assert reg.counters_with_prefix("health.") == {}
        reg.counter("health.x").inc()
        reg.counter("health.y").inc(2)
        reg.counter("other.z").inc()
        assert reg.counters_with_prefix("health.") == {"x": 1, "y": 2}

    def test_remove_prefix_clears_entirely(self):
        reg = MetricsRegistry()
        reg.counter("health.x").inc()
        reg.remove("health.")
        # Removed, not zeroed: the name must vanish from every view.
        assert reg.counters_with_prefix("health.") == {}
        assert "health.x" not in reg.snapshot()["counters"]

    def test_reset_zeroes_but_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("g").set(2.5)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 0}
        assert snap["gauges"] == {"g": 0.0}

    def test_histogram_fixed_buckets_deterministic_shape(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", boundaries=(0.01, 0.1, 1.0))
        empty = hist.snapshot()
        hist.observe(0.005)
        hist.observe(0.5)
        hist.observe(50.0)
        full = hist.snapshot()
        # Same keys in the same order whether or not anything was observed.
        assert list(empty["buckets"]) == list(full["buckets"])
        assert full["buckets"] == {
            "le_0.01": 1, "le_0.1": 0, "le_1": 1, "le_inf": 1,
        }
        assert full["count"] == 3
        assert full["min"] == 0.005 and full["max"] == 50.0

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS

    def test_collector_merged_and_failure_isolated(self):
        reg = MetricsRegistry()
        reg.register_collector("good", lambda: {"ok": 1})

        def bad():
            raise RuntimeError("boom")

        reg.register_collector("bad", bad)
        snap = reg.snapshot()
        assert snap["good"] == {"ok": 1}
        assert snap["bad"] == {"error": "boom"}
        assert reg.collect("good") == {"ok": 1}

    def test_concurrent_increments_exact(self):
        reg = MetricsRegistry()
        threads = [
            threading.Thread(
                target=lambda: [reg.counter("hits").inc() for _ in range(500)]
            )
            for _ in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == 16 * 500

    def test_global_snapshot_includes_subsystem_collectors(self):
        # Importing the subsystems registers their collectors.
        from repro.core import batched, cost_model, solve_pool  # noqa: F401

        snap = REGISTRY.snapshot()
        for key in ("compile_cache", "batched_table_cache",
                    "solve_pool", "reliability"):
            assert key in snap, key
        assert set(snap["compile_cache"]) == {
            "hits", "misses", "evictions", "size", "maxsize",
        }
        assert set(snap["solve_pool"]) == {
            "pool_batches", "pool_solves", "pool_rebuilds", "serial_fallbacks",
        }


# ----------------------------------------------------------------------
# health counters in the registry
# ----------------------------------------------------------------------
class TestHealthCounters:
    @pytest.fixture(autouse=True)
    def _clean(self):
        REGISTRY.remove("health.")
        yield
        REGISTRY.remove("health.")

    def test_reliability_collector_mirrors_health(self):
        REGISTRY.counter("health.disk_write_errors").inc()
        assert REGISTRY.collect("reliability") == {"disk_write_errors": 1}


# ----------------------------------------------------------------------
# tracing: spans, ring, concurrency, propagation
# ----------------------------------------------------------------------
class TestTraceSpans:
    def test_disabled_span_measures_but_records_nothing(self):
        obs_trace.disable()
        obs_trace.drain()
        with obs_trace.span("solve.compile") as sp:
            pass
        assert sp.elapsed >= 0.0
        assert obs_trace.snapshot_spans() == []

    def test_nesting_links_parent_and_trace(self, traced):
        with obs_trace.span("outer"):
            with obs_trace.span("inner"):
                pass
        inner, outer = obs_trace.drain()
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"]

    def test_error_is_recorded(self, traced):
        with pytest.raises(ValueError):
            with obs_trace.span("failing"):
                raise ValueError("nope")
        (rec,) = obs_trace.drain()
        assert rec["error"] == "ValueError"

    def test_attrs_survive_export_roundtrip(self, traced, tmp_path):
        with obs_trace.span("solve.refine", class_name="C1", level="L2"):
            pass
        out = tmp_path / "trace.jsonl"
        assert obs_trace.export_jsonl(out) == 1
        (rec,) = obs_trace.load_jsonl(out)
        assert rec["attrs"] == {"class_name": "C1", "level": "L2"}

    def test_load_jsonl_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            'not json\n{"no_name": 1}\n\n'
            '{"name": "ok", "duration_s": 0.5}\n'
        )
        records = obs_trace.load_jsonl(path)
        assert [r["name"] for r in records] == ["ok"]

    def test_ring_is_bounded_and_counts_drops(self):
        obs_trace.enable(ring_size=4)
        try:
            for i in range(10):
                with obs_trace.span(f"s{i}"):
                    pass
            kept = obs_trace.snapshot_spans()
            assert [r["name"] for r in kept] == ["s6", "s7", "s8", "s9"]
            assert obs_trace.dropped_spans() == 6
        finally:
            obs_trace.disable()
            obs_trace.enable()  # restore the default ring size
            obs_trace.disable()
            obs_trace.drain()

    def test_sixteen_threads_plus_asyncio_keep_ancestry_separate(self, traced):
        """16 threads and interleaved asyncio tasks share one ring, yet
        every worker sees only its own ancestry (contextvars isolation)."""
        n_threads, per_thread = 16, 25

        def worker(tag: str):
            for i in range(per_thread):
                with obs_trace.span("outer", tag=tag, i=i):
                    with obs_trace.span("inner", tag=tag, i=i):
                        pass

        async def task(tag: str):
            with obs_trace.span("outer", tag=tag, i=0):
                await asyncio.sleep(0)  # force interleaving between tasks
                with obs_trace.span("inner", tag=tag, i=0):
                    await asyncio.sleep(0)

        async def run_tasks():
            await asyncio.gather(*(task(f"a{k}") for k in range(8)))

        threads = [
            threading.Thread(target=worker, args=(f"t{k}",))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        asyncio.run(run_tasks())
        for t in threads:
            t.join()

        records = obs_trace.drain()
        assert len(records) == 2 * (n_threads * per_thread + 8)
        outers = {
            (r["attrs"]["tag"], r["attrs"]["i"]): r
            for r in records if r["name"] == "outer"
        }
        for rec in records:
            if rec["name"] != "inner":
                continue
            parent = outers[(rec["attrs"]["tag"], rec["attrs"]["i"])]
            # Each inner span must attach to *its own* worker's outer
            # span, never to a concurrent one.
            assert rec["parent_id"] == parent["span_id"]
            assert rec["trace_id"] == parent["trace_id"]

    def test_activate_adopts_shipped_context(self, traced):
        with obs_trace.span("submitter") as sp:
            ctx = obs_trace.current_context()
        assert ctx == (sp.trace_id, sp.span_id)
        with obs_trace.activate(ctx):
            with obs_trace.span("worker"):
                pass
        worker = obs_trace.drain()[-1]
        assert worker["trace_id"] == sp.trace_id
        assert worker["parent_id"] == sp.span_id

    def test_remote_capture_collects_without_global_enable(self):
        obs_trace.disable()
        obs_trace.drain()
        ctx = ("feedfacefeedface", "deadbeefdeadbeef")
        with obs_trace.remote_capture(ctx) as captured:
            with obs_trace.span("solve.class", class_name="C1"):
                pass
        assert obs_trace.snapshot_spans() == []  # nothing hit the ring
        (rec,) = captured
        assert rec["trace_id"] == "feedfacefeedface"
        assert rec["parent_id"] == "deadbeefdeadbeef"
        obs_trace.ingest(captured)
        assert obs_trace.drain() == [rec]

    def test_remote_capture_none_ctx_is_noop(self):
        with obs_trace.remote_capture(None) as captured:
            with obs_trace.span("solve.class"):
                pass
        assert captured is None


# ----------------------------------------------------------------------
# fork-based solve pool: one trace id across the process boundary
# ----------------------------------------------------------------------
class TestForkPropagation:
    def test_pooled_class_solves_join_the_parent_trace(
        self, traced, tiny_machine, small_spec
    ):
        from repro.core import solve_pool

        solve_pool.shutdown_pool()
        try:
            MOptOptimizer(
                tiny_machine, _settings(class_workers=2)
            ).optimize(small_spec)
        finally:
            solve_pool.shutdown_pool()
        records = obs_trace.drain()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)

        (operator,) = by_name["solve.operator"]
        # Every span of the optimize — parent-side phases and
        # worker-side class solves alike — carries one trace id.
        assert {r["trace_id"] for r in records} == {operator["trace_id"]}
        assert operator["parent_id"] is None

        class_spans = by_name["solve.class"]
        assert len(class_spans) >= 2
        worker_pids = {r["pid"] for r in class_spans}
        # The pool forks real workers, so class solves report foreign
        # pids yet still stitch into the submitting trace.
        assert worker_pids and operator["pid"] not in worker_pids
        # The worker-side select/refine phases came through ingest().
        assert any(r["pid"] != operator["pid"] for r in by_name["solve.select"])


class TestDseTraceAncestry:
    def test_sweep_is_one_trace(self, traced, tiny_machine, small_spec):
        """Every candidate span is a child of the sweep span, and every
        operator solve sits under a candidate, in the sweep's trace."""
        from repro.dse import DesignSpace, axis_values, explore

        space = DesignSpace(tiny_machine, [axis_values("cores", [1, 2])])
        explore(
            space,
            [[small_spec]],
            strategy="mopt",
            strategy_options={"settings": _settings(), "measure": False},
        )
        records = obs_trace.drain()
        by_id = {r["span_id"]: r for r in records}
        (sweep,) = [r for r in records if r["name"] == "dse.sweep"]
        candidates = [r for r in records if r["name"] == "dse.candidate"]
        assert len(candidates) == 2
        for candidate in candidates:
            assert candidate["parent_id"] == sweep["span_id"]
            assert candidate["trace_id"] == sweep["trace_id"]

        def ancestor_names(record):
            names = []
            while record["parent_id"] is not None:
                record = by_id[record["parent_id"]]
                names.append(record["name"])
            return names

        operators = [r for r in records if r["name"] == "solve.operator"]
        assert len(operators) == 2
        for operator in operators:
            assert "dse.candidate" in ancestor_names(operator)
            assert operator["trace_id"] == sweep["trace_id"]


# ----------------------------------------------------------------------
# heartbeats and `dse status`
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_sidecar_path_is_sibling(self, tmp_path):
        progress = tmp_path / "shard0.jsonl"
        assert hb.heartbeat_path_for(progress) == tmp_path / "shard0.jsonl.hb.json"

    def test_writer_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl.hb.json"
        writer = hb.HeartbeatWriter(path, label="sweep", shard="0/2", total=10)
        writer.update(3, 1, force=True)
        (entry,) = hb.read_heartbeats(tmp_path)
        assert entry["status"] == "running"
        assert entry["done"] == 3 and entry["failed"] == 1
        assert entry["total"] == 10 and entry["percent"] == 30.0
        assert entry["shard"] == "0/2" and entry["label"] == "sweep"
        writer.finish(10)
        (entry,) = hb.read_heartbeats(tmp_path)
        assert entry["status"] == "done" and entry["done"] == 10

    def test_update_is_throttled_but_finish_always_lands(self, tmp_path):
        path = tmp_path / "p.hb.json"
        writer = hb.HeartbeatWriter(path, total=5, interval_s=3600.0)
        writer.update(1, force=True)
        writer.update(2)  # throttled: within interval_s of the last write
        (entry,) = hb.read_heartbeats(tmp_path)
        assert entry["done"] == 1
        writer.finish(5)
        (entry,) = hb.read_heartbeats(tmp_path)
        assert entry["done"] == 5

    def test_resumed_outcomes_excluded_from_rate(self, tmp_path):
        path = tmp_path / "p.hb.json"
        writer = hb.HeartbeatWriter(path, total=100)
        writer.set_resumed(90)
        writer.started_at -= 10.0  # pretend 10s elapsed
        writer.update(95, force=True)
        (entry,) = hb.read_heartbeats(tmp_path)
        # 5 fresh evaluations over ~10s, not 95.
        assert entry["rate_per_s"] == pytest.approx(0.5, rel=0.2)

    def test_corrupt_heartbeat_skipped(self, tmp_path):
        (tmp_path / "bad.hb.json").write_text("{torn")
        good = hb.HeartbeatWriter(tmp_path / "good.hb.json", total=1)
        good.finish(1)
        entries = hb.read_heartbeats(tmp_path)
        assert [e["done"] for e in entries] == [1]

    def test_status_payload_flags_stale_running_shards(self, tmp_path):
        now = 1_000_000.0
        for name, status, updated in (
            ("a", "running", now - 5.0),     # fresh
            ("b", "running", now - 120.0),   # stale: hung or killed
            ("c", "done", now - 120.0),      # old but finished: never stale
        ):
            (tmp_path / f"{name}.hb.json").write_text(json.dumps({
                "schema_version": 1, "label": "sweep", "shard": name,
                "pid": 1, "status": status, "total": 4, "done": 2,
                "failed": 0, "percent": 50.0, "rate_per_s": 1.0,
                "started_at": now - 200.0, "updated_at": updated,
            }))
        payload = hb.status_payload(tmp_path, stale_after=60.0, now=now)
        assert payload["num_shards"] == 3
        assert payload["running"] == 2
        assert payload["stale"] == 1
        by_shard = {s["shard"]: s for s in payload["shards"]}
        assert not by_shard["a"]["stale"]
        assert by_shard["b"]["stale"]
        assert not by_shard["c"]["stale"]
        assert payload["done"] == 6 and payload["total"] == 12
        assert payload["percent"] == 50.0
        rendered = hb.render_status(payload)
        assert "STALE" in rendered
        assert "shards: 3  running: 2  stale: 1" in rendered

    def test_dse_status_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        writer = hb.HeartbeatWriter(
            hb.heartbeat_path_for(tmp_path / "progress.jsonl"),
            label="smoke", shard="1/2", total=8,
        )
        writer.update(4, 1, force=True)
        assert main(["dse", "status", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (shard,) = payload["shards"]
        assert shard["shard"] == "1/2" and shard["done"] == 4
        assert payload["percent"] == 50.0
        assert main(["dse", "status", str(tmp_path)]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_empty_directory_status(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["dse", "status", str(tmp_path)]) == 0
        assert "(no heartbeats found)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# trace summary (golden)
# ----------------------------------------------------------------------
GOLDEN_RECORDS = [
    {"name": "solve.operator", "trace_id": "t1", "span_id": "s1",
     "parent_id": None, "duration_s": 2.0},
    {"name": "solve.refine", "trace_id": "t1", "span_id": "s2",
     "parent_id": "s1", "duration_s": 1.5},
    {"name": "solve.select", "trace_id": "t1", "span_id": "s3",
     "parent_id": "s1", "duration_s": 0.25},
    {"name": "solve.select", "trace_id": "t1", "span_id": "s4",
     "parent_id": "s1", "duration_s": 0.15},
    {"name": "solve.compile", "trace_id": "t1", "span_id": "s5",
     "parent_id": "s1", "duration_s": 0.1},
]

GOLDEN_TABLE = """\
trace summary: 5 spans, 1 traces, 2.000s root wall
  span                        count   total_s    mean_s     min_s     max_s   share
  ---------------------------------------------------------------------------------
  solve.operator                  1     2.000    2.0000    2.0000    2.0000  100.0%
  solve.refine                    1     1.500    1.5000    1.5000    1.5000   75.0%
  solve.select                    2     0.400    0.2000    0.1500    0.2500   20.0%
  solve.compile                   1     0.100    0.1000    0.1000    0.1000    5.0%"""


class TestTraceSummary:
    def test_summarize_aggregates_and_shares(self):
        summary = summarize(GOLDEN_RECORDS)
        assert summary["spans"] == 5
        assert summary["traces"] == 1
        assert summary["root_seconds"] == 2.0
        select = next(
            p for p in summary["phases"] if p["name"] == "solve.select"
        )
        assert select["count"] == 2
        assert select["total_s"] == pytest.approx(0.4)
        assert select["min_s"] == 0.15 and select["max_s"] == 0.25
        assert select["share"] == pytest.approx(0.2)

    def test_render_summary_golden(self):
        assert render_summary(summarize(GOLDEN_RECORDS)) == GOLDEN_TABLE

    def test_render_summary_empty(self):
        rendered = render_summary(summarize([]))
        assert "(no spans)" in rendered

    def test_cli_summary_of_exported_trace(self, traced, tmp_path, capsys):
        from repro.cli import main

        with obs_trace.span("solve.operator"):
            with obs_trace.span("solve.refine"):
                pass
        out = tmp_path / "t.jsonl"
        obs_trace.export_jsonl(out)
        assert main(["trace", "summary", str(out)]) == 0
        text = capsys.readouterr().out
        assert "solve.operator" in text and "solve.refine" in text
        assert main(["trace", "summary", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 2


# ----------------------------------------------------------------------
# session integration: wall_seconds == span clock, stats shape
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_session_trace_written_and_stats_shape(self, tmp_path):
        from repro.api import Session

        obs_trace.drain()
        trace_file = tmp_path / "session.jsonl"
        session = Session(machine="tiny", trace=trace_file)
        try:
            stats = session.performance_stats()
            assert set(stats) == {
                "compile_cache", "batched_table_cache",
                "solve_pool", "solver", "reliability",
            }
            assert stats["reliability"]["cache"] == {
                "quarantined": 0, "write_errors": 0, "degraded": False,
            }
            (result,) = session.optimize_many(["R9"])
            assert result.result.gflops > 0.0
            assert session.export_trace() == trace_file
        finally:
            obs_trace.disable()
            obs_trace.drain()
        records = obs_trace.load_jsonl(trace_file)
        names = {r["name"] for r in records}
        assert "session.optimize_many" in names
        assert "solve.operator" in names
        root = next(
            r for r in records if r["name"] == "session.optimize_many"
        )
        operator = next(r for r in records if r["name"] == "solve.operator")
        # The operator solve nests inside the batch span of one trace.
        assert operator["trace_id"] == root["trace_id"]
        assert root["duration_s"] >= operator["duration_s"]
