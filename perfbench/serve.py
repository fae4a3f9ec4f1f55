"""serve-warm and serve-mixed: an open-loop generator against a TCP server.

The server (``sut.py``) runs in its own process over a
``ChunkedResultStore``.  Before it starts, the benchmark solves the warm
operator pool with ``Session`` into that store: those are the reference
answers every served answer must equal.  The generator is this process —
one asyncio loop, two TCP connections (``nproc`` on the reference box).
Arrivals are Poisson, drawn from the seed ahead of time, and each
request's latency runs from the moment it was due, so a stall delays
every request queued behind it.

serve-warm
    Warm pool of 4 operators, all in the server's memory tier.  Requests
    (single operators and lists of 2-3) at 100/s and 200/s, then a closed
    loop with :data:`IN_FLIGHT` requests outstanding per connection: the
    server's saturated throughput and the latency under that load.
serve-mixed
    The same kind of warm traffic at :data:`MIXED_WARM_RATE` against a
    memory tier of 2 entries (smaller than the pool, so lookups also read
    the store), while novel operators (Table 1 shapes at batch 2, 4 and
    8) arrive every few seconds — each sent on both connections 3 ms
    apart, so the second copy must coalesce onto the first's solve.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.engine.cache import ResultCache
from repro.engine.chunk_store import ChunkedResultStore
from repro.engine.serialization import spec_shape_key
from repro.engine.strategy import get_strategy
from repro.machine.presets import get_machine
from repro.obs import trace as obs_trace
from repro.obs.export import histogram_quantile
from repro.serving import AcceptedEvent, TCPServingClient

import operators
from harness import (
    LATENCY_LIMIT_MS,
    MACHINE,
    SERVER_CPU,
    Outcome,
    SpeedProbe,
    Start,
    Tracer,
    answer_record,
    check_answer,
    geomean,
    median,
    oracle_gflops,
    own_peak_rss_mb,
    percentile,
    process_cpu_s,
    span_layer_metrics,
    speed_factor,
    state_dir,
    tracing_cost_s,
)

#: Strata (see ``operators.STRATA``) the warm pool is drawn from: quick
#: solves, since the benchmark solves the pool before every run.
WARM_STRATA = (5, 9, 11, 3)
#: The novel operators of serve-mixed: the three fastest Table 1
#: operators at batch 2, 4 and 8, in an order drawn from the seed.  The
#: set is fixed because the warm requests' latency depends on how long
#: the server solves, and a drawn set made that the seed's choice.
NOVEL_OPERATORS = (("R3", 2), ("R5", 4), ("R11", 8))
#: Warm request rate of serve-mixed.  While the server solves, its event
#: loop shares the interpreter lock with the solving thread and answers
#: well under 100 requests/s on the 2-core reference box; at 100/s the
#: queue overflows during every solve and requests are rejected.
MIXED_WARM_RATE = 50
#: Requests each connection keeps outstanding in serve-warm's closed loop.
IN_FLIGHT = 8
SATURATED = "saturated"
CONNECTIONS = 2


@dataclass
class Sent:
    """One request of the schedule and what became of it."""

    phase: str
    due: float
    specs: Tuple[Any, ...]
    connection: int
    sent: float = 0.0
    done: float = 0.0
    error: Optional[str] = None
    distinct: int = 0
    queue_depths: List[int] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _poisson(rng, rate: float, duration: float, start: float) -> List[float]:
    """Poisson arrivals at ``rate`` over ``duration``, given their count.

    Given how many arrive, the arrival times of a Poisson process are
    independent and uniform over the interval; fixing the count at
    ``rate * duration`` makes every run send the same number of requests.
    """
    return sorted(start + rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


def _warm_request(rng, pool: Sequence[Any]) -> Tuple[Any, ...]:
    if rng.random() < 0.7:
        return (rng.choice(pool),)
    return tuple(rng.sample(list(pool), rng.choice((2, 3))))


def _solve_references(machine, specs, store=None) -> Dict[str, Any]:
    """``Session`` answers for ``specs`` (written to ``store`` when given)."""
    cache = ResultCache(store) if store is not None else ResultCache()
    session = Session(
        machine,
        get_strategy("mopt", measure=False),
        cache=cache,
        executor="serial",
    )
    results = session.optimize_many(list(specs))
    return {spec_shape_key(spec): (spec, r.result) for spec, r in zip(specs, results)}


def _start_server(store: Path, out: Path, memory_entries: int, trace: bool):
    proc = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "sut.py"),
            "--store", str(store),
            "--out", str(out),
            "--memory-entries", str(memory_entries),
            "--trace", str(int(trace)),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    os.sched_setaffinity(proc.pid, {SERVER_CPU})
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("READY "):
                return proc, json.loads(line[6:])
        elif proc.poll() is not None:
            break
    _stop_server(proc)
    raise RuntimeError("serving process did not come up")


def _stop_server(proc) -> None:
    try:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Generator:
    """The open-loop load generator: one loop, :data:`CONNECTIONS` sockets."""

    def __init__(self, clients, references, tracer: Tracer):
        self.clients = clients
        self.references = references
        self.tracer = tracer
        self.lateness: List[float] = []

    async def run(self, schedule: Sequence[Sent]) -> None:
        """Send ``schedule`` (sorted by due time), then wait for the replies."""
        tasks = []
        for item in schedule:
            delay = item.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            item.sent = time.perf_counter()
            self.lateness.append(item.sent - item.due)
            tasks.append(asyncio.ensure_future(self.send(item)))
        await asyncio.gather(*tasks)

    async def send(self, item: Sent) -> None:
        """Send one request and record its answer, latency and verdict."""
        def on_event(event) -> None:
            if isinstance(event, AcceptedEvent):
                item.queue_depths.append(event.queue_depth)

        client = self.clients[item.connection]
        try:
            with obs_trace.span("perfbench.request") as ctx:
                with self.tracer.span("serving.request", "serving", rid=ctx.trace_id, lane=True):
                    response = await client.optimize(item.specs, on_event=on_event)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            item.done = time.perf_counter()
            item.error = f"{type(error).__name__}: {error}"
            return
        item.done = time.perf_counter()
        item.distinct = response.distinct_operators
        item.error = self._verify(response, item.specs)

    def _verify(self, response, specs) -> Optional[str]:
        if response.degraded:
            return "degraded answer"
        if len(response.operators) != len(specs):
            return f"{len(response.operators)} answers for {len(specs)} operators"
        for spec, figure in zip(specs, response.operators):
            _, expected = self.references[spec_shape_key(spec)]
            if (figure.gflops, figure.time_seconds) != (expected.gflops, expected.time_seconds):
                return f"served answer for {spec.name} differs from the Session answer"
        return None


def _phase_latencies(schedule: Sequence[Sent], phase: str) -> List[float]:
    """Latencies (ms, in due order) of a phase's answered requests."""
    return [s.latency_ms for s in schedule if s.phase == phase and s.error is None]


async def _phase(gen: "Generator", rng, pool, name: str, rate: float, duration: float) -> List[Sent]:
    """``duration`` seconds of Poisson warm requests at ``rate``, sent and answered."""
    begin = time.perf_counter() + 0.02
    part = [
        Sent(name, due, _warm_request(rng, pool), i % CONNECTIONS)
        for i, due in enumerate(_poisson(rng, rate, duration, begin))
    ]
    await gen.run(part)
    return part


async def _saturate(gen: "Generator", rng, pool, duration: float) -> List[Sent]:
    """Closed loop: every connection keeps :data:`IN_FLIGHT` requests outstanding.

    A sequence of 4096 requests is drawn from the seed up front and
    repeated; lanes take the next request as soon as their previous one
    is answered.  Only the requests answered within ``duration`` count
    towards the phase's figures.
    """
    requests = itertools.cycle([_warm_request(rng, pool) for _ in range(4096)])
    end = time.perf_counter() + duration
    sent: List[Sent] = []

    async def lane(connection: int) -> None:
        while time.perf_counter() < end:
            item = Sent(SATURATED, time.perf_counter(), next(requests), connection)
            item.sent = item.due
            sent.append(item)
            await gen.send(item)

    await asyncio.gather(*(lane(i % CONNECTIONS) for i in range(CONNECTIONS * IN_FLIGHT)))
    for item in sent:
        if item.done > end:
            item.phase = "drain"  # answered after the window: checked, not counted
    return sent


class _CpuWindow:
    """CPU seconds of the generator and the server over one measured phase."""

    def __init__(self, server_pid: int):
        self.server_pid = server_pid
        self.start = time.perf_counter()
        self.bench_cpu = process_cpu_s()
        self.server_cpu = process_cpu_s(server_pid)
        self.end = self.start
        self.ops = 0

    def close(self, ops: int) -> None:
        self.end = time.perf_counter()
        self.bench_cpu = process_cpu_s() - self.bench_cpu
        self.server_cpu = process_cpu_s(self.server_pid) - self.server_cpu
        self.ops = ops


async def _drive(
    workload: str, server_pid: int, port: int, rng, seconds: float, pool, novel, references,
    tracer,
) -> Dict[str, Any]:
    clients = [
        await TCPServingClient.connect(port=port, max_retries=0, timeout_s=60.0)
        for _ in range(CONNECTIONS)
    ]
    gen = Generator(clients, references, tracer)
    try:
        # Fill the server's memory tier: one request per pool operator.
        await gen.run([Sent("prime", time.perf_counter(), (spec,), 0) for spec in pool])
        gen.lateness.clear()

        # The generator's own collector pauses would delay sends and
        # replies; only the server's pauses belong in the figures.
        gc.collect()
        gc.freeze()
        gc.disable()
        window_start = time.perf_counter()
        schedule: List[Sent] = []
        if workload == "serve-warm":
            for rate in (100, 200):
                schedule += await _phase(gen, rng, pool, f"{rate}rps", rate, 0.25 * seconds)
            cpu = _CpuWindow(server_pid)
            saturated = await _saturate(gen, rng, pool, 0.5 * seconds)
            cpu.close(sum(1 for item in saturated if item.error is None))
            schedule += saturated
        else:
            begin = time.perf_counter() + 0.02
            schedule = [
                Sent("warm", due, _warm_request(rng, pool), i % CONNECTIONS)
                for i, due in enumerate(_poisson(rng, MIXED_WARM_RATE, seconds, begin))
            ]
            period = seconds / len(novel)
            for index, spec in enumerate(novel):
                due = begin + 0.5 + index * period
                schedule.append(Sent("novel", due, (spec,), 0))
                schedule.append(Sent("novel", due + 0.003, (spec,), 1))
            schedule.sort(key=lambda item: item.due)
            cpu = _CpuWindow(server_pid)
            await gen.run(schedule)
            cpu.close(sum(1 for item in schedule if item.error is None))
        window_end = time.perf_counter()
        stats = await clients[0].stats()
    finally:
        gc.enable()
        gc.unfreeze()
        for client in clients:
            await client.close()
    return {
        "cpu": cpu,
        "window": (window_start, window_end),
        "schedule": schedule,
        "stats": stats,
        "lateness": gen.lateness,
    }


def run_warm(seed: int, seconds: float, tracer: Tracer, begun: Start) -> Outcome:
    """serve-warm; set-up is the server process's, not the import ``begun`` timed."""
    return _run("serve-warm", seed, seconds, tracer, begun)


def run_mixed(seed: int, seconds: float, tracer: Tracer, begun: Start) -> Outcome:
    """serve-mixed; set-up is the server process's, not the import ``begun`` timed."""
    return _run("serve-mixed", seed, seconds, tracer, begun)


def _run(workload: str, seed: int, seconds: float, tracer: Tracer, begun: Start) -> Outcome:
    out = Outcome()
    machine = get_machine(MACHINE)
    rng = operators.rng_for(workload, seed)
    pool = operators.specs(operators.stratified_draw(rng, WARM_STRATA))
    novel: List[Any] = []
    if workload == "serve-mixed":
        novel = [operators.specs([name], batch=batch)[0] for name, batch in NOVEL_OPERATORS]
        rng.shuffle(novel)

    work = state_dir() / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store = ChunkedResultStore(work / "store")
    references = _solve_references(machine, pool, store)
    store.close()
    if novel:
        references.update(_solve_references(machine, novel))

    memory_entries = 2 if workload == "serve-mixed" else 512
    if tracer.enabled:
        obs_trace.enable()
    server_probe = SpeedProbe(SERVER_CPU)
    try:
        proc, ready = _start_server(
            work / "store", work / "server.json", memory_entries, tracer.enabled
        )
        try:
            driven = asyncio.run(
                _drive(
                    workload, proc.pid, ready["port"], rng, seconds, pool, novel, references,
                    tracer,
                )
            )
            bench_rss = own_peak_rss_mb()
        finally:
            _stop_server(proc)
    finally:
        server_samples = server_probe.stop()
    bench_samples = begun.probe.stop()
    # The program spans this process recorded: the client's and the
    # generator's per request (the ring keeps count of what it dropped).
    driven["program_spans"] = len(obs_trace.drain()) + obs_trace.dropped_spans()
    obs_trace.disable()
    server = json.loads((work / "server.json").read_text(encoding="utf-8"))
    shutil.rmtree(work)
    # Server spans join their request's lane through its trace id.
    tracer.spans += server["spans"]

    schedule: List[Sent] = driven["schedule"]
    for item in schedule:
        out.attempted += 1
        if item.error is not None:
            out.fail(f"{item.phase} request: {item.error}")
    if server["duplicate_solves"]:
        out.fail(f"{server['duplicate_solves']} duplicate solves of one operator")

    quality = []
    for key, (spec, result) in references.items():
        problem = check_answer(spec, result.best_config, machine)
        if problem is not None:
            out.fail(f"{spec.name}: {problem}")
            continue
        quality.append(oracle_gflops(spec, result.best_config, machine))
        out.answers[key] = answer_record(result)

    setup_speed = speed_factor(server_samples, *ready["setup_window"])
    setup_s = (ready["import_s"] + median(ready["setup_s"])) * setup_speed
    cpu: _CpuWindow = driven["cpu"]
    bench_speed = speed_factor(bench_samples, cpu.start, cpu.end)
    server_speed = speed_factor(server_samples, cpu.start, cpu.end)
    at_reference = cpu.bench_cpu * bench_speed + cpu.server_cpu * server_speed
    if workload == "serve-warm":
        fixed = {rate: _phase_latencies(schedule, f"{rate}rps") for rate in (100, 200)}
        main = fixed[200]
        saturated = _phase_latencies(schedule, SATURATED)
        headline_p50 = median(saturated)
        goodput = len(saturated) / (0.5 * seconds)
        out.report = {
            "saturated rps / p50 / p99 (wall)": f"{goodput:.1f} 1/s / {headline_p50:.3f} / "
            f"{percentile(saturated, 99):.3f} ms ({len(saturated)} requests)",
            "p50_ms.100rps / p99_ms.100rps": f"{median(fixed[100]):.3f} / {percentile(fixed[100], 99):.3f} ms "
            f"({len(fixed[100])} requests)",
            "p50_ms.200rps / p99_ms.200rps": f"{median(main):.3f} / {percentile(main, 99):.3f} ms "
            f"({len(main)} requests; p90 {percentile(main, 90):.3f})",
        }
    else:
        main = _phase_latencies(schedule, "warm")
        cold = _phase_latencies(schedule, "novel")
        goodput = sum(1 for v in main if v <= LATENCY_LIMIT_MS) / seconds
        out.report = {
            f"warm goodput within {LATENCY_LIMIT_MS:g} ms (wall)": f"{goodput:.2f} 1/s",
            "mixed_warm_p50_ms / p99_ms": f"{median(main):.3f} / {percentile(main, 99):.3f} ms "
            f"({len(main)} requests; p90 {percentile(main, 90):.3f})",
            "mixed_cold_p50_s": f"{median(cold) / 1e3:.3f} s ({len(cold)} requests, "
            f"{' '.join(f'{s.name}@{s.batch}' for s in novel)})",
        }
    out.report["warm pool"] = " ".join(spec.name for spec in pool)
    out.report["gen.late_p99_ms"] = f"{percentile(driven['lateness'], 99) * 1e3:.3f} ms"
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": bench_rss + server["peak_rss_mb"],
        "answer_gflops_geomean": geomean(quality),
        "ref_cpu_ms_per_op": at_reference / max(1, cpu.ops) * 1e3,
    }
    out.report["CPU ms per op: generator, server / speed factors"] = (
        f"{cpu.bench_cpu / max(1, cpu.ops) * 1e3:.4f}, {cpu.server_cpu / max(1, cpu.ops) * 1e3:.4f} ms"
        f" / {bench_speed:.4f}, {server_speed:.4f} (server set-up {setup_speed:.4f})"
    )
    if tracer.enabled:
        out.layers, problems = _layers(driven, server, tracer)
        for problem in problems:
            out.fail(problem)
    return out


def _layers(
    driven: Dict[str, Any], server: Dict[str, Any], tracer: Tracer
) -> Tuple[Dict[str, float], List[str]]:
    start, end = driven["window"]
    spans = tracer.spans
    layers, problems = span_layer_metrics(spans, server["phase_spans"], start, end)
    stats = driven["stats"]
    schedule: List[Sent] = driven["schedule"]
    ok = [s for s in schedule if s.error is None]
    warm = [s.latency_ms for s in ok if s.phase != "novel"]
    histograms = stats.get("latency_s", {})
    warm_hist = next((h for name, h in histograms.items() if name.endswith("warm")), {})
    server_p50 = (histogram_quantile(warm_hist, 0.5) or 0.0) * 1e3
    solved = stats["operators_served"] - stats["operators_cached"]
    layers.update(
        {
            "engine.hit_ratio": server["cache"]["hits"] / max(1, server["cache"]["lookups"]),
            "engine.dedup_ratio": sum(len(s.specs) for s in ok) / max(1, sum(s.distinct for s in ok)),
            "serving.server_ms.p50": server_p50,
            "serving.server_ms.p99": (histogram_quantile(warm_hist, 0.99) or 0.0) * 1e3,
            "serving.wire_ms.p50": median(warm) - server_p50,
            "serving.queue_depth_max": max((d for s in schedule for d in s.queue_depths), default=0),
            "serving.coalesced_frac": stats["operators_coalesced"] / max(1, solved),
            "serving.duplicate_solves": server["duplicate_solves"],
            "serving.rejected": stats["rejected"],
            "serving.expired": stats["expired"],
            "serving.degraded": stats["degraded"],
            "gen.late_p99_ms": percentile(driven["lateness"], 99) * 1e3,
            "obs.trace_overhead_pct": 100.0
            * tracing_cost_s(len(spans), server["program_spans"] + driven["program_spans"])
            / (end - start),
        }
    )
    compile_cache = stats.get("compile_cache", {})
    lookups = compile_cache.get("hits", 0) + compile_cache.get("misses", 0)
    layers["core.compile_hit_ratio"] = compile_cache.get("hits", 0) / max(1, lookups)
    pool = stats.get("solve_pool", {})
    layers["core.pool_solves"] = pool.get("pool_solves", 0)
    layers["core.pool_rebuilds"] = pool.get("pool_rebuilds", 0)
    layers["core.serial_fallbacks"] = pool.get("serial_fallbacks", 0)
    return layers, problems
