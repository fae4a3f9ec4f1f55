"""The serving process of the serve-* workloads.

Started by the benchmark as ``python3 perfbench/sut.py --store DIR ...``
from the checkout root.  It imports the program, sets the server up
three times (the first two are torn down again; the median CPU time of
the three is the set-up time), prints one ``READY {...}`` line and
serves TCP until its standard input closes.  It then stops the server
and writes its counters, spans and peak memory to ``--out`` as JSON.
"""

from __future__ import annotations

import time

_W0, _T0 = time.perf_counter(), time.process_time()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.engine.cache import ResultCache  # noqa: E402
from repro.engine.chunk_store import ChunkedResultStore  # noqa: E402
from repro.engine.strategy import get_strategy  # noqa: E402
from repro.machine.presets import get_machine  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402
from repro.serving import OptimizationServer, ServerConfig, start_tcp_server  # noqa: E402

from harness import MACHINE, Tracer  # noqa: E402
from layers import TimedResultCache, TimedStore, TimedStrategy  # noqa: E402

IMPORT_S = time.process_time() - _T0


async def _build(args: argparse.Namespace, tracer: Tracer):
    store = ChunkedResultStore(args.store)
    strategy = get_strategy("mopt", measure=False)
    if tracer.enabled:
        cache = TimedResultCache(
            TimedStore(store, tracer), memory_entries=args.memory_entries, tracer=tracer
        )
        strategy = TimedStrategy(strategy, tracer)
    else:
        cache = ResultCache(store, memory_entries=args.memory_entries)
    server = OptimizationServer(
        get_machine(MACHINE), strategy, cache=cache, config=ServerConfig()
    )
    await server.start()
    listener = await start_tcp_server(server, port=0)
    return store, cache, server, listener


async def _teardown(store, server, listener) -> None:
    listener.close()
    await listener.wait_closed()
    await server.stop(drain=True, drain_timeout=30.0)
    store.close()


async def main(args: argparse.Namespace) -> None:
    tracer = Tracer(args.trace, pid_tag="server")
    if args.trace:
        obs_trace.enable()
    setups = []
    for attempt in range(3):
        start = time.process_time()
        store, cache, server, listener = await _build(args, tracer)
        setups.append(time.process_time() - start)
        if attempt < 2:
            await _teardown(store, server, listener)
    setup_window = (_W0, time.perf_counter())
    tracer.spans.clear()
    port = listener.sockets[0].getsockname()[1]
    print(
        "READY " + json.dumps(
            {"port": port, "import_s": IMPORT_S, "setup_s": setups, "setup_window": setup_window}
        ),
        flush=True,
    )
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    stats = server.stats_snapshot()
    cache_stats = cache.stats
    await _teardown(store, server, listener)
    payload = {
        "stats": stats,
        "cache": {
            "hits": cache_stats.hits,
            "lookups": cache_stats.lookups,
        },
        "duplicate_solves": server.duplicate_solves(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "program_spans": len(obs_trace.snapshot_spans()) + obs_trace.dropped_spans(),
        "phase_spans": [
            rec for rec in obs_trace.snapshot_spans() if rec["name"].startswith("solve.")
        ],
    }
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--memory-entries", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    asyncio.run(main(parser.parse_args()))
