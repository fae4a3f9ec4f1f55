"""``python -m repro`` — the single command line over the Session API.

Subcommands::

    # Optimize workloads (networks, single layers, network/layer refs):
    python -m repro optimize resnet18 --machine i7-9700k
    python -m repro optimize resnet18/R9 Y5 --strategy onednn --json

    # A TCP serving endpoint with graceful drain on shutdown:
    python -m repro serve --machine i7-9700k --port 8763 \
        --cache-dir /tmp/repro-cache --drain-timeout 10

    # The concurrent-client coalescing demo:
    python -m repro demo --clients 8 --networks resnet18 mobilenet

    # Pre-solve workloads into a persistent cache (or audit it), for one
    # preset, several, or every registered machine:
    python -m repro warm --cache-dir /tmp/repro-cache --networks resnet18
    python -m repro warm --cache-dir /tmp/repro-cache --machine all
    python -m repro warm --dry-run

    # Design-space exploration: sweep hypothetical machines and report
    # the Pareto frontier of predicted time vs. hardware cost:
    python -m repro dse --machine i7-9700k --networks resnet18 mobilenet \
        --log2 caches.L2.capacity_bytes=64KiB:1MiB --axis cores=4,8 \
        --progress sweep.jsonl --csv sweep.csv
    python -m repro dse --smoke

    # Quick cold/warm smoke benchmark through the Session API:
    python -m repro bench --quick

    # Telemetry of a running serving endpoint (the TCP `stats` verb):
    python -m repro stats 127.0.0.1:8763
    python -m repro stats 127.0.0.1:8763 --prometheus
    python -m repro top 127.0.0.1:8763 --interval 2
    python -m repro top --sweep /tmp/sweep-heartbeats

    # What is registered: machines, strategies, networks:
    python -m repro list

This replaces the per-package entry points and the ad-hoc example
invocations; everything is built on :class:`repro.api.Session`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .api.session import Session
from .engine.strategy import available_strategies
from .machine.presets import available_machines
from .workloads.benchmarks import network_benchmarks, network_names


def _parse_option(raw: str) -> tuple:
    """One ``key=value`` strategy option; values parse as JSON, else str."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"strategy option must look like key=value, got {raw!r}"
        )
    key, value = raw.split("=", 1)
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def _add_session_options(
    parser: argparse.ArgumentParser, *, multi_machine: bool = False
) -> None:
    if multi_machine:
        parser.add_argument(
            "--machine",
            nargs="+",
            default=["i7-9700k"],
            choices=available_machines() + ("all",),
            help="machine preset(s) to loop over, or 'all' for every "
            "registered preset",
        )
    else:
        parser.add_argument(
            "--machine",
            default="i7-9700k",
            choices=available_machines(),
            help="machine preset to optimize for",
        )
    parser.add_argument(
        "--strategy",
        default="mopt",
        help=f"search strategy (registered: {', '.join(available_strategies())})",
    )
    parser.add_argument(
        "--threads", type=int, default=8, help="strategy threads option"
    )
    parser.add_argument(
        "--measure",
        action="store_true",
        help="mopt only: measure top-k candidates on the virtual machine "
        "(default: purely analytical prediction)",
    )
    parser.add_argument(
        "--option",
        action="append",
        type=_parse_option,
        default=[],
        metavar="KEY=VALUE",
        help="extra strategy option (repeatable; value parsed as JSON)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory (a chunked result store)",
    )


def _strategy_options(args: argparse.Namespace) -> Dict[str, Any]:
    options: Dict[str, Any] = {}
    if args.threads:
        options["threads"] = args.threads
    if args.strategy == "mopt":
        # The network/serving paths want the purely analytical prediction
        # by default: no virtual measurement in the loop.
        options["measure"] = bool(getattr(args, "measure", False))
    options.update(dict(getattr(args, "option", []) or []))
    return options


def _build_session(
    args: argparse.Namespace, machine: Optional[str] = None, **extra: Any
) -> Session:
    return Session(
        machine if machine is not None else args.machine,
        args.strategy,
        strategy_options=_strategy_options(args),
        cache=args.cache_dir if args.cache_dir else None,
        **extra,
    )


def _add_server_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--queue-depth", type=int, default=64, help="bounded queue depth"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="concurrent request workers"
    )
    parser.add_argument(
        "--solve-threads", type=int, default=4, help="solver thread-pool width"
    )


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------
def _network_payload(result) -> Dict[str, Any]:
    return {
        "kind": "network",
        "network": result.network,
        "machine": result.machine_name,
        "strategy": result.strategy,
        "num_operators": result.num_operators,
        "distinct_operators": result.distinct_operators,
        "cache_hits": result.cache_hits,
        "total_time_seconds": result.total_time_seconds,
        "total_gflops": result.total_gflops,
        "search_seconds": result.total_search_seconds,
        "wall_seconds": result.wall_seconds,
        "layers": {o.name: o.gflops for o in result.operators},
    }


def _op_payload(result) -> Dict[str, Any]:
    return {
        "kind": "operator",
        "operator": result.name,
        "strategy": result.strategy,
        "gflops": result.gflops,
        "time_seconds": result.time_seconds,
        "search_seconds": result.search_seconds,
        "cached": result.cached,
    }


def _run_optimize(args: argparse.Namespace) -> int:
    session = _build_session(
        args,
        executor=args.executor,
        max_workers=args.max_workers,
        trace=getattr(args, "trace", None),
    )
    payloads: List[Dict[str, Any]] = []
    for reference in args.workload:
        workload: Any = reference
        if args.layers is not None and isinstance(reference, str):
            resolved = session.resolve(reference, batch=args.batch)
            if isinstance(resolved, list):
                workload = resolved[: args.layers]
        result = session.optimize(workload, batch=args.batch)
        if hasattr(result, "operators"):  # NetworkResult
            # Relabel truncated/explicit lists back to the reference name.
            payload = _network_payload(result)
            if payload["network"] == "custom" and isinstance(reference, str):
                payload["network"] = reference
            payloads.append(payload)
            if not args.json:
                print(result.summary())
                if args.per_layer:
                    for outcome in result.operators:
                        print("  " + outcome.summary())
        else:
            payloads.append(_op_payload(result))
            if not args.json:
                print(result.summary())
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2, sort_keys=True))
    trace_path = session.export_trace()
    if trace_path is not None and not args.json:
        print(f"trace written to {trace_path}")
    return 0


# ----------------------------------------------------------------------
# serve / demo
# ----------------------------------------------------------------------
async def _run_serve(args: argparse.Namespace) -> int:
    from .engine.cache import ResultCache
    from .machine.presets import get_machine
    from .serving.server import OptimizationServer, ServerConfig, start_tcp_server

    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    server = OptimizationServer(
        get_machine(args.machine),
        args.strategy,
        strategy_options=_strategy_options(args),
        cache=cache,
        config=ServerConfig(
            max_queue_depth=args.queue_depth,
            workers=args.workers,
            solve_threads=args.solve_threads,
        ),
    )
    await server.start()
    tcp = await start_tcp_server(server, args.host, args.port)
    for sock in tcp.sockets or ():
        print(f"serving on {sock.getsockname()}", flush=True)
    try:
        await asyncio.Event().wait()  # run until cancelled / Ctrl-C
    except asyncio.CancelledError:
        pass
    finally:
        tcp.close()
        await tcp.wait_closed()
        # Graceful drain: stop admissions, let accepted requests finish
        # within the window, then stop (stragglers are failed).
        print(
            f"draining (up to {args.drain_timeout:.0f}s) ...", flush=True
        )
        await server.stop(drain=True, drain_timeout=args.drain_timeout)
        print("server stopped", flush=True)
    return 0


async def _run_demo(args: argparse.Namespace) -> int:
    from .experiments.serving_demo import run_serving_demo
    from .machine.presets import get_machine

    result = await run_serving_demo(
        machine=get_machine(args.machine),
        clients=args.clients,
        networks=tuple(args.networks),
        strategy=args.strategy,
        strategy_options=_strategy_options(args),
        cache_dir=args.cache_dir,
        layers_per_network=args.layers,
        queue_depth=args.queue_depth,
        workers=args.workers,
        solve_threads=args.solve_threads,
    )
    print(result.text)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0 if result.duplicate_solves == 0 else 1


# ----------------------------------------------------------------------
# warm
# ----------------------------------------------------------------------
def _warm_payload(report) -> Dict[str, Any]:
    return {
        "networks": list(report.networks),
        "distinct_operators": report.distinct_operators,
        "already_cached": report.already_cached,
        "missing": report.missing,
        "solved": report.solved,
        "dry_run": report.dry_run,
        "wall_seconds": report.wall_seconds,
    }


def _run_warm(args: argparse.Namespace) -> int:
    if not args.cache_dir and not args.dry_run:
        # Warming a process-private in-memory cache would burn the full
        # cold-solve cost and persist nothing.
        print(
            "error: warm needs --cache-dir (a persistent store) "
            "unless --dry-run",
            file=sys.stderr,
        )
        return 2
    machines = list(args.machine)
    if "all" in machines:
        machines = list(available_machines())
    payloads: Dict[str, Dict[str, Any]] = {}
    for machine in machines:
        # One disk store serves every preset: cache keys content-hash the
        # machine, so a multi-preset sweep is just this loop.
        session = _build_session(args, machine=machine)
        report = session.warm_cache(
            args.networks, batch=args.batch, dry_run=args.dry_run
        )
        prefix = f"[{machine}] " if len(machines) > 1 else ""
        print(prefix + report.summary())
        payloads[machine] = _warm_payload(report)
    if args.json:
        out = (
            payloads[machines[0]]
            if len(machines) == 1
            else {"machines": payloads}
        )
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def _run_session_bench(args: argparse.Namespace) -> int:
    session = _build_session(args)
    network = args.network
    specs = network_benchmarks(network)
    if args.quick:
        specs = specs[:4]

    print(f"cold {network} ({len(specs)} layers) via {args.strategy!r} ...")
    start = time.perf_counter()
    cold = session.optimize(specs)
    cold_s = time.perf_counter() - start
    print(f"  {cold_s:.2f} s  ({cold.total_gflops:.1f} GFLOPS predicted)")

    print("warm re-run against the cache ...")
    start = time.perf_counter()
    warm = session.optimize(specs)
    warm_s = time.perf_counter() - start
    print(f"  {warm_s * 1e3:.1f} ms  ({warm.cache_hits} cache hits)")

    payload = {
        "network": network,
        "layers": len(specs),
        "machine": session.machine.name,
        "strategy": session.strategy_name,
        "quick": bool(args.quick),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "total_gflops": cold.total_gflops,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# stats / top — telemetry of a running serving endpoint
# ----------------------------------------------------------------------
def _parse_endpoint(endpoint: str) -> Tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"endpoint must look like HOST:PORT, got {endpoint!r}")
    return host or "127.0.0.1", int(port)


async def _run_stats(args: argparse.Namespace) -> int:
    from .serving.client import TCPServingClient

    try:
        host, port = _parse_endpoint(args.endpoint)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        client = await TCPServingClient.connect(
            host, port, timeout_s=args.timeout
        )
    except (OSError, asyncio.TimeoutError) as error:
        print(
            f"error: cannot connect to {args.endpoint}: {error}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.prometheus:
            text = await client.stats(prometheus=True)
            print(text, end="")
        else:
            print(json.dumps(await client.stats(), indent=2, sort_keys=True))
    finally:
        await client.close()
    return 0


async def _run_top(args: argparse.Namespace) -> int:
    from .obs.top import compute_dashboard, render_dashboard

    iterations: Optional[int] = 1 if args.once else args.iterations

    def show(text: str) -> None:
        if sys.stdout.isatty() and iterations != 1:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(text, flush=True)

    if args.sweep:
        # Sweep mode: no server to poll — render the heartbeat sidecars
        # (the same view as `dse status`, refreshed live).
        from .obs.heartbeat import render_status, status_payload

        shown = 0
        while True:
            show(render_status(status_payload(args.sweep)))
            shown += 1
            if iterations is not None and shown >= iterations:
                return 0
            await asyncio.sleep(args.interval)

    if not args.endpoint:
        print("error: top needs HOST:PORT (or --sweep DIR)", file=sys.stderr)
        return 2
    from .serving.client import TCPServingClient

    try:
        host, port = _parse_endpoint(args.endpoint)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        client = await TCPServingClient.connect(
            host, port, timeout_s=args.timeout
        )
    except (OSError, asyncio.TimeoutError) as error:
        print(
            f"error: cannot connect to {args.endpoint}: {error}",
            file=sys.stderr,
        )
        return 2
    previous: Optional[Dict[str, Any]] = None
    last_poll: Optional[float] = None
    shown = 0
    try:
        while True:
            current = await client.stats()
            now = time.perf_counter()
            interval_s = (now - last_poll) if last_poll is not None else 0.0
            model = compute_dashboard(current, previous, interval_s)
            show(render_dashboard(model, endpoint=args.endpoint))
            previous, last_poll = current, now
            shown += 1
            if iterations is not None and shown >= iterations:
                return 0
            await asyncio.sleep(args.interval)
    finally:
        await client.close()


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------
_SIZE_SUFFIXES = (
    ("gib", 1024 ** 3),
    ("mib", 1024 ** 2),
    ("kib", 1024),
    ("g", 1024 ** 3),
    ("m", 1024 ** 2),
    ("k", 1024),
)


def _parse_axis_value(text: str) -> Any:
    """One axis value: ``512KiB``/``1M`` sizes, ints, floats, or strings."""
    token = text.strip()
    lowered = token.lower()
    for suffix, scale in _SIZE_SUFFIXES:
        if lowered.endswith(suffix):
            stem = token[: -len(suffix)]
            try:
                return int(float(stem) * scale)
            except ValueError:
                break
    for convert in (int, float):
        try:
            return convert(token)
        except ValueError:
            continue
    return token


def _build_axes(args: argparse.Namespace) -> List[Any]:
    from .dse import axis_grid, axis_log2, axis_values

    axes: List[Any] = []
    for raw in args.axis or []:
        path, sep, values = raw.partition("=")
        if not sep or not values:
            raise ValueError(
                f"--axis must look like PATH=V1,V2,... got {raw!r}"
            )
        axes.append(
            axis_values(path, [_parse_axis_value(v) for v in values.split(",")])
        )
    for raw in args.log2 or []:
        path, sep, bounds = raw.partition("=")
        parts = bounds.split(":")
        if not sep or len(parts) != 2:
            raise ValueError(
                f"--log2 must look like PATH=START:STOP, got {raw!r}"
            )
        axes.append(
            axis_log2(path, _parse_axis_value(parts[0]), _parse_axis_value(parts[1]))
        )
    for raw in args.grid or []:
        path, sep, bounds = raw.partition("=")
        parts = bounds.split(":")
        if not sep or len(parts) != 3:
            raise ValueError(
                f"--grid must look like PATH=START:STOP:STEP, got {raw!r}"
            )
        axes.append(axis_grid(path, *(_parse_axis_value(p) for p in parts)))
    return axes


def _run_dse_merge(args: argparse.Namespace) -> int:
    from .dse import ProgressMismatchError, merge_progress_stores

    if args.cache and not args.cache_out:
        print("error: --cache requires --cache-out", file=sys.stderr)
        return 2
    try:
        report = merge_progress_stores(
            args.out,
            args.stores,
            require_same_sweep=not args.allow_mixed_sweeps,
        )
    except (OSError, ProgressMismatchError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = report.to_json_dict()
    payload["out"] = str(args.out)
    cache_report = None
    if args.cache:
        from .engine import merge_result_stores

        cache_report = merge_result_stores(args.cache_out, args.cache)
        payload["cache"] = dict(cache_report, out=str(args.cache_out))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{report.summary()} -> {args.out}")
        if cache_report is not None:
            print(
                f"merged cache: {cache_report['merged']} entries from "
                f"{cache_report['sources']} stores "
                f"({cache_report['skipped']} duplicates) -> {args.cache_out}"
            )
    return 0


def _run_dse_status(args: argparse.Namespace) -> int:
    from .obs.heartbeat import render_status, status_payload

    payload = status_payload(args.directory, stale_after=args.stale_after)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_status(payload))
    # Automation-friendly verdict: a fleet with hung (stale) or
    # failed/aborted shards exits 3 so CI and cron wrappers can alert
    # without parsing the payload.
    unhealthy = any(
        shard.get("status") in ("failed", "aborted")
        for shard in payload.get("shards", [])
    )
    if payload.get("stale", 0) or unhealthy:
        return 3
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from .obs.summary import render_summary, summarize
    from .obs.trace import load_jsonl

    records = load_jsonl(args.trace_file)
    summary = summarize(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _run_dse(args: argparse.Namespace) -> int:
    if getattr(args, "dse_command", None) == "merge":
        return _run_dse_merge(args)
    if getattr(args, "dse_command", None) == "status":
        return _run_dse_status(args)
    from .dse import (
        DesignSpace,
        DesignSpaceError,
        ProgressMismatchError,
        TooManyFailuresError,
        axis_values,
        explore,
        to_json_dict,
        write_csv,
        write_json,
        write_markdown,
    )

    KiB = 1024
    if args.smoke:
        # Tiny space x tiny machine x one small layer: the CI path that
        # proves the whole subsystem (space -> sweep -> frontier ->
        # report) end to end in seconds.  It overrides the space and
        # workload flags, so explicitly combining them is a mistake.
        if args.axis or args.log2 or args.grid or args.networks != ["resnet18"]:
            print(
                "error: --smoke runs a fixed tiny sweep and ignores "
                "--axis/--log2/--grid/--networks; drop --smoke to sweep "
                "your own space",
                file=sys.stderr,
            )
            return 2
        space = DesignSpace(
            "tiny",
            [
                axis_values(
                    "caches.L2.capacity_bytes", [32 * KiB, 64 * KiB]
                ),
                axis_values("cores", [2, 4]),
            ],
            name="dse-smoke",
        )
        workloads: List[str] = ["resnet18/R12"]
    else:
        try:
            axes = _build_axes(args)
            space = DesignSpace(args.machine, axes) if axes else None
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if space is None:
            print(
                "error: dse needs at least one axis, e.g. "
                "--axis caches.L2.capacity_bytes=128KiB,256KiB,512KiB "
                "or --log2 caches.L3.capacity_bytes=2MiB:16MiB "
                "(or use --smoke)",
                file=sys.stderr,
            )
            return 2
        workloads = list(args.networks)

    def _print_progress(done: int, total: int) -> None:
        print(f"  swept {done}/{total} machines", file=sys.stderr, flush=True)

    # Chaos knob: arm the dse.evaluate fault point so one candidate's
    # evaluation raises — the CI proof that a poisoned candidate is
    # recorded as failed while the sweep still exits 0.
    injected = contextlib.nullcontext()
    if args.inject_candidate_failure is not None:
        from .reliability import FaultInjector, activate

        injected = activate(
            FaultInjector().arm(
                "dse.evaluate",
                error=lambda: RuntimeError("injected candidate failure"),
                times=1,
                key=args.inject_candidate_failure or None,
            )
        )
    try:
        with injected:
            result = explore(
                space,
                workloads,
                strategy=args.strategy,
                strategy_options=_strategy_options(args),
                cache=args.cache_dir if args.cache_dir else None,
                batch=args.batch,
                chunk_size=args.chunk_size,
                progress=args.progress,
                progress_durability=args.progress_durability,
                on_progress=None if args.json else _print_progress,
                max_failures=args.max_failures,
                shard=args.shard,
            )
    except (
        ValueError,
        DesignSpaceError,
        ProgressMismatchError,
        TooManyFailuresError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    objectives = ("total_time_seconds", args.frontier_cost)
    if args.json:
        print(
            json.dumps(
                to_json_dict(result, objectives=objectives),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(result.summary())
        if result.failures:
            print(f"failed candidates ({result.failures}):")
            for outcome in result.failed_outcomes():
                print("  " + outcome.summary())
        frontier = result.frontier(objectives)
        print(f"Pareto frontier ({objectives[0]} vs. {objectives[1]}):")
        for outcome in sorted(frontier, key=lambda o: o.total_time_seconds):
            print("  " + outcome.summary())
        for line in result.sensitivity():
            print("  " + line)
    if args.out:
        print(f"wrote {write_json(result, args.out, objectives=objectives)}")
    if args.csv:
        print(f"wrote {write_csv(result, args.csv, objectives=objectives)}")
    if args.md:
        print(f"wrote {write_markdown(result, args.md, objectives=objectives)}")
    return 0


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------
def _run_list(args: argparse.Namespace) -> int:
    networks = {
        name: [spec.name for spec in network_benchmarks(name)]
        for name in network_names()
    }
    if args.json:
        print(
            json.dumps(
                {
                    "machines": list(available_machines()),
                    "strategies": list(available_strategies()),
                    "networks": networks,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print("machines:   " + ", ".join(available_machines()))
    print("strategies: " + ", ".join(available_strategies()))
    print("networks:")
    for name, layers in networks.items():
        print(f"  {name} ({len(layers)} layers): {', '.join(layers)}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser(
        "optimize", help="optimize networks/operators through a Session"
    )
    optimize.add_argument(
        "workload",
        nargs="+",
        help="network name (resnet18), layer ref (resnet18/R9) or operator (Y5)",
    )
    _add_session_options(optimize)
    optimize.add_argument("--batch", type=int, default=1, help="batch size")
    optimize.add_argument(
        "--layers", type=int, default=None,
        help="truncate network workloads to their first N layers",
    )
    optimize.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "process"),
        help="search inline (serial) or on worker processes (process)",
    )
    optimize.add_argument(
        "--max-workers", type=int, default=None,
        help="worker processes for --executor process",
    )
    optimize.add_argument(
        "--per-layer", action="store_true", help="print one line per layer"
    )
    optimize.add_argument("--json", action="store_true", help="print JSON")
    optimize.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="enable structured tracing and write the JSON-lines trace "
        "here (inspect with `repro trace summary FILE`)",
    )

    serve = sub.add_parser("serve", help="run a TCP optimization endpoint")
    _add_session_options(serve)
    _add_server_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8763)
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to let accepted requests finish on shutdown",
    )

    demo = sub.add_parser(
        "demo", help="concurrent-client demo over Table 1 networks"
    )
    _add_session_options(demo)
    _add_server_options(demo)
    demo.add_argument("--clients", type=int, default=8)
    demo.add_argument(
        "--networks",
        nargs="+",
        default=["resnet18", "mobilenet"],
        help="Table 1 networks the clients request (cycled)",
    )
    demo.add_argument(
        "--layers",
        type=int,
        default=None,
        help="restrict each network to its first N layers (quick runs)",
    )
    demo.add_argument("--json", action="store_true", help="also print JSON")

    warm = sub.add_parser(
        "warm", help="pre-solve workloads into the result cache"
    )
    _add_session_options(warm, multi_machine=True)
    warm.add_argument(
        "--networks",
        nargs="+",
        default=None,
        help="networks to warm (default: every Table 1 network)",
    )
    warm.add_argument("--batch", type=int, default=1, help="batch size")
    warm.add_argument(
        "--dry-run",
        action="store_true",
        help="only report what is missing; solve nothing",
    )
    warm.add_argument("--json", action="store_true", help="also print JSON")

    bench = sub.add_parser(
        "bench", help="quick cold/warm benchmark through the Session API"
    )
    _add_session_options(bench)
    bench.add_argument("--network", default="resnet18")
    bench.add_argument(
        "--quick", action="store_true", help="first four layers only"
    )
    bench.add_argument("--out", default=None, help="also write JSON here")

    stats_cmd = sub.add_parser(
        "stats",
        help="fetch a running serving endpoint's telemetry (stats verb)",
        description=(
            "Connect to a `repro serve` endpoint and print its stats "
            "snapshot — lifecycle counters, per-request-class latency "
            "histograms, per-client attribution, cache and reliability "
            "state — as JSON, or the process metrics as Prometheus text "
            "exposition (--prometheus)."
        ),
    )
    stats_cmd.add_argument(
        "endpoint", metavar="HOST:PORT", help="serving endpoint address"
    )
    stats_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="print Prometheus text exposition instead of JSON",
    )
    stats_cmd.add_argument(
        "--timeout", type=float, default=10.0, help="connect/reply timeout"
    )

    top_cmd = sub.add_parser(
        "top",
        help="live dashboard over a serving endpoint (or sweep heartbeats)",
        description=(
            "Poll a serving endpoint's stats verb and render req/s, "
            "p50/p99 latency, cache hit rate, queue depth, per-class and "
            "per-client counters; with --sweep DIR, render a sharded "
            "sweep's heartbeat sidecars instead."
        ),
    )
    top_cmd.add_argument(
        "endpoint",
        nargs="?",
        default=None,
        metavar="HOST:PORT",
        help="serving endpoint address (omit with --sweep)",
    )
    top_cmd.add_argument(
        "--sweep",
        default=None,
        metavar="DIR",
        help="watch a sweep's heartbeat directory instead of a server",
    )
    top_cmd.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    top_cmd.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top_cmd.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top_cmd.add_argument(
        "--timeout", type=float, default=10.0, help="connect/reply timeout"
    )

    dse = sub.add_parser(
        "dse",
        help="design-space exploration: sweep hypothetical machines",
        description=(
            "Sweep a machine design space and report the Pareto frontier "
            "of predicted time vs. hardware cost.  Axes address machine "
            "parameters by path (cores, caches.L2.capacity_bytes, "
            "isa.vector_bytes, ...); candidate machines that violate the "
            "hierarchy invariants are pruned automatically."
        ),
    )
    _add_session_options(dse)
    dse.set_defaults(strategy="mopt")  # exact mopt is fast enough to be default
    dse.add_argument(
        "--networks",
        nargs="+",
        default=["resnet18"],
        help="workloads to evaluate each candidate machine on",
    )
    dse.add_argument(
        "--axis",
        action="append",
        metavar="PATH=V1,V2,...",
        help="explicit axis values (sizes accept KiB/MiB suffixes; repeatable)",
    )
    dse.add_argument(
        "--log2",
        action="append",
        metavar="PATH=START:STOP",
        help="power-of-two axis from START to STOP inclusive (repeatable)",
    )
    dse.add_argument(
        "--grid",
        action="append",
        metavar="PATH=START:STOP:STEP",
        help="arithmetic axis (repeatable)",
    )
    dse.add_argument("--batch", type=int, default=1, help="batch size")
    dse.add_argument(
        "--chunk-size", type=int, default=16,
        help="progress-report cadence (print every N completed machines)",
    )
    dse.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="JSON-lines progress store making the sweep resumable",
    )
    dse.add_argument(
        "--progress-durability",
        default="fsync",
        choices=("fsync", "flush"),
        help="progress-store flush policy: fsync per candidate (default) "
        "or OS-buffered flush (cheaper for huge sweeps)",
    )
    dse.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="evaluate only the I-th of N deterministic partitions of the "
        "candidate list (one shard per host; combine with 'dse merge')",
    )
    dse.add_argument(
        "--frontier-cost",
        default="total_sram_bytes",
        choices=("total_sram_bytes", "compute_lanes", "peak_gflops", "cores"),
        help="hardware-cost objective paired with predicted time",
    )
    dse.add_argument("--out", default=None, help="write the full JSON report here")
    dse.add_argument("--csv", default=None, help="write a per-candidate CSV here")
    dse.add_argument("--md", default=None, help="write a markdown summary here")
    dse.add_argument(
        "--smoke",
        action="store_true",
        help="tiny built-in sweep (tiny machine, 4 candidates) for CI",
    )
    dse.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort the sweep once more than N candidates fail "
        "(default: never — failures are isolated per candidate)",
    )
    dse.add_argument(
        "--inject-candidate-failure",
        nargs="?",
        const="",
        default=None,
        metavar="MACHINE",
        help="chaos testing: make one candidate's evaluation raise "
        "(optionally only the named machine) to exercise failure "
        "isolation; the sweep must still finish with the failure recorded",
    )
    dse.add_argument("--json", action="store_true", help="print the JSON report")

    dse_sub = dse.add_subparsers(dest="dse_command", metavar="subcommand")
    merge = dse_sub.add_parser(
        "merge",
        help="merge shard progress stores (and caches) into one result set",
        description=(
            "Merge the progress stores of a sharded sweep (dse --shard "
            "1/2, 2/2, ... each with its own --progress) into one store "
            "deduplicated by machine digest; the merged store is directly "
            "resumable by the unsharded sweep.  Optionally also merge the "
            "shards' result-cache directories into one chunked store."
        ),
    )
    merge.add_argument(
        "stores",
        nargs="+",
        metavar="STORE",
        help="shard progress stores, in precedence order (first wins on ties)",
    )
    merge.add_argument(
        "--out", required=True, metavar="PATH", help="merged progress store"
    )
    merge.add_argument(
        "--allow-mixed-sweeps",
        action="store_true",
        help="skip the header cross-check that all stores belong to the "
        "same sweep",
    )
    merge.add_argument(
        "--cache",
        action="append",
        default=None,
        metavar="DIR",
        help="shard result-cache directory to merge (repeatable; entries "
        "of the old one-file-per-entry layout are imported too)",
    )
    merge.add_argument(
        "--cache-out",
        default=None,
        metavar="DIR",
        help="destination chunked result store for --cache sources",
    )
    merge.add_argument("--json", action="store_true", help="print JSON counters")

    status = dse_sub.add_parser(
        "status",
        help="fleet health of a running/finished sweep from its heartbeats",
        description=(
            "Scan a directory for sweep heartbeat sidecars (*.hb.json, "
            "written next to each shard's --progress store) and render "
            "per-shard progress, rate, failures and staleness."
        ),
    )
    status.add_argument(
        "directory", metavar="DIR", help="directory holding heartbeat sidecars"
    )
    status.add_argument(
        "--stale-after",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="flag running shards with no heartbeat update for this long "
        "(default: 60)",
    )
    status.add_argument("--json", action="store_true", help="print JSON")

    trace_cmd = sub.add_parser(
        "trace", help="inspect structured traces (--trace FILE output)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-phase time breakdown of a JSON-lines trace",
        description=(
            "Aggregate a JSON-lines trace (written by `optimize --trace` "
            "or Session(trace=...)) by span name: count, total, mean and "
            "each phase's share of the traced wall time."
        ),
    )
    trace_summary.add_argument(
        "trace_file", metavar="FILE", help="JSON-lines trace file"
    )
    trace_summary.add_argument("--json", action="store_true", help="print JSON")

    list_cmd = sub.add_parser(
        "list", help="registered machines, strategies and networks"
    )
    list_cmd.add_argument("--json", action="store_true", help="print JSON")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    runners = {
        "optimize": _run_optimize,
        "warm": _run_warm,
        "bench": _run_session_bench,
        "dse": _run_dse,
        "trace": _run_trace,
        "list": _run_list,
    }
    async_runners = {
        "serve": _run_serve,
        "demo": _run_demo,
        "stats": _run_stats,
        "top": _run_top,
    }
    try:
        if args.command in async_runners:
            return asyncio.run(async_runners[args.command](args))
        return runners[args.command](args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
