"""cold-net: one caller solving Table 1 operators from cold, back to back.

Closed loop: ``Session.optimize`` with ``mopt`` (``measure=False``) on a
fresh in-memory cache and a cleared shape-family compile cache, so every
operator is a full cold solve — the paper's search-time claim.  The
operators are a seeded stratified draw of 12 (see ``operators.py``),
solved in stratum order, in whole passes over the draw.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.core.cost_model import DEFAULT_COMPILE_CACHE
from repro.engine.cache import ResultCache
from repro.engine.serialization import spec_shape_key
from repro.engine.strategy import get_strategy
from repro.machine.presets import get_machine
from repro.obs import trace as obs_trace

import operators
from harness import (
    MACHINE,
    Outcome,
    Start,
    Tracer,
    answer_record,
    check_answer,
    geomean,
    median,
    oracle_gflops,
    own_peak_rss_mb,
    process_cpu_s,
    speed_factor,
    span_layer_metrics,
    tracing_cost_s,
)
from layers import TimedResultCache, TimedStrategy


def _session(machine, tracer: Tracer) -> Session:
    strategy = get_strategy("mopt", measure=False)
    if tracer.enabled:
        return Session(
            machine, TimedStrategy(strategy, tracer), cache=TimedResultCache(tracer=tracer)
        )
    return Session(machine, strategy, cache=ResultCache())


def run(seed: int, seconds: float, tracer: Tracer, begun: Start) -> Outcome:
    out = Outcome()
    machine = get_machine(MACHINE)
    rng = operators.rng_for("cold-net", seed)

    setups = []
    for _ in range(3):
        start = time.process_time()
        DEFAULT_COMPILE_CACHE.clear()
        _session(machine, tracer).performance_stats()
        setups.append(time.process_time() - start)

    if tracer.enabled:
        obs_trace.enable()
    pool_before = _session(machine, tracer).performance_stats()["solve_pool"]
    compile_hits = compile_misses = cache_hits = cache_lookups = 0
    solved = []
    latencies = []
    solve_cpu = []
    draw = operators.specs(operators.stratified_draw(rng))
    setup_end = time.perf_counter()
    cpu_start = process_cpu_s()
    start = time.perf_counter()
    with tracer.span("bench.cold-net", "bench", lane=True):
        # Whole passes over the draw, so every run solves the same mix,
        # while the next pass is expected to end inside the window.
        pass_s = 0.0
        while out.attempted == 0 or time.perf_counter() - start + pass_s <= seconds:
            pass_start = time.perf_counter()
            for spec in draw:
                DEFAULT_COMPILE_CACHE.clear()
                session = _session(machine, tracer)
                out.attempted += 1
                began, began_cpu = time.perf_counter(), time.process_time()
                try:
                    with tracer.span("api.optimize", "api"):
                        result = session.optimize(spec)
                except Exception as error:  # noqa: BLE001 - a failed solve is a data point
                    out.fail(f"{spec.name}: {type(error).__name__}: {error}")
                    continue
                latencies.append(time.perf_counter() - began)
                solve_cpu.append(time.process_time() - began_cpu)
                solved.append((spec, result.result))
                stats = session.performance_stats()["compile_cache"]
                compile_hits += stats["hits"]
                compile_misses += stats["misses"]
                cache_hits += session.cache.stats.hits
                cache_lookups += session.cache.stats.lookups
            pass_s = time.perf_counter() - pass_start
    end = time.perf_counter()
    cpu = process_cpu_s() - cpu_start
    samples = begun.probe.stop()
    setup_speed = speed_factor(samples, begun.began, setup_end)
    window_speed = speed_factor(samples, start, end)
    wall = end - start
    peak_rss_mb = own_peak_rss_mb()
    pool_after = _session(machine, tracer).performance_stats()["solve_pool"]
    phase_spans = obs_trace.drain() if tracer.enabled else []
    obs_trace.disable()

    quality = []
    problems = {}
    for spec, result in solved:
        key = spec_shape_key(spec)
        record = answer_record(result)
        if key in problems:
            if problems[key] is None and out.answers[key] != record:
                out.fail(f"{spec.name}: two solves in one run gave different answers")
            continue
        problems[key] = check_answer(spec, result.best_config, machine)
        if problems[key] is not None:
            out.fail(f"{spec.name}: {problems[key]}")
            continue
        quality.append(oracle_gflops(spec, result.best_config, machine))
        out.answers[key] = record
    correct = sum(1 for spec, _ in solved if problems[spec_shape_key(spec)] is None)

    out.metrics = {
        "setup_s": (begun.import_s + median(setups)) * setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "answer_gflops_geomean": geomean(quality),
        "ref_cpu_ms_per_op": cpu * window_speed / max(1, correct) * 1e3,
    }
    out.report = {
        "operators": " ".join(spec.name for spec, _ in solved),
        "cold_ops_per_s (wall)": f"{correct / wall:.4f} 1/s",
        "solve_s (p50, max)": f"{median(latencies):.3f}, {max(latencies, default=0):.3f} s "
        f"over {len(latencies)} solves",
        "solve CPU s (p50, max)": f"{median(solve_cpu):.3f}, {max(solve_cpu, default=0):.3f} s",
        "CPU ms per op / speed factor": f"{cpu / max(1, correct) * 1e3:.1f} ms / {window_speed:.4f} "
        f"(set-up {setup_speed:.4f})",
    }
    if tracer.enabled:
        layers, problems = span_layer_metrics(tracer.spans, phase_spans, start, end)
        for problem in problems:
            out.fail(problem)
        layers.update(
            {
                "core.compile_hit_ratio": compile_hits / max(1, compile_hits + compile_misses),
                "engine.hit_ratio": cache_hits / max(1, cache_lookups),
                "obs.trace_overhead_pct": 100.0
                * tracing_cost_s(len(tracer.spans), len(phase_spans))
                / wall,
            }
        )
        for name in ("pool_solves", "pool_rebuilds", "serial_fallbacks"):
            layers[f"core.{name}"] = pool_after[name] - pool_before[name]
        out.layers = layers
    return out
