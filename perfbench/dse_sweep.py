"""dse-sweep: ``repro.dse.explore`` with ``mopt`` over 8 candidate machines.

The space is the i7-9700k preset with L2 capacity 128 KiB, 256 KiB,
512 KiB and 1 MiB, each with 4 and 8 cores, its axis values in an order
drawn from the seed.  The workload is Table 1 operator Y9.  Each sweep
starts from a fresh result cache, a cleared compile cache and a new
progress store in the checkout; whole sweeps repeat while the next one
is expected to end inside the window.  One shape meets many machines, so
compile-cache reuse and the explorer's candidate pool decide the sweep
rate.
"""

from __future__ import annotations

import os
import time

from repro.core.capacity import fits_all_levels
from repro.core.cost_model import DEFAULT_COMPILE_CACHE
from repro.dse import DesignSpace, axis_values, explore
from repro.engine.cache import ResultCache
from repro.engine.serialization import machine_key, spec_shape_key
from repro.engine.strategy import get_strategy
from repro.obs import trace as obs_trace
from repro.obs.heartbeat import heartbeat_path_for

import operators
from harness import (
    MACHINE,
    Outcome,
    Start,
    Tracer,
    answer_record,
    digest,
    execution_problem,
    geomean,
    median,
    oracle_gflops,
    own_peak_rss_mb,
    process_cpu_s,
    speed_factor,
    span_layer_metrics,
    state_dir,
    tracing_cost_s,
)
from layers import TimedResultCache, TimedStrategy

KIB, MIB = 1024, 1024 * 1024
#: The swept operator.  Sweep cost differs up to 2x between Table 1
#: operators of similar cold solve time on the default machine (R2 against
#: Y9, measured), so a drawn operator made the figures follow the seed.
OPERATOR = "Y9"


def _space(rng) -> DesignSpace:
    """The 8-machine space, its axis values in an order drawn from ``rng``."""
    capacities = [128 * KIB, 256 * KIB, 512 * KIB, 1 * MIB]
    cores = [4, 8]
    rng.shuffle(capacities)
    rng.shuffle(cores)
    return DesignSpace(
        base=MACHINE,
        axes=[
            axis_values("caches.L2.capacity_bytes", capacities),
            axis_values("cores", cores),
        ],
    )


def run(seed: int, seconds: float, tracer: Tracer, begun: Start) -> Outcome:
    out = Outcome()
    specs = operators.specs([OPERATOR])
    space = _space(operators.rng_for("dse-sweep", seed))

    setups = []
    for _ in range(3):
        start = time.process_time()
        candidates = space.expand().candidates
        setups.append(time.process_time() - start)

    strategy = get_strategy("mopt", measure=False)
    swept = TimedStrategy(strategy, tracer) if tracer.enabled else strategy
    if tracer.enabled:
        obs_trace.enable()
    progress = state_dir() / f"dse-sweep-{seed}.jsonl"
    clock_offset = time.time() - time.perf_counter()
    outcomes = []
    compile_hits = compile_lookups = hits = lookups = 0
    setup_end = time.perf_counter()
    cpu_start = process_cpu_s()
    start = time.perf_counter()
    with tracer.span("bench.dse-sweep", "bench", lane=True):
        # Whole sweeps, each from cold, while the next one is expected to
        # end inside the window.
        sweep_s = 0.0
        while not outcomes or time.perf_counter() - start + sweep_s <= seconds:
            began = time.perf_counter()
            cache = TimedResultCache(tracer=tracer) if tracer.enabled else ResultCache()
            progress.unlink(missing_ok=True)
            DEFAULT_COMPILE_CACHE.clear()
            result = explore(space, specs, strategy=swept, cache=cache, progress=progress)
            outcomes += result.outcomes
            compile_stats = DEFAULT_COMPILE_CACHE.stats()
            compile_hits += compile_stats["hits"]
            compile_lookups += compile_stats["hits"] + compile_stats["misses"]
            hits += cache.stats.hits
            lookups += cache.stats.lookups
            sweep_s = time.perf_counter() - began
    end = time.perf_counter()
    cpu = process_cpu_s() - cpu_start
    samples = begun.probe.stop()
    setup_speed = speed_factor(samples, begun.began, setup_end)
    window_speed = speed_factor(samples, start, end)
    wall = end - start
    progress.unlink()
    heartbeat_path_for(progress).unlink(missing_ok=True)
    peak_rss_mb = own_peak_rss_mb()
    program_spans = obs_trace.drain() if tracer.enabled else []
    obs_trace.disable()

    out.attempted = len(outcomes)
    for outcome in outcomes:
        if outcome.failed:
            out.fail(f"candidate {outcome.machine_name}: {outcome.error}")
    quality = []
    executed = {}
    # The check reads the answers back through the (traced) cache: its
    # own lane, outside the measured window.
    with tracer.span("bench.check", "bench", lane=True):
        for candidate in candidates:
            for spec in specs:
                answer = cache.get(cache.key_for(spec, candidate.machine, strategy))
                if answer is None:
                    out.fail(f"no answer for {spec.name} on {candidate.machine.name}")
                    continue
                config = answer.best_config
                if config is None or not fits_all_levels(spec, config, candidate.machine):
                    out.fail(f"{spec.name} on {candidate.machine.name}: config does not fit")
                    continue
                record = answer_record(answer)
                run_key = (spec_shape_key(spec), digest(record["config"]))
                if run_key not in executed:
                    executed[run_key] = execution_problem(spec, config)
                if executed[run_key] is not None:
                    out.fail(f"{spec.name} on {candidate.machine.name}: {executed[run_key]}")
                    continue
                quality.append(oracle_gflops(spec, config, candidate.machine))
                out.answers[f"{machine_key(candidate.machine)}:{spec_shape_key(spec)}"] = record

    candidate_walls = [o.wall_seconds for o in outcomes]
    ok = sum(1 for o in outcomes if not o.failed)
    out.metrics = {
        "setup_s": (begun.import_s + median(setups)) * setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "answer_gflops_geomean": geomean(quality),
        "ref_cpu_ms_per_op": cpu * window_speed / max(1, ok) * 1e3,
    }
    out.report = {
        "operators": " ".join(spec.name for spec in specs),
        "machines_per_s (wall)": f"{ok / wall:.4f} 1/s ({ok} machines in {wall:.2f} s)",
        "candidate_s (p50, max)": f"{median(candidate_walls):.3f}, {max(candidate_walls):.3f} s",
        "CPU ms per op / speed factor": f"{cpu / max(1, ok) * 1e3:.1f} ms / {window_speed:.4f} "
        f"(set-up {setup_speed:.4f})",
    }
    if tracer.enabled:
        for rec in program_spans:
            if rec["name"] == "dse.candidate":
                tracer.record_program_span(rec, "dse", clock_offset)
        # The explorer's default pool width.
        workers = min(len(candidates), os.cpu_count() or 4, 8)
        layers, problems = span_layer_metrics(tracer.spans, program_spans, start, end)
        for problem in problems:
            out.fail(problem)
        layers.update(
            {
                "core.compile_hit_ratio": compile_hits / max(1, compile_lookups),
                "engine.hit_ratio": hits / max(1, lookups),
                "dse.candidate_s.p50": median(candidate_walls),
                "dse.busy_frac": sum(candidate_walls) / (wall * workers),
                "dse.failures": len(outcomes) - ok,
                "obs.trace_overhead_pct": 100.0
                * tracing_cost_s(len(tracer.spans), len(program_spans))
                / wall,
            }
        )
        out.layers = layers
    return out
