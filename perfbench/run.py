"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload cold-net --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records spans around every layer call and reports the
per-layer metrics instead (and writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl``).  Every run checks its
answers and their determinism; the last line of standard output is the
JSON result, and the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread in this process and the server it starts.  The solver
# makes many small NumPy calls; a second OpenBLAS thread only spins,
# and on the 2-core reference box its spinning competes with the server's
# event loop and the load generator for the cores.  Set before NumPy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

#: Workload name -> (module, function) running it.
WORKLOADS = {
    "cold-net": ("cold_net", "run"),
    "serve-warm": ("serve", "run_warm"),
    "serve-mixed": ("serve", "run_mixed"),
    "dse-sweep": ("dse_sweep", "run"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of the program (no src/repro)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from harness import BENCH_CPU, SpeedProbe, Start, Tracer, check_determinism, digest, state_dir

    # The run stays on one CPU, next to the probe that times that CPU's speed.
    os.sched_setaffinity(0, {BENCH_CPU})
    probe = SpeedProbe(BENCH_CPU)
    try:
        module_name, function = WORKLOADS[args.workload]
        began, start = time.perf_counter(), time.process_time()
        module = importlib.import_module(module_name)
        import_s = time.process_time() - start
        tracer = Tracer(bool(args.trace))
        out = getattr(module, function)(
            args.seed, args.seconds, tracer, Start(import_s, began, probe)
        )
    finally:
        probe.stop()

    for key in check_determinism(args.workload, args.seed, out.answers):
        out.fail(f"answer for {key} differs from an earlier run of the same code")
    if args.trace:
        tracer.write(state_dir() / f"trace-{args.workload}-{args.seed}.jsonl")
        declared = spec["per_layer"]
        values = out.layers
    else:
        declared = spec["end_to_end"]
        values = out.metrics
    metrics = {m["name"]: values.get(m["name"], 0.0) for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    for name, value in out.report.items():
        print(f"  {name:<34} {value}")
    print(f"  {'answers digest':<34} {digest(out.answers)}")
    for error in out.errors:
        print(f"  FAILED: {error}")
    correct = out.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, out.attempted),
                "failed": out.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
