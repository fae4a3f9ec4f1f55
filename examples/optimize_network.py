"""Optimize every conv2d stage of a DNN pipeline through the Session API.

This reproduces, for one network of Table 1 (default: ResNet-18), the core
of the paper's Section 10 evaluation on the i7-9700K — driven entirely
through :class:`repro.api.Session`: every system (MOpt, the oneDNN-like
library, the AutoTVM-like tuner) is one session over the same machine and
shared persistent cache, and each session deduplicates repeated operator
shapes, searches each distinct shape once and serves repeated runs from
the cache.

Run with:  python examples/optimize_network.py [network] [num_layers] [cache_dir]
           e.g.  python examples/optimize_network.py mobilenet 4
           e.g.  python examples/optimize_network.py resnet18 4 /tmp/repro-cache
Passing a cache directory makes the second invocation near-instant.
The same flow from a shell: python -m repro optimize resnet18 --layers 4
"""

from __future__ import annotations

import sys

from repro import fast_settings
from repro.analysis import format_table
from repro.api import Session, network
from repro.engine import ResultCache


def main() -> None:
    net = sys.argv[1] if len(sys.argv) > 1 else "resnet18"
    limit = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    cache = ResultCache(sys.argv[3]) if len(sys.argv) > 3 else ResultCache()
    threads = 8
    specs = network(net, layers=limit)

    print(f"Network: {net} ({len(specs)} of {len(network(net))} stages)")
    print(f"Machine: i7-9700K, {threads} threads")
    print()

    strategies = {
        "mopt": {
            "settings": fast_settings(parallel=True, threads=threads),
            "threads": threads,
            "measure": True,
        },
        "onednn": {"threads": threads},
        "autotvm": {"threads": threads, "trials": 96},
    }
    results = {}
    for name, options in strategies.items():
        print(f"running {name!r} over {len(specs)} stages...")
        session = Session(
            "i7-9700k", name, strategy_options=options, cache=cache
        )
        results[name] = session.optimize(specs)
        print("  " + results[name].summary())

    mopt, onednn, tvm = results["mopt"], results["onednn"], results["autotvm"]
    rows = []
    for outcome in mopt.operators:
        layer = outcome.spec.name
        mopt5 = float(outcome.result.extras["mopt5_gflops"])
        onednn_gflops = onednn.outcome(layer).gflops
        tvm_gflops = tvm.outcome(layer).gflops
        rows.append(
            [
                layer,
                str(outcome.result.extras["class_name"]),
                str(outcome.result.extras["bottleneck_level"]),
                mopt5,
                onednn_gflops,
                tvm_gflops,
                mopt5 / onednn_gflops,
                mopt5 / tvm_gflops,
            ]
        )

    print()
    print(
        format_table(
            [
                "layer",
                "MOpt class",
                "bottleneck",
                "MOpt-5 GF/s",
                "oneDNN GF/s",
                "TVM GF/s",
                "vs oneDNN",
                "vs TVM",
            ],
            rows,
            float_format="{:.2f}",
        )
    )
    print()
    print(
        f"geomean speedup of MOpt: "
        f"{mopt.geomean_speedup_vs(onednn):.2f}x vs oneDNN, "
        f"{mopt.geomean_speedup_vs(tvm):.2f}x vs TVM"
    )
    print(
        f"network totals: MOpt {mopt.total_gflops:.1f} GFLOPS "
        f"({mopt.total_time_seconds * 1e3:.2f} ms), "
        f"oneDNN {onednn.total_gflops:.1f} GFLOPS, "
        f"TVM {tvm.total_gflops:.1f} GFLOPS"
    )


if __name__ == "__main__":
    main()
