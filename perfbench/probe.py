"""CPU speed probe: times a fixed piece of work on one CPU, again and again.

Started by the benchmark (``harness.SpeedProbe``) and pinned to the CPU
of the process it watches.  Every :data:`PERIOD_S` it runs
``harness.reference_work`` and records when it started and the CPU
seconds it took.  When its standard input closes it prints the samples
as one JSON list of ``[start, cpu_s]`` pairs and exits.
"""

from __future__ import annotations

import json
import select
import sys
import time

from harness import reference_work

#: Pause between samples: the probe takes about a sixth of its CPU.
PERIOD_S = 0.02


def main() -> None:
    reference_work()  # imports NumPy
    samples = []
    while True:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_work()
        samples.append((start, time.thread_time() - cpu))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
