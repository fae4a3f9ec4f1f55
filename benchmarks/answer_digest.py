#!/usr/bin/env python
"""Digest of the optimizer's answers, for cross-commit comparison.

Solves a fixed operator set and records, per permutation class, the
integerized tile configuration and the predicted time as ``float.hex``
(so equality means bitwise equality):

* all 32 Table 1 operators on the i7-9700k with the default ``mopt``
  strategy settings (``fast_settings(parallel=True)``),
* the 24 seeded operators of the differential family
  (``tests/test_differential.py``) on the tiny test machine, and
* a ``repro.dse.explore`` mopt sweep of one differential-family
  operator over 4 variants of the tiny machine (L1 capacity x cores,
  with the parallel model so that cores matter), recording each
  candidate's best integerized configuration and predicted time: the
  explorer -> ``Session`` -> ``NetworkOptimizer`` path.

Answers depend on the thread count of scipy's bundled OpenBLAS (SLSQP's
linear algebra).  The solver pins that library to one thread at its first
solve where scipy exposes the call (the header's ``blas_threads_pinned``
records whether it did); for checkouts that predate the pin the script
also sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set it.  The
header also records ``scipy_version``, since the SLSQP kernel is scipy's;
``--compare`` prints both versions when they differ.  Usage::

    PYTHONPATH=src python benchmarks/answer_digest.py --out head.json
    python benchmarks/answer_digest.py --compare base.json head.json

``--compare`` exits 1 when the two digests differ while recording the
same ``STRATEGY_VERSION`` (a version bump declares the change).  Run the
head's script against another checkout's sources by pointing
``PYTHONPATH`` at that checkout's ``src``.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict  # noqa: E402

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
DIFFERENTIAL_SEEDS = range(24)


def _candidates(result) -> Dict[str, Any]:
    from repro.engine.serialization import config_to_dict

    return {
        candidate.class_name: {
            "config": config_to_dict(candidate.config),
            "time": float(candidate.predicted_time_seconds).hex(),
        }
        for candidate in result.candidates
    }


def _sweep(spec, settings) -> Dict[str, Any]:
    """Per-candidate answers of a 4-machine mopt ``explore`` over ``spec``."""
    from repro.dse import DesignSpace, axis_values, explore
    from repro.engine import ResultCache
    from repro.engine.serialization import config_to_dict
    from repro.engine.strategy import get_strategy
    from repro.machine.presets import tiny_test_machine

    space = DesignSpace(
        tiny_test_machine(),
        [
            axis_values("caches.L1.capacity_bytes", [2 * 1024, 4 * 1024]),
            axis_values("cores", [2, 4]),
        ],
    )
    strategy = get_strategy("mopt", settings=settings, measure=False)
    cache = ResultCache()
    # The same call on every checkout, so a base side run by this script
    # takes it as the head does.
    result = explore(space, [[spec]], strategy=strategy, cache=cache)
    answers: Dict[str, Any] = {}
    for candidate, outcome in zip(space.expand().candidates, result.outcomes):
        found = cache.get(cache.key_for(spec, candidate.machine, strategy))
        answers[f"sweep/{spec.name}@{outcome.machine_name}"] = {
            "config": config_to_dict(found.best_config) if found else None,
            "time": float(outcome.total_time_seconds).hex(),
        }
    return answers


def digest() -> Dict[str, Any]:
    """Per-operator, per-class answers of the fixed operator set."""
    import scipy

    from repro.core import solver
    from repro.core.optimizer import MOptOptimizer, fast_settings
    from repro.engine.cache import STRATEGY_VERSION
    from repro.machine.presets import coffee_lake_i7_9700k, tiny_test_machine
    from repro.workloads.benchmarks import all_benchmarks

    sys.path.insert(0, str(TESTS_DIR))
    from test_differential import _settings, random_operator_spec

    answers: Dict[str, Any] = {}
    i7 = MOptOptimizer(
        coffee_lake_i7_9700k(), replace(fast_settings(parallel=True), top_k=8)
    )
    for spec in all_benchmarks():
        answers[f"table1/{spec.name}"] = _candidates(i7.optimize(spec))
    tiny = MOptOptimizer(tiny_test_machine(), _settings())
    for seed in DIFFERENTIAL_SEEDS:
        spec = random_operator_spec(seed)
        answers[f"differential/{spec.name}"] = _candidates(tiny.optimize(spec))
    answers.update(_sweep(random_operator_spec(2), _settings(parallel=True)))
    # Checkouts that predate the pin do not report it.
    pinned = solver.solver_stats().get("blas_threads_pinned", False)
    return {
        "strategy_version": STRATEGY_VERSION,
        "blas_threads_pinned": pinned,
        "scipy_version": scipy.__version__,
        "answers": answers,
    }


def compare(base: Dict[str, Any], head: Dict[str, Any]) -> int:
    """0 when the answers agree or the strategy version moved, else 1."""
    # Digests written before the header recorded it have no scipy version.
    versions = [d.get("scipy_version", "unrecorded") for d in (base, head)]
    if versions[0] != versions[1]:
        print(f"scipy {versions[0]} (base) vs {versions[1]} (head)")
    if base["strategy_version"] != head["strategy_version"]:
        print(
            f"STRATEGY_VERSION {base['strategy_version']} -> "
            f"{head['strategy_version']}: answer changes are declared"
        )
        return 0
    differing = sorted(
        key
        for key in set(base["answers"]) | set(head["answers"])
        if base["answers"].get(key) != head["answers"].get(key)
    )
    for key in differing:
        print(f"answers differ: {key}")
    print(f"{len(differing)} of {len(head['answers'])} operators differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the digest here (default: stdout)")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE", "HEAD"), help="compare two digests"
    )
    args = parser.parse_args(argv)
    if args.compare:
        base, head = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(base, head)
    text = json.dumps(digest(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
