#!/usr/bin/env python3
"""Same-runner A/B of the benchmark: a base revision against this checkout.

Usage, from anywhere inside the checkout::

    python3 benchmarks/ab.py BASE_REV [--workload W ...] [--pairs N] \
        [--seeds 1,9001] [--seconds S]

The base revision is checked out with ``git worktree add --detach`` into
a temporary directory, which is removed again on exit.  Both sides run
*this* checkout's ``perfbench/run.py`` (``--trace 0``); perfbench imports
the program from ``src/`` of its working directory, so only the program
differs between the sides.  Each pair runs both sides once, and the
side that runs first alternates (the base in the first pair), so a drift
of the host's speed lands on both.  Pairs are the outer loop, so every
(workload, seed) row samples the whole session.

Per workload and seed, and per end-to-end metric of ``BENCHMARK.json``,
it prints each side's median and interquartile range and the head's wins
(pairs where the head reads strictly better; ties count for neither).
The metric directions, the regression bounds and the default run length
come from ``BENCHMARK.json``.  The last line of standard output is the
JSON verdict.  Exit codes: 0 when no metric's head median is worse than
the base median by more than its bound and no head has a larger share of
failed operations; 1 otherwise; 2 when the base revision is unknown or a
run printed no result.

A gain may be claimed for a metric only when its ``gain`` is true on
every row, on seed 1 and on the held-out seed 9001: over at least ten
pairs, the head wins at least nine tenths of them and the medians differ
by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: A gain needs at least this many pairs, and the head must win at least
#: this share of them.
GAIN_MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``.

    Quartiles interpolate linearly between order statistics (the
    ``inclusive`` method, NumPy's default percentile); one value is its
    own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _relative_change(base: float, head: float) -> float:
    if head == base:
        return 0.0
    if base == 0.0:
        return float("inf") if head > base else float("-inf")
    return (head - base) / abs(base)


def verdict(
    metrics: Sequence[Mapping[str, Any]],
    pairs: Sequence[Tuple[Mapping[str, Any], Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Compare the paired (base, head) perfbench results of one workload.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name``, ``better``, ``bound``); each result is the JSON line
    ``perfbench/run.py`` prints (``attempted``, ``failed`` and
    ``metrics[name]["value"]``).  A metric *regressed* when the head
    median is worse than the base median by more than ``bound`` (a
    fraction of the base median).  A metric that did not regress is
    *unresolved* when either side's interquartile range is wider than
    ``bound`` times the base median, unless every head run reads better
    than every base run.  ``gain`` is the claim rule of the module
    docstring.  The row fails when a metric regressed or the head failed
    a larger share of its operations than the base.
    """
    base_runs = [base for base, _ in pairs]
    head_runs = [head for _, head in pairs]
    share = {
        side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
        for side, runs in (("base", base_runs), ("head", head_runs))
    }
    regressions: List[str] = []
    if share["head"] > share["base"]:
        regressions.append(
            f"failed share {share['base']:.3g} -> {share['head']:.3g}"
        )
    rows: Dict[str, Dict[str, Any]] = {}
    for metric in metrics:
        name, bound = metric["name"], float(metric["bound"])
        sign = 1.0 if metric["better"] == "lower" else -1.0
        base = [float(r["metrics"][name]["value"]) for r in base_runs]
        head = [float(r["metrics"][name]["value"]) for r in head_runs]
        b1, base_median, b3 = quartiles(base)
        h1, head_median, h3 = quartiles(head)
        change = _relative_change(base_median, head_median)
        # ``worse`` is the change in the direction that hurts.
        worse = sign * change
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        regressed = worse > bound
        separated = max(sign * h for h in head) < min(sign * b for b in base)
        spread = max(b3 - b1, h3 - h1)
        if regressed:
            status = "regressed"
            regressions.append(
                f"{name} {change:+.1%} (bound {bound:.0%})"
            )
        elif spread > bound * abs(base_median) and not separated:
            status = "unresolved"
        else:
            status = "ok"
        rows[name] = {
            "base": base,
            "head": head,
            "base_median": base_median,
            "head_median": head_median,
            "base_iqr": b3 - b1,
            "head_iqr": h3 - h1,
            "change": change,
            "bound": bound,
            "wins": wins,
            "status": status,
            "gain": (
                len(pairs) >= GAIN_MIN_PAIRS
                and wins >= GAIN_WIN_SHARE * len(pairs)
                and worse < 0
                and abs(head_median - base_median) > b3 - b1
            ),
        }
    return {
        "ok": not regressions,
        "pairs": len(pairs),
        "failed_share": share,
        "metrics": rows,
        "regressions": regressions,
    }


def format_row(workload: str, seed: int, row: Mapping[str, Any]) -> str:
    """The human-readable table of one :func:`verdict` row."""
    share = row["failed_share"]
    lines = [
        f"{workload} seed {seed}: {row['pairs']} pairs, failed share "
        f"base {share['base']:.3g} head {share['head']:.3g}",
        f"  {'metric':<24} {'base median (IQR)':>22} {'head median (IQR)':>22}"
        f" {'change':>8} {'wins':>6} {'bound':>6}  status",
    ]
    for name, m in row["metrics"].items():
        lines.append(
            f"  {name:<24} {m['base_median']:>11.5g} ({m['base_iqr']:<8.3g})"
            f" {m['head_median']:>11.5g} ({m['head_iqr']:<8.3g})"
            f" {m['change']:>+8.1%} {m['wins']:>3}/{row['pairs']:<2}"
            f" {m['bound']:>6.0%}  {m['status']}{' GAIN' if m['gain'] else ''}"
        )
    return "\n".join(lines)


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One ``--trace 0`` run of this checkout's perfbench over ``checkout``."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(done.stderr[-3000:], file=sys.stderr)
        print(f"error: {workload} seed {seed} in {checkout} exited "
              f"{done.returncode} without a result", file=sys.stderr)
        sys.exit(2)


def main(argv: Sequence[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_REV", help="git revision to compare against")
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run (repeatable; default: every workload)",
    )
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument(
        "--seeds", default="1,9001", help="comma-separated workload seeds"
    )
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="run length of each run (default: BENCHMARK.json's run_seconds)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds takes comma-separated integers, not {args.seeds!r}")
    workloads = args.workload or names

    try:
        base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: unknown revision {args.base!r}", file=sys.stderr)
        return 2
    head = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        head += "+uncommitted"

    # A terminated run still removes its worktree (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    base_dir = scratch / "base"
    results: Dict[Tuple[str, int], List[Tuple[Dict[str, Any], Dict[str, Any]]]] = {
        (w, s): [] for w in workloads for s in seeds
    }
    try:
        _git("worktree", "add", "--detach", str(base_dir), base_sha)
        for pair in range(args.pairs):
            sides = [("base", base_dir), ("head", ROOT)]
            if pair % 2:
                sides.reverse()
            for (workload, seed), runs in results.items():
                out: Dict[str, Dict[str, Any]] = {}
                for side, checkout in sides:
                    out[side] = run_perfbench(checkout, workload, seed, args.seconds)
                    values = sorted(out[side]["metrics"].items())
                    print(f"pair {pair + 1} {workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.5g}" for k, v in values),
                          file=sys.stderr, flush=True)
                runs.append((out["base"], out["head"]))
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_dir)],
            cwd=ROOT, capture_output=True,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    rows = []
    for (workload, seed), pairs in results.items():
        row = verdict(spec["end_to_end"], pairs)
        print(format_row(workload, seed, row))
        rows.append({"workload": workload, "seed": seed, **row})
    ok = all(row["ok"] for row in rows)
    print("VERDICT: " + ("no regression" if ok else "REGRESSION"))
    summary = {"ok": ok, "base": base_sha[:7], "head": head, "pairs": args.pairs,
               "seconds": args.seconds, "rows": rows}
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
