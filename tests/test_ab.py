"""The verdict of ``benchmarks/ab.py`` on synthetic perfbench results.

Only the pure verdict function is exercised: no git, no subprocess.  The
metric directions and bounds are the ones ``BENCHMARK.json`` declares.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = json.loads((ab.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

#: A plausible value of every end-to-end metric.
BASE = {
    "setup_s": 2.0,
    "peak_rss_mb": 140.0,
    "answer_gflops_geomean": 360.0,
    "ref_cpu_ms_per_op": 550.0,
}


def result(failed=0, attempted=12, **values):
    """One JSON result line of ``perfbench/run.py``."""
    metrics = {**BASE, **values}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }


def pairs_of(metric, base_values, head_values):
    return [
        (result(**{metric: b}), result(**{metric: h}))
        for b, h in zip(base_values, head_values)
    ]


def test_bounds_are_read_from_benchmark_json():
    bounds = {m["name"]: (m["better"], m["bound"]) for m in END_TO_END}
    assert bounds["ref_cpu_ms_per_op"] == ("lower", 0.25)
    assert bounds["answer_gflops_geomean"][0] == "higher"


def test_lower_better_metric_over_its_bound_fails():
    row = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", [500.0] * 3, [630.0] * 3))
    assert not row["ok"]
    assert row["metrics"]["ref_cpu_ms_per_op"]["status"] == "regressed"
    assert row["metrics"]["ref_cpu_ms_per_op"]["change"] == pytest.approx(0.26)
    assert len(row["regressions"]) == 1 and "ref_cpu_ms_per_op" in row["regressions"][0]


def test_lower_better_metric_inside_its_bound_passes():
    row = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", [500.0] * 3, [620.0] * 3))
    assert row["ok"] and row["regressions"] == []
    assert all(m["status"] == "ok" for m in row["metrics"].values())


def test_higher_better_direction_is_respected():
    # A 20 % rise of the geomean is better, not worse by more than 12 %.
    up = ab.verdict(END_TO_END, pairs_of("answer_gflops_geomean", [300.0] * 3, [360.0] * 3))
    assert up["ok"]
    assert up["metrics"]["answer_gflops_geomean"]["wins"] == 3
    # A 13 % fall is worse by more than its 12 % bound.
    down = ab.verdict(END_TO_END, pairs_of("answer_gflops_geomean", [300.0] * 3, [261.0] * 3))
    assert not down["ok"]
    assert down["metrics"]["answer_gflops_geomean"]["status"] == "regressed"
    assert down["metrics"]["answer_gflops_geomean"]["wins"] == 0


def test_larger_failed_share_at_the_head_fails():
    same = [(result(failed=1), result(failed=1))] * 3
    assert ab.verdict(END_TO_END, same)["ok"]
    worse = [(result(failed=0), result(failed=0)), (result(failed=0), result(failed=1))]
    row = ab.verdict(END_TO_END, worse)
    assert not row["ok"]
    assert row["failed_share"] == {"base": 0.0, "head": 1 / 24}
    assert row["regressions"] == ["failed share 0 -> 0.0417"]


def test_wins_and_iqr():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    head = [9.0, 11.0, 13.0, 12.0, 8.0]
    m = ab.verdict(END_TO_END, pairs_of("setup_s", base, head))["metrics"]["setup_s"]
    # Lower is better: pairs 1, 4 and 5 are won, pair 2 ties (counts for
    # neither) and pair 3 is lost.
    assert m["wins"] == 3
    # Quartiles interpolate between order statistics: 11 and 13 for the
    # base, 9 and 12 for the head (sorted 8, 9, 11, 12, 13).
    assert (m["base_median"], m["base_iqr"]) == (12.0, 2.0)
    assert (m["head_median"], m["head_iqr"]) == (11.0, 3.0)
    assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_spread_wider_than_the_bound_is_unresolved():
    # setup_s has a 25 % bound; an IQR of 2.0 around a median of 4 is wider.
    base = [2.0, 3.0, 4.0, 5.0, 6.0]
    m = ab.verdict(END_TO_END, pairs_of("setup_s", base, base))["metrics"]["setup_s"]
    assert m["status"] == "unresolved"
    # Unless every head run reads better than every base run.
    head = [1.0, 1.1, 1.2, 1.3, 1.4]
    m = ab.verdict(END_TO_END, pairs_of("setup_s", base, head))["metrics"]["setup_s"]
    assert m["status"] == "ok"


def test_gain_needs_ten_pairs_nine_tenths_won_and_medians_apart():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    faster = [b - 10.0 for b in base]
    m = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", base, faster))
    assert m["metrics"]["ref_cpu_ms_per_op"]["gain"]
    # Nine pairs are too few.
    m = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", base[:9], faster[:9]))
    assert not m["metrics"]["ref_cpu_ms_per_op"]["gain"]
    # Eight wins of ten are too few.
    mixed = faster[:8] + [b + 1.0 for b in base[8:]]
    m = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", base, mixed))
    assert not m["metrics"]["ref_cpu_ms_per_op"]["gain"]
    # Every pair won, but the medians differ by less than the base's IQR.
    close = [b - 0.5 for b in base]
    m = ab.verdict(END_TO_END, pairs_of("ref_cpu_ms_per_op", base, close))
    assert not m["metrics"]["ref_cpu_ms_per_op"]["gain"]
