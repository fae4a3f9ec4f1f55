"""Statistics helpers for the comparison experiments (Figures 7 and 8).

The paper follows the statistically rigorous methodology of Georges et al.:
each configuration is run 50 times, the mean GFLOPS is reported together
with a 95% confidence interval, and cross-benchmark summaries use geometric
means of speedups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class MeasurementSummary:
    """Mean and 95% confidence interval of repeated performance measurements."""

    mean: float
    ci_low: float
    ci_high: float
    runs: int

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


def summarize_runs(samples: Sequence[float], confidence: float = 0.95) -> MeasurementSummary:
    """Mean and confidence interval of repeated runs (t-distribution)."""
    from scipy import stats

    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize zero runs")
    mean = float(data.mean())
    if data.size == 1 or np.allclose(data, data[0]):
        return MeasurementSummary(mean, mean, mean, data.size)
    sem = float(stats.sem(data))
    interval = stats.t.interval(confidence, df=data.size - 1, loc=mean, scale=sem)
    return MeasurementSummary(mean, float(interval[0]), float(interval[1]), data.size)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (used for cross-layer speedups)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def speedups(
    numerator: Mapping[str, float], denominator: Mapping[str, float]
) -> Dict[str, float]:
    """Per-key speedups ``numerator[k] / denominator[k]`` for shared keys."""
    common = [key for key in numerator if key in denominator]
    if not common:
        raise ValueError("no common keys between the two result sets")
    result = {}
    for key in common:
        if denominator[key] <= 0:
            raise ValueError(f"non-positive denominator for {key!r}")
        result[key] = numerator[key] / denominator[key]
    return result


def geometric_mean_speedup(
    numerator: Mapping[str, float], denominator: Mapping[str, float]
) -> float:
    """Geometric-mean speedup across the shared keys of two result sets."""
    return geometric_mean(speedups(numerator, denominator).values())
