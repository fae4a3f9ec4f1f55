"""Ranking metrics for model validation (Figures 5 and 6).

The paper evaluates its analytical model by how well it *ranks* candidate
configurations, not by absolute error:

* top-k loss-of-performance — how much performance is lost by taking the
  best of the model's top-k picks instead of the true best of the sampled
  set (Figure 5 reports top-1, top-2 and top-5),
* rank correlation between predicted scores and measured performance /
  measured data-movement counters (Figure 6 shows these visually; here we
  quantify them with Spearman, Kendall and Pearson coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TopKLoss:
    """Top-k loss-of-performance of a model's ranking over a candidate set."""

    k: int
    best_measured: float
    best_of_topk: float

    @property
    def loss(self) -> float:
        """Fractional performance loss: 0 means the model's pick is the true best."""
        if self.best_measured <= 0:
            return 0.0
        return max(0.0, 1.0 - self.best_of_topk / self.best_measured)


def top_k_loss(
    predicted_scores: Sequence[float],
    measured_performance: Sequence[float],
    ks: Sequence[int] = (1, 2, 5),
) -> Dict[int, TopKLoss]:
    """Top-k losses for a set of configurations.

    ``predicted_scores`` are the model's scores (higher = predicted better);
    ``measured_performance`` are the corresponding measured GFLOPS.
    """
    predicted = np.asarray(predicted_scores, dtype=float)
    measured = np.asarray(measured_performance, dtype=float)
    if predicted.shape != measured.shape:
        raise ValueError("predicted and measured must have the same length")
    if predicted.size == 0:
        raise ValueError("cannot compute top-k loss of an empty set")
    order = np.argsort(-predicted, kind="stable")
    best_measured = float(measured.max())
    result: Dict[int, TopKLoss] = {}
    for k in ks:
        top = order[: max(1, k)]
        best_of_topk = float(measured[top].max())
        result[k] = TopKLoss(k, best_measured, best_of_topk)
    return result


@dataclass(frozen=True)
class RankCorrelation:
    """Correlation between a model's ranking and a measured quantity."""

    spearman: float
    kendall: float
    pearson: float
    n: int


def rank_correlation(
    predicted_scores: Sequence[float], measured_values: Sequence[float]
) -> RankCorrelation:
    """Spearman/Kendall/Pearson correlation between predictions and measurements."""
    from scipy import stats

    predicted = np.asarray(predicted_scores, dtype=float)
    measured = np.asarray(measured_values, dtype=float)
    if predicted.shape != measured.shape:
        raise ValueError("predicted and measured must have the same length")
    if predicted.size < 2:
        raise ValueError("need at least two points for a correlation")
    if np.allclose(predicted, predicted[0]) or np.allclose(measured, measured[0]):
        return RankCorrelation(0.0, 0.0, 0.0, predicted.size)
    spearman = float(stats.spearmanr(predicted, measured).statistic)
    kendall = float(stats.kendalltau(predicted, measured).statistic)
    pearson = float(stats.pearsonr(predicted, measured).statistic)
    return RankCorrelation(spearman, kendall, pearson, predicted.size)


def order_by_prediction(
    predicted_scores: Sequence[float], values: Sequence[float]
) -> List[float]:
    """Reorder ``values`` by decreasing predicted score (Figure 6's x-axis)."""
    predicted = np.asarray(predicted_scores, dtype=float)
    values_array = np.asarray(values, dtype=float)
    order = np.argsort(-predicted, kind="stable")
    return [float(v) for v in values_array[order]]
