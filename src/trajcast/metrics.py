"""Displacement-error metric suite.

Implements ADE/FDE, their top-k minima, miss rate at a fixed threshold, and
the brier-style probability penalty, plus dataset-level aggregation. These
are the quantities used for evaluation, matching similarity, and the
acceptance checks.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import PredictionSet, Trajectory, TrajcastError

MISS_THRESHOLD_METERS = 2.0


class LengthMismatch(TrajcastError):
    """Compared trajectories have different lengths."""


class KTooLarge(TrajcastError):
    """Asked for a top-k subset larger than the prediction set."""


class EmptyDataset(TrajcastError):
    """Metric aggregation over zero scenarios."""


def ade(pred: Trajectory, gt: Trajectory) -> float:
    """Average displacement error: mean Euclidean distance per timestep."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"trajectory lengths differ: {len(pred)} vs {len(gt)}")
    return float(np.linalg.norm(pred.points - gt.points, axis=1).mean())


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Final displacement error: Euclidean distance at the last timestep."""
    if len(pred) != len(gt):
        raise LengthMismatch(f"trajectory lengths differ: {len(pred)} vs {len(gt)}")
    return float(np.linalg.norm(pred.points[-1] - gt.points[-1]))


class MinMetrics(NamedTuple):
    """Per-scenario top-k metrics.

    brier_fde is minFDE + (1 - p)^2 with p the score of the FDE-minimizing
    trajectory; brier_ade is the analogous minADE form, exposed as a
    secondary output.
    """

    min_ade: float
    min_fde: float
    miss: bool
    brier_fde: float
    brier_ade: float


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores; ties keep the lower index first."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    return order[:k]


def min_metrics(preds: PredictionSet, gt: Trajectory, k: int,
                threshold: float = MISS_THRESHOLD_METERS) -> MinMetrics:
    """minADE/minFDE over the top-k scored predictions, plus miss and brier.

    The top-k subset is selected by descending score with index order as the
    tie-break. miss is True when the subset's best FDE exceeds `threshold`.
    """
    if k > preds.k:
        raise KTooLarge(f"k={k} exceeds prediction count {preds.k}")
    if k < 1:
        raise ValueError("k must be >= 1")
    chosen = top_k_indices(preds.scores, k)
    ades = np.array([ade(preds.trajectories[i], gt) for i in chosen])
    fdes = np.array([fde(preds.trajectories[i], gt) for i in chosen])
    best_fde = int(np.argmin(fdes))
    best_ade = int(np.argmin(ades))
    min_fde = float(fdes[best_fde])
    min_ade = float(ades[best_ade])
    p_fde = float(preds.scores[chosen[best_fde]])
    p_ade = float(preds.scores[chosen[best_ade]])
    return MinMetrics(
        min_ade=min_ade,
        min_fde=min_fde,
        miss=bool(min_fde > threshold),
        brier_fde=min_fde + (1.0 - p_fde) ** 2,
        brier_ade=min_ade + (1.0 - p_ade) ** 2,
    )


@dataclass(frozen=True)
class MetricReport:
    """Dataset-level metric means in the standard seven-column layout."""

    minADE_1: float
    minFDE_1: float
    MR_1: float
    minADE_6: float
    minFDE_6: float
    MR_6: float
    brier_minFDE_6: float
    n_scenarios: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        return cls(**json.loads(text))


def report(pairs: Sequence[tuple], threshold: float = MISS_THRESHOLD_METERS,
           k_full: int = 6) -> MetricReport:
    """Aggregate (PredictionSet, ground truth) pairs into a MetricReport.

    Each column is the arithmetic mean of the per-scenario value.
    """
    if len(pairs) == 0:
        raise EmptyDataset("no scenarios to aggregate")
    rows_1 = [min_metrics(p, g, 1, threshold) for p, g in pairs]
    rows_k = [min_metrics(p, g, k_full, threshold) for p, g in pairs]
    n = len(pairs)
    return MetricReport(
        minADE_1=sum(r.min_ade for r in rows_1) / n,
        minFDE_1=sum(r.min_fde for r in rows_1) / n,
        MR_1=sum(r.miss for r in rows_1) / n,
        minADE_6=sum(r.min_ade for r in rows_k) / n,
        minFDE_6=sum(r.min_fde for r in rows_k) / n,
        MR_6=sum(r.miss for r in rows_k) / n,
        brier_minFDE_6=sum(r.brier_fde for r in rows_k) / n,
        n_scenarios=n,
    )
