"""Displacement-error metric suite.

Implements the top-k minimum ADE and FDE, miss rate at a fixed threshold,
and the brier-style probability penalty, plus dataset-level aggregation.
These are the quantities used for evaluation and the acceptance checks.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PredictionSet, TrajcastError, check_range

MISS_THRESHOLD_METERS = 2.0


class LengthMismatch(TrajcastError):
    """Compared trajectories have different lengths."""


class KTooLarge(TrajcastError):
    """Asked for a top-k subset larger than the prediction set."""


class EmptyDataset(TrajcastError):
    """Metric aggregation over zero scenarios."""


class MinMetrics(NamedTuple):
    """Per-scenario top-k metrics: floats for one scenario, (S,) arrays for a
    stack of S.

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
    """Indices of the k highest scores along the last axis; ties keep the
    lower index first."""
    return np.argsort(-np.asarray(scores), axis=-1, kind="stable")[..., :k]


def min_metrics(preds, gt, k: int) -> MinMetrics:
    """minADE/minFDE over the top-k scored predictions, plus miss and brier.

    preds is a PredictionSet with gt a Trajectory, giving float fields; or a
    ((..., K, T, 2) trajectories, (..., K) scores) pair with gt (..., T, 2),
    as `predict` returns for a sequence of windows, giving one entry per
    scenario in each field. The top-k subset is selected by descending score
    with index order as the tie-break; among modes of the subset that tie for
    minFDE (or minADE), brier takes the score of the lowest mode index. miss
    is True when the subset's best FDE exceeds MISS_THRESHOLD_METERS.
    """
    if isinstance(preds, PredictionSet):
        row = _min_metrics_arrays(preds.stacked(), preds.scores, gt.points, k)
        return MinMetrics(*(v.item() for v in row))
    return _min_metrics_arrays(*preds, np.asarray(gt), k)


def _min_metrics_arrays(trajs: np.ndarray, scores: np.ndarray, gt: np.ndarray,
                        k: int) -> MinMetrics:
    if k > trajs.shape[-3]:
        raise KTooLarge(f"k={k} exceeds prediction count {trajs.shape[-3]}")
    check_range("k", k, 1)
    if trajs.shape[-2] != gt.shape[-2]:
        raise LengthMismatch(f"trajectory lengths differ: {trajs.shape[-2]} vs {gt.shape[-2]}")
    # in mode order, so a tie for the minimum goes to the lowest mode index
    chosen = np.sort(top_k_indices(scores, k), axis=-1)
    dists = np.linalg.norm(trajs - gt[..., None, :, :], axis=-1)        # (..., K, T)
    ades = np.take_along_axis(dists.mean(axis=-1), chosen, axis=-1)    # (..., k)
    fdes = np.take_along_axis(dists[..., -1], chosen, axis=-1)
    p_chosen = np.take_along_axis(scores, chosen, axis=-1)
    best_fde = fdes.argmin(axis=-1)[..., None]
    best_ade = ades.argmin(axis=-1)[..., None]
    min_fde = np.take_along_axis(fdes, best_fde, axis=-1)[..., 0]
    min_ade = np.take_along_axis(ades, best_ade, axis=-1)[..., 0]
    p_fde = np.take_along_axis(p_chosen, best_fde, axis=-1)[..., 0]
    p_ade = np.take_along_axis(p_chosen, best_ade, axis=-1)[..., 0]
    return MinMetrics(
        min_ade=min_ade,
        min_fde=min_fde,
        miss=min_fde > MISS_THRESHOLD_METERS,
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


def report(preds, gt, k_full: int = 6) -> MetricReport:
    """Aggregate S scenarios' predictions into a MetricReport.

    preds is ((S, K, T, 2) trajectories, (S, K) scores) and gt the (S, T, 2)
    ground truths, as `min_metrics` takes them. Each column is the
    arithmetic mean of the per-scenario value, summed in scenario order.
    """
    n = len(gt)
    if n == 0:
        raise EmptyDataset("no scenarios to aggregate")
    rows_1 = min_metrics(preds, gt, 1)
    rows_k = min_metrics(preds, gt, k_full)
    return MetricReport(
        minADE_1=sum(rows_1.min_ade.tolist()) / n,
        minFDE_1=sum(rows_1.min_fde.tolist()) / n,
        MR_1=int(rows_1.miss.sum()) / n,
        minADE_6=sum(rows_k.min_ade.tolist()) / n,
        minFDE_6=sum(rows_k.min_fde.tolist()) / n,
        MR_6=int(rows_k.miss.sum()) / n,
        brier_minFDE_6=sum(rows_k.brier_fde.tolist()) / n,
        n_scenarios=n,
    )
