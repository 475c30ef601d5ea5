"""Displacement metrics against an independent brute-force oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_trajectory, prediction_set
from trajcast.core import Trajectory
from trajcast.metrics import (EmptyDataset, KTooLarge, LengthMismatch,
                              MetricReport, MISS_THRESHOLD_METERS, ade, fde,
                              min_metrics, report, top_k_indices)


# -- oracle: plain-python loops, no shared code with the implementation ------

def _ade_oracle(pred, gt):
    total = 0.0
    for (px, py), (gx, gy) in zip(pred, gt):
        total += math.hypot(px - gx, py - gy)
    return total / len(pred)


def _fde_oracle(pred, gt):
    (px, py), (gx, gy) = pred[-1], gt[-1]
    return math.hypot(px - gx, py - gy)


def _min_metrics_oracle(preds, scores, gt, k, threshold):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    ades = [(_ade_oracle(preds[i], gt), i) for i in order]
    fdes = [(_fde_oracle(preds[i], gt), i) for i in order]
    min_ade = min(a for a, _ in ades)
    min_fde = min(f for f, _ in fdes)
    best_fde_i = min(fdes)[1]
    best_ade_i = min(ades)[1]
    return (min_ade, min_fde, 1.0 if min_fde > threshold else 0.0,
            min_fde + (1.0 - scores[best_fde_i]) ** 2,
            min_ade + (1.0 - scores[best_ade_i]) ** 2)


def _random_instance(rng):
    k = int(rng.integers(1, 7))
    t = int(rng.integers(1, 31))
    preds = rng.normal(scale=3.0, size=(k, t, 2))
    gt = rng.normal(scale=3.0, size=(t, 2))
    raw = rng.random(k) + 1e-3
    scores = raw / raw.sum()
    return preds, scores, gt


# -- hand cases ---------------------------------------------------------------

def test_ade_fde_hand_values():
    pred = Trajectory(points=np.array([[0.0, 0.0], [2.0, 0.0]]))
    gt = Trajectory(points=np.zeros((2, 2)))
    assert ade(pred, gt) == 1.0
    assert fde(pred, gt) == 2.0
    diag = Trajectory(points=np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert math.isclose(fde(diag, gt), math.sqrt(5.0))


def test_identical_trajectories_are_zero():
    traj = line_trajectory((0, 0), (1, 0.5), 10)
    assert ade(traj, traj) == 0.0
    assert fde(traj, traj) == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        ade(line_trajectory((0, 0), (1, 0), 5), line_trajectory((0, 0), (1, 0), 6))
    with pytest.raises(LengthMismatch):
        fde(line_trajectory((0, 0), (1, 0), 5), line_trajectory((0, 0), (1, 0), 6))


def test_top_k_stable_tie_break():
    scores = np.array([0.3, 0.3, 0.4])
    assert list(top_k_indices(scores, 2)) == [2, 0]
    assert list(top_k_indices(scores, 3)) == [2, 0, 1]


def test_min_metrics_hand_case():
    """Two predictions; the better one holds probability 0.5."""
    preds = prediction_set([[[0, 0], [0, 0]], [[0, 0], [3, 4]]], scores=[0.5, 0.5])
    gt = Trajectory(points=np.zeros((2, 2)))
    m = min_metrics(preds, gt, k=2)
    assert m.min_ade == 0.0
    assert m.min_fde == 0.0
    assert m.miss == 0.0
    assert m.brier_fde == 0.25  # 0 + (1 - 0.5)^2


def test_min_metrics_k_subsets_scores():
    """Top-k filters by score first: the closer but low-scored one is ignored."""
    preds = prediction_set([[[0, 0], [5, 0]], [[0, 0], [1, 0]]], scores=[0.9, 0.1])
    gt = Trajectory(points=np.zeros((2, 2)))
    m1 = min_metrics(preds, gt, k=1)
    assert m1.min_fde == 5.0 and m1.miss == 1.0
    m2 = min_metrics(preds, gt, k=2)
    assert m2.min_fde == 1.0 and m2.miss == 0.0


def test_k_too_large():
    preds = prediction_set([[[0, 0]]], scores=[1.0])
    with pytest.raises(KTooLarge):
        min_metrics(preds, Trajectory(points=np.zeros((1, 2))), k=2)


def test_miss_threshold_is_two_meters():
    assert MISS_THRESHOLD_METERS == 2.0
    preds = prediction_set([[[0, 0], [2.001, 0]]], scores=[1.0])
    gt = Trajectory(points=np.zeros((2, 2)))
    assert min_metrics(preds, gt, k=1).miss == 1.0
    preds = prediction_set([[[0, 0], [1.999, 0]]], scores=[1.0])
    assert min_metrics(preds, gt, k=1).miss == 0.0


# -- oracle sweep -------------------------------------------------------------

def test_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        preds, scores, gt = _random_instance(rng)
        k = int(rng.integers(1, preds.shape[0] + 1))
        pset = prediction_set(list(preds), scores=scores)
        got = min_metrics(pset, Trajectory(points=gt), k=k)
        want = _min_metrics_oracle(preds, scores, gt, k, 2.0)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(1, 6),
       extra=st.integers(0, 5), t=st.integers(1, 30), levels=st.integers(1, 3))
def test_stacked_min_metrics_match_the_oracle_per_scenario(seed, n, k, extra, t, levels):
    """min_metrics on (n, K, T, 2) stacks gives each scenario the oracle's
    values; scores drawn from a few levels tie often, so the top-k subset
    leans on the index tie-break. report's columns are the oracle's means."""
    k_all = min(6, k + extra)
    rng = np.random.default_rng(seed)
    trajs = rng.normal(scale=3.0, size=(n, k_all, t, 2))
    gt = rng.normal(scale=3.0, size=(n, t, 2))
    raw = rng.integers(1, levels + 1, size=(n, k_all)).astype(float)
    scores = raw / raw.sum(axis=1, keepdims=True)
    got = min_metrics((trajs, scores), gt, k=k)
    assert all(np.shape(field) == (n,) for field in got)
    for i in range(n):
        want = _min_metrics_oracle(trajs[i], scores[i], gt[i], k, 2.0)
        for g, w in zip(got, want):
            assert abs(g[i] - w) < 1e-9
    rep = report((trajs, scores), gt, k_full=k)
    rows_1, rows_k = ([_min_metrics_oracle(trajs[i], scores[i], gt[i], kk, 2.0) for i in range(n)]
                      for kk in (1, k))
    got = (rep.minADE_1, rep.minFDE_1, rep.MR_1, rep.minADE_6, rep.minFDE_6, rep.MR_6,
           rep.brier_minFDE_6)
    want = [sum(r[j] for r in rows) / n for rows, j in
            ((rows_1, 0), (rows_1, 1), (rows_1, 2), (rows_k, 0), (rows_k, 1), (rows_k, 2),
             (rows_k, 3))]
    assert rep.n_scenarios == n
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9


def _uniform(points, n_modes=6):
    """One scenario's predictions: n_modes copies of points, equal scores."""
    return np.array([points] * n_modes, dtype=float), np.full(n_modes, 1.0 / n_modes)


def test_report_is_mean_of_scenarios():
    close, far = _uniform([[0, 0], [1, 0]]), _uniform([[0, 0], [3, 0]])
    preds = (np.stack([close[0], far[0]]), np.stack([close[1], far[1]]))
    rep = report(preds, np.zeros((2, 2, 2)))
    assert rep.n_scenarios == 2
    assert math.isclose(rep.minFDE_6, 2.0)
    assert math.isclose(rep.MR_6, 0.5)
    assert math.isclose(rep.minADE_1, (0.5 + 1.5) / 2)


def test_report_empty_dataset():
    with pytest.raises(EmptyDataset):
        report((np.zeros((0, 6, 2, 2)), np.zeros((0, 6))), np.zeros((0, 2, 2)))


def test_metric_report_json_roundtrip():
    trajs, scores = _uniform([[0, 0], [1, 0]])
    rep = report((trajs[None], scores[None]), np.zeros((1, 2, 2)))
    back = MetricReport.from_json(rep.to_json())
    assert back == rep
    keys = list(json.loads(rep.to_json()).keys())
    assert keys == sorted(keys)  # stable serialization
