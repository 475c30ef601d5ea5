"""Prediction pooling, trajectory k-means, and pseudo-target files."""

import itertools
import json

import numpy as np
import pytest

from conftest import line_trajectory, prediction_set
from trajcast.core import Trajectory
from trajcast.ensemble import (ClusterResult, EnsembleBank, TooFewModels,
                               TooFewTrajectories, UnknownScenario,
                               bank_from_dumps, build_target_set,
                               cluster_bank, kmeans_trajectories,
                               load_prediction_dump, load_pseudo_targets,
                               pool, save_prediction_dump,
                               save_pseudo_targets)
from trajcast.metrics import LengthMismatch


def _point_pool(points, weights=None):
    """One-step trajectories at the given 2-D points."""
    if weights is None:
        weights = [1.0 / len(points)] * len(points)
    return [(Trajectory(points=np.array([p], dtype=float)), w)
            for p, w in zip(points, weights)]


# -- bank / pool --------------------------------------------------------------

def test_pool_flattens_in_insertion_order():
    bank = EnsembleBank()
    a = prediction_set([[[0.0, 0.0]], [[1.0, 0.0]]], scores=[0.8, 0.2])
    b = prediction_set([[[2.0, 0.0]], [[3.0, 0.0]]], scores=[0.6, 0.4])
    bank.add("s1", "m0", a)
    bank.add("s1", "m1", b)
    pooled = pool(bank, "s1")
    assert [tr.points[0, 0] for tr, _ in pooled] == [0.0, 1.0, 2.0, 3.0]
    assert [w for _, w in pooled] == [0.8, 0.2, 0.6, 0.4]
    assert bank.tags("s1") == {"m0", "m1"}


def test_bank_unknown_scenario_and_horizon_check():
    bank = EnsembleBank()
    bank.add("s1", "m0", prediction_set([[[0.0, 0.0], [1.0, 0.0]]]))
    with pytest.raises(UnknownScenario):
        pool(bank, "nope")
    with pytest.raises(LengthMismatch):
        bank.add("s1", "m1", prediction_set([[[0.0, 0.0]]]))


# -- k-means ------------------------------------------------------------------

def test_kmeans_separated_points_exact():
    pooled = _point_pool([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)],
                         weights=[0.5, 0.3, 0.2])
    res = kmeans_trajectories(pooled, j=3, seed=0)
    got = {tuple(c.points[0]): s for c, s in zip(res.centroids, res.scores)}
    assert got == {(0.0, 0.0): 0.5, (10.0, 0.0): 0.3, (0.0, 10.0): 0.2}
    assert res.member_counts.sum() == 3
    assert res.sse_history[-1] == 0.0


def test_kmeans_single_cluster_of_identical_points():
    pooled = _point_pool([(2.0, -1.0)] * 5)
    res = kmeans_trajectories(pooled, j=1, seed=3)
    assert res.scores[0] == 1.0
    np.testing.assert_array_equal(res.centroids[0].points, [[2.0, -1.0]])
    assert res.member_counts[0] == 5


def _partition_sse(x, mask):
    sse = 0.0
    for side in (mask, ~mask):
        pts = x[side]
        sse += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return sse


def test_kmeans_two_blobs_reaches_brute_force_optimum():
    blob_a = [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2), (0.2, 0.2)]
    blob_b = [(10.0, 10.0), (10.2, 10.0), (10.0, 10.2), (10.2, 10.2)]
    points = blob_a + blob_b
    x = np.array(points)
    best = min(_partition_sse(x, mask) for mask in
               (np.array(bits, dtype=bool) for bits in itertools.product([0, 1], repeat=8))
               if mask.any() and not mask.all())
    hits = 0
    for seed in range(100):
        res = kmeans_trajectories(_point_pool(points), j=2, seed=seed)
        sse = res.sse_history[-1]
        assert sse >= best - 1e-9          # never better than the global optimum
        if sse <= best + 1e-9:
            hits += 1
    assert hits >= 90


def test_kmeans_sse_nonincreasing_over_100_runs():
    rng = np.random.default_rng(0)
    for seed in range(100):
        n = int(rng.integers(6, 20))
        pts = rng.normal(scale=5.0, size=(n, 2))
        pooled = _point_pool(list(map(tuple, pts)))
        res = kmeans_trajectories(pooled, j=int(rng.integers(1, 5)), seed=seed)
        hist = np.array(res.sse_history)
        assert np.all(np.diff(hist) <= 1e-9)


def test_kmeans_scores_and_counts_account_for_everything():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 2))
    raw = rng.random(12)
    pooled = _point_pool(list(map(tuple, pts)), weights=list(raw / raw.sum()))
    res = kmeans_trajectories(pooled, j=4, seed=7)
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.member_counts.sum() == 12
    assert np.all(res.scores >= 0.0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    pooled = _point_pool(list(map(tuple, rng.normal(size=(10, 2)))))
    a = kmeans_trajectories(pooled, j=3, seed=5)
    b = kmeans_trajectories(pooled, j=3, seed=5)
    for ca, cb in zip(a.centroids, b.centroids):
        np.testing.assert_array_equal(ca.points, cb.points)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert a.sse_history == b.sse_history


def test_kmeans_too_few_trajectories():
    pooled = _point_pool([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(TooFewTrajectories):
        kmeans_trajectories(pooled, j=3, seed=0)
    with pytest.raises(TooFewTrajectories):
        kmeans_trajectories(pooled, j=0, seed=0)


# -- target sets --------------------------------------------------------------

def test_build_target_set_gt_first_confidence_one():
    gt = line_trajectory((0, 0), (1, 0), 3)
    pooled = _point_pool([(0.0, 0.0), (5.0, 5.0)])
    pooled = [(line_trajectory(p.points[0], (1, 0), 3), w) for p, w in pooled]
    cluster = kmeans_trajectories(pooled, j=2, seed=0)
    ts = build_target_set(cluster, gt)
    assert ts.count == 3
    assert ts.targets[0] is gt
    assert ts.confidences[0] == 1.0
    assert ts.confidences[1:].sum() == pytest.approx(1.0, abs=1e-12)


def test_build_target_set_without_cluster():
    gt = line_trajectory((0, 0), (1, 0), 3)
    ts = build_target_set(None, gt)
    assert ts.count == 1 and ts.confidences[0] == 1.0
    empty = ClusterResult(centroids=(), scores=np.zeros(0),
                          member_counts=np.zeros(0, dtype=int), sse_history=())
    assert build_target_set(empty, gt).count == 1


def test_build_target_set_length_mismatch():
    gt = line_trajectory((0, 0), (1, 0), 5)
    cluster = kmeans_trajectories(_point_pool([(0.0, 0.0), (1.0, 1.0)]), j=1, seed=0)
    with pytest.raises(LengthMismatch):
        build_target_set(cluster, gt)


# -- bank-level clustering ----------------------------------------------------

def _two_model_bank(sids=("s1", "s2")):
    bank = EnsembleBank()
    rng = np.random.default_rng(0)
    for sid in sids:
        for tag in ("m0", "m1"):
            pts = rng.normal(size=(2, 4, 2)).cumsum(axis=1)
            bank.add(sid, tag, prediction_set(list(pts)))
    return bank


def test_cluster_bank_uses_per_scenario_subseeds():
    bank = _two_model_bank()
    results = cluster_bank(bank, j=2, seed=100)
    assert sorted(results.keys()) == ["s1", "s2"]
    for i, sid in enumerate(sorted(bank.scenario_ids())):
        direct = kmeans_trajectories(pool(bank, sid), j=2, seed=100 + i)
        for ca, cb in zip(results[sid].centroids, direct.centroids):
            np.testing.assert_array_equal(ca.points, cb.points)


def test_cluster_bank_requires_two_models():
    bank = EnsembleBank()
    bank.add("s1", "m0", prediction_set([[[0.0, 0.0]], [[1.0, 0.0]]]))
    with pytest.raises(TooFewModels):
        cluster_bank(bank, j=1, seed=0)


# -- files --------------------------------------------------------------------

def test_pseudo_target_roundtrip(tmp_path):
    bank = _two_model_bank()
    results = cluster_bank(bank, j=2, seed=9)
    path = tmp_path / "targets.jsonl"
    save_pseudo_targets(path, results, dt=0.1)
    loaded = load_pseudo_targets(path)
    assert sorted(loaded.keys()) == ["s1", "s2"]
    for sid, res in results.items():
        trajs, confs = loaded[sid]
        np.testing.assert_array_equal(confs, res.scores)
        for ta, tb in zip(trajs, res.centroids):
            np.testing.assert_array_equal(ta.points, tb.points)
    lines = path.read_text().splitlines()
    assert [json.loads(l)["scenario_id"] for l in lines] == ["s1", "s2"]


def test_prediction_dump_roundtrip_and_bank(tmp_path):
    preds = prediction_set([[[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [2.0, -1.0]]],
                           scores=[0.75, 0.25])
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    save_prediction_dump(path_a, [("s1", preds.stacked(), preds.scores)])
    save_prediction_dump(path_b, [("s1", preds.stacked(), preds.scores)])
    loaded = load_prediction_dump(path_a)
    assert loaded[0][0] == "s1"
    np.testing.assert_array_equal(loaded[0][1].scores, preds.scores)
    np.testing.assert_array_equal(loaded[0][1].trajectories[1].points,
                                  preds.trajectories[1].points)
    bank = bank_from_dumps([("m0", path_a), ("m1", path_b)])
    assert bank.tags("s1") == {"m0", "m1"}
    assert len(pool(bank, "s1")) == 4
