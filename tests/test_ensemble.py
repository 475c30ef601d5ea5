"""Prediction pooling, trajectory k-means, and pseudo-target files."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_trajectory, prediction_set
from trajcast.core import PredictionSet, Trajectory
from trajcast.ensemble import (ClusterResult, EnsembleBank, MalformedRecord,
                               TooFewModels, TooFewTrajectories, UnknownScenario,
                               _seed_centers, bank_from_dumps, build_target_set,
                               cluster_bank, kmeans_trajectories,
                               load_prediction_dump, load_pseudo_targets,
                               save_prediction_dump, save_pseudo_targets)
from trajcast.metrics import LengthMismatch


def _point_pool(points, weights=None):
    """One-step trajectories at the given 2-D points."""
    if weights is None:
        weights = [1.0 / len(points)] * len(points)
    return [(Trajectory(points=np.array([p], dtype=float)), w)
            for p, w in zip(points, weights)]


# -- bank / pooling -----------------------------------------------------------

def test_pool_flattens_in_insertion_order():
    bank = EnsembleBank()
    a = prediction_set([[[0.0, 0.0]], [[1.0, 0.0]]], scores=[0.8, 0.2])
    b = prediction_set([[[2.0, 0.0]], [[3.0, 0.0]]], scores=[0.6, 0.4])
    bank.add("s1", "m0", a)
    bank.add("s1", "m1", b)
    trajs, scores = bank.pooled("s1")
    assert trajs[:, 0, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert scores.tolist() == [0.8, 0.2, 0.6, 0.4]
    assert bank.tags("s1") == {"m0", "m1"}


def test_bank_unknown_scenario_and_horizon_check():
    bank = EnsembleBank()
    bank.add("s1", "m0", prediction_set([[[0.0, 0.0], [1.0, 0.0]]]))
    with pytest.raises(UnknownScenario):
        bank.pooled("nope")
    with pytest.raises(LengthMismatch):
        bank.add("s1", "m1", prediction_set([[[0.0, 0.0]]]))


# -- k-means ------------------------------------------------------------------

def test_kmeans_separated_points_exact():
    pooled = _point_pool([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)],
                         weights=[0.5, 0.3, 0.2])
    res = kmeans_trajectories(pooled, j=3, seed=0)
    got = {tuple(c[0]): s for c, s in zip(res.centroids, res.scores)}
    assert got == {(0.0, 0.0): 0.5, (10.0, 0.0): 0.3, (0.0, 10.0): 0.2}
    assert res.member_counts.sum() == 3
    assert res.sse_history[-1] == 0.0


def test_kmeans_single_cluster_of_identical_points():
    pooled = _point_pool([(2.0, -1.0)] * 5)
    res = kmeans_trajectories(pooled, j=1, seed=3)
    assert res.scores[0] == 1.0
    np.testing.assert_array_equal(res.centroids[0], [[2.0, -1.0]])
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
    np.testing.assert_array_equal(a.centroids, b.centroids)
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
    empty = ClusterResult(centroids=(), scores=np.zeros(0), member_counts=np.zeros(0, dtype=int),
                          assignments=np.zeros(0, dtype=int), sse_history=())
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
        trajs, scores = bank.pooled(sid)
        direct = kmeans_trajectories((trajs[None], scores[None]), j=2, seed=[100 + i]).scenario(0)
        np.testing.assert_array_equal(results[sid].centroids, direct.centroids)
        np.testing.assert_array_equal(results[sid].assignments, direct.assignments)


def test_cluster_bank_requires_two_models():
    bank = EnsembleBank()
    bank.add("s1", "m0", prediction_set([[[0.0, 0.0]], [[1.0, 0.0]]]))
    with pytest.raises(TooFewModels):
        cluster_bank(bank, j=1, seed=0)


def test_cluster_bank_names_a_scenario_with_too_few_trajectories():
    bank = _two_model_bank(sids=("s1", "s2"))
    bank.add("s0", "m0", prediction_set([[[0.0, 0.0]] * 4]))
    bank.add("s0", "m1", prediction_set([[[0.0, 0.0]] * 4]))
    with pytest.raises(TooFewTrajectories, match="^scenario s0: need at least 3 pooled "
                                                 "trajectories, got 2$"):
        cluster_bank(bank, j=3, seed=0)


# -- stacked k-means against the per-scenario loop ------------------------------

def _kmeans_pp_seed_oracle(x, j, rng):
    """k-means++ seeding as a per-scenario loop over Generator.choice."""
    n = x.shape[0]
    centers = np.empty((j, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, j):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _kmeans_loop_oracle(x, w, j, seed, max_iter=100):
    """One scenario's k-means as a loop: masked mean per cluster, reseed from
    the farthest point; (centers, assignments, scores, sse history)."""
    n = x.shape[0]
    centers = _kmeans_pp_seed_oracle(x, j, np.random.default_rng(seed))
    assign = np.full(n, -1)
    history = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(j):
            members = assign == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                centers[c] = x[int(d2[np.arange(n), assign].argmax())]
    scores = np.array([w[assign == c].sum() for c in range(j)]) / w.sum()
    return centers, assign, scores, history


@st.composite
def _stacks(draw):
    """(S, N, T, 2) trajectories and (S, N) scores, J and a seed. Points drawn
    from a few levels coincide often, which exercises the all-coincident
    seeding draw and emptied clusters; J = N is drawn often too."""
    s, n, t = draw(st.integers(1, 5)), draw(st.integers(1, 10)), draw(st.integers(1, 3))
    j = draw(st.one_of(st.just(n), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 1, 2, 3]))     # 0: continuous points
    trajs = (rng.integers(0, levels, size=(s, n, t, 2)).astype(float) if levels
             else rng.normal(scale=3.0, size=(s, n, t, 2)))
    raw = rng.random((s, n)) + 1e-3
    return trajs, raw / raw.sum(axis=1, keepdims=True), j, draw(st.integers(0, 10**6))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=_stacks())
def test_stacked_kmeans_is_each_scenario_alone(case):
    """One stacked call equals S one-scenario calls on seed + i, and both
    equal the per-scenario loop they replaced."""
    trajs, weights, j, seed = case
    s, n, t, _ = trajs.shape
    stacked = kmeans_trajectories((trajs, weights), j=j, seed=seed + np.arange(s))
    assert stacked.centroids.shape == (s, j, t, 2) and stacked.assignments.shape == (s, n)
    assert len(stacked.sse_history) == max(len(stacked.scenario(i).sse_history)
                                           for i in range(s))
    for i in range(s):
        got = stacked.scenario(i)
        alone = kmeans_trajectories(list(zip((Trajectory(points=p) for p in trajs[i]),
                                             weights[i])), j=j, seed=seed + i)
        np.testing.assert_array_equal(got.assignments, alone.assignments)
        np.testing.assert_array_equal(got.member_counts, alone.member_counts)
        np.testing.assert_allclose(got.centroids, alone.centroids, rtol=1e-12, atol=1e-12)
        assert got.sse_history == alone.sse_history
        assert got.member_counts.sum() == n
        centers, assign, scores, history = _kmeans_loop_oracle(
            trajs[i].reshape(n, -1), weights[i], j, seed + i)
        np.testing.assert_array_equal(got.assignments, assign)
        np.testing.assert_allclose(got.centroids.reshape(j, -1), centers, rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(got.scores, scores, rtol=1e-12, atol=1e-12)
        assert got.sse_history == pytest.approx(history, rel=1e-12, abs=1e-12)
        assert np.all(np.diff(got.sse_history) <= 1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=_stacks())
def test_stacked_seeding_draws_the_centres_of_the_choice_loop(case):
    trajs, _, j, seed = case
    s, n = trajs.shape[:2]
    x = trajs.reshape(s, n, -1)
    got = _seed_centers(x, j, [np.random.default_rng(seed + i) for i in range(s)])
    for i in range(s):
        want = _kmeans_pp_seed_oracle(x[i], j, np.random.default_rng(seed + i))
        np.testing.assert_array_equal(got[i], want)


def test_a_cluster_emptied_between_passes_takes_the_farthest_point():
    """A case where a cluster loses every member between Lloyd passes while
    the points' own distances differ, so the reseed rule decides the
    result (found by search: such cases are rare)."""
    xs = [1.0919570944298147, 1.6428681837460786, -1.1584626672890224, -0.42019690741478677,
          -0.5493572981043358, -0.11737015998253823, -0.011552460595147172]
    pooled = _point_pool([(v, 0.0) for v in xs])
    res = kmeans_trajectories(pooled, j=3, seed=828)
    x = np.array([[v, 0.0] for v in xs])
    centers, assign, scores, history = _kmeans_loop_oracle(x, np.full(7, 1 / 7), 3, 828)
    np.testing.assert_array_equal(res.assignments, assign)
    np.testing.assert_array_equal(res.centroids[:, 0], centers)
    assert list(res.sse_history) == history


def test_emptied_clusters_keep_zero_members():
    """Five coincident points and J=3: the two later centres are drawn onto
    the first, lose every tie to cluster 0 and are reseeded onto it."""
    pooled = _point_pool([(1.0, 2.0)] * 5)
    res = kmeans_trajectories(pooled, j=3, seed=4)
    assert res.member_counts.tolist() == [5, 0, 0]
    assert res.scores.tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(res.centroids[:, 0], [[1.0, 2.0]] * 3)


# recorded from the per-scenario implementation (rng.choice seeding, one masked
# mean per cluster) before k-means ran on stacks; sid -> (centroids, member
# counts, confidences)
_GOLDEN = {
    "g0": ([
        [[1.2461250290711314, 0.6787696312222304],
         [1.8562550293518847, 0.7360573417853989],
         [1.8591510053548046, 0.42741849348076966]],
        [[-0.7694857917439379, 0.8783331328452623],
         [-0.7166199924674037, 1.4963778194070252],
         [-1.2923597184195412, 2.1070344790855806]],
        [[-0.780801191514358, -0.32172506712641036],
         [-1.3133832379175943, -0.9231272526491264],
         [-1.4761048171291726, -0.7556086999336408]],
    ], [3, 2, 3],
        [0.48415502158866014, 0.19010582763588058, 0.3257391507754593]),
    "g1": ([
        [[0.3809661067179167, 1.069989268324982],
         [0.4179407342467971, 0.7621176977129696],
         [0.7687600694020299, 0.8432851384496227]],
        [[-2.5014067590171156, -0.049529303003866015],
         [-2.831551414456418, -0.5689422175713588],
         [-0.5111980336902029, -3.0424807794833857]],
        [[-0.379177203703958, -0.48475623006689533],
         [-0.32079819092094647, -0.029541165482584748],
         [-1.2334970295943883, -0.22068140465006555]],
    ], [4, 1, 3],
        [0.5036328346456107, 0.08771390577841168, 0.4086532595759775]),
    "g2": ([
        [[0.032321169951283, 0.24896022435882276],
         [2.4474553177869107, 1.6661030224903046],
         [3.3971523471113456, 1.8813223845642815]],
        [[0.13368710452089294, -0.6472557784481767],
         [0.17442193942118317, -1.0031202334330527],
         [-0.6226923554584776, -0.8673138519758933]],
        [[-0.12231052856935504, 1.4702796880641213],
         [0.9239953839976618, 0.5878295119551183],
         [1.8051566974549487, 0.9548379847750936]],
    ], [1, 5, 2],
        [0.15903383424168197, 0.6120726387767852, 0.2288935269815328]),
}


def _golden_bank():
    bank = EnsembleBank()
    rng = np.random.default_rng(2024)
    for sid in _GOLDEN:
        for tag in ("m0", "m1"):
            pts = rng.normal(size=(4, 3, 2)).cumsum(axis=1)
            raw = rng.random(4) + 0.1
            bank.add(sid, tag, PredictionSet(trajectories=tuple(Trajectory(points=p) for p in pts),
                                             scores=raw / raw.sum()))
    return bank


def test_cluster_bank_golden():
    """A fixed seeded two-member bank clusters to the recorded values, which
    pins the k-means++ draws to Generator.choice's across numpy upgrades."""
    results = cluster_bank(_golden_bank(), j=3, seed=11)
    assert list(results) == list(_GOLDEN)
    for sid, (centroids, counts, confidences) in _GOLDEN.items():
        np.testing.assert_allclose(results[sid].centroids, centroids, rtol=1e-12)
        assert results[sid].member_counts.tolist() == counts
        np.testing.assert_allclose(results[sid].scores, confidences, rtol=1e-12)


# -- files --------------------------------------------------------------------

def test_pseudo_target_roundtrip(tmp_path):
    bank = _two_model_bank()
    results = cluster_bank(bank, j=2, seed=9)
    path = tmp_path / "targets.jsonl"
    save_pseudo_targets(path, results)
    loaded = load_pseudo_targets(path)
    assert sorted(loaded.keys()) == ["s1", "s2"]
    for sid, res in results.items():
        trajs, confs = loaded[sid]
        np.testing.assert_array_equal(confs, res.scores)
        np.testing.assert_array_equal(trajs, res.centroids)
    lines = path.read_text().splitlines()
    assert [json.loads(l)["scenario_id"] for l in lines] == ["s1", "s2"]


def test_prediction_dump_roundtrip_and_bank(tmp_path):
    preds = prediction_set([[[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [2.0, -1.0]]],
                           scores=[0.75, 0.25])
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    save_prediction_dump(path_a, [("s1", preds.stacked(), preds.scores)])
    save_prediction_dump(path_b, [("s1", preds.stacked(), preds.scores)])
    [(sid, trajs, scores)] = load_prediction_dump(path_a)
    assert sid == "s1"
    np.testing.assert_array_equal(scores, preds.scores)
    np.testing.assert_array_equal(trajs, preds.stacked())
    bank = bank_from_dumps([("m0", path_a), ("m1", path_b)])
    assert bank.tags("s1") == {"m0", "m1"}
    assert len(bank.pooled("s1")[1]) == 4


_GOOD_RECORD = {"scenario_id": "s1", "trajectories": [[[0.0, 0.0], [1.0, 0.5]],
                                                      [[0.0, 0.0], [2.0, -1.0]]],
                "scores": [0.75, 0.25], "dt": 0.1}


@pytest.mark.parametrize("change, message", [
    ({"scores": [0.5, 0.25]}, r" \(s1\): scores must sum to 1, got 0.75$"),
    ({"scores": [1.25, -0.25]}, r" \(s1\): scores must be nonnegative, got \[1.25, -0.25\]$"),
    ({"scores": [0.5, float("inf")]}, r" \(s1\): scores holds a non-finite value$"),
    ({"scores": [1.0]}, r" \(s1\): need one score per trajectory: scores must be \(2,\), "
                        r"got \(1,\)$"),
    ({"scores": [[0.5], [0.5]]}, r" \(s1\): need one score per trajectory: scores must be "
                                 r"\(2,\), got \(2, 1\)$"),
    ({"scores": "ab"}, r" \(s1\): scores must hold only lists and JSON numbers, got 'ab'$"),
    ({"scores": {"a": 1}},
     r" \(s1\): scores must hold only lists and JSON numbers, got \{'a': 1\}$"),
    ({"scores": [10 ** 400, 0.0]}, r" \(s1\): scores holds a number beyond float range$"),
    ({"trajectories": []}, r" \(s1\): trajectories must be \(n, T, 2\) with n, T >= 1, "
                           r"got \(0,\)$"),
    ({"trajectories": [[[0.0, 0.0, 1.0]], [[1.0, 0.0, 1.0]]]},
     r" \(s1\): trajectories must be \(n, T, 2\) with n, T >= 1, got \(2, 1, 3\)$"),
    ({"trajectories": [[[0.0, "x"]], [[1.0, 0.0]]]},
     r" \(s1\): trajectories must hold only lists and JSON numbers, got 'x'$"),
    ({"trajectories": [[["1.5", "0"]], [["2", "1"]]]},
     r" \(s1\): trajectories must hold only lists and JSON numbers, got '1.5'$"),
    ({"trajectories": [[[True, 0.0]], [[1.0, False]]]},
     r" \(s1\): trajectories must hold only lists and JSON numbers, got True$"),
    ({"scores": ["0.5", "0.5"]},
     r" \(s1\): scores must hold only lists and JSON numbers, got '0.5'$"),
    ({"scores": [True, False]},
     r" \(s1\): scores must hold only lists and JSON numbers, got True$"),
    ({"dt": 0}, r" \(s1\): dt must be 0.1, got 0$"),
    ({"dt": True}, r" \(s1\): dt must be 0.1, got True$"),
    ({"scenario_id": "s0"}, r" \(s0\): scenario s0 is also on line 1$"),
    ({"scenario_id": None}, r": missing key 'scenario_id'$"),
    ({"scenario_id": 5}, r" \(5\): scenario_id must be a string$"),
    ({"trajectories": [[[10 ** 400, 0.0]], [[1.0, 0.0]]]},
     r" \(s1\): trajectories holds a number beyond float range$"),
    ({"dt": 0.2}, r" \(s1\): dt must be 0.1, got 0.2$"),
])
def test_prediction_dump_rejects_a_bad_record_naming_file_line_and_scenario(
        tmp_path, change, message):
    path = tmp_path / "dump.jsonl"
    bad = {k: v for k, v in {**_GOOD_RECORD, **change}.items() if v is not None}
    first = json.dumps({**_GOOD_RECORD, "scenario_id": "s0"})
    path.write_text(first + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(MalformedRecord, match=f"^{path}: line 2" + message):
        load_prediction_dump(path)


@pytest.mark.parametrize("sum_line", [2, 3])
def test_prediction_dump_names_the_first_bad_line(tmp_path, sum_line):
    """A record whose scores sum to 0.75 and a line cut off: whichever
    comes first is the one reported, the sum rule too."""
    path = tmp_path / "dump.jsonl"
    short = json.dumps({**_GOOD_RECORD, "scenario_id": "s1", "scores": [0.5, 0.25]})
    cut = json.dumps({**_GOOD_RECORD, "scenario_id": "s2"})[:40]
    lines = [json.dumps({**_GOOD_RECORD, "scenario_id": "s0"}),
             *((short, cut) if sum_line == 2 else (cut, short))]
    path.write_text("\n".join(lines) + "\n")
    message = (r" \(s1\): scores must sum to 1, got 0.75$" if sum_line == 2
               else r": Expecting value")
    with pytest.raises(MalformedRecord, match=f"^{path}: line 2" + message):
        load_prediction_dump(path)


def test_a_scenario_repeated_in_one_file_is_rejected(tmp_path):
    """A dump or pseudo-target file that lists a scenario twice names both
    lines: pooling it would count that member twice, and a pseudo-target
    file would keep only the last entry."""
    dump, other = tmp_path / "dump.jsonl", tmp_path / "other.jsonl"
    rec = ("s1", np.zeros((2, 3, 2)), np.array([0.5, 0.5]))
    save_prediction_dump(dump, [rec, ("s2", *rec[1:]), rec])
    save_prediction_dump(other, [rec])
    with pytest.raises(MalformedRecord, match=f"^{dump}: line 3 \\(s1\\): scenario s1 is also "
                                              f"on line 1$"):
        bank_from_dumps([("m0", dump), ("m1", other)])
    targets = tmp_path / "targets.jsonl"
    line = json.dumps({"scenario_id": "s1", "trajectories": [[[0.0, 0.0]]], "confidences": [1.0]})
    targets.write_text(f"{line}\n\n{line}\n")
    with pytest.raises(MalformedRecord, match=f"^{targets}: line 3 \\(s1\\): scenario s1 is "
                                              f"also on line 1$"):
        load_pseudo_targets(targets)


def test_record_files_skip_blank_lines_and_count_them(tmp_path):
    path = tmp_path / "targets.jsonl"
    good = {"scenario_id": "s1", "trajectories": [[[0.0, 0.0]]], "confidences": [1.0]}
    path.write_text(json.dumps(good) + "\n\n[1, 2]\n")
    with pytest.raises(MalformedRecord, match=f"^{path}: line 3: a record must be a JSON object$"):
        load_pseudo_targets(path)
    path.write_text(json.dumps(good) + "\n\n")
    [(sid, (trajs, confs))] = load_pseudo_targets(path).items()
    assert sid == "s1" and trajs.shape == (1, 1, 2) and confs.tolist() == [1.0]
