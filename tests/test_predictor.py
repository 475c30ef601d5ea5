"""Predictor forward/backward, parameter handling, and checkpoints."""

import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import straight_scenario
from trajcast import data, predictor
from trajcast.core import IDENTITY_FRAME, SceneTransform, Trajectory, Window
from trajcast.predictor import (MalformedCheckpoint, ModelConfig, StaleTrace,
                                WindowBatch,
                                _layer_shapes, backward, forward,
                                init_params, load_checkpoint, predict,
                                refine_backward, refine_forward,
                                save_checkpoint)

SMALL = ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8)


def make_window(scenario=None, maps=None):
    sc = scenario or straight_scenario()
    maps = sc.map_polylines if maps is None else tuple(maps)
    return data.make_window(dataclasses.replace(sc, map_polylines=maps))


def test_featurize_layout():
    win = make_window()
    points = win.batch.points[0]
    assert points.shape == (20 + 50, 5)       # history rows then one 50-point polyline
    np.testing.assert_allclose(points[:20, 2], (np.arange(20) - 19) * 0.1)
    assert np.all(points[:20, 3] == 0.0) and np.all(points[20:, 3] == 1.0)
    assert np.all(points[:, 4] == 1.0)
    # straight track at 10 m/s: agent-frame history runs -19..0 along x
    np.testing.assert_allclose(points[:20, 0], np.arange(-19.0, 1.0), atol=1e-12)
    np.testing.assert_allclose(points[:20, 1], 0.0, atol=1e-12)


def test_init_params_bounds_shapes_determinism():
    a = init_params(SMALL, seed=3)
    b = init_params(SMALL, seed=3)
    c = init_params(SMALL, seed=4)
    declared = dict(_layer_shapes(SMALL))
    assert set(a.keys()) == set(declared)
    any_differs = False
    for name, shape in declared.items():
        assert a[name].shape == shape
        fan_in = shape[0] if len(shape) == 2 else declared[name.replace(".b", ".w")][0]
        assert np.all(np.abs(a[name]) <= math.sqrt(1.0 / fan_in))
        assert np.array_equal(a[name], b[name])
        any_differs = any_differs or not np.array_equal(a[name], c[name])
    assert any_differs


def test_zero_params_zero_outputs_uniform_probs():
    win = make_window()
    for cfg in (SMALL,
                ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8, use_refine=False),
                ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8, use_goal=False)):
        out, _ = forward(init_params(cfg, 0).zeros_like(), cfg, win)
        assert np.all(out["completion"] == 0.0)
        assert np.all(out["offsets"] == 0.0)
        assert np.all(out["refined"] == 0.0)
        assert np.all(out["raw_cls"] == 0.0)
        np.testing.assert_array_equal(out["probs"], np.full(cfg.n_modes, 0.5))


def test_bias_propagates_through_sum_pool():
    """With only enc.b2 set, phi = (number of input points) per channel."""
    win = make_window()
    params = init_params(SMALL, 0).zeros_like()
    params.arrays["enc.b2"][:] = 1.0
    phi = forward(params, SMALL, win)[0]["phi"]
    np.testing.assert_array_equal(phi, np.full(SMALL.feature_dim, 70.0))


def test_map_polyline_order_invariance():
    sc = straight_scenario()
    poly_a = sc.map_polylines[0]
    poly_b = Trajectory(points=sc.target.xy[:30] + np.array([0.0, 3.5]))
    win_ab = make_window(sc, maps=(poly_a, poly_b))
    win_ba = make_window(sc, maps=(poly_b, poly_a))
    params = init_params(SMALL, seed=1)
    out_ab, _ = forward(params, SMALL, win_ab)
    out_ba, _ = forward(params, SMALL, win_ba)
    for key in ("phi", "goals", "completion", "refined", "probs"):
        np.testing.assert_allclose(out_ab[key], out_ba[key], atol=1e-9)


def test_forward_golden_vector():
    """Frozen outputs for seed-0 params on the canonical straight scenario."""
    out, _ = forward(init_params(SMALL, seed=0), SMALL, make_window())
    np.testing.assert_allclose(
        out["phi"][:4],
        [0.0, 130.60136930724775, 90.39975480037654, 145.0598172985647], rtol=1e-12)
    np.testing.assert_allclose(
        out["goals"],
        [[-10.640761411837563, 15.363682029080241],
         [57.7343693328726, -41.320301058231095]], rtol=1e-12)
    np.testing.assert_allclose(
        out["refined"][0],
        [[-5.872841619635835, 12.476366653481872],
         [3.5230054401475153, 9.90115203313814],
         [-18.43849997891857, 9.46470641657264]], rtol=1e-12)
    np.testing.assert_allclose(
        out["raw_cls"], [-2.679796730457845, -2.8430065087121226], rtol=1e-12)
    np.testing.assert_allclose(
        out["probs"], [0.5407121124831552, 0.45928788751684485], rtol=1e-12)


def test_forward_is_bit_reproducible():
    win = make_window()
    params = init_params(SMALL, seed=5)
    out1, _ = forward(params, SMALL, win)
    out2, _ = forward(params, SMALL, win)
    for key, val in out1.items():
        if val is not None:
            np.testing.assert_array_equal(val, out2[key])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_windows=st.integers(2, 5),
       use_goal=st.booleans(), use_refine=st.booleans())
def test_batched_forward_backward_equal_per_window_calls(seed, n_windows, use_goal, use_refine):
    """A WindowBatch through forward and backward gives each window's outputs
    and the sum of its gradients, as one call per window does; the windows
    come from the five-mode mix, so their point counts differ."""
    cfg = ModelConfig(n_modes=3, horizon=30, history_len=20, feature_dim=8,
                      use_goal=use_goal, use_refine=use_refine)
    scenarios = data.generate(data.SyntheticSpec(scenario_count=n_windows, seed=seed))
    windows = [data.make_window(sc) for sc in scenarios]
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    upstream = {"refined": rng.normal(size=(n_windows, 3, 30, 2)),
                "completion": rng.normal(size=(n_windows, 3, 30, 2)),
                "probs": rng.normal(size=(n_windows, 3))}

    out, trace = forward(params, cfg, data.make_window(scenarios))
    grads = backward(params, trace, upstream).flat
    summed = np.zeros_like(grads)
    for i, window in enumerate(windows):
        out_i, trace_i = forward(params, cfg, window)
        for name, value in out_i.items():
            if value is not None:
                np.testing.assert_allclose(out[name][i], value, rtol=1e-12, atol=1e-12)
        summed += backward(params, trace_i, {k: v[i] for k, v in upstream.items()}).flat
    scale = np.abs(summed).max()
    np.testing.assert_allclose(grads, summed, rtol=1e-12, atol=1e-12 * scale)


def _scalar_and_grads(params, cfg, win, w_refined, w_probs):
    out, trace = forward(params, cfg, win)
    value = float((out["refined"] * w_refined).sum() + (out["probs"] * w_probs).sum())
    grads = backward(params, trace, {"refined": w_refined, "probs": w_probs})
    return value, grads


@pytest.mark.parametrize("use_goal,use_refine", [(True, True), (True, False),
                                                 (False, True), (False, False)])
def test_backward_matches_finite_differences(use_goal, use_refine):
    cfg = ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8,
                      use_goal=use_goal, use_refine=use_refine)
    win = make_window()
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(17)
    w_refined = rng.normal(size=(cfg.n_modes, cfg.horizon, 2))
    w_probs = rng.normal(size=cfg.n_modes)
    _, grads = _scalar_and_grads(params, cfg, win, w_refined, w_probs)
    h = 1e-5
    names = sorted(params.keys())
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        up, _ = _scalar_and_grads(params, cfg, win, w_refined, w_probs)
        arr[idx] = orig - h
        dn, _ = _scalar_and_grads(params, cfg, win, w_refined, w_probs)
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        an = grads[name][idx]
        assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (name, idx, an, fd)


def test_backward_zero_upstream_gives_zero_grads():
    win = make_window()
    params = init_params(SMALL, seed=9)
    _, trace = forward(params, SMALL, win)
    grads = backward(params, trace, {})
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_backward_is_deterministic():
    win = make_window()
    params = init_params(SMALL, seed=9)
    _, trace = forward(params, SMALL, win)
    upstream = {"refined": np.ones((2, 3, 2)), "probs": np.array([1.0, -1.0])}
    g1 = backward(params, trace, upstream)
    g2 = backward(params, trace, upstream)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])


def test_stale_trace_detection():
    win = make_window()
    params = init_params(SMALL, seed=9)
    _, trace = forward(params, SMALL, win)
    params.bump()
    with pytest.raises(StaleTrace):
        backward(params, trace, {})
    fresh = params.copy()
    _, trace2 = forward(params, SMALL, win)
    with pytest.raises(StaleTrace):
        backward(fresh, trace2, {})


def test_refine_ignores_anchors_when_anchor_rows_zeroed():
    params = init_params(SMALL, seed=11)
    params.arrays["ref.w0"][: 2 * SMALL.horizon, :] = 0.0
    rng = np.random.default_rng(0)
    hist_flat = rng.normal(size=2 * SMALL.history_len)
    anchors_a = rng.normal(size=(2, 3, 2))
    anchors_b = rng.normal(size=(2, 3, 2))
    off_a, raw_a, trace = refine_forward(params, SMALL, anchors_a, hist_flat)
    off_b, raw_b, _ = refine_forward(params, SMALL, anchors_b, hist_flat)
    np.testing.assert_array_equal(off_a, off_b)
    np.testing.assert_array_equal(raw_a, raw_b)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_anchor = refine_backward(params, SMALL, trace, np.ones((2, 3, 2)),
                               np.ones(2), grads)
    assert np.all(d_anchor == 0.0)


def _assert_predict_list_matches_per_window(params, cfg, batch, windows):
    """predict on the batch stacks what predict gives each of its windows."""
    trajs, scores = predict(params, cfg, batch)
    assert trajs.shape == (len(windows), cfg.n_modes, cfg.horizon, 2)
    assert scores.shape == (len(windows), cfg.n_modes)
    for i, window in enumerate(windows):
        pset = predict(params, cfg, window)
        assert np.array_equal(trajs[i], pset.stacked())
        assert np.array_equal(scores[i], pset.scores)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_scenarios=st.integers(1, 5), use_goal=st.booleans(),
       use_refine=st.booleans())
def test_predict_on_a_list_equals_per_window_predict(seed, n_scenarios, use_goal, use_refine):
    """predict on a WindowBatch stacks what predict gives each window; the
    windows of five-mode-mix scenarios at shifts 0 to 5, with a heading
    jitter per scenario, vary the frames."""
    cfg = ModelConfig(n_modes=3, horizon=30, history_len=20, feature_dim=8,
                      use_goal=use_goal, use_refine=use_refine)
    scenarios = data.generate(data.SyntheticSpec(scenario_count=n_scenarios, seed=seed))
    tfs = [SceneTransform(heading_jitter=0.3 * i) for i in range(n_scenarios)]
    batch = data._batch_windows([data._scenario_arrays(sc, 5) for sc in scenarios],
                                range(6), tfs)[0]
    windows = [Window(scenario_id=str(i), batch=batch[i:i + 1]) for i in range(len(batch))]
    _assert_predict_list_matches_per_window(init_params(cfg, seed=seed), cfg, batch, windows)


@pytest.mark.parametrize("n_windows, blocks", [(1, 1), (63, 1), (64, 1), (65, 2), (130, 3)])
def test_predict_runs_one_forward_per_call(n_windows, blocks):
    """One forward pass per HEAD_BLOCK (64) windows of the input, a short
    last block included, and one for a single Window; none keeps a trace."""
    assert predictor.HEAD_BLOCK == 64
    cfg = ModelConfig(n_modes=2, horizon=30, history_len=20, feature_dim=4)
    scenarios = data.generate(data.SyntheticSpec(scenario_count=n_windows, seed=n_windows))
    windows = [data.make_window(sc) for sc in scenarios]
    params = init_params(cfg, seed=1)
    batch = data.make_window(scenarios)
    with mock.patch.object(predictor, "_forward", wraps=predictor._forward) as fwd:
        predict(params, cfg, batch)
        assert fwd.call_count == blocks
        predict(params, cfg, windows[0])
        assert fwd.call_count == blocks + 1
    assert all(len(call.args[2]) == 64 for call in fwd.call_args_list)
    assert all(call.kwargs == {"keep_trace": False} for call in fwd.call_args_list)
    _assert_predict_list_matches_per_window(params, cfg, batch, windows)


# a split of five-mode-mix scenarios, and default-model parameters at the
# commands' feature_dim (64) and at 32
_SPLIT = data.generate(data.SyntheticSpec(scenario_count=150, seed=20))
_SPLIT_PARAMS = {c: init_params(ModelConfig(feature_dim=c), seed=c) for c in (64, 32)}


@st.composite
def _split_runs(draw):
    """(n, run bounds 0 = b_0 < ... < b_r = n, a few window indices) for
    the first n scenarios of _SPLIT."""
    n = draw(st.integers(1, len(_SPLIT)))
    cuts = draw(st.lists(st.integers(1, n), max_size=6))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return n, sorted({0, n, *cuts}), picks


@settings(max_examples=25, deadline=None)
@given(_split_runs(), st.sampled_from([64, 32]))
@example((150, [0, 64, 70, 150], [0, 69, 149]), 64)
@example((130, [0, 1, 65, 130], [0, 64, 129]), 32)
def test_a_windows_prediction_does_not_depend_on_its_run(case, feature_dim):
    """Cut into any runs, a split's windows get from predict the rows, bit
    for bit, that one call on the whole split gives them (over 64 windows it
    takes several head blocks), and predict on one Window gives its row."""
    n, bounds, picks = case
    cfg, params = ModelConfig(feature_dim=feature_dim), _SPLIT_PARAMS[feature_dim]
    scenarios = _SPLIT[:n]
    trajs, scores = predict(params, cfg, data.make_window(scenarios))
    for start, end in zip(bounds, bounds[1:]):
        run_trajs, run_scores = predict(params, cfg, data.make_window(scenarios[start:end]))
        assert np.array_equal(run_trajs, trajs[start:end])
        assert np.array_equal(run_scores, scores[start:end])
    for i in picks:
        pset = predict(params, cfg, data.make_window(scenarios[i]))
        assert np.array_equal(pset.stacked(), trajs[i])
        assert np.array_equal(pset.scores, scores[i])


# five-mode windows (70, 120 and 170 rows), and the rows of a window without any
_FIVE_MODE = data.make_window(_SPLIT[:40])
_NO_ROWS = np.zeros((0, predictor.FEATURE_DIM))


@settings(max_examples=30, deadline=None)
@given(picks=st.lists(st.integers(-1, len(_FIVE_MODE) - 1), min_size=1, max_size=24),
       feature_dim=st.sampled_from([8, 32, 64]), seed=st.integers(0, 2**16))
def test_encoder_block_size_does_not_change_bits(picks, feature_dim, seed):
    """forward's outputs and backward's gradients have the same bits whether
    the encoder runs one window per block, each row-count group as one block,
    or the default blocks. Pick -1 is a window without rows, as `predict`
    pads a block with."""
    batch = WindowBatch(
        points=tuple(_NO_ROWS if i < 0 else _FIVE_MODE.points[i] for i in picks),
        hist_flat=np.stack([0.0 * _FIVE_MODE.hist_flat[0] if i < 0 else _FIVE_MODE.hist_flat[i]
                            for i in picks]),
        frames=tuple(IDENTITY_FRAME if i < 0 else _FIVE_MODE.frames[i] for i in picks))
    w, cfg = len(picks), ModelConfig(n_modes=3, feature_dim=feature_dim)
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    upstream = {name: rng.normal(size=(w, 3, 30, 2)) for name in ("refined", "completion",
                                                                   "offsets")}
    upstream["probs"] = rng.normal(size=(w, 3))
    runs = []
    for block in (1, 2**62, predictor.ENCODER_BLOCK):
        with mock.patch.object(predictor, "ENCODER_BLOCK", block):
            out, trace = forward(params, cfg, batch)
            runs.append((out, backward(params, trace, upstream).flat,
                         [len(b.slots) for b in trace.encoder]))
    (one_each, one_grads, sizes), (_, _, group_sizes), _ = runs
    assert sizes == [1] * w
    assert len(group_sizes) == len({len(p) for p in batch.points})
    for out, grads, _ in runs[1:]:
        for name, value in one_each.items():
            assert np.array_equal(out[name], value), name
        assert np.array_equal(grads, one_grads)


def test_predict_on_an_empty_list_gives_empty_stacks():
    trajs, scores = predict(init_params(SMALL, seed=0), SMALL, data.make_window([]))
    assert trajs.shape == (0, 2, 3, 2) and scores.shape == (0, 2)


def test_predict_maps_back_to_world_frame():
    sc = straight_scenario()        # heading 0, t=0 position (19, 0)
    win = make_window(sc)
    pset = predict(init_params(SMALL, 0).zeros_like(), SMALL, win)
    assert pset.k == SMALL.n_modes
    for traj in pset.trajectories:
        np.testing.assert_allclose(traj.points, np.full((3, 2), (19.0, 0.0)), atol=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    params = init_params(SMALL, seed=13)
    save_checkpoint(path, params, SMALL, seed=13, epoch=4, extra={"note": "t"})
    loaded, cfg, meta = load_checkpoint(path)
    assert cfg == SMALL
    assert meta == {"seed": 13, "epoch": 4, "extra": {"note": "t"}}
    for name in params.keys():
        np.testing.assert_array_equal(loaded[name], params[name])
    win = make_window()
    out_a, _ = forward(params, SMALL, win)
    out_b, _ = forward(loaded, SMALL, win)
    np.testing.assert_array_equal(out_a["refined"], out_b["refined"])


def test_param_store_views_are_one_flat_vector():
    params = init_params(SMALL, seed=5)
    layout = _layer_shapes(SMALL)
    assert list(params) == [name for name, _ in layout]
    assert [a.shape for a in params.arrays.values()] == [shape for _, shape in layout]
    # writes to flat show in the views, in declared order
    params.flat[:] = np.arange(params.flat.size)
    np.testing.assert_array_equal(
        np.concatenate([params[name].ravel() for name in params]), params.flat)
    # writes through a view, `store[name] =` and `store[name] +=` show in flat
    params.arrays["enc.w1"][0, 0] = -1.0
    params["ref.bcls"] = -2.0
    params["enc.b2"] += 0.5
    offset = dict(zip(params, np.cumsum([0] + [a.size for a in params.arrays.values()])))
    assert params.flat[offset["enc.w1"]] == -1.0
    assert params.flat[offset["ref.bcls"]] == -2.0
    np.testing.assert_array_equal(
        params.flat[offset["enc.b2"]:offset["enc.b2"] + SMALL.feature_dim],
        np.arange(offset["enc.b2"], offset["enc.b2"] + SMALL.feature_dim) + 0.5)


def test_param_store_zeros_like_and_copy_keep_the_layout():
    params = init_params(SMALL, seed=6)
    zeros, clone = params.zeros_like(), params.copy()
    for other in (zeros, clone):
        assert list(other) == list(params)
        assert all(other[name].shape == params[name].shape for name in params)
        assert not np.shares_memory(other.flat, params.flat)
        assert all(np.shares_memory(other[name], other.flat) for name in other)
    assert not zeros.flat.any()
    np.testing.assert_array_equal(clone.flat, params.flat)
    clone.flat += 1.0
    np.testing.assert_array_equal(clone["enc.w1"], params["enc.w1"] + 1.0)


@pytest.mark.parametrize("cfg", [
    SMALL, ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8,
                       use_goal=False, use_refine=False),
], ids=["goal+refine", "base"])
def test_checkpoint_roundtrip_keeps_the_flat_vector(tmp_path, cfg):
    path = tmp_path / "model.json"
    params = init_params(cfg, seed=14)
    save_checkpoint(path, params, cfg, seed=14, epoch=0)
    loaded, _, _ = load_checkpoint(path)
    assert list(loaded) == list(params)
    np.testing.assert_array_equal(loaded.flat, params.flat)


def _rewrite_checkpoint(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


@pytest.mark.parametrize("change, layer", [
    (lambda p: p["params"].pop("ref.w0"), "ref.w0"),
    (lambda p: p["params"].update({"ref.w9": [0.0]}), "ref.w9"),
], ids=["missing", "unknown"])
def test_checkpoint_rejects_missing_or_unknown_layers(tmp_path, change, layer):
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(SMALL, seed=0), SMALL, seed=0, epoch=0)
    _rewrite_checkpoint(path, change)
    with pytest.raises(MalformedCheckpoint, match=f"layer '{layer}'"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_config_its_arrays_disagree_with(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(SMALL, seed=0), SMALL, seed=0, epoch=0)
    _rewrite_checkpoint(path, lambda p: p["model"].update(feature_dim=9))
    with pytest.raises(MalformedCheckpoint, match=r"layer 'enc.w1' is \(5, 8\).*\(5, 9\)"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(SMALL, seed=0), SMALL, seed=0, epoch=0)
    text = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(text)
    with pytest.raises(MalformedCheckpoint, match="unsupported checkpoint version 99$"):
        load_checkpoint(path)


@pytest.mark.parametrize("change, message", [
    (lambda p: [p], "not a JSON object"),
    (lambda p: {**p, "format_version": True}, "unsupported checkpoint version True"),
    (lambda p: {**p, "note": 1}, "unknown key 'note'"),
    (lambda p: {**p, "epoch": "0"}, "'epoch' must be an integer, got '0'"),
    (lambda p: {**p, "extra": None}, "'extra' must be an object, got None"),
    (lambda p: {**p, "model": {**p["model"], "use_goal": 1}},
     "model: 'use_goal' must be true or false, got 1"),
    (lambda p: {**p, "model": {**p["model"], "n_modes": 2.0}},
     "model: 'n_modes' must be an integer, got 2.0"),
    (lambda p: {**p, "model": {k: v for k, v in p["model"].items() if k != "horizon"}},
     "model: no key 'horizon'"),
    (lambda p: {**p, "model": {**p["model"], "feature_dim": 0}},
     "model: need 1 <= feature_dim, got feature_dim=0"),
    (lambda p: {**p, "model": {**p["model"], "history_len": 1}},
     "model: need 2 <= history_len, got history_len=1"),
    (lambda p: {**p, "params": {**p["params"], "enc.w1": p["params"]["enc.w1"][:-1] + [[0.0]]}},
     r"layer 'enc.w1' has rows of unequal lengths, got \[1, 8\]"),
    (lambda p: {**p, "params": {**p["params"], "enc.b1": [None] + p["params"]["enc.b1"][1:]}},
     "layer 'enc.b1' must hold only lists and JSON numbers, got None"),
    (lambda p: {**p, "params": {**p["params"], "enc.b1": [10 ** 400] + p["params"]["enc.b1"][1:]}},
     "layer 'enc.b1' holds a number beyond float range"),
    (lambda p: {**p, "params": {**p["params"], "ref.bcls": [float("-inf")]}},
     "layer 'ref.bcls' holds a non-finite value"),
    (lambda p: {**p, "layer_shapes": {}},
     r"layer_shapes gives 'enc.w1' as 'absent' but the layer is \[5, 8\]"),
    (lambda p: {**p, "layer_shapes": {**p["layer_shapes"], "enc.w1": [5, 9]}},
     r"layer_shapes gives 'enc.w1' as \[5, 9\] but the layer is \[5, 8\]"),
    (lambda p: {**p, "layer_shapes": {**p["layer_shapes"], "enc.b1": [8.0]}},
     r"layer_shapes gives 'enc.b1' as \[8.0\] but the layer is \[8\]"),
    (lambda p: {**p, "layer_shapes": {**p["layer_shapes"], "extra.w": [1]}},
     r"layer_shapes gives 'extra.w' as \[1\] but the layer is undeclared"),
], ids=["list", "version true", "unknown key", "quoted epoch", "null extra", "integer flag",
        "float size", "missing model key", "zero size", "one history frame", "ragged", "null",
        "huge integer", "infinity", "no layer shapes", "wrong layer shape", "float layer shape",
        "undeclared layer shape"])
def test_checkpoint_refuses_what_save_checkpoint_does_not_write(tmp_path, change, message):
    """One reader rule: MalformedCheckpoint names the file and the key or
    layer for every way a file can differ from what save_checkpoint writes."""
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(SMALL, seed=0), SMALL, seed=0, epoch=0)
    path.write_text(json.dumps(change(json.loads(path.read_text())), sort_keys=True))
    with pytest.raises(MalformedCheckpoint, match=f"^{re.escape(str(path))}: {message}$"):
        load_checkpoint(path)
