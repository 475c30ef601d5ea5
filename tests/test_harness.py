"""Training harness: optimizer, config plumbing, evaluation, jitter, grid,
and the CLI workflow end to end."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import straight_scenario
from trajcast import cli, data, ensemble, harness
from trajcast.core import (AgentTrack, MissingTargetFrame, Scenario, SceneTransform,
                           TargetSet, Trajectory, compose_frames, from_frame_xy, heading_frame,
                           to_frame_xy, track_frame)
from trajcast.data import (SyntheticSpec, _batch_windows, _scenario_arrays, generate,
                           make_shift_pair, make_window)
from trajcast.harness import (Adam, NonFiniteLoss, ShapeMismatch, TrainConfig, _scenario_step,
                              branch_coverage, evaluate, jitter_score, lr_at_epoch,
                              make_config, run_grid, table2_rows, train)
from trajcast.matching import SimilarityMatrix, match
from trajcast.metrics import EmptyDataset
from trajcast.predictor import (ModelConfig, ParamStore, featurize, init_params,
                                load_checkpoint, predict, save_checkpoint)

TINY = {"epochs": 2, "batch_size": 4, "k": 2, "feature_dim": 8, "j": 2}


def _tiny_config(**kw):
    merged = {**TINY, **kw}
    return make_config(merged)


def _dataset(mode="straight", count=6, seed=0, noise=0.02):
    mix = {m: (1.0 if m == mode else 0.0) for m in
           ("straight", "turn-left", "turn-right", "lane-change", "junction")}
    return generate(SyntheticSpec(scenario_count=count, mode_mix=mix,
                                  noise_sigma=noise, seed=seed,
                                  branch_probs=(0.5, 0.5)))


def _without_target_frame(scenario, frame):
    """The scenario with its target marked absent at one frame."""
    present = scenario.target.present.copy()
    present[frame] = False
    return dataclasses.replace(
        scenario, agents=(dataclasses.replace(scenario.target, present=present),)
        + scenario.agents[1:])


# -- optimizer ----------------------------------------------------------------

def test_adam_zero_grad_and_zero_lr_leave_params_unchanged():
    params = ParamStore({"w": np.array([1.0, -2.0]), "b": np.array([0.5])})
    before = {k: v.copy() for k, v in params.items()}
    opt = Adam(params)
    opt.step(params, params.zeros_like(), lr=0.1)
    for k in before:
        np.testing.assert_array_equal(params[k], before[k])
    opt.step(params, ParamStore({"w": np.ones(2), "b": np.ones(1)}), lr=0.0)
    for k in before:
        np.testing.assert_array_equal(params[k], before[k])
    assert params.version == 2          # steps still invalidate traces


def test_adam_first_step_closed_form():
    params = ParamStore({"w": np.array([1.0, 2.0])})
    g = np.array([0.5, -2.0])
    opt = Adam(params)
    opt.step(params, ParamStore({"w": g}), lr=0.1)
    expected = np.array([1.0, 2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params["w"], expected, rtol=1e-12)


def test_lr_schedule():
    config = make_config()
    assert lr_at_epoch(config, 0) == 1e-3
    assert lr_at_epoch(config, 14) == 1e-3
    assert lr_at_epoch(config, 15) == pytest.approx(1e-4, rel=1e-12)
    assert lr_at_epoch(config, 30) == pytest.approx(1e-5, rel=1e-12)


# -- config -------------------------------------------------------------------

def test_make_config_defaults():
    assert make_config() == TrainConfig()


def test_make_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 3\n"
                    "# a comment line\n"
                    "lr = 0.01   # trailing comment\n"
                    "use_temp = off\n"
                    "strategy = hungarian\n")
    config = make_config(config_path=path)
    assert config.epochs == 3 and config.lr == 0.01
    assert config.use_temp is False and config.strategy == "hungarian"
    config = make_config({"epochs": "7", "use_temp": "yes"}, config_path=path)
    assert config.epochs == 7 and config.use_temp is True


def test_make_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 3\nmomentum = 0.9\n")
    with pytest.raises(ValueError, match="line 2"):
        make_config(config_path=path)
    with pytest.raises(ValueError, match="unknown config key"):
        make_config({"momentum": 0.9})
    path.write_text("use_temp = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        make_config(config_path=path)


def test_make_config_reports_bad_values_with_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.01\nepochs = abc\n")
    with pytest.raises(ValueError) as exc:
        make_config(config_path=path)
    assert str(exc.value) == f"{path}: line 2: config key 'epochs': cannot parse int from 'abc'"


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_make_config_coerces_every_field_from_text(field, tmp_path):
    default = getattr(TrainConfig(), field.name)
    texts = [str(default)] + ([str(not default)] if isinstance(default, bool) else [])
    # use_refine = False is only valid with the spatial loss off
    base = {} if field.name == "use_spatial" else {"use_spatial": "False"}
    path = tmp_path / "run.cfg"
    for text in texts:
        expected = (text == "True") if isinstance(default, bool) else default
        overrides = {**base, field.name: text}
        path.write_text("".join(f"{key} = {val}\n" for key, val in overrides.items()))
        for config in (make_config(overrides), make_config(config_path=path)):
            value = getattr(config, field.name)
            assert type(value) is type(default) and value == expected, (text, value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(s=0)
    with pytest.raises(ValueError):
        TrainConfig(s=30)                   # needs s < horizon
    with pytest.raises(ValueError):
        TrainConfig(strategy="greedy")
    with pytest.raises(ValueError):
        TrainConfig(criterion="dtw")
    with pytest.raises(ValueError):
        TrainConfig(use_refine=False)       # spatial needs the refine head
    TrainConfig(use_refine=False, use_spatial=False)
    TrainConfig(aug_flip=1.0, aug_scale_lo=0.5, aug_scale_hi=0.5, heading_jitter_deg=0.0,
                spatial_flip_prob=0.0, spatial_noise=0.0)


_BAD_AUGMENT_KEYS = [
    ({"aug_flip": -0.1}, "need 0 <= aug_flip <= 1, got aug_flip=-0.1"),
    ({"aug_flip": 1.5}, "need 0 <= aug_flip <= 1, got aug_flip=1.5"),
    ({"aug_scale_lo": 0.0}, "need 0 < aug_scale_lo <= aug_scale_hi < inf, "
                            "got aug_scale_lo=0.0, aug_scale_hi=1.0"),
    ({"aug_scale_lo": 1.3, "aug_scale_hi": 1.2},
     "need 0 < aug_scale_lo <= aug_scale_hi < inf, got aug_scale_lo=1.3, aug_scale_hi=1.2"),
    ({"aug_scale_hi": float("inf")},
     "need 0 < aug_scale_lo <= aug_scale_hi < inf, got aug_scale_lo=1.0, aug_scale_hi=inf"),
    ({"heading_jitter_deg": -5.0}, "need 0 <= heading_jitter_deg < inf, got -5.0"),
    ({"heading_jitter_deg": float("inf")}, "need 0 <= heading_jitter_deg < inf, got inf"),
    ({"spatial_flip_prob": 1.5}, "need 0 <= spatial_flip_prob <= 1, got spatial_flip_prob=1.5"),
    ({"spatial_flip_prob": -0.5},
     "need 0 <= spatial_flip_prob <= 1, got spatial_flip_prob=-0.5"),
    ({"spatial_noise": -1.0}, "need 0 <= spatial_noise < inf, got -1.0"),
    ({"spatial_noise": float("nan")}, "need 0 <= spatial_noise < inf, got nan"),
    ({"spatial_noise": float("inf")}, "need 0 <= spatial_noise < inf, got inf"),
    ({"spatial_noise": 1e308}, "need spatial_noise <= 1e+06, got 1e+308"),
]


@pytest.mark.parametrize("values, message", _BAD_AUGMENT_KEYS,
                         ids=[",".join(f"{k}={v}" for k, v in values.items())
                              for values, _ in _BAD_AUGMENT_KEYS])
def test_train_config_checks_every_augmentation_and_spatial_key(values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**values)


_WRONG_TYPES = [
    ({"epochs": 1.5}, "config key 'epochs': expected int, got 1.5"),
    ({"batch_size": 2.5}, "config key 'batch_size': expected int, got 2.5"),
    ({"k": 2.0}, "config key 'k': expected int, got 2.0"),
    ({"s": 1.0}, "config key 's': expected int, got 1.0"),
    ({"k": True}, "config key 'k': expected int, got True"),
    ({"use_temp": "no"}, "config key 'use_temp': expected bool, got 'no'"),
    ({"use_mpt": 1}, "config key 'use_mpt': expected bool, got 1"),
    ({"lr": True}, "config key 'lr': expected float, got True"),
    ({"lr": "0.1"}, "config key 'lr': expected float, got '0.1'"),
    ({"strategy": None}, "config key 'strategy': expected str, got None"),
]


@pytest.mark.parametrize("values, message", _WRONG_TYPES,
                         ids=[",".join(f"{k}={v!r}" for k, v in values.items())
                              for values, _ in _WRONG_TYPES])
def test_train_config_refuses_a_value_of_the_wrong_type(values, message):
    """A float count ended in a bare TypeError or IndexError midway through
    train, "no" read as a true toggle and True as a one-mode model.
    make_config passes on what is not text as it is (text it coerces)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**values)
    if not any(isinstance(v, str) for v in values.values()):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_config(values)
    assert TrainConfig(lr=1, aug_scale_hi=2).lr == 1     # a float field takes an int


# -- training -----------------------------------------------------------------

def test_train_records_and_toggles():
    scenarios = _dataset(count=6)
    config = _tiny_config(use_temp=False, use_spatial=False)
    _, _, records = train(config, scenarios)
    assert len(records) == 2 * 2            # 6 scenarios / batch 4 -> 2 steps/epoch
    for rec in records:
        assert set(rec) == {"epoch", "step", "lr", "l_reg", "l_cls",
                            "l_temp", "l_spa", "total", "grad_norm", "param_norm"}
        assert rec["l_temp"] == 0.0 and rec["l_spa"] == 0.0
        assert rec["grad_norm"] > 0.0 and rec["param_norm"] > 0.0
    config = _tiny_config(use_temp=True, use_spatial=True)
    _, _, records = train(config, scenarios)
    assert any(rec["l_temp"] > 0.0 for rec in records)
    assert any(rec["l_spa"] > 0.0 for rec in records)


def test_train_reduces_loss():
    scenarios = _dataset(count=8)
    config = _tiny_config(epochs=10, batch_size=8, feature_dim=16)
    _, _, records = train(config, scenarios)
    first = np.mean([r["total"] for r in records if r["epoch"] == 0])
    last = np.mean([r["total"] for r in records if r["epoch"] == 9])
    assert last < first


def test_train_is_deterministic(tmp_path):
    scenarios = _dataset(mode="junction", count=6)
    logs = []
    stores = []
    for run in range(2):
        log = tmp_path / f"log{run}.jsonl"
        params, _, _ = train(_tiny_config(), scenarios, log_path=log)
        logs.append(log.read_bytes())
        stores.append(params)
    assert logs[0] == logs[1]
    for key in stores[0].keys():
        np.testing.assert_array_equal(stores[0][key], stores[1][key])


def test_train_nonfinite_loss_names_scenario(monkeypatch):
    scenarios = _dataset(count=3)
    # temporal off: its matcher validates costs and would reject inf first
    config = _tiny_config(use_temp=False)

    def infinite_params(model_cfg, seed):
        params = init_params(model_cfg, seed)
        params.arrays["enc.w1"][:] = np.inf
        return params

    monkeypatch.setattr(harness, "init_params", infinite_params)
    with pytest.raises(NonFiniteLoss, match="straight-"), np.errstate(invalid="ignore"):
        train(config, scenarios)


def _pseudo_for(scenarios, j=2, seed=1):
    rng = np.random.default_rng(seed)
    return {sc.scenario_id: (np.stack([sc.gt_future().points + rng.normal(size=(30, 2))
                                       for _ in range(j)]), np.full(j, 1.0 / j))
            for sc in scenarios}


@pytest.mark.parametrize("bad, message", [
    (lambda trajs, confs: (trajs[:1], confs), "2 confidences for 1 trajectories"),
    (lambda trajs, confs: ((np.zeros((29, 2)), trajs[1]), confs),
     r"trajectory 0 must be finite \(30, 2\)"),
    (lambda trajs, confs: ((trajs[0], np.full((30, 2), np.nan)), confs), "trajectory 1"),
    (lambda trajs, confs: (trajs, np.array([0.5, 1.5])), r"confidences must lie in \[0, 1\]"),
    (lambda trajs, confs: (trajs, np.array([np.nan, 0.5])), r"confidences must lie in \[0, 1\]"),
], ids=["count", "shape", "non-finite", "above-one", "nan-confidence"])
def test_train_rejects_bad_pseudo_targets_before_step_0(tmp_path, bad, message):
    scenarios = _dataset(count=6)
    pseudo = _pseudo_for(scenarios)
    late = scenarios[-1].scenario_id
    pseudo[late] = bad(*pseudo[late])
    log = tmp_path / "log.jsonl"
    with pytest.raises(ValueError, match=f"pseudo targets for {late}: {message}"):
        train(_tiny_config(use_mpt=True), scenarios, pseudo_targets=pseudo, log_path=log)
    assert not log.exists()


@pytest.mark.parametrize("named", [{}, {"other-00000"}], ids=["empty", "no-training-id"])
def test_use_mpt_refuses_pseudo_targets_that_cover_no_scenario(tmp_path, named):
    """use_mpt with pseudo targets for no training scenario would log, bit
    for bit, what a use_mpt=false run logs; train and every use_mpt grid row
    refuse it before step 0. One covered scenario is enough."""
    scenarios = _dataset(count=4)
    entry = _pseudo_for(scenarios[:1])[scenarios[0].scenario_id]
    pseudo = {name: entry for name in named}
    log = tmp_path / "log.jsonl"
    message = "use_mpt: no training scenario has a pseudo-target entry$"
    with pytest.raises(ValueError, match=f"^{message}"):
        train(_tiny_config(use_mpt=True), scenarios, pseudo_targets=pseudo, log_path=log)
    assert not log.exists()
    grid = {"base": {**TINY, "epochs": 1},
            "rows": [{"label": "plain"}, {"label": "mpt", "use_mpt": True}]}
    with pytest.raises(ValueError, match=f"^row 'mpt': {message}"):
        run_grid(grid, scenarios, scenarios, pseudo_targets=pseudo)
    records = train(_tiny_config(use_mpt=True, epochs=1), scenarios,
                    pseudo_targets={**pseudo, scenarios[0].scenario_id: entry})[2]
    assert len(records) == 1


@pytest.mark.parametrize("bad", [1.5, np.nan], ids=["above-one", "nan"])
@pytest.mark.parametrize("reader", ["TargetSet", "train", "load_pseudo_targets"])
def test_every_reader_of_a_target_set_refuses_a_confidence_by_one_rule(tmp_path, reader, bad):
    """TargetSet, train (through _scenario_arrays) and the pseudo-target
    file reader all refuse a confidence outside [0, 1], NaN too, with the
    one rule, core.check_confidences; in a file, a NaN is refused first by
    the rule that reads every number there, core.json_array."""
    scenarios = _dataset(count=2)
    trajs = np.stack([sc.gt_future().points for sc in scenarios])
    confs = [0.5, bad]
    rule = rf"confidences must lie in \[0, 1\], got \[.*0\.5, {bad!r}\]$"
    if reader == "TargetSet":
        gt = scenarios[0].gt_future()
        with pytest.raises(ValueError, match=rule):
            TargetSet(targets=(gt, gt, gt), confidences=[1.0, *confs])
    elif reader == "train":
        pseudo = {scenarios[1].scenario_id: (trajs, confs)}
        with pytest.raises(ValueError, match=f"^pseudo targets for {scenarios[1].scenario_id}: "
                                             + rule):
            train(_tiny_config(use_mpt=True), scenarios, pseudo_targets=pseudo)
    else:
        path = tmp_path / "pseudo.jsonl"
        path.write_text(json.dumps({"scenario_id": "s1", "trajectories": trajs.tolist(),
                                    "confidences": confs}) + "\n")
        if np.isnan(bad):
            rule = "confidences holds a non-finite value$"
        with pytest.raises(ensemble.MalformedRecord, match=f"^{path}: line 1 \\(s1\\): " + rule):
            ensemble.load_pseudo_targets(path)


@settings(max_examples=50, deadline=None)
@given(j=st.integers(0, 4), extra=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_build_target_set_and_scenario_arrays_hold_one_target_set(j, extra, seed):
    """ensemble.build_target_set and the training arrays of data._scenario_arrays
    hold the same targets and confidences, J in 0..4 padded to n >= J."""
    sc = _POOL[seed % len(_POOL)]
    rng = np.random.default_rng(seed)
    gt, m, t = sc.gt_future(), sc.history_len, sc.future_len
    cluster = ensemble.ClusterResult(
        centroids=gt.points + rng.normal(size=(j, t, 2)),
        scores=rng.dirichlet(np.ones(j)) if j else np.empty(0),
        member_counts=np.ones(j, dtype=int), assignments=np.arange(j), sse_history=())
    target_set = ensemble.build_target_set(cluster, gt)
    arrays = _scenario_arrays(sc, 0, (cluster.centroids, cluster.scores), j + extra)
    rows = arrays.xy[m:arrays.map_start].reshape(-1, t, 2)
    assert target_set.targets[0] is gt and len(rows) == 1 + j + extra
    np.testing.assert_array_equal(rows[:1 + j], [traj.points for traj in target_set.targets])
    np.testing.assert_array_equal(rows[1 + j:], np.broadcast_to(gt.points, (extra, t, 2)))
    np.testing.assert_array_equal(arrays.confidences[:1 + j], target_set.confidences)
    np.testing.assert_array_equal(arrays.confidences[1 + j:], np.zeros(extra))


def test_train_rejects_missing_target_frames_before_step_0(tmp_path):
    scenarios = _dataset(count=4)
    target = scenarios[-1].target
    present = target.present.copy()
    present[20] = False                 # window B (s=1) ends at frame 20
    late = dataclasses.replace(scenarios[-1], agents=(dataclasses.replace(target, present=present),)
                               + scenarios[-1].agents[1:])
    log = tmp_path / "log.jsonl"
    with pytest.raises(MissingTargetFrame, match=f"{late.scenario_id}: .* frame 20"):
        train(_tiny_config(), scenarios[:-1] + [late], log_path=log)
    assert not log.exists()
    # frame 20 is ground truth, so window A alone needs it too
    with pytest.raises(MissingTargetFrame, match=f"{late.scenario_id}: .* frame 20"):
        train(_tiny_config(epochs=1, use_temp=False), scenarios[:-1] + [late], log_path=log)
    assert not log.exists()
    # without the shifted window, t=-1, t=0 and the future are the only frames
    # the target needs
    present[:] = False
    present[18:] = True
    sparse = dataclasses.replace(late, agents=(dataclasses.replace(target, present=present),)
                                 + late.agents[1:])
    train(_tiny_config(epochs=1, use_temp=False), scenarios[:-1] + [sparse])


def test_train_log_and_checkpoint_are_byte_deterministic(tmp_path):
    """Five-mode mix, flip/scale/heading augmentation, pseudo targets and
    both consistency losses: two runs write the same bytes."""
    scenarios = generate(SyntheticSpec(scenario_count=10, seed=4))
    pseudo = _pseudo_for(scenarios, j=3)
    config = _tiny_config(epochs=2, use_mpt=True, use_temp=True, use_spatial=True,
                          aug_flip=0.5, aug_scale_lo=0.8, aug_scale_hi=1.25,
                          heading_jitter_deg=10.0)
    outputs = []
    for run in range(2):
        log, ckpt = tmp_path / f"log{run}.jsonl", tmp_path / f"ckpt{run}.json"
        train(config, scenarios, pseudo_targets=pseudo, log_path=log, checkpoint_path=ckpt)
        outputs.append((log.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]
    assert all(json.loads(line)["l_temp"] >= 0 for line in outputs[0][0].splitlines())


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(_tiny_config(), [])


# -- gradients of the production training step --------------------------------

@pytest.mark.parametrize("strategy,criterion,s", [("bidirectional", "fde", 1),
                                                  ("hungarian", "ade", 2)])
def test_scenario_step_matches_finite_differences(strategy, criterion, s):
    """Exact gradients of the production batch step harness._scenario_step,
    on two scenarios with different point counts (junction: 2 map
    polylines, straight: 1), every loss term, pseudo targets (one
    scenario has none) and augmentation on; the step's rng is re-created so
    each evaluation draws the same transforms, heading jitters and spatial
    permutations."""
    config = TrainConfig(k=3, feature_dim=8, j=2, s=s, strategy=strategy, criterion=criterion,
                         use_mpt=True, aug_flip=1.0, aug_scale_lo=0.8, aug_scale_hi=1.25,
                         heading_jitter_deg=10.0)
    model_cfg = config.model_config()
    scenarios = [_dataset("junction", count=1, seed=9)[0],
                 _dataset("straight", count=1, seed=4)[0]]
    gt = scenarios[0].gt_future().points
    pseudo = (gt + np.random.default_rng(5).normal(size=(2, *gt.shape)), np.array([0.7, 0.4]))
    batch = [_scenario_arrays(scenarios[0], s, pseudo, 2),
             _scenario_arrays(scenarios[1], s, None, 2)]
    assert len(batch[0].xy) - batch[0].map_start != len(batch[1].xy) - batch[1].map_start
    params = init_params(model_cfg, seed=3)

    def step():
        return _scenario_step(params, model_cfg, config, batch, np.random.default_rng(11))

    parts, grads = step()
    assert parts.shape == (2, 4) and np.all(parts[:, 2:] > 0)   # l_temp, l_spa
    rng = np.random.default_rng(23)
    h = 1e-5
    names = sorted(params.keys())
    worst = 0.0
    for _ in range(100):
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(dim)) for dim in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        up = step()[0].sum()
        arr[idx] = orig - h
        dn = step()[0].sum()
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(grads[name][idx] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-4


def test_scenario_step_over_a_batch_equals_batches_of_one():
    """One rng feeds both: per scenario the batch step draws in the same
    order as a batch of one does."""
    config = TrainConfig(k=3, feature_dim=8, s=2, use_mpt=True, aug_flip=0.5,
                         aug_scale_lo=0.8, aug_scale_hi=1.25, heading_jitter_deg=10.0)
    model_cfg = config.model_config()
    scenarios = generate(SyntheticSpec(scenario_count=4, seed=2))
    pseudo = _pseudo_for(scenarios[:3], j=2)
    batch = [_scenario_arrays(sc, 2, pseudo.get(sc.scenario_id), 2) for sc in scenarios]
    params = init_params(model_cfg, seed=4)
    parts, grads = _scenario_step(params, model_cfg, config, batch, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    summed = np.zeros_like(grads.flat)
    for i, arrays in enumerate(batch):
        parts_i, grads_i = _scenario_step(params, model_cfg, config, [arrays], rng)
        np.testing.assert_allclose(parts[i], parts_i[0], rtol=1e-12)
        summed += grads_i.flat
    np.testing.assert_allclose(grads.flat, summed, rtol=1e-12,
                               atol=1e-12 * np.abs(summed).max())


def _transformed(sc, tf):
    """The scenario with every track and map point flipped and scaled by tf."""
    agents = tuple(AgentTrack(track_id=a.track_id, object_type=a.object_type,
                              xy=tf.apply_xy(a.xy), present=a.present) for a in sc.agents)
    maps = tuple(Trajectory(points=tf.apply_xy(p.points)) for p in sc.map_polylines)
    return Scenario(scenario_id=sc.scenario_id, agents=agents, map_polylines=maps,
                    target_track_id=sc.target_track_id, history_len=sc.history_len,
                    future_len=sc.future_len)


# five-mode mix: 50, 100 and 150 map points, so batches mix row counts
_POOL = generate(SyntheticSpec(scenario_count=12, seed=6))


def _stationary_at(sc, frame):
    """The scenario with its target standing still from frame - 1 to frame."""
    xy = sc.target.xy.copy()
    xy[frame] = xy[frame - 1]
    return dataclasses.replace(sc, agents=(dataclasses.replace(sc.target, xy=xy),)
                               + sc.agents[1:])


@st.composite
def _windowed_batches(draw):
    """(scenarios, pseudo entries or None, transforms, s) for _batch_windows."""
    s = draw(st.integers(0, 3))
    picks = draw(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=5))
    scenarios, entries, tfs = [], [], []
    for idx in picks:
        sc = _POOL[idx]
        still = draw(st.sampled_from([None, 0, s]))  # stationary anchor of window A or B
        if still is not None:
            sc = _stationary_at(sc, sc.history_len + still - 1)
        gap = draw(st.sampled_from([None, 0, 5, 17]))    # a history frame without the target
        if gap is not None:
            sc = _without_target_frame(sc, gap)
        j = draw(st.integers(0, 3))
        entries.append(None if j == 0 else _pseudo_for([sc], j=j, seed=idx)[sc.scenario_id])
        tfs.append(SceneTransform(flip=draw(st.booleans()), scale=draw(st.floats(0.5, 2.0)),
                                  heading_jitter=draw(st.floats(-0.3, 0.3))))
        scenarios.append(sc)
    return scenarios, entries, tfs, s


def _window_oracle(sc, s, heading_jitter=None):
    """The window of sc ending s frames after t=0, framed and laid out on its
    own: the agent frame (`track_frame`, or `heading_frame` with the heading
    jitter), one `to_frame_xy` of its history and map rows, then
    `featurize`. Returns (encoder rows, flattened history, frame)."""
    m, target = sc.history_len, sc.target
    end = m + s - 1
    frame = (track_frame(target, end) if heading_jitter is None
             else heading_frame(target.xy[end - 1], target.xy[end], heading_jitter))
    xy = to_frame_xy(np.concatenate([target.xy[s:m + s], *(p.points for p in sc.map_polylines)]),
                     frame)
    return featurize(xy[:m], target.present[s:m + s], xy[m:]), xy[:m].reshape(-1), frame


def _assert_windows_are(batches, expected):
    """The windows of the WindowBatch runs `batches`, in order, have exactly
    the rows, flattened history and frame of each `_window_oracle` entry."""
    points = [p for batch in batches for p in batch.points]
    assert len(points) == len(expected)
    assert all(np.array_equal(p, rows) for p, (rows, _, _) in zip(points, expected))
    assert np.array_equal(np.concatenate([batch.hist_flat for batch in batches]),
                          np.stack([hist for _, hist, _ in expected]))
    assert tuple(f for batch in batches for f in batch.frames) == tuple(
        frame for _, _, frame in expected)


@settings(max_examples=60, deadline=None)
@given(_windowed_batches())
def test_batch_windows_match_the_window_oracle(case):
    """Every window the batch builder makes has exactly the rows, history
    and frame that `_window_oracle` gives the flipped and scaled Scenario,
    and its targets, and the frame map the step builds from its frames with
    compose_frames, are those of the oracle's frames to 1e-12: mixed row
    counts, pseudo targets on some scenarios, every flip, scale and heading
    jitter, missing history frames, and stationary anchors (the
    STATIONARY_EPS fallback)."""
    scenarios, entries, tfs, s = case
    n_pseudo = max(0 if e is None else len(e[0]) for e in entries)
    batch = [_scenario_arrays(sc, s, e, n_pseudo) for sc, e in zip(scenarios, entries)]
    shifts = (0, s) if s else (0,)
    inputs, targets = _batch_windows(batch, shifts, tfs)
    frame_map = (compose_frames(inputs.frames[len(batch):], inputs.frames[:len(batch)])
                 if s else None)
    moved = [_transformed(sc, tf) for sc, tf in zip(scenarios, tfs)]
    expected = [_window_oracle(sc, shift, tf.heading_jitter)
                for shift in shifts for sc, tf in zip(moved, tfs)]
    _assert_windows_are([inputs], expected)
    for i, (entry, tf, sc) in enumerate(zip(entries, tfs, moved)):
        frame_a, frame_b = expected[i][2], expected[-len(batch) + i][2]
        gt = sc.gt_future().points
        pseudo = [] if entry is None else [tf.apply_xy(p) for p in entry[0]]
        want = [to_frame_xy(p, frame_a) for p in [gt, *pseudo, *([gt] * (n_pseudo - len(pseudo)))]]
        np.testing.assert_allclose(targets[i], want, rtol=1e-12, atol=1e-12)
        if s:
            fmap = compose_frames(frame_b, frame_a)
            np.testing.assert_allclose(frame_map.matrix[i], fmap.matrix, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(frame_map.offset[i], fmap.offset, rtol=1e-12,
                                       atol=1e-12)
    assert frame_map is None if s == 0 else frame_map.offset.shape == (len(batch), 2)


@st.composite
def _scenario_lists(draw):
    """(scenarios, s) for the list forms of make_window and make_shift_pair:
    five-mode mixes, with stationary anchors and missing history frames."""
    s = draw(st.integers(0, 3))
    scenarios = []
    for idx in draw(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=14)):
        sc = _POOL[idx]
        still = draw(st.sampled_from([None, 0, s]))  # stationary anchor of window A or B
        if still is not None:
            sc = _stationary_at(sc, sc.history_len + still - 1)
        gap = draw(st.sampled_from([None, 0, 5, 17]))    # a history frame without the target
        if gap is not None:
            sc = _without_target_frame(sc, gap)
        scenarios.append(sc)
    return scenarios, s


@settings(max_examples=60, deadline=None)
@given(_scenario_lists(), st.integers(1, 11))
def test_window_forms_equal_the_window_oracle(case, chunk):
    """make_window and make_shift_pair, on each run of scenarios the
    commands build at a time (`harness._chunks`, 1 to 11 per run here) and
    on each scenario alone, give exactly the rows, hist_flat and frames
    `_window_oracle` gives each scenario's windows: several shape groups per
    run, missing history frames, stationary anchors, s = 0..3."""
    scenarios, s = case
    with mock.patch.object(harness, "HEAD_BLOCK", chunk):
        runs = harness._chunks(scenarios)
    assert [sc for run in runs for sc in run] == scenarios
    assert max(map(len, runs)) <= chunk
    want_a = [_window_oracle(sc, 0) for sc in scenarios]
    want_b = [_window_oracle(sc, s) for sc in scenarios]
    run_pairs = [make_shift_pair(run, s) for run in runs]
    pairs = [make_shift_pair(sc, s) for sc in scenarios]
    for got, want in (([make_window(run) for run in runs], want_a),
                      ([a for a, _ in run_pairs], want_a), ([b for _, b in run_pairs], want_b),
                      ([make_window(sc).batch for sc in scenarios], want_a),
                      ([a.batch for a, _ in pairs], want_a),
                      ([b.batch for _, b in pairs], want_b)):
        _assert_windows_are(got, want)


# every record of a small run (augmentation, pseudo targets on every other
# scenario, both consistency losses, batch size 4, 2 epochs) as the
# per-scenario step wrote it: epoch, step, lr, l_reg, l_cls, l_temp, l_spa,
# total, grad_norm, param_norm
_GOLDEN_RECORDS = [
    (0, 0, 0.001, 331.45729115154904, 0.04735401256818177, 131.0082185106775,
     12.892810003200935, 475.40567367799565, 1162.383480877647, 8.233629856396682),
    (0, 1, 0.001, 231.92421006860246, 0.058622834080731864, 124.5053711188553,
     7.867241355651363, 364.3554453771898, 903.7370510523626, 8.227130244175205),
    (0, 2, 0.001, 479.53480619926546, 0.04000174805022119, 254.74372136591813,
     0.01335273724900805, 734.3318820504827, 1901.8804012188255, 8.221518089050653),
    (1, 3, 0.001, 328.8857433717401, 0.09819207745034653, 124.82625829448253,
     18.231776150261314, 472.04196989393427, 1221.437819144045, 8.215805721249517),
    (1, 4, 0.001, 199.27203641490235, 0.07196975415585871, 101.3274354204128,
     16.523890609889825, 317.1953321993608, 816.3510296202411, 8.210174812400886),
    (1, 5, 0.001, 314.69311920851146, 0.02095414301666705, 174.0403142704405,
     37.97947775203631, 526.733865374005, 1378.4735485482536, 8.204573045507367),
]


def test_train_golden_records():
    scenarios = generate(SyntheticSpec(scenario_count=10, seed=4))
    pseudo = _pseudo_for(scenarios[::2], j=3)
    config = _tiny_config(use_mpt=True, aug_flip=0.5, aug_scale_lo=0.8, aug_scale_hi=1.25,
                          heading_jitter_deg=10.0, s=2)
    _, _, records = train(config, scenarios, pseudo_targets=pseudo)
    keys = ("epoch", "step", "lr", "l_reg", "l_cls", "l_temp", "l_spa", "total",
            "grad_norm", "param_norm")
    assert [tuple(r[key] for key in keys[:2]) for r in records] == \
        [golden[:2] for golden in _GOLDEN_RECORDS]
    np.testing.assert_allclose([[r[key] for key in keys[2:]] for r in records],
                               [golden[2:] for golden in _GOLDEN_RECORDS], rtol=1e-12)


def test_step_records_are_built_from_one_key_tuple(tmp_path):
    """Each record holds the `STEP_KEYS`, in order, and its total is l_reg +
    l_cls + l_temp + l_spa added in that order; the log holds the same
    records with sorted keys, and `report` reads back their `LOSS_KEYS`."""
    log = tmp_path / "log.jsonl"
    records = train(_tiny_config(), _dataset(count=4), log_path=log)[2]
    assert len(records) == 2
    for r in records:
        assert tuple(r) == harness.STEP_KEYS
        assert r["total"] == r["l_reg"] + r["l_cls"] + r["l_temp"] + r["l_spa"]
        assert r["l_temp"] > 0 and r["l_spa"] > 0
    assert log.read_text().splitlines() == [json.dumps(r, sort_keys=True) for r in records]
    assert cli._log_series(log) == {key: [r[key] for r in records] for key in harness.LOSS_KEYS}


def _desk_like_run():
    """Junction scenarios on the desk model (K=6, C=32) with both
    consistency losses; one scenario has no map, so its window is the 20
    history rows alone. At C=32 a 20-row matmul against a transposed weight
    takes a different BLAS path from one against a contiguous copy of it,
    and with batches of 4 that changes these digests."""
    scenarios = _dataset(mode="junction", count=24, seed=11, noise=0.05)
    scenarios[5] = dataclasses.replace(scenarios[5], map_polylines=())
    config = make_config({"k": 6, "feature_dim": 32, "batch_size": 4, "lr": 3e-3,
                          "epochs": 3, "seed": 7, "s": 2})
    return config, scenarios, None


def _mpt_aug_like_run():
    """Five-mode scenarios with flip, scale and heading augmentation and no
    consistency losses, trained on pseudo-target entries of 1 to 4
    trajectories on two thirds of them, which target_arrays pads to 4."""
    scenarios = generate(SyntheticSpec(scenario_count=24, seed=12))
    rng = np.random.default_rng(3)
    pseudo = {}
    for i, sc in enumerate(scenarios):
        if i % 3:
            j = 1 + i % 4
            pseudo[sc.scenario_id] = (sc.gt_future().points + rng.normal(size=(j, 30, 2)),
                                      rng.dirichlet(np.ones(j)))
    config = make_config({"k": 6, "feature_dim": 32, "batch_size": 8, "lr": 3e-3,
                          "epochs": 3, "seed": 7, "use_temp": False, "use_spatial": False,
                          "use_mpt": True, "aug_flip": 0.5, "aug_scale_lo": 0.8,
                          "aug_scale_hi": 1.25, "heading_jitter_deg": 10.0})
    return config, scenarios, pseudo


# SHA-256 of the training log and the checkpoint, recorded at commit c30b16f,
# before the loss and target kernels went to one pass each
_TRAIN_DIGESTS = {
    "desk-like": (_desk_like_run,
                  "35a40d874ab2a003bc9c7053fd6699dd861a83a5199876ca9f28982a9592a838",
                  "b4681c2c44e9cfe3254a25f890f16d1891bb6abe9abbd708d5342812c93bf363"),
    "mpt-aug-like": (_mpt_aug_like_run,
                     "26c14cb3404e8d9b5dc178331f44af530342d456f5c52396c22484d02d377f47",
                     "854dcf1780beb8f482ab689149ee9bbff26fcdb7b9696f76d3abe8fa0c5c1c3e"),
}


@pytest.mark.parametrize("case", sorted(_TRAIN_DIGESTS))
def test_train_artefacts_match_recorded_digests(tmp_path, case):
    make_run, log_sha, checkpoint_sha = _TRAIN_DIGESTS[case]
    config, scenarios, pseudo = make_run()
    log, checkpoint = tmp_path / "log.jsonl", tmp_path / "model.json"
    train(config, scenarios, pseudo_targets=pseudo, log_path=log, checkpoint_path=checkpoint)
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (log, checkpoint)]
    assert digests == [log_sha, checkpoint_sha]


# -- evaluation / jitter / coverage --------------------------------------------

def test_evaluate_reports_and_shape_check():
    scenarios = _dataset(count=4)
    config = _tiny_config(epochs=1)
    params, model_cfg, _ = train(config, scenarios)
    rep = evaluate(params, model_cfg, scenarios)
    assert rep.n_scenarios == 4
    assert rep.minADE_1 >= rep.minADE_6 >= 0.0
    with pytest.raises(EmptyDataset):
        evaluate(params, model_cfg, [])
    small = straight_scenario(history_len=10, future_len=5)
    with pytest.raises(ShapeMismatch):
        evaluate(params, model_cfg, [small])


def _extrapolating_predictor(batch):
    """One mode per window: its last step continued for 30 steps, score 1."""
    history = batch.hist_flat.reshape(len(batch), -1, 2)
    steps = np.arange(1, 31)[:, None]
    trajs = [from_frame_xy(h[-1] + steps * (h[-1] - h[-2]), frame)
             for h, frame in zip(history, batch.frames)]
    return np.array(trajs)[:, None], np.ones((len(batch), 1))


def test_jitter_zero_for_consistent_predictor():
    scenarios = [straight_scenario()]
    assert jitter_score(_extrapolating_predictor, scenarios, s=2) == 0.0


def test_jitter_hand_value():
    calls = []

    def jumpy(batch):
        """Every window at one point: the origin for each run's nominal
        windows (the first call of a pair), (3, 4) for its shifted ones."""
        offset = np.array([3.0, 4.0]) if len(calls) % 2 else np.zeros(2)
        calls.append(len(batch))
        return np.tile(offset, (len(batch), 1, 30, 1)), np.ones((len(batch), 1))

    assert jitter_score(jumpy, [straight_scenario()], s=1) == 5.0
    with pytest.raises(ValueError):
        jitter_score(jumpy, [], s=1)


def _jitter_reference(predict_fn, scenarios, s):
    """jitter_score as one cost matrix and one match per scenario: each
    matrix is np.linalg.norm's mean overlap ADE, and each scenario adds
    np.mean of a list of its matched costs."""
    total = 0.0
    for chunk in harness._chunks([_scenario_arrays(sc, s) for sc in scenarios]):
        trajs_a, trajs_b = (predict_fn(batch)[0] for batch in make_shift_pair(chunk, s))
        for preds_a, preds_b in zip(trajs_a, trajs_b):
            tail, head = preds_a[:, s:], preds_b[:, :-s]
            cost = np.linalg.norm(tail[:, None] - head[None], axis=-1).mean(axis=-1)
            pairs = match(SimilarityMatrix(cost=cost, criterion="ade"), "bidirectional").pairs
            total += float(np.mean([cost[i, j] for i, j in pairs]))
    return total / len(scenarios)


def _noisy_predictor(k, spacing=1.0):
    """K modes `spacing` m apart that each move by a random amount from one
    call to the next, from 1e-3 to 3 m, so a scenario pairs anywhere from 1
    to K modes (all K when the modes are far apart), with costs of many
    sizes. Each call draws from its own seed, the call's index, so two runs
    of the same calls see the same trajectories."""
    calls = []

    def predict_fn(batch):
        rng = np.random.default_rng(len(calls))
        calls.append(len(batch))
        base = (np.arange(k)[:, None, None] * np.array([1.0, 0.5]) * spacing
                + np.linspace(0, 30, 30)[:, None])
        sigma = 10.0 ** rng.uniform(-3.0, 0.5, (len(batch), k, 1, 1))
        return (base + sigma * rng.normal(size=(len(batch), k, 30, 2)),
                np.ones((len(batch), k)))
    return predict_fn


@functools.lru_cache(maxsize=None)
def _jitter_scenarios(kind):
    mix = {"five-mode": {m: 0.2 for m in data.MODES}, "junction": {"junction": 1.0}}[kind]
    return generate(SyntheticSpec(scenario_count=150, mode_mix=mix, seed=41))


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 150])
@pytest.mark.parametrize("kind", ["five-mode", "junction", "nine modes", "twelve far modes"])
def test_jitter_score_equals_one_mean_per_scenario(kind, count, s):
    """The stacked scoring of each run gives, to the bit, the score of one
    similarity, one match and one np.mean per scenario, added in scenario
    order, for runs that fill, underfill and overflow a head block. Twelve
    modes far apart pair all twelve, which np.mean adds pairwise."""
    scenarios = _jitter_scenarios("junction" if "modes" in kind else kind)[:count]
    if kind == "nine modes":
        predict_fns = _noisy_predictor(9), _noisy_predictor(9)
    elif kind == "twelve far modes":
        predict_fns = _noisy_predictor(12, spacing=1e3), _noisy_predictor(12, spacing=1e3)
    else:
        model_cfg = ModelConfig(feature_dim=8)
        params = init_params(model_cfg, seed=3)
        predict_fns = (lambda batch: predict(params, model_cfg, batch),) * 2
    assert (jitter_score(predict_fns[0], scenarios, s)
            == _jitter_reference(predict_fns[1], scenarios, s))


def test_branch_coverage_bounds():
    scenarios = _dataset(mode="junction", count=4)
    params, model_cfg, _ = train(_tiny_config(epochs=1), scenarios)
    cov = branch_coverage(params, model_cfg, scenarios)
    assert 0.0 <= cov <= 1.0
    with pytest.raises(ValueError):
        branch_coverage(params, model_cfg, _dataset(mode="straight", count=2))


@pytest.mark.parametrize("command", ["evaluate", "jitter", "branch_coverage"])
def test_scenarios_are_all_checked_before_the_first_prediction(monkeypatch, command):
    scenarios = _dataset(mode="junction", count=3)
    last = scenarios[-1]
    scenarios[-1] = _without_target_frame(last, 18)
    model_cfg = _tiny_config().model_config()
    params = init_params(model_cfg, seed=0)
    calls = []

    def counted(params, model_cfg, batch):
        calls.append(len(batch))
        return predict(params, model_cfg, batch)

    monkeypatch.setattr(harness, "predict", counted)
    run = {"evaluate": lambda: evaluate(params, model_cfg, scenarios),
           "jitter": lambda: jitter_score(lambda w: counted(params, model_cfg, w), scenarios, 1),
           "branch_coverage": lambda: branch_coverage(params, model_cfg, scenarios)}[command]
    with pytest.raises(MissingTargetFrame, match=f"^{last.scenario_id}: .* frame 18$"):
        run()
    assert calls == []


@pytest.mark.parametrize("command", ["train", "evaluate", "jitter", "ensemble-dump",
                                     "branch_coverage"])
def test_an_absent_future_frame_stops_every_command_before_any_output(
        tmp_path, monkeypatch, command):
    """The last scenario's target is absent at future frame 37. load_csv pads
    that frame with a neighbour, but the ground truth there would be
    supervised and scored as if observed, so each command stops naming the
    scenario before it predicts or writes anything."""
    scenarios = _dataset(mode="junction", count=3)
    scenarios[-1] = _without_target_frame(scenarios[-1], 37)
    data.save_dataset(scenarios, tmp_path / "ds", val_fraction=0.0)
    loaded = data.load_manifest(tmp_path / "ds" / "manifest.json", split="train")
    assert not loaded[-1].target.present[37]
    model_cfg = _tiny_config().model_config()
    params = init_params(model_cfg, seed=0)
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, params, model_cfg, seed=0, epoch=0)
    out = tmp_path / "out"
    calls = []
    monkeypatch.setattr(harness, "predict", lambda *args: calls.append(args))
    run = {"train": lambda: train(_tiny_config(use_temp=False), loaded, log_path=out,
                                  checkpoint_path=out),
           "evaluate": lambda: evaluate(params, model_cfg, loaded, dump_path=out),
           "jitter": lambda: jitter_score(lambda w: calls.append(w), loaded, 1),
           "ensemble-dump": lambda: harness.dump_checkpoint(ckpt, loaded, out),
           "branch_coverage": lambda: branch_coverage(params, model_cfg, loaded)}[command]
    with pytest.raises(MissingTargetFrame,
                       match=f"^{scenarios[-1].scenario_id}: track agent-0 absent at frame 37$"):
        run()
    assert calls == [] and not out.exists()


# the inference commands on 80 five-mode-mix scenarios (a run of 64 and a
# run of 16, which predict pads to one head block) and an untrained
# checkpoint of the default model; the report and jitter values are those
# the per-window path wrote (each window cut as a Window and laid out by
# featurize on its own), the dump digest is that of 64-window head blocks
_GOLDEN_JITTER = {1: 30.874456478304477, 3: 28.07519889333845}
_GOLDEN_REPORT = {"MR_1": 1.0, "MR_6": 1.0, "brier_minFDE_6": 20.56800442415979,
                  "minADE_1": 25.253547179922755, "minADE_6": 25.09982523923075,
                  "minFDE_1": 20.111788726158796, "minFDE_6": 19.882705417646726,
                  "n_scenarios": 80}
_GOLDEN_DUMP_SHA256 = "72c250b7a892f5e567266d04512d82a512d8e2c9f6119bb69e91be7b9e16c94d"


def test_inference_commands_match_recorded_outputs(tmp_path):
    ds = tmp_path / "ds"
    data.save_dataset(generate(SyntheticSpec(scenario_count=80, seed=31)), ds, val_fraction=0.0)
    model_cfg = ModelConfig()
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, init_params(model_cfg, seed=5), model_cfg, seed=5, epoch=0)
    source = ["--checkpoint", ckpt, "--data", ds, "--split", "train"]

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([str(a) for a in [*argv[:1], *source, *argv[1:]]]) == 0
        return out.getvalue()

    run("evaluate", "--report", tmp_path / "report.json", "--dump", tmp_path / "eval.jsonl")
    run("ensemble-dump", "--out", tmp_path / "dump.jsonl")
    assert json.loads((tmp_path / "report.json").read_text()) == _GOLDEN_REPORT
    for dump in ("eval.jsonl", "dump.jsonl"):
        assert hashlib.sha256((tmp_path / dump).read_bytes()).hexdigest() == _GOLDEN_DUMP_SHA256
    for s, value in _GOLDEN_JITTER.items():
        assert json.loads(run("jitter", "--s", s)) == {"jitter": value, "s": s}


# `cluster` on the dumps of two untrained checkpoints, as it wrote them before
# the dump and pseudo-target files shared one record writer
_GOLDEN_PSEUDO_SHA256 = "305502c25d9d241e18e2ae0444d6f32cb8473ada6a5b7a6bdc6bef6cdc5d3dba"


def test_cluster_writes_the_recorded_pseudo_targets(tmp_path):
    ds = tmp_path / "ds"
    data.save_dataset(generate(SyntheticSpec(scenario_count=12, seed=31)), ds, val_fraction=0.0)
    model_cfg = ModelConfig(feature_dim=16)
    dumps = []
    for seed in (5, 6):
        ckpt, dump = tmp_path / f"model{seed}.json", tmp_path / f"dump{seed}.jsonl"
        save_checkpoint(ckpt, init_params(model_cfg, seed=seed), model_cfg, seed=seed, epoch=0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ensemble-dump", "--checkpoint", str(ckpt), "--data", str(ds),
                             "--out", str(dump)]) == 0
        dumps += ["--dump", f"m{seed}={dump}"]
    out = tmp_path / "pseudo.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["cluster", *dumps, "--j", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_PSEUDO_SHA256


def test_library_and_cli_give_the_same_pseudo_targets(tmp_path):
    """A bank of single-window `predict` calls, as the acceptance test builds
    it, holds the `ensemble-dump` rows bit for bit, and `cluster_bank` on it
    writes the file `trajcast cluster` writes: 70 scenarios, so the dump
    predicts a run of 64 and a run of 6."""
    ds = tmp_path / "ds"
    data.save_dataset(generate(SyntheticSpec(scenario_count=70, seed=32)), ds, val_fraction=0.0)
    scenarios = data.load_manifest(ds / "manifest.json", split="train")
    model_cfg = ModelConfig()
    bank, dumps = ensemble.EnsembleBank(), []
    for seed in (5, 6):
        params = init_params(model_cfg, seed=seed)
        ckpt, dump = tmp_path / f"model{seed}.json", tmp_path / f"dump{seed}.jsonl"
        save_checkpoint(ckpt, params, model_cfg, seed=seed, epoch=0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ensemble-dump", "--checkpoint", str(ckpt), "--data", str(ds),
                             "--out", str(dump)]) == 0
        rows = ensemble.load_prediction_dump(dump)
        assert [sid for sid, _, _ in rows] == [sc.scenario_id for sc in scenarios]
        for sc, (_, trajs, scores) in zip(scenarios, rows):
            pset = predict(params, model_cfg, make_shift_pair(sc, 0)[0])
            assert np.array_equal(pset.stacked(), trajs) and np.array_equal(pset.scores, scores)
            bank.add(sc.scenario_id, f"m{seed}", pset)
        dumps += ["--dump", f"m{seed}={dump}"]
    ensemble.save_pseudo_targets(tmp_path / "library.jsonl",
                                 ensemble.cluster_bank(bank, j=3, seed=7))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["cluster", *dumps, "--j", "3", "--seed", "7",
                         "--out", str(tmp_path / "cli.jsonl")]) == 0
    assert (tmp_path / "library.jsonl").read_bytes() == (tmp_path / "cli.jsonl").read_bytes()


@pytest.mark.parametrize("command, flags", [
    ("evaluate", ["--report", "{out}", "--dump", "{dump}"]),
    ("ensemble-dump", ["--out", "{out}"]),
    ("jitter", ["--s", "1"]),
])
@pytest.mark.parametrize("value", [np.nan, 1e308])
def test_commands_refuse_a_non_finite_prediction(tmp_path, monkeypatch, capsys, command,
                                                 flags, value):
    """Parameters with one NaN in enc.w1, or one value whose products
    overflow, predict NaN or inf for every window: each inference command
    stops naming the first scenario, writes nothing, and numpy warns of
    nothing on the way. The value is put in after loading, as the checkpoint
    reader refuses a file that holds a NaN."""
    paths = _cli_inputs(tmp_path)

    def load_with_a_bad_value(path):
        params, model_cfg, meta = load_checkpoint(path)
        params["enc.w1"][0, 0] = value
        return params, model_cfg, meta

    monkeypatch.setattr(harness, "load_checkpoint", load_with_a_bad_value)
    first = data.load_manifest(paths["ds"] / "manifest.json", split="val")[0].scenario_id
    argv = [command, "--checkpoint", "{ckpt}", "--data", "{ds}", "--split", "val", *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit, match=f"^{command}: {first}: the model predicts "
                                             f"non-finite trajectories or scores$"):
            cli.main([a.format(**paths) for a in argv])
    assert not paths["out"].exists() and not paths["dump"].exists()
    assert capsys.readouterr().out == ""


def test_a_non_finite_prediction_is_refused_by_its_scenario(monkeypatch):
    """The scenario named is the first whose trajectories or scores are not
    finite, in any run: here the third of the second run, by its score in
    evaluate and by its shifted window's trajectory in jitter."""
    scenarios = _dataset(count=harness.HEAD_BLOCK + 4)
    model_cfg = _tiny_config().model_config()
    params = init_params(model_cfg, seed=0)
    bad = harness.HEAD_BLOCK + 2

    def inf_score_in_the_short_run(*args):
        trajs, scores = predict(*args)
        if len(scores) < harness.HEAD_BLOCK:
            scores[2, 1] = np.inf
        return trajs, scores

    monkeypatch.setattr(harness, "predict", inf_score_in_the_short_run)
    with pytest.raises(harness.NonFinitePrediction, match=f"^{scenarios[bad].scenario_id}: "):
        evaluate(params, model_cfg, scenarios)
    calls = []

    def nan_in_the_second_shifted_run(batch):
        trajs, scores = predict(params, model_cfg, batch)
        calls.append(len(batch))
        if len(calls) == 4:
            trajs[2, 0, 5, 1] = np.nan
        return trajs, scores

    with pytest.raises(harness.NonFinitePrediction, match=f"^{scenarios[bad].scenario_id}: "):
        jitter_score(nan_in_the_second_shifted_run, scenarios, 1)
    assert calls == [harness.HEAD_BLOCK, harness.HEAD_BLOCK, 4, 4]


def test_commands_cut_and_lay_out_no_window_on_its_own(tmp_path, monkeypatch):
    """evaluate, dump_checkpoint, jitter_checkpoint and branch_coverage take
    their windows from the list forms of make_window and make_shift_pair,
    never from the single-scenario forms, which build one Window at a time."""
    scenarios = _dataset(mode="junction", count=5)
    model_cfg = _tiny_config().model_config()
    params = init_params(model_cfg, seed=0)
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, params, model_cfg, seed=0, epoch=0)

    def refuse(*args, **kwargs):
        raise AssertionError("a window was cut and laid out on its own")

    monkeypatch.setattr(data, "Window", refuse)
    assert evaluate(params, model_cfg, scenarios).n_scenarios == 5
    harness.dump_checkpoint(ckpt, scenarios, tmp_path / "dump.jsonl")
    assert harness.jitter_checkpoint(ckpt, scenarios, 2) >= 0.0
    assert 0.0 <= branch_coverage(params, model_cfg, scenarios) <= 1.0


def _count_window_checks(monkeypatch) -> list:
    """The scenario ids data.check_windows is called on, from now on."""
    calls, real = [], data.check_windows

    def counting(scenario, s=0):
        calls.append(scenario.scenario_id)
        return real(scenario, s)

    monkeypatch.setattr(data, "check_windows", counting)
    monkeypatch.setattr(harness, "check_windows", counting)
    return calls


_COMMANDS = {
    "train": lambda ckpt, scenarios, out: train(_tiny_config(epochs=1), scenarios),
    "evaluate": lambda ckpt, scenarios, out: harness.evaluate_checkpoint(ckpt, scenarios),
    "dump_checkpoint": lambda ckpt, scenarios, out: harness.dump_checkpoint(ckpt, scenarios, out),
    "jitter_checkpoint": lambda ckpt, scenarios, out: harness.jitter_checkpoint(ckpt, scenarios, 1),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_commands_check_each_scenario_once_before_any_work(tmp_path, monkeypatch, command):
    """Each command checks each scenario's windows once, and all of them
    before the first prediction or training step: 66 scenarios, so the bad
    one is in the second run of `_chunks`."""
    scenarios = _dataset(count=harness.HEAD_BLOCK + 2)
    model_cfg = _tiny_config().model_config()
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, init_params(model_cfg, seed=0), model_cfg, seed=0, epoch=0)
    run = _COMMANDS[command]
    calls = _count_window_checks(monkeypatch)
    run(ckpt, scenarios, tmp_path / "dump.jsonl")
    assert calls == [sc.scenario_id for sc in scenarios]

    def refuse(*args):
        raise AssertionError("work began before every scenario was checked")

    monkeypatch.setattr(harness, "predict", refuse)
    monkeypatch.setattr(harness, "_scenario_step", refuse)
    calls.clear()
    bad = scenarios[:-1] + [_without_target_frame(scenarios[-1], 25)]
    with pytest.raises(MissingTargetFrame, match=f"^{bad[-1].scenario_id}: "):
        run(ckpt, bad, tmp_path / "dump.jsonl")
    assert calls == [sc.scenario_id for sc in scenarios]


# -- grid ---------------------------------------------------------------------

def test_table2_rows_shape():
    rows = table2_rows()
    assert len(rows) == 7
    assert rows[0]["label"] == "base"
    assert not any(rows[0][t] for t in ("use_goal", "use_refine", "use_temp",
                                        "use_spatial", "use_mpt"))
    assert rows[-1]["label"] == "full"
    assert all(rows[-1][t] for t in ("use_goal", "use_refine", "use_temp",
                                     "use_spatial", "use_mpt"))


def test_run_grid_single_row_deterministic(tmp_path):
    scenarios = _dataset(count=4)
    grid = {"base": {**TINY, "epochs": 1},
            "rows": [{"label": "plain", "use_temp": False, "use_spatial": False}]}
    outputs = []
    for run in range(2):
        out_csv = tmp_path / f"grid{run}.csv"
        rows = run_grid(grid, scenarios, scenarios, out_csv=out_csv)
        outputs.append((rows, out_csv.read_bytes()))
    rows, _ = outputs[0]
    assert rows[0]["label"] == "plain"
    assert rows[0]["temp"] is False and rows[0]["goal"] is True
    assert "minFDE_6" in rows[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("split, frame", [("train", 20), ("eval", 18)])
def test_run_grid_checks_both_splits_before_the_first_train(monkeypatch, split, frame):
    """The last scenario of one split lacks a target frame: frame 20 is
    ground truth (and ends the second row's shifted window); frame 18 matters
    to evaluation. Either stops the grid before any row trains."""
    scenarios = _dataset(count=4)
    gappy = scenarios[:-1] + [_without_target_frame(scenarios[-1], frame)]
    splits = {"train": (gappy, scenarios), "eval": (scenarios, gappy)}[split]
    grid = {"base": {**TINY, "epochs": 1},
            "rows": [{"label": "plain", "use_temp": False, "use_spatial": False},
                     {"label": "temp"}]}
    calls = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args))
    message = f"^{scenarios[-1].scenario_id}: .* frame {frame}$"
    with pytest.raises(MissingTargetFrame, match=message):
        run_grid(grid, *splits)
    assert calls == []


def test_run_grid_checks_every_row_config_before_the_first_train(monkeypatch):
    scenarios = _dataset(count=4)
    grid = {"base": {**TINY, "epochs": 1},
            "rows": [{"label": "plain"}, {"label": "flipped", "aug_flip": 2.0}]}
    calls = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="aug_flip"):
        run_grid(grid, scenarios, scenarios)
    assert calls == []


def test_run_grid_requires_pseudo_targets_for_mpt():
    scenarios = _dataset(count=4)
    grid = {"base": {**TINY, "epochs": 1}, "rows": [{"label": "m", "use_mpt": True}]}
    with pytest.raises(ValueError, match="pseudo"):
        run_grid(grid, scenarios, scenarios)


# -- CLI ----------------------------------------------------------------------

def test_cli_workflow(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert cli.main(["generate", "--out", str(ds), "--count", "8",
                     "--mode-mix", "junction=1.0", "--branch-probs", "0.5,0.5",
                     "--noise", "0.02", "--val-fraction", "0.25"]) == 0
    assert (ds / "manifest.json").exists()
    assert len(list(ds.glob("*.csv"))) == 8

    ckpt = tmp_path / "model.json"
    log = tmp_path / "log.jsonl"
    tiny = ["--set", "epochs=2", "--set", "k=2", "--set", "feature_dim=8",
            "--set", "batch_size=4", "--set", "j=2"]
    assert cli.main(["train", "--data", str(ds), "--out", str(ckpt),
                     "--log", str(log)] + tiny) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(out)["steps"] == 4
    assert ckpt.exists() and log.exists()

    report_path = tmp_path / "report.json"
    dump0 = tmp_path / "dump0.jsonl"
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(ds),
                     "--split", "val", "--report", str(report_path),
                     "--dump", str(dump0)]) == 0
    rep = json.loads(report_path.read_text())
    assert "minFDE_6" in rep and rep["n_scenarios"] == 2

    assert cli.main(["jitter", "--checkpoint", str(ckpt), "--data", str(ds),
                     "--split", "val", "--s", "1"]) == 0
    jit = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert jit["jitter"] >= 0.0

    dump_a = tmp_path / "a.jsonl"
    assert cli.main(["ensemble-dump", "--checkpoint", str(ckpt), "--data", str(ds),
                     "--split", "train", "--out", str(dump_a)]) == 0
    targets = tmp_path / "targets.jsonl"
    assert cli.main(["cluster", "--dump", f"m0={dump_a}", "--dump", f"m1={dump_a}",
                     "--j", "2", "--out", str(targets)]) == 0
    assert targets.exists()

    ckpt2 = tmp_path / "model-mpt.json"
    assert cli.main(["train", "--data", str(ds), "--out", str(ckpt2),
                     "--pseudo-targets", str(targets),
                     "--set", "use_mpt=true"] + tiny) == 0

    grid_csv = tmp_path / "grid.csv"
    assert cli.main(["grid", "--data", str(ds), "--preset", "table2",
                     "--pseudo-targets", str(targets), "--out", str(grid_csv),
                     "--set", "epochs=1", "--set", "k=2", "--set", "feature_dim=8",
                     "--set", "j=2", "--set", "batch_size=4"]) == 0
    lines = grid_csv.read_text().splitlines()
    assert len(lines) == 8 and lines[0].startswith("label,")

    chart = tmp_path / "loss.svg"
    assert cli.main(["report", "--log", str(log), "--out", str(chart)]) == 0
    assert chart.read_text().startswith("<svg")


# Generates a dataset into argv[1], then trains on it (default model, C=64,
# so the parameter vector is long enough for threaded BLAS reductions),
# evaluates with a dump, dumps again, measures jitter and clusters the dumps.
_CLI_CHAIN = """
import contextlib, os, sys
from pathlib import Path
from trajcast import cli

out = Path(sys.argv[1])
ds, ckpt = out / "ds", out / "model.json"

def run(*argv, stdout=os.devnull):
    with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
        cli.main([str(a) for a in argv])

run("generate", "--out", ds, "--count", "48", "--mode-mix", "junction=1.0")
run("train", "--data", ds, "--out", ckpt, "--log", out / "train.log",
    "--set", "epochs=2", "--set", "batch_size=16")
run("evaluate", "--checkpoint", ckpt, "--data", ds, "--report", out / "report.json",
    "--dump", out / "eval.jsonl")
run("ensemble-dump", "--checkpoint", ckpt, "--data", ds, "--out", out / "train.jsonl")
run("jitter", "--checkpoint", ckpt, "--data", ds, "--s", "2", stdout=out / "jitter.json")
run("cluster", "--dump", f"a={out / 'train.jsonl'}", "--dump", f"b={out / 'train.jsonl'}",
    "--j", "4", "--out", out / "pseudo.jsonl")
"""


def test_cli_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The command chain run with one and with two BLAS threads writes the
    same bytes: log, checkpoint, report, dumps, jitter and pseudo targets."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", _CLI_CHAIN, str(out)], env=env, check=True,
                       timeout=300)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
    assert sorted(outputs[0]) == ["eval.jsonl", "jitter.json", "model.json", "pseudo.jsonl",
                                  "report.json", "train.jsonl", "train.log"]
    for name, content in outputs[0].items():
        assert content == outputs[1][name], name


# Runs evaluate, ensemble-dump, jitter and cluster on the checkpoint argv[1]
# and the dataset argv[2], writing under argv[3], and prints after the import
# and after each command whether numpy.ma has been imported.
_INFERENCE_CHAIN = """
import contextlib, io, sys
from pathlib import Path
from trajcast import cli

ckpt, ds, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
source = ["--checkpoint", ckpt, "--data", ds, "--split", "val"]
commands = [["evaluate", *source, "--report", out / "report.json"],
            ["ensemble-dump", *source, "--out", out / "dump.jsonl"],
            ["jitter", *source, "--s", "1"],
            ["cluster", "--dump", f"a={out / 'dump.jsonl'}", "--dump", f"b={out / 'dump.jsonl'}",
             "--j", "2", "--out", out / "pseudo.jsonl"]]
print("numpy.ma" in sys.modules)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0
    print("numpy.ma" in sys.modules)
"""


def test_inference_commands_leave_numpy_ma_unimported(tmp_path):
    """numpy.ma adds about 1.2 MB to the peak RSS of a command; a first call
    of np.unique, for one, imports it."""
    paths = _cli_inputs(tmp_path)
    paths["out"].mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", _INFERENCE_CHAIN, str(paths["ckpt"]),
                             str(paths["ds"]), str(paths["out"])], env=env, check=True,
                            capture_output=True, text=True, timeout=300)
    assert result.stdout.split() == ["False"] * 5
    assert (paths["out"] / "pseudo.jsonl").exists()


# Trains on four scenarios, then runs ten rounds of a training step's
# allocation pattern (40 arrays of 200 KiB, written, then all freed) and
# prints each round's minor page faults.
_HEAP_ROUNDS = """
import resource
import numpy as np
from trajcast import data, harness

spec = data.SyntheticSpec(scenario_count=4, mode_mix={"straight": 1.0}, seed=0)
harness.train(harness.make_config({"k": 2, "feature_dim": 4, "batch_size": 4, "epochs": 1}),
              data.generate(spec))
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(25_600) for _ in range(40)]
    del arrays
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="fixes glibc's thresholds")
def test_after_train_freed_arrays_stay_in_the_heap(tmp_path):
    """With glibc's default thresholds each round gives its 8 MB back and
    faults it in again, about 1,900 faults a round; after `train` fixes
    them, only the first round faults."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", _HEAP_ROUNDS], env=env, check=True,
                            capture_output=True, text=True, timeout=300)
    faults = [int(n) for n in result.stdout.split()]
    assert len(faults) == 10 and sum(faults[2:]) < 800, faults


@pytest.mark.parametrize("mix", ["junction", "junction=1,straight"])
def test_cli_generate_rejects_mode_mix_without_weight(tmp_path, mix):
    with pytest.raises(SystemExit, match="--mode-mix expects name=weight"):
        cli.main(["generate", "--out", str(tmp_path / "ds"), "--mode-mix", mix])
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("argv, flag", [
    (["evaluate", "--checkpoint", "{missing}", "--data", "{ds}"], "--checkpoint"),
    (["evaluate", "--checkpoint", "{ckpt}", "--data", "{missing}"], "--data"),
    (["jitter", "--checkpoint", "{missing}", "--data", "{ds}"], "--checkpoint"),
    (["train", "--data", "{missing}", "--out", "{out}"], "--data"),
    (["train", "--data", "{empty}", "--out", "{out}"], "--data"),
    (["train", "--data", "{ds}", "--out", "{out}", "--config", "{missing}"], "--config"),
    (["train", "--data", "{ds}", "--out", "{out}", "--pseudo-targets", "{missing}"],
     "--pseudo-targets"),
    (["grid", "--data", "{ds}", "--preset", "table2", "--pseudo-targets", "{missing}"],
     "--pseudo-targets"),
], ids=lambda v: " ".join(v[:1] + [a for a in v if a.startswith("--")]) if isinstance(v, list)
   else None)
def test_cli_rejects_missing_input_files(tmp_path, argv, flag):
    ds = tmp_path / "ds"
    data.save_dataset(_dataset(count=2), ds)
    ckpt = tmp_path / "model.json"
    ckpt.write_text("{}")
    (tmp_path / "empty").mkdir()
    paths = {"missing": tmp_path / "missing.json", "ds": ds, "ckpt": ckpt,
             "empty": tmp_path / "empty", "out": tmp_path / "out.json"}
    argv = [a.format(**paths) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    message = str(exc.value)
    assert message.startswith(f"{argv[0]}: {flag} ") and "no such file" in message
    assert "\n" not in message
    assert not (tmp_path / "out.json").exists()


def _cli_inputs(tmp_path) -> dict:
    """Inputs for the CLI error tests: a dataset of four straight scenarios
    (the last two are the val split), a copy whose last scenario lacks target
    frame 18, an untrained tiny checkpoint and a pseudo-target file holding a
    29-step trajectory."""
    scenarios = _dataset(count=4)
    data.save_dataset(scenarios, tmp_path / "ds", val_fraction=0.5)
    gappy = _without_target_frame(scenarios[-1], 18)
    data.save_dataset(scenarios[:-1] + [gappy], tmp_path / "gappy", val_fraction=0.5)
    model_cfg = _tiny_config().model_config()
    ckpt = tmp_path / "model.json"
    save_checkpoint(ckpt, init_params(model_cfg, seed=0), model_cfg, seed=0, epoch=0)
    pseudo = tmp_path / "pseudo.jsonl"
    pseudo.write_text(json.dumps({"scenario_id": scenarios[0].scenario_id,
                                  "trajectories": [np.zeros((29, 2)).tolist()],
                                  "confidences": [1.0]}) + "\n")
    return {"ds": tmp_path / "ds", "gappy": tmp_path / "gappy", "ckpt": ckpt,
            "pseudo": pseudo, "out": tmp_path / "out", "dump": tmp_path / "dump.jsonl",
            "log": tmp_path / "log.jsonl"}


@pytest.mark.parametrize("argv, message", [
    (["generate", "--branch-probs", "0.5,x"], "--branch-probs"),
    (["generate", "--mode-mix", "junction=0.5"], "mode_mix"),
    (["generate", "--val-fraction", "1.5"],
     r"^generate: need 0 <= val_fraction <= 1, got val_fraction=1.5$"),
    (["generate", "--val-fraction", "nan"],
     r"^generate: need 0 <= val_fraction <= 1, got val_fraction=nan$"),
    (["train", "--set", "epochs=abc"], "'epochs'"),
    (["train", "--set", "bogus=1"], "'bogus'"),
    (["grid", "--preset", "table2", "--set", "epochs=abc"], "'epochs'"),
    (["grid", "--preset", "table2", "--set", "bogus=1"], "'bogus'"),
    (["train", "--set", "aug_flip=2"], r"^train: need 0 <= aug_flip <= 1, got aug_flip=2.0$"),
    (["train", "--set", "spatial_noise=-1"], r"^train: need 0 <= spatial_noise < inf, got -1.0$"),
    (["train", "--set", "spatial_noise=inf"], r"^train: need 0 <= spatial_noise < inf, got inf$"),
    (["train", "--set", "lr=nan"], r"^train: need 0 <= lr < inf, got nan$"),
    (["train", "--set", "lr=inf"], r"^train: need 0 <= lr < inf, got inf$"),
    (["grid", "--preset", "table2", "--set", "spatial_flip_prob=1.5"],
     r"^grid: need 0 <= spatial_flip_prob <= 1, got spatial_flip_prob=1.5$"),
    (["train", "--data", "{gappy}", "--split", "val"],
     "^train: straight-00003: track agent-0 absent at frame 18$"),
    (["train", "--set", "use_mpt=true"], r"^train: use_mpt needs pseudo targets$"),
    (["train", "--set", "use_mpt=true", "--pseudo-targets", "{pseudo}"],
     r"^train: pseudo targets for straight-00000: trajectory 0 must be finite \(30, 2\)"),
    (["jitter", "--s", "0"], r"^jitter: jitter needs 1 <= s < 30, got s=0$"),
    (["jitter", "--s=-1"], r"^jitter: jitter needs 1 <= s < 30, got s=-1$"),
    (["jitter", "--s", "30"], r"^jitter: jitter needs 1 <= s < 30, got s=30$"),
    (["jitter", "--s", "31"], r"^jitter: jitter needs 1 <= s < 30, got s=31$"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_rejects_bad_values_with_a_message(tmp_path, argv, message):
    paths = _cli_inputs(tmp_path)
    where = {"generate": ["--out", "{out}"],
             "train": ["--data", "{ds}", "--out", "{out}", "--log", "{log}"],
             "grid": ["--data", "{ds}", "--out", "{out}"],
             "jitter": ["--checkpoint", "{ckpt}", "--data", "{ds}"]}[argv[0]]
    argv = [a.format(**paths) for a in argv[:1] + where + argv[1:]]
    with pytest.raises(SystemExit, match=message) as exc:
        cli.main(argv)
    assert "\n" not in str(exc.value)
    assert not paths["out"].exists() and not paths["log"].exists()


_NON_FINITE_SETTINGS = [
    ("--noise", "nan", "noise_sigma must satisfy 0 <= noise_sigma < inf, got nan"),
    ("--noise", "inf", "noise_sigma must satisfy 0 <= noise_sigma < inf, got inf"),
    ("--noise", "-0.0", "noise_sigma must satisfy 0 <= noise_sigma < inf, got -0.0"),
    ("--speed-hi", "inf", "speed_range must satisfy 0 < lo <= hi < inf, got (5.0, inf)"),
    ("--speed-lo", "nan", "speed_range must satisfy 0 < lo <= hi < inf, got (nan, 15.0)"),
    ("--branch-probs", "0.5,0.5,nan", "branch_probs holds a non-finite value"),
    ("--mode-mix", "straight=nan,junction=1", "mode_mix holds a non-finite value"),
]


@pytest.mark.parametrize("flag, value, message", _NON_FINITE_SETTINGS,
                         ids=[f"{flag} {value}" for flag, value, _ in _NON_FINITE_SETTINGS])
def test_generate_refuses_a_non_finite_setting_naming_the_field(tmp_path, capsys, flag, value,
                                                                message):
    """Each of these reached numpy's draws: a non-finite track, numpy's own
    "scale < 0" or "Probabilities contain NaN", or an OverflowError."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--out", str(out), "--count", "2", flag, value])
    assert str(exc.value) == f"generate: {message}"
    assert not out.exists() and capsys.readouterr().out == ""


_REFUSED_UP_FRONT = [
    (["generate", "--seed", "-1"], "generate: seed must be >= 0, got -1"),
    (["train", "--set", "seed=-1"], "train: need seed >= 0, got seed=-1"),
    (["cluster", "--seed", "-1"], "cluster: need seed >= 0, got seed=-1"),
    (["generate", "--speed-lo", "1e308", "--speed-hi", "1e308"],
     "generate: speed_range must satisfy hi <= 1e+06, got (1e+308, 1e+308)"),
    (["generate", "--noise", "1e308"],
     "generate: noise_sigma must satisfy noise_sigma <= 1e+06, got 1e+308"),
    (["train", "--set", "spatial_noise=1e308"], "train: need spatial_noise <= 1e+06, got 1e+308"),
]


@pytest.mark.parametrize("argv, message", _REFUSED_UP_FRONT,
                         ids=[" ".join(argv) for argv, _ in _REFUSED_UP_FRONT])
def test_a_negative_seed_or_an_overflowing_setting_is_refused_before_any_file_is_read(
        tmp_path, capsys, argv, message):
    """Each of these failed late: numpy's "expected non-negative integer",
    after train had read the dataset and cluster every dump, an overflow in
    the generator's path integral, or numpy's "high - low range exceeds valid
    bounds" in the spatial noise draw. Now each names its key, before the
    missing input is looked at."""
    missing, out = tmp_path / "missing", tmp_path / "out"
    where = {"generate": [], "train": ["--data", str(missing)],
             "cluster": ["--dump", f"a={missing}"]}[argv[0]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + ["--out", str(out)] + where + argv[1:])
    assert str(exc.value) == message
    assert not out.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["cluster", "--dump", "{dump}", "--out", "{out}"],
     r"^cluster: --dump expects tag=path, got '.*dump.jsonl'$"),
    (["cluster", "--dump", "a={dump}", "--dump", "b={dump}", "--j", "0", "--out", "{out}"],
     r"^cluster: j must be at least 1, got 0$"),
    (["report", "--log", "{log}", "--out", "{out}"], r"^report: no records in .*log.jsonl$"),
    (["train", "--data", "{ds}", "--out", "{out}", "--set", "epochs"],
     r"^train: --set expects key=value, got 'epochs'$"),
    (["grid", "--data", "{ds}", "--preset", "table2", "--out", "{out}", "--set", "epochs"],
     r"^grid: --set expects key=value, got 'epochs'$"),
    (["generate", "--out", "{out}", "--branch-probs", "0.5,x"],
     r"^generate: --branch-probs expects numbers, got '0.5,x'$"),
    (["generate", "--out", "{out}", "--mode-mix", "junction"],
     r"^generate: --mode-mix expects name=weight pairs, got 'junction'$"),
], ids=lambda v: " ".join(v[:1] + [a for a in v if a.startswith("--")]) if isinstance(v, list)
   else None)
def test_cli_bad_input_exits_name_the_command(tmp_path, capsys, argv, message):
    """Every refused input exits with one `<command>: <message>` line and
    writes nothing."""
    paths = _cli_inputs(tmp_path)
    ensemble.save_prediction_dump(paths["dump"], [("s0", np.zeros((2, 30, 2)),
                                                   np.array([0.5, 0.5]))])
    paths["log"].write_text("\n")
    with pytest.raises(SystemExit, match=message) as exc:
        cli.main([a.format(**paths) for a in argv])
    assert "\n" not in str(exc.value)
    assert not paths["out"].exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, bad", [
    (["cluster", "--dump", "a={dump}", "--dump", "b={dump}", "--out", "{out}"], "{dump}"),
    (["train", "--data", "{ds}", "--out", "{out}", "--set", "use_mpt=true",
      "--pseudo-targets", "{pseudo}"], "{pseudo}"),
    (["report", "--log", "{log}", "--out", "{out}"], "{log}"),
    (["evaluate", "--checkpoint", "{ckpt}", "--data", "{ds}"], "{ckpt}"),
    (["train", "--data", "{ds}", "--out", "{out}", "--config", "{config}"], "{config}"),
    (["train", "--data", "{ds}", "--out", "{out}"], "{ds}/straight-00000.csv"),
    (["train", "--data", "{ds}", "--out", "{out}"], "{ds}/straight-00000.csv.map.json"),
], ids=["dump", "pseudo targets", "log", "checkpoint", "config", "scenario", "map sidecar"])
def test_cli_names_the_file_that_is_not_utf8(tmp_path, capsys, argv, bad):
    """Each text reader refuses undecodable bytes with one `<command>: <path>:
    not UTF-8 text (...)` line, and writes nothing."""
    paths = {**_cli_inputs(tmp_path), "config": tmp_path / "train.cfg"}
    bad = Path(bad.format(**paths))
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit, match=f"^{argv[0]}: {re.escape(str(bad))}: "
                                         r"not UTF-8 text \(invalid start byte\)$"):
        cli.main([a.format(**paths) for a in argv])
    assert not paths["out"].exists() and capsys.readouterr().out == ""


def _edited(change):
    """The checkpoint text with `change` made to its parsed payload."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload, sort_keys=True)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:31], r"not JSON: Unterminated string starting at: line 1 column 27 "
                             r"\(char 26\)"),
    (_edited(lambda p: p.pop("params")), "no key 'params'"),
    (_edited(lambda p: p.pop("seed")), "no key 'seed'"),
    (_edited(lambda p: p["model"].update(bogus=1)), "model: unknown key 'bogus'"),
    (_edited(lambda p: p["params"]["enc.b1"].__setitem__(3, "1.5")),
     "layer 'enc.b1' must hold only lists and JSON numbers, got '1.5'"),
    (_edited(lambda p: p["params"]["enc.w2"][2].__setitem__(1, True)),
     "layer 'enc.w2' must hold only lists and JSON numbers, got True"),
    (_edited(lambda p: p["params"]["ref.w0"][0].__setitem__(0, float("nan"))),
     "layer 'ref.w0' holds a non-finite value"),
], ids=["31-byte prefix", "no params", "no seed", "unknown model key", "quoted number",
        "true", "NaN"])
def test_evaluate_refuses_a_malformed_checkpoint_naming_the_file(tmp_path, capsys, edit,
                                                                message):
    """A checkpoint that does not hold what save_checkpoint writes stops
    `evaluate` with one `evaluate: <file>: <key or layer>: <what>` line,
    before any report."""
    paths = _cli_inputs(tmp_path)
    ckpt = paths["ckpt"]
    ckpt.write_text(edit(ckpt.read_text()))
    with pytest.raises(SystemExit, match=f"^evaluate: {re.escape(str(ckpt))}: {message}$"):
        cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(paths["ds"]),
                  "--split", "val", "--report", str(paths["out"])])
    assert not paths["out"].exists() and capsys.readouterr().out == ""


_LOG_RECORD = json.dumps({"epoch": 0, "step": 0, "lr": 1e-3, "total": 2.5, "l_reg": 2.0,
                          "l_cls": 0.5, "l_temp": 0.0, "l_spa": 0.0})


@pytest.mark.parametrize("log, message", [
    ("{ckpt}", r"model.json: line 1: not a training log record: no number under 'total'$"),
    ('{"a": 1}', r"log.jsonl: line 1: not a training log record: no number under 'total'$"),
    (f"{_LOG_RECORD}\n\n[{_LOG_RECORD}]",
     r"log.jsonl: line 3: not a training log record: no number under 'total'$"),
    (_LOG_RECORD.replace("0.5", '"0.5"'),
     r"log.jsonl: line 1: not a training log record: 'l_cls' must hold only lists and "
     r"JSON numbers, got '0.5'$"),
    (f"{_LOG_RECORD}\n{_LOG_RECORD[:-9]}",
     r"log.jsonl: line 2: not JSON: .+ \(column \d+\)$"),
], ids=["checkpoint", "object", "list", "quoted number", "undecodable"])
def test_report_refuses_a_file_that_is_not_a_training_log(tmp_path, capsys, log, message):
    """`report --log` on anything but a training log exits with one
    `report: <path>: line <n>: <what>` line and writes no chart."""
    paths = _cli_inputs(tmp_path)
    if log != "{ckpt}":
        paths["log"].write_text(log + "\n")
    argv = ["report", "--log", paths["ckpt"] if log == "{ckpt}" else paths["log"],
            "--out", paths["out"]]
    with pytest.raises(SystemExit, match=f"^report: .*{message}") as exc:
        cli.main([str(a) for a in argv])
    assert "\n" not in str(exc.value)
    assert not paths["out"].exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_report_refuses_a_non_finite_loss_value(tmp_path, capsys, value):
    """json.loads reads NaN, Infinity and an out-of-range literal as floats;
    the JSON-array rule refuses them, naming the line and the key, before
    a chart with `nan` coordinates is written."""
    log, out = tmp_path / "log.jsonl", tmp_path / "out.svg"
    log.write_text(f"{_LOG_RECORD}\n{_LOG_RECORD.replace('0.5', value)}\n")
    with pytest.raises(SystemExit, match=f"^report: {re.escape(str(log))}: line 2: not a "
                                         "training log record: 'l_cls' holds a non-finite "
                                         "value$"):
        cli.main(["report", "--log", str(log), "--out", str(out)])
    assert not out.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["grid", "--data", "ds"],
    ["grid", "--data", "ds", "--spec", "spec.json"],
    ["report", "--log", "log.jsonl", "--out", "out.svg", "--jitter", "jitter.json"],
])
def test_cli_parser_refuses_grid_without_preset_and_removed_flags(argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2


def _corrupt_line_2(rec: dict, how: str) -> str:
    """Line 2 of a dump, or of a pseudo-target file, broken one way."""
    key = "scores" if "scores" in rec else "confidences"
    if how == "bad JSON":
        return json.dumps(rec)[:-20]
    if how == "NaN":
        rec["trajectories"][1][3][0] = float("nan")
    elif how == "short score list":
        rec[key] = rec[key][:-1]
    elif how == "string coordinates":
        rec["trajectories"] = [[[str(v) for v in p] for p in t] for t in rec["trajectories"]]
    elif how == "string scores":
        rec[key] = [str(v) for v in rec[key]]
    elif how == "boolean dt":
        rec["dt"] = True
    elif how == "dt 0.2":
        rec["dt"] = 0.2
    elif how == "repeated scenario":
        rec["scenario_id"] = "s0"
    elif how == "number scenario id":
        rec["scenario_id"] = 5
    elif how == "29-step trajectory":
        rec["trajectories"][0] = rec["trajectories"][0][:29]
    elif how == "confidence above 1":
        rec[key] = [0.5, 1.5]
    return json.dumps(rec)


_CORRUPT = [
    ("bad JSON", r"line 2: Expecting"),
    ("NaN", r"line 2 \(s1\): trajectories holds a non-finite value$"),
    ("short score list", r"line 2 \(s1\): need one {what} per trajectory: {what}s must be "
                         r"\(2,\), got \(1,\)$"),
    ("string coordinates", r"line 2 \(s1\): trajectories must hold only lists and JSON "
                           r"numbers, got '-?\d\.\d+'$"),
    ("string scores", r"line 2 \(s1\): {what}s must hold only lists and JSON numbers, "
                      r"got '0.\d+'$"),
    ("boolean dt", r"line 2 \(s1\): dt must be 0.1, got True$"),
    ("dt 0.2", r"line 2 \(s1\): dt must be 0.1, got 0.2$"),
    ("repeated scenario", r"line 2 \(s0\): scenario s0 is also on line 1$"),
    ("number scenario id", r"line 2 \(5\): scenario_id must be a string$"),
    ("29-step trajectory", r"line 2 \(s1\): trajectories has rows of unequal lengths, "
                           r"got \[29, 30\]$"),
]


@pytest.mark.parametrize("how, message", _CORRUPT, ids=[c[0] for c in _CORRUPT])
def test_cli_cluster_names_the_file_line_and_scenario_of_a_bad_record(
        tmp_path, capsys, how, message):
    rng = np.random.default_rng(0)
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    records = [(sid, rng.normal(size=(2, 30, 2)), np.array([0.25, 0.75]))
               for sid in ("s0", "s1", "s2")]
    ensemble.save_prediction_dump(good, records)
    lines = good.read_text().splitlines()
    lines[1] = _corrupt_line_2(json.loads(lines[1]), how)
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pseudo.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["cluster", "--dump", f"a={good}", "--dump", f"b={bad}", "--j", "2",
                  "--out", str(out)])
    text = str(exc.value)
    assert text.startswith(f"cluster: {bad}: line 2")
    assert re.search(message.format(what="score"), text) and "\n" not in text
    assert not out.exists() and capsys.readouterr().out == ""


def test_cli_cluster_names_the_dump_whose_horizon_differs(tmp_path):
    rng = np.random.default_rng(0)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ensemble.save_prediction_dump(a, [("s0", rng.normal(size=(2, 30, 2)), np.array([0.5, 0.5]))])
    ensemble.save_prediction_dump(b, [("s0", rng.normal(size=(2, 29, 2)), np.array([0.5, 0.5]))])
    with pytest.raises(SystemExit, match=f"^cluster: {b}: prediction horizon differs for s0: "
                                         f"29 vs 30$"):
        cli.main(["cluster", "--dump", f"a={a}", "--dump", f"b={b}", "--j", "2",
                  "--out", str(tmp_path / "out.jsonl")])


_CORRUPT_PSEUDO = _CORRUPT[:-1] + [
    ("confidence above 1", r"line 2 \(s1\): confidences must lie in \[0, 1\], "
                           r"got \[0.5, 1.5\]$"),
]


@pytest.mark.parametrize("how, message", _CORRUPT_PSEUDO, ids=[c[0] for c in _CORRUPT_PSEUDO])
def test_cli_train_names_the_file_line_and_scenario_of_a_bad_pseudo_target(
        tmp_path, how, message):
    paths = _cli_inputs(tmp_path)
    good = {"scenario_id": "s1", "trajectories": np.zeros((2, 30, 2)).tolist(),
            "confidences": [0.5, 0.5], "dt": 0.1}
    pseudo = tmp_path / "bad-pseudo.jsonl"
    pseudo.write_text(json.dumps({**good, "scenario_id": "s0"}) + "\n"
                      + _corrupt_line_2(good, how) + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", str(paths["ds"]), "--out", str(paths["out"]),
                  "--set", "use_mpt=true", "--pseudo-targets", str(pseudo)])
    text = str(exc.value)
    assert text.startswith(f"train: {pseudo}: line 2")
    assert re.search(message.format(what="confidence"), text) and "\n" not in text
    assert not paths["out"].exists()


@pytest.mark.parametrize("command, outputs", [
    ("train", ["--out", "{out}", "--log", "{log}"]),
    ("evaluate", ["--checkpoint", "{ckpt}", "--report", "{out}", "--dump", "{dump}"]),
    ("jitter", ["--checkpoint", "{ckpt}"]),
    ("ensemble-dump", ["--checkpoint", "{ckpt}", "--out", "{dump}"]),
])
def test_cli_stops_on_a_split_with_no_scenarios(tmp_path, capsys, command, outputs):
    paths = _cli_inputs(tmp_path)
    argv = [command, "--data", "{ds}", "--split", "nosuch", *outputs]
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(**paths) for a in argv])
    manifest = paths["ds"] / "manifest.json"
    assert str(exc.value) == f"{command}: split 'nosuch' of {manifest} has no scenarios"
    assert not any(paths[name].exists() for name in ("out", "dump", "log"))
    assert capsys.readouterr().out == ""


def test_cli_cluster_refuses_a_dump_without_records(tmp_path, capsys):
    good, empty = tmp_path / "good.jsonl", tmp_path / "empty.jsonl"
    ensemble.save_prediction_dump(good, [("s0", np.zeros((2, 30, 2)), np.array([0.5, 0.5]))])
    empty.write_text("\n")
    out = tmp_path / "pseudo.jsonl"
    for first, second in ((good, empty), (empty, empty)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cluster", "--dump", f"a={first}", "--dump", f"b={second}", "--j", "2",
                      "--out", str(out)])
        assert str(exc.value) == f"cluster: {empty}: the dump holds no records"
    assert not out.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("command, outputs", [
    ("evaluate", ["--report", "{out}", "--dump", "{dump}"]),
    ("jitter", []),
    ("ensemble-dump", ["--out", "{dump}"]),
])
def test_cli_checks_every_scenario_before_any_output(tmp_path, capsys, command, outputs):
    """A split whose last scenario lacks target frame 18 stops the command
    before it writes anything, with one line naming that scenario."""
    paths = _cli_inputs(tmp_path)
    argv = [command, "--checkpoint", "{ckpt}", "--data", "{gappy}", "--split", "val", *outputs]
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(**paths) for a in argv])
    assert str(exc.value) == f"{command}: straight-00003: track agent-0 absent at frame 18"
    assert not paths["out"].exists() and not paths["dump"].exists()
    assert capsys.readouterr().out == ""


def _break_manifest(manifest: Path, how: str) -> None:
    fields = json.loads(manifest.read_text())
    if how == "missing file":
        fields["scenarios"][2]["file"] = "gone.csv"
    elif how == "string history_len":
        fields["history_len"] = "20"
    elif how == "entry without split":
        del fields["scenarios"][0]["split"]
    elif how == "dt 0.2":
        fields["dt"] = 0.2
    elif how == "scenario listed twice":
        fields["scenarios"].append({"file": "straight-00000.csv", "split": "val"})
    elif how == "one stem in two directories":
        fields["scenarios"].append({"file": "sub/straight-00003.csv", "split": "train"})
    text = json.dumps(fields)
    manifest.write_text(text[:-1] if how == "undecodable JSON" else text)  # no closing brace


@pytest.mark.parametrize("how, message", [
    ("missing file", r"listed file \S*gone\.csv does not exist"),
    ("string history_len", "history_len must be an integer >= 2, got '20'"),
    ("entry without split",
     r"scenario entry 0 needs a string 'file' and 'split', got \{'file': 'straight-00000.csv'\}"),
    ("undecodable JSON", r"Expecting ',' delimiter: line 1 column \d+ \(char \d+\)"),
    ("dt 0.2", "dt must be 0.1, got 0.2"),
    ("scenario listed twice", r"scenario entries 0 and 4 both give scenario straight-00000: "
                              r"\{'file': 'straight-00000.csv', 'split': 'train'\} and "
                              r"\{'file': 'straight-00000.csv', 'split': 'val'\}"),
    ("one stem in two directories",
     r"scenario entries 3 and 4 both give scenario straight-00003: "
     r"\{'file': 'straight-00003.csv', 'split': 'val'\} and "
     r"\{'file': 'sub/straight-00003.csv', 'split': 'train'\}"),
])
def test_cli_names_the_manifest_and_its_fault_before_any_scenario_loads(
        tmp_path, capsys, monkeypatch, how, message):
    paths = _cli_inputs(tmp_path)
    manifest = paths["ds"] / "manifest.json"
    _break_manifest(manifest, how)
    monkeypatch.setattr(data, "load_csv", lambda *args: pytest.fail("a scenario was loaded"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--checkpoint", str(paths["ckpt"]), "--data", str(paths["ds"]),
                  "--report", str(paths["out"])])
    assert re.fullmatch(f"evaluate: {re.escape(str(manifest))}: {message}", str(exc.value))
    assert not paths["out"].exists() and capsys.readouterr().out == ""


def test_cli_stops_on_a_scenario_file_it_cannot_load(tmp_path, capsys):
    """A truncated CSV stops evaluate, naming the file and line, as it stops
    load_manifest."""
    paths = _cli_inputs(tmp_path)
    bad = paths["ds"] / "straight-00003.csv"
    lines = bad.read_text().splitlines()[:30]
    lines[-1] = lines[-1][:lines[-1].rindex(",")]          # the last row cut short
    bad.write_text("\n".join(lines) + "\n")
    manifest = paths["ds"] / "manifest.json"
    with pytest.raises(data.MalformedRow, match=f"^{re.escape(str(bad))}: line 30: "):
        data.load_manifest(manifest, split="val")
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--checkpoint", str(paths["ckpt"]), "--data", str(paths["ds"]),
                  "--report", str(paths["out"])])
    assert str(exc.value) == f"evaluate: {bad}: line 30: expected 6 fields, got 5"
    assert not paths["out"].exists() and capsys.readouterr().out == ""
