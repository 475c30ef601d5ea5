"""Training harness: optimizer, config plumbing, evaluation, jitter, grid,
and the CLI workflow end to end."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import straight_scenario
from trajcast import cli
from trajcast.core import PredictionSet, Trajectory
from trajcast.data import SyntheticSpec, generate
from trajcast.harness import (Adam, NonFiniteLoss, SEED_ENV_VAR, ShapeMismatch,
                              TrainConfig, _scenario_step, branch_coverage,
                              evaluate, jitter_score, lr_at_epoch, make_config,
                              run_grid, table2_rows, train)
from trajcast.metrics import EmptyDataset
from trajcast.predictor import ParamStore, init_params

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


# -- optimizer ----------------------------------------------------------------

def test_adam_zero_grad_and_zero_lr_leave_params_unchanged():
    params = ParamStore({"w": np.array([1.0, -2.0]), "b": np.array([0.5])})
    before = {k: v.copy() for k, v in params.items()}
    opt = Adam(params)
    opt.step(params, {k: np.zeros_like(v) for k, v in params.items()}, lr=0.1)
    for k in before:
        np.testing.assert_array_equal(params[k], before[k])
    opt.step(params, {"w": np.ones(2), "b": np.ones(1)}, lr=0.0)
    for k in before:
        np.testing.assert_array_equal(params[k], before[k])
    assert params.version == 2          # steps still invalidate traces


def test_adam_first_step_closed_form():
    params = ParamStore({"w": np.array([1.0, 2.0])})
    g = np.array([0.5, -2.0])
    opt = Adam(params)
    opt.step(params, {"w": g}, lr=0.1)
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


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_make_config_coerces_every_field_from_text(field, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
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


def test_env_seed_wins(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    assert make_config({"seed": 5}).seed == 77
    monkeypatch.delenv(SEED_ENV_VAR)
    assert make_config({"seed": 5}).seed == 5


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


# -- training -----------------------------------------------------------------

def test_train_records_and_toggles():
    scenarios = _dataset(count=6)
    config = _tiny_config(use_temp=False, use_spatial=False)
    _, _, records = train(config, scenarios)
    assert len(records) == 2 * 2            # 6 scenarios / batch 4 -> 2 steps/epoch
    for rec in records:
        assert set(rec) == {"epoch", "step", "lr", "l_reg", "l_cls",
                            "l_temp", "l_spa", "total"}
        assert rec["l_temp"] == 0.0 and rec["l_spa"] == 0.0
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


def test_train_nonfinite_loss_names_scenario():
    scenarios = _dataset(count=3)
    # temporal off: its matcher validates costs and would reject inf first
    config = _tiny_config(use_temp=False)
    params = init_params(config.model_config(), config.seed)
    params.arrays["enc.w1"][:] = np.inf
    with pytest.raises(NonFiniteLoss, match="straight-"), np.errstate(invalid="ignore"):
        train(config, scenarios, initial_params=params)


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(_tiny_config(), [])


# -- gradients of the production training step --------------------------------

@pytest.mark.parametrize("strategy,criterion,s", [("bidirectional", "fde", 1),
                                                  ("hungarian", "ade", 2)])
def test_scenario_step_matches_finite_differences(strategy, criterion, s):
    """Exact gradients of harness._scenario_step with every loss term and
    augmentation on; the step's rng is re-created so each evaluation draws
    the same transform, heading jitter and spatial permutation."""
    config = TrainConfig(k=3, feature_dim=8, j=2, s=s, strategy=strategy, criterion=criterion,
                         use_mpt=True, aug_flip=1.0, aug_scale_lo=0.8, aug_scale_hi=1.25,
                         heading_jitter_deg=10.0)
    model_cfg = config.model_config()
    scenario = _dataset("junction", count=1, seed=9)[0]
    gt = scenario.gt_future()
    noise = np.random.default_rng(5)
    pseudo = (tuple(Trajectory(points=gt.points + noise.normal(size=gt.points.shape), dt=gt.dt)
                    for _ in range(2)), np.array([0.7, 0.4]))
    params = init_params(model_cfg, seed=3)

    def step():
        return _scenario_step(params, model_cfg, config, scenario, pseudo,
                              np.random.default_rng(11))

    breakdown, grads = step()
    assert breakdown.l_temp > 0 and breakdown.l_spa > 0
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
        up = step()[0].total
        arr[idx] = orig - h
        dn = step()[0].total
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(grads[name][idx] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-4


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


def _extrapolating_predictor(window):
    step = window.history_xy[-1] - window.history_xy[-2]
    points = window.history_xy[-1] + np.arange(1, 31)[:, None] * step
    traj = Trajectory(points=points, dt=0.1)
    return PredictionSet(trajectories=(traj,), scores=np.array([1.0]))


def test_jitter_zero_for_consistent_predictor():
    scenarios = [straight_scenario()]
    assert jitter_score(_extrapolating_predictor, scenarios, s=2) == 0.0


def test_jitter_hand_value():
    def jumpy(window):
        offset = np.array([3.0, 4.0]) if window.shift else np.zeros(2)
        points = np.tile(offset, (30, 1))
        return PredictionSet(trajectories=(Trajectory(points=points, dt=0.1),),
                             scores=np.array([1.0]))

    assert jitter_score(jumpy, [straight_scenario()], s=1) == 5.0
    with pytest.raises(ValueError):
        jitter_score(jumpy, [], s=1)


def test_branch_coverage_bounds():
    scenarios = _dataset(mode="junction", count=4)
    params, model_cfg, _ = train(_tiny_config(epochs=1), scenarios)
    cov = branch_coverage(params, model_cfg, scenarios)
    assert 0.0 <= cov <= 1.0
    with pytest.raises(ValueError):
        branch_coverage(params, model_cfg, _dataset(mode="straight", count=2))


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


@pytest.mark.parametrize("mix", ["junction", "junction=1,straight"])
def test_cli_generate_rejects_mode_mix_without_weight(tmp_path, mix):
    with pytest.raises(SystemExit, match="--mode-mix expects name=weight"):
        cli.main(["generate", "--out", str(tmp_path / "ds"), "--mode-mix", mix])
    assert not (tmp_path / "ds").exists()
