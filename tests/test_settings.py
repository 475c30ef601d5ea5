"""Every numeric setting against its range rule, through the command line.

Each `generate` flag, each int or float `TrainConfig` key and `cluster
--seed/--j` are given every value of `VALUES`, in-process through `cli.main`
under warnings-as-errors. Whether a value lies in its range comes from the
tables the code checks against (`data.SPEC_RANGES`, `data.SPEED_RANGE`,
`harness.CONFIG_RANGES`), together with the cross-field rules the configs
state beside them, taken at the other settings' defaults (`CROSS`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
import warnings

import numpy as np
import pytest

from trajcast import cli, data, ensemble, harness, predictor

VALUES = ("-1", "-0.0", "0", "1e-308", "1e308", "nan", "inf", "x")
# the huge value of an int setting; a count, an epoch count, a mode count, a
# width or a batch this large would allocate or run without bound, so those
# settings are not given it
HUGE_INT = str(10 ** 308)
NO_HUGE = {"--count", "epochs", "k", "feature_dim", "batch_size"}

# key -> the cross-field rule its value must also meet, at the defaults of
# the settings it is tied to (speed_range (5, 15), aug_scale 1.0, horizon 30)
CROSS = {
    "noise_sigma": lambda v: math.copysign(1.0, v) > 0,
    "speed_range[0]": lambda v: v <= 15.0, "speed_range[1]": lambda v: v >= 5.0,
    "aug_scale_lo": lambda v: v <= 1.0, "aug_scale_hi": lambda v: v >= 1.0,
    "s": lambda v: v < 30,
}
# settings whose accepted values the data can still refuse, naming the
# scenario: model lengths other than the scenarios', and more pseudo
# targets than a scenario pools trajectories
DATA_BOUND = {("train", "horizon"), ("train", "history_len"), ("cluster", "j")}

# what every train run here sets before the value under test
TRAIN_BASE = ("epochs=2", "feature_dim=8", "batch_size=2", "k=2")


@dataclasses.dataclass(frozen=True)
class Setting:
    command: str
    name: str       # the flag, or the --set key
    key: str        # the key refusals name
    kind: type
    bounds: tuple   # (lo, hi, open_lo) as core.check_range takes them


def _settings() -> list:
    spec, config = data.SPEC_RANGES, harness.CONFIG_RANGES
    kinds = typing.get_type_hints(harness.TrainConfig)
    return [
        Setting("generate", "--count", "scenario_count", int, spec["scenario_count"]),
        Setting("generate", "--seed", "seed", int, spec["seed"]),
        Setting("generate", "--noise", "noise_sigma", float, spec["noise_sigma"]),
        Setting("generate", "--speed-lo", "speed_range[0]", float, data.SPEED_RANGE),
        Setting("generate", "--speed-hi", "speed_range[1]", float, data.SPEED_RANGE),
        Setting("generate", "--val-fraction", "val_fraction", float, (0.0, 1.0)),
        *(Setting("train", key, key, kinds[key], bounds) for key, bounds in config.items()),
        Setting("cluster", "--seed", "seed", int, config["seed"]),
        Setting("cluster", "--j", "j", int, (1,)),
    ]


def _cases() -> list:
    return [pytest.param(setting, text, id=f"{setting.command} {setting.name}="
                         + ("10**308" if text == HUGE_INT else text))
            for setting in _settings()
            for text in VALUES + ((HUGE_INT,) if setting.kind is int else ())
            if not (text == HUGE_INT and setting.name in NO_HUGE)]


def _inside(value, lo=None, hi=None, open_lo=False) -> bool:
    """The range rule, stated again: hi = inf excludes inf, and NaN is in
    no range with a bound."""
    above = lo is None or (value > lo if open_lo else value >= lo)
    below = hi is None or (value < hi if hi == math.inf else value <= hi)
    return above and below


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """A dataset of six scenarios, all in the train split, and two models'
    prediction dumps of three trajectories each over them."""
    root = tmp_path_factory.mktemp("settings")
    scenarios = data.generate(data.SyntheticSpec(scenario_count=6, seed=3))
    data.save_dataset(scenarios, root / "ds", val_fraction=0.0)
    rng = np.random.default_rng(0)
    for tag in "ab":
        ensemble.save_prediction_dump(root / f"{tag}.jsonl", [
            (sc.scenario_id, rng.normal(size=(3, 30, 2)), np.full(3, 1.0 / 3.0))
            for sc in scenarios])
    return {"ds": root / "ds", "dumps": [root / "a.jsonl", root / "b.jsonl"],
            "ids": [sc.scenario_id for sc in scenarios]}


def _argv(setting: Setting, text: str, data_dir, dumps, out) -> list:
    value = f"{setting.name}={text}"
    if setting.command == "generate":
        return ["generate", "--out", str(out), "--count", "2", value]
    if setting.command == "train":
        sets = [arg for pair in TRAIN_BASE + (value,) for arg in ("--set", pair)]
        return ["train", "--data", str(data_dir), "--out", str(out / "model.json"),
                "--log", str(out / "log.jsonl"), *sets]
    return ["cluster", "--out", str(out / "pseudo.jsonl"),
            *(f"--dump={tag}={path}" for tag, path in zip("ab", dumps)), value]


def _run(argv) -> tuple:
    """(exit status, message) of one in-process run, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return cli.main(argv), ""
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1, str(exc)


def _check_finite_artefacts(setting: Setting, out) -> None:
    if setting.command == "generate":
        for split in ("train", "val"):      # the loader refuses a non-finite point
            data.load_manifest(out / "manifest.json", split=split)
    elif setting.command == "train":
        predictor.load_checkpoint(out / "model.json")   # refuses a non-finite parameter
        for line in (out / "log.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert all(math.isfinite(record[key]) for key in harness.LOSS_KEYS), record
    else:
        assert ensemble.load_pseudo_targets(out / "pseudo.jsonl")


@pytest.mark.parametrize("setting, text", _cases())
def test_every_setting_is_refused_up_front_or_runs_to_finite_artefacts(
        tmp_path, capsys, inputs, setting, text):
    """A value of the wrong type is refused naming the flag or key. A value
    out of its range, or against a cross-field rule, exits with one
    `<command>: need ...` line naming the key, before any input is read:
    with every input file missing. An accepted value gets as far as the
    missing input; given the inputs, it exits 0 with finite artefacts, or,
    for `DATA_BOUND`, with one line naming the scenario whose data refuses
    it.

    Huge values are not given to `--count`, `epochs`, `k`, `feature_dim` or
    `batch_size` (`NO_HUGE`): they would allocate a lot of memory or run a
    long time."""
    missing, out = tmp_path / "missing", tmp_path / "out"
    out.mkdir()
    status, message = _run(_argv(setting, text, missing, [missing, missing], out))
    try:
        value = setting.kind(text)
    except ValueError:
        assert status != 0
        if setting.command == "train":
            assert message == (f"train: config key {setting.key!r}: cannot parse "
                               f"{setting.kind.__name__} from {text!r}")
        else:   # argparse's refusal
            assert f"argument {setting.name}: invalid {setting.kind.__name__} value" \
                in capsys.readouterr().err
        return
    accepted = _inside(value, *setting.bounds) and CROSS.get(setting.key, lambda v: True)(value)
    if not accepted:
        assert status == 1 and "\n" not in message
        assert message.startswith(f"{setting.command}: need ") and f" {setting.key}" in message
        if not _inside(value, *setting.bounds):
            assert message.endswith(f", got {setting.key}={value}")
        assert not any(out.iterdir())
        return
    if setting.command != "generate":   # which reads no input
        flag = "--data" if setting.command == "train" else "--dump"
        assert message == f"{setting.command}: {flag} {missing}: no such file or directory"
        status, message = _run(_argv(setting, text, inputs["ds"], inputs["dumps"], out))
    if (setting.command, setting.key) in DATA_BOUND:
        assert status == 1 and "\n" not in message and message.startswith(setting.command)
        assert any(sid in message for sid in inputs["ids"]), message
        return
    assert (status, message) == (0, "")
    _check_finite_artefacts(setting, out)


@pytest.mark.parametrize("cls, table", [
    (harness.TrainConfig, harness.CONFIG_RANGES),
    (predictor.ModelConfig, predictor.MODEL_RANGES),
    (data.SyntheticSpec, data.SPEC_RANGES),
], ids=["TrainConfig", "ModelConfig", "SyntheticSpec"])
def test_each_range_table_covers_exactly_the_int_and_float_fields(cls, table):
    kinds = typing.get_type_hints(cls)
    assert set(table) == {key for key, kind in kinds.items() if kind in (int, float)}
