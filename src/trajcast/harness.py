"""Training loop, evaluation, jitter scoring, and the experiment grid.

Everything here is deterministic for a fixed seed: shuffling, augmentation,
and the spatial permutations all draw from one seeded generator in a fixed
order, gradient accumulation is index-ordered, and checkpoints serialize
floats exactly. Running the same config twice gives byte-identical logs,
checkpoints, and reports.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .core import (AugmentSpec, Scenario, TargetSet, TrajcastError,
                   apply_transform, compose_frames, sample_heading_jitter,
                   sample_transform, to_frame_xy)
from .data import FUTURE_LEN, HISTORY_LEN, branch_futures, make_shift_pair, make_window
from .matching import CRITERIA, STRATEGIES, match, similarity
from .metrics import MetricReport, fde, report
from .predictor import (ModelConfig, ParamStore, backward, forward, init_params,
                        load_checkpoint, predict, refine_backward, refine_forward,
                        save_checkpoint)

SEED_ENV_VAR = "TRAJCAST_SEED"


class NonFiniteLoss(TrajcastError):
    """Training produced a non-finite loss; message names the scenario."""


class ShapeMismatch(TrajcastError):
    """Checkpoint dimensions disagree with the dataset."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and toggles for one training run.

    Field names double as the config-file key vocabulary.
    """

    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_decay_every: int = 15
    k: int = 6
    j: int = 6
    s: int = 1
    strategy: str = "bidirectional"
    criterion: str = "fde"
    use_goal: bool = True
    use_refine: bool = True
    use_temp: bool = True
    use_spatial: bool = True
    use_mpt: bool = False
    seed: int = 0
    feature_dim: int = 64
    horizon: int = FUTURE_LEN
    history_len: int = HISTORY_LEN
    aug_flip: float = 0.0
    aug_scale_lo: float = 1.0
    aug_scale_hi: float = 1.0
    heading_jitter_deg: float = 0.0
    spatial_flip_prob: float = 0.5
    spatial_noise: float = 0.2

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr < 0:
            raise ValueError("need epochs >= 0, batch_size >= 1, lr >= 0")
        if not (0 < self.lr_decay <= 1) or self.lr_decay_every < 1:
            raise ValueError("need 0 < lr_decay <= 1 and lr_decay_every >= 1")
        if self.k < 1 or self.j < 0 or self.feature_dim < 1:
            raise ValueError("need k >= 1, j >= 0, feature_dim >= 1")
        if not (1 <= self.s < self.horizon):
            raise ValueError(f"need 1 <= s < {self.horizon}, got s={self.s}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.use_spatial and not self.use_refine:
            raise ValueError("spatial consistency needs the refinement head enabled")

    def model_config(self) -> ModelConfig:
        return ModelConfig(n_modes=self.k, horizon=self.horizon,
                           history_len=self.history_len, feature_dim=self.feature_dim,
                           use_goal=self.use_goal, use_refine=self.use_refine)

    def augment_spec(self) -> AugmentSpec:
        return AugmentSpec(p_flip=self.aug_flip,
                           scale_range=(self.aug_scale_lo, self.aug_scale_hi),
                           heading_jitter_deg=self.heading_jitter_deg)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# field name -> type; dataclasses.fields gives the types as strings here
_FIELD_TYPES = typing.get_type_hints(TrainConfig)
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        name = "boolean" if kind is bool else kind.__name__
        raise ValueError(f"config key {key!r}: cannot parse {name} from {raw!r}") from None


def make_config(overrides: dict | None = None, config_path=None) -> TrainConfig:
    """Config from defaults <- file <- overrides <- TRAJCAST_SEED env var."""
    values = {}
    if config_path is not None:
        for n, line in enumerate(Path(config_path).read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{config_path}: line {n}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{config_path}: line {n}: unknown key {key!r}")
            values[key] = _coerce(key, raw.strip())
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _coerce(key, val) if isinstance(val, str) else val
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        values["seed"] = int(env_seed)
    return TrainConfig(**values)


class Adam:
    """Plain Adam with bias correction; one shared step counter."""

    def __init__(self, params: ParamStore, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, params: ParamStore, grads: ParamStore, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = grads.flat
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        params.flat -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
        params.bump()


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Step decay: lr * decay^(epoch // every), epoch counted from 0."""
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


def _target_set_for(scenario: Scenario, pseudo, transform) -> TargetSet:
    """GT plus (optionally) pseudo targets, all under the step's augmentation."""
    gt = scenario.gt_future()
    if pseudo is None:
        return TargetSet(targets=(gt,), confidences=np.array([1.0]))
    trajs, confs = pseudo
    extra = tuple(transform.apply_trajectory(t) for t in trajs)
    return TargetSet(targets=(gt,) + extra,
                     confidences=np.concatenate([[1.0], confs]))


def _scenario_step(params: ParamStore, model_cfg: ModelConfig, config: TrainConfig,
                   scenario: Scenario, pseudo, rng: np.random.Generator):
    """Loss parts and parameter gradients for one (augmented) scenario."""
    spec = config.augment_spec()
    transform = sample_transform(spec, rng)
    jitter_rad = sample_heading_jitter(spec, rng)
    sc = apply_transform(scenario, transform)

    if config.use_temp:
        window_a, window_b = make_shift_pair(sc, config.s, jitter_rad)
    else:
        window_a = make_window(sc, jitter_rad)

    out_a, trace_a = forward(params, model_cfg, window_a)
    grads = params.zeros_like()

    targets = _target_set_for(sc, pseudo, transform)
    targets_xy = np.stack([to_frame_xy(t.points, window_a.frame) for t in targets.targets])
    l_reg, l_cls, d_comp, d_ref, d_probs = losses.target_losses(
        out_a["completion"], out_a["refined"], out_a["probs"], targets_xy,
        targets.confidences, refined_reg=config.use_refine)

    l_temp = 0.0
    if config.use_temp:
        out_b, trace_b = forward(params, model_cfg, window_b)
        frame_map = compose_frames(window_b.frame, window_a.frame)
        refined_b_in_a = frame_map.apply(out_b["refined"])
        l_temp, d_a_temp, d_b_in_a = losses._temporal_arrays(
            out_a["refined"], refined_b_in_a, config.s, config.strategy, config.criterion)
        d_ref = d_ref + d_a_temp
        d_ref_b = frame_map.backprop(d_b_in_a)

    l_spa, d_offsets = 0.0, 0.0     # an offsets gradient of 0.0 is the same as none
    if config.use_spatial:
        perm = losses.sample_permutation(rng, out_a["completion"].shape,
                                         p_flip=config.spatial_flip_prob,
                                         noise_scale=config.spatial_noise)
        anchors2, hist2 = perm.apply(out_a["completion"], trace_a.hist_flat.reshape(-1, 2))
        offsets2, _, trace2 = refine_forward(params, model_cfg, anchors2, hist2.reshape(-1))
        mapped = perm.invert_offsets(offsets2)
        l_spa, d_offsets, d_mapped = losses._spatial_arrays(out_a["offsets"], mapped)
        d_anchors2 = refine_backward(params, model_cfg, trace2, perm.backprop_inverse(d_mapped),
                                     np.zeros(model_cfg.n_modes), grads)
        d_comp = d_comp + perm.backprop_inverse(d_anchors2)

    parts = (l_reg, l_cls, l_temp, l_spa)
    if not all(math.isfinite(p) for p in parts):
        raise NonFiniteLoss(f"{scenario.scenario_id}: loss parts {parts}")

    upstream = {"completion": d_comp, "refined": d_ref, "probs": d_probs, "offsets": d_offsets}
    grads.flat += backward(params, trace_a, upstream).flat
    if config.use_temp:
        grads.flat += backward(params, trace_b, {"refined": d_ref_b}).flat
    return losses.make_breakdown(*parts), grads


def train(config: TrainConfig, scenarios, pseudo_targets: dict | None = None,
          log_path=None, checkpoint_path=None, initial_params: ParamStore | None = None):
    """Run the optimization; returns (params, model_cfg, log record list).

    Per-epoch shuffling, augmentation, and spatial permutations come from a
    single generator seeded by config.seed. Each log record is one optimizer
    step with batch-mean loss parts; the same records go to log_path as
    JSON lines when given.
    """
    if not scenarios:
        raise ValueError("cannot train on an empty dataset")
    model_cfg = config.model_config()
    params = initial_params if initial_params is not None else init_params(model_cfg, config.seed)
    optimizer = Adam(params)
    rng = np.random.default_rng(config.seed)
    use_pseudo = config.use_mpt and pseudo_targets is not None

    records = []
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        step = 0
        for epoch in range(config.epochs):
            lr = lr_at_epoch(config, epoch)
            order = rng.permutation(len(scenarios))
            for start in range(0, len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                sums = np.zeros(4)
                grads = params.zeros_like()
                for idx in batch:
                    sc = scenarios[int(idx)]
                    pseudo = pseudo_targets.get(sc.scenario_id) if use_pseudo else None
                    breakdown, g = _scenario_step(params, model_cfg, config, sc, pseudo, rng)
                    sums += (breakdown.l_reg, breakdown.l_cls,
                             breakdown.l_temp, breakdown.l_spa)
                    grads.flat += g.flat
                n = len(batch)
                grads.flat /= n
                optimizer.step(params, grads, lr)
                mean = losses.make_breakdown(*(sums / n))
                record = {"epoch": epoch, "step": step, "lr": lr, **mean.to_dict()}
                records.append(record)
                if log_file:
                    log_file.write(json.dumps(record, sort_keys=True) + "\n")
                step += 1
    finally:
        if log_file:
            log_file.close()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, params, model_cfg, seed=config.seed,
                        epoch=config.epochs, extra={"config": config.to_dict()})
    return params, model_cfg, records


def _check_shapes(model_cfg: ModelConfig, scenario: Scenario) -> None:
    if (scenario.history_len != model_cfg.history_len
            or scenario.future_len != model_cfg.horizon):
        raise ShapeMismatch(
            f"{scenario.scenario_id}: scenario frames "
            f"{scenario.history_len}+{scenario.future_len}, model expects "
            f"{model_cfg.history_len}+{model_cfg.horizon}")


def evaluate(params: ParamStore, model_cfg: ModelConfig, scenarios,
             dump_path=None) -> MetricReport:
    """Deterministic metric report; optionally dumps world-frame predictions."""
    pairs = []
    records = []
    for sc in scenarios:
        _check_shapes(model_cfg, sc)
        preds = predict(params, model_cfg, make_window(sc))
        pairs.append((preds, sc.gt_future()))
        records.append((sc.scenario_id, preds))
    rep = report(pairs, k_full=min(6, model_cfg.n_modes))
    if dump_path:
        from .ensemble import save_prediction_dump
        save_prediction_dump(dump_path, records)
    return rep


def evaluate_checkpoint(checkpoint_path, scenarios, dump_path=None) -> MetricReport:
    params, model_cfg, _ = load_checkpoint(checkpoint_path)
    return evaluate(params, model_cfg, scenarios, dump_path=dump_path)


def jitter_score(predict_fn, scenarios, s: int, criterion: str = "ade") -> float:
    """Streaming-stability proxy: how much predictions move between windows.

    For each scenario, predictions from the nominal window and the window s
    frames later (same world frame) are paired by mutual-nearest-neighbor
    matching over their overlapping steps; the score is the mean matched
    overlap ADE across scenarios. 0 means perfectly consistent.
    """
    if not scenarios:
        raise ValueError("jitter needs at least one scenario")
    total = 0.0
    for sc in scenarios:
        window_a, window_b = make_shift_pair(sc, s)
        preds_a = predict_fn(window_a)
        preds_b = predict_fn(window_b)
        overlap = len(preds_a.trajectories[0]) - s
        sim = similarity(preds_a.trajectories, preds_b.trajectories,
                         criterion=criterion, overlap=overlap)
        pairs = match(sim, "bidirectional").pairs
        if pairs:
            total += float(np.mean([sim.cost[i, j] for i, j in pairs]))
    return total / len(scenarios)


def jitter_checkpoint(checkpoint_path, scenarios, s: int) -> float:
    params, model_cfg, _ = load_checkpoint(checkpoint_path)
    for sc in scenarios:
        _check_shapes(model_cfg, sc)
    return jitter_score(lambda w: predict(params, model_cfg, w), scenarios, s)


def branch_coverage(params: ParamStore, model_cfg: ModelConfig, scenarios,
                    threshold: float = 2.0) -> float:
    """Fraction of latent junction branches hit by any prediction.

    A branch counts as covered when some predicted trajectory ends within
    `threshold` meters of the branch's endpoint. Averaged over junction
    scenarios; scenarios without branches are ignored.
    """
    covered = []
    for sc in scenarios:
        branches = branch_futures(sc)
        if not branches:
            continue
        _check_shapes(model_cfg, sc)
        preds = predict(params, model_cfg, make_window(sc))
        hits = sum(
            1 for b in branches
            if any(fde(p, b) < threshold for p in preds.trajectories)
        )
        covered.append(hits / len(branches))
    if not covered:
        raise ValueError("no junction scenarios in the dataset")
    return float(np.mean(covered))


# ---------------------------------------------------------------------------
# experiment grid

TOGGLE_NAMES = ("use_goal", "use_refine", "use_temp", "use_spatial", "use_mpt")


def table2_rows() -> list:
    """Cumulative-ablation toggle rows (7 rows, base to full model)."""

    def row(label, goal, ref, temp, spa, mpt):
        return {"label": label, "use_goal": goal, "use_refine": ref,
                "use_temp": temp, "use_spatial": spa, "use_mpt": mpt}

    return [
        row("base", False, False, False, False, False),
        row("goal", True, False, False, False, False),
        row("goal+ref", True, True, False, False, False),
        row("goal+ref+temp", True, True, True, False, False),
        row("goal+ref+spatial", True, True, False, True, False),
        row("goal+ref+temp+spatial", True, True, True, True, False),
        row("full", True, True, True, True, True),
    ]


def grid_configs(grid: dict) -> list:
    """(label, TrainConfig) for each row of a grid spec, all built up front:
    grid = {"base": {config overrides}, "rows": [{"label", overrides...}]}."""
    base = grid.get("base", {})
    return [(row.get("label", ""),
             make_config({**base, **{k: v for k, v in row.items() if k != "label"}}))
            for row in grid["rows"]]


def run_grid(grid: dict, train_scenarios, eval_scenarios,
             pseudo_targets: dict | None = None, out_csv=None) -> list:
    """Train and evaluate every row of a grid spec; returns the result rows.

    The spec is read by `grid_configs`, so a bad row fails before any
    training. Rows with use_mpt need pseudo_targets. Results optionally go
    to a CSV whose columns mirror the toggle set plus the metric report.
    """
    results = []
    for label, config in grid_configs(grid):
        if config.use_mpt and pseudo_targets is None:
            raise ValueError(f"row {label!r} needs pseudo targets")
        params, model_cfg, _ = train(config, train_scenarios, pseudo_targets=pseudo_targets)
        rep = evaluate(params, model_cfg, eval_scenarios)
        row = {"label": label}
        for name in TOGGLE_NAMES:
            row[name.replace("use_", "")] = getattr(config, name)
        row.update(rep.to_dict())
        results.append(row)
    if out_csv:
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(results[0].keys()))
            writer.writeheader()
            writer.writerows(results)
    return results
