"""Training loop, evaluation, jitter scoring, and the experiment grid.

Everything here is deterministic for a fixed seed: shuffling, augmentation,
and the spatial permutations all draw from one seeded generator in a fixed
order, gradient accumulation is index-ordered, and checkpoints serialize
floats exactly. Running the same config twice gives byte-identical logs,
checkpoints, and reports.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from . import losses
from .core import (FUTURE_LEN, HISTORY_LEN, TrajcastError, compose_frames, sample_transform,
                   text_input)
from .data import (MAX_NOISE, _batch_windows, _scenario_arrays, branch_futures, check_windows,
                   make_shift_pair, make_window)
from .matching import CRITERIA, STRATEGIES, match, similarity
from .metrics import MISS_THRESHOLD_METERS, MetricReport, report
from .predictor import (HEAD_BLOCK, ModelConfig, ParamStore, backward, forward, init_params,
                        load_checkpoint, predict, refine_backward, refine_forward,
                        save_checkpoint)


class NonFiniteLoss(TrajcastError):
    """Training produced a non-finite loss; message names the scenario."""


class ShapeMismatch(TrajcastError):
    """Checkpoint dimensions disagree with the dataset."""


class NonFinitePrediction(TrajcastError):
    """A model predicted a non-finite trajectory or score; message names the
    scenario."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and toggles for one training run.

    Field names double as the config-file key vocabulary. Every field is
    checked here, so a bad value stops a command before it reads any data;
    each message names the key. A bool field takes a bool, an int field an
    int that is not a bool, a float field an int or a float that is not a
    bool, and a str field a str.

    No training code reads `j`: with use_mpt, training pads every scenario
    to the largest entry of its pseudo targets, whose count `trajcast
    cluster --j` sets. The field stays because config files and checkpoints
    carry it.
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
        for key, kind in _FIELD_TYPES.items():
            value, kinds = getattr(self, key), (int, float) if kind is float else kind
            if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"config key {key!r}: expected {kind.__name__}, "
                                 f"got {value!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("need epochs >= 0, batch_size >= 1")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"need 0 <= lr < inf, got {self.lr}")
        if not (0 < self.lr_decay <= 1) or self.lr_decay_every < 1:
            raise ValueError("need 0 < lr_decay <= 1 and lr_decay_every >= 1")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")
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
        if not 0 <= self.aug_flip <= 1:
            raise ValueError(f"need 0 <= aug_flip <= 1, got aug_flip={self.aug_flip}")
        # an infinite bound would overflow the uniform draw of sample_transform
        if not 0 < self.aug_scale_lo <= self.aug_scale_hi < math.inf:
            raise ValueError(f"need 0 < aug_scale_lo <= aug_scale_hi < inf, got aug_scale_lo="
                             f"{self.aug_scale_lo}, aug_scale_hi={self.aug_scale_hi}")
        if not 0 <= self.heading_jitter_deg < math.inf:
            raise ValueError(f"need 0 <= heading_jitter_deg < inf, "
                             f"got {self.heading_jitter_deg}")
        if not 0 <= self.spatial_flip_prob <= 1:
            raise ValueError(f"need 0 <= spatial_flip_prob <= 1, "
                             f"got spatial_flip_prob={self.spatial_flip_prob}")
        if not 0 <= self.spatial_noise < math.inf:
            raise ValueError(f"need 0 <= spatial_noise < inf, got {self.spatial_noise}")
        if self.spatial_noise > MAX_NOISE:
            raise ValueError(f"need spatial_noise <= {MAX_NOISE:g}, got {self.spatial_noise}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(n_modes=self.k, horizon=self.horizon,
                           history_len=self.history_len, feature_dim=self.feature_dim,
                           use_goal=self.use_goal, use_refine=self.use_refine)

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
    """Config from defaults <- file <- overrides."""
    values = {}
    if config_path is not None:
        with text_input(config_path) as fh:
            lines = fh.read().splitlines()
        for n, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{config_path}: line {n}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{config_path}: line {n}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, raw.strip())
            except ValueError as exc:
                raise ValueError(f"{config_path}: line {n}: {exc}") from None
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _coerce(key, val) if isinstance(val, str) else val
    return TrainConfig(**values)


# Adam's moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Plain Adam with bias correction; one shared step counter."""

    def __init__(self, params: ParamStore):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, params: ParamStore, grads: ParamStore, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        g = grads.flat
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        params.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        params.bump()


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Step decay: lr * decay^(epoch // every), epoch counted from 0."""
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


# glibc's mallopt parameters, and the values `train` gives them: the largest
# mmap threshold glibc accepts on 64-bit, and a trim threshold well above a
# training step's working set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def _steady_heap() -> None:
    """Fix the C heap's thresholds for the process, so each training step
    takes its arrays from the heap as the step before did.

    By default glibc maps an allocation above a threshold afresh, and the
    system zero-fills its pages as they are first touched; it returns a
    free heap top above a second threshold to the system; and it raises
    both thresholds when a mapped block is freed. Whether a step's arrays
    are mapped and faulted in anew each step then depends on what the
    process freed before: on the desk config a step took 0 or about 1,400
    minor page faults by that alone, and the training rate moved with them.
    A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def _scenario_step(params: ParamStore, model_cfg: ModelConfig, config: TrainConfig,
                   batch, rng: np.random.Generator):
    """Loss parts and summed parameter gradients for a minibatch of (cached,
    un-augmented) ScenarioArrays.

    Per scenario, in batch order, the rng draws the flip, scale and heading
    jitter (`sample_transform`) and then the spatial permutation. Every
    window of the batch (`_batch_windows`) goes through one forward and one
    backward pass, and the spatial second refine pass runs once over the
    batch. Returns (parts, grads): parts is (B, 4) with columns l_reg,
    l_cls, l_temp, l_spa per scenario; grads sums over the batch. A batch of
    one is the single-scenario step.
    """
    k, t, m, s = model_cfg.n_modes, model_cfg.horizon, model_cfg.history_len, config.s
    n = len(batch)
    tfs, perms = [], []
    for _ in batch:
        tfs.append(sample_transform(config.aug_flip, config.aug_scale_lo, config.aug_scale_hi,
                                    config.heading_jitter_deg, rng))
        if config.use_spatial:
            perms.append(losses.sample_permutation(rng, (k, t, 2),
                                                   p_flip=config.spatial_flip_prob,
                                                   noise_scale=config.spatial_noise))
    inputs, targets = _batch_windows(batch, (0, s) if config.use_temp else (0,), tfs)

    out, trace = forward(params, model_cfg, inputs)
    grads = params.zeros_like()
    completion, refined = out["completion"][:n], out["refined"][:n]
    l_reg, l_cls, d_comp, d_ref, d_probs = losses.target_losses(
        completion, refined, out["probs"][:n], targets,
        np.stack([a.confidences for a in batch]), refined_reg=config.use_refine)

    l_temp = l_spa = np.zeros(n)
    if config.use_temp:
        # window B's refined outputs mapped into window A's frame
        frame_map = compose_frames(inputs.frames[n:], inputs.frames[:n])
        l_temp, d_a_temp, d_b_in_a = losses._temporal_arrays(
            refined, frame_map.apply(out["refined"][n:]), s, config.strategy, config.criterion)
        d_ref = d_ref + d_a_temp
        d_ref_b = frame_map.backprop(d_b_in_a)

    upstream = {"completion": d_comp, "refined": d_ref, "probs": d_probs}
    if config.use_spatial:
        perm = losses.SpatialPermutation.stack(perms)
        anchors2, hist2 = perm.apply(completion, inputs.hist_flat[:n].reshape(n, m, 2))
        offsets2, _, trace2 = refine_forward(params, model_cfg, anchors2, hist2.reshape(n, -1))
        mapped = perm.invert_offsets(offsets2)
        l_spa, upstream["offsets"], d_mapped = losses._spatial_arrays(out["offsets"][:n], mapped)
        d_anchors2 = refine_backward(params, model_cfg, trace2, perm.backprop_inverse(d_mapped),
                                     np.zeros((n, k)), grads)
        upstream["completion"] = d_comp + perm.backprop_inverse(d_anchors2)

    parts = np.stack([l_reg, l_cls, l_temp, l_spa], axis=1)
    finite = np.isfinite(parts).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteLoss(f"{batch[bad].scenario_id}: loss parts {tuple(parts[bad].tolist())}")

    if config.use_temp:  # window B's only upstream gradient is its refined output's
        for name, g in upstream.items():
            upstream[name] = np.zeros((2 * n,) + g.shape[1:])
            upstream[name][:n] = g
        upstream["refined"][n:] = d_ref_b
    grads.flat += backward(params, trace, upstream).flat
    return parts, grads


# a step record's keys; `trajcast report` charts its loss keys, in this order
LOSS_KEYS = ("total", "l_reg", "l_cls", "l_temp", "l_spa")
STEP_KEYS = ("epoch", "step", "lr", *LOSS_KEYS, "grad_norm", "param_norm")


def train(config: TrainConfig, scenarios, pseudo_targets: dict | None = None,
          log_path=None, checkpoint_path=None):
    """Run the optimization; returns (params, model_cfg, log record list).

    Every scenario (and its pseudo-target entry) is checked and stacked into
    ScenarioArrays before step 0 (`_training_arrays`). Per-epoch shuffling,
    augmentation, and spatial permutations come from a single generator
    seeded by config.seed.
    Each log record is one optimizer step, a dict with the `STEP_KEYS`:
    the batch-mean loss parts, their total (l_reg + l_cls + l_temp + l_spa,
    added in that order), the norm of the batch-mean gradient and the
    parameter norm after the step; the same records go to log_path as JSON
    lines when given. The C heap's thresholds are fixed for the process
    first (`_steady_heap`).
    """
    if not scenarios:
        raise ValueError("cannot train on an empty dataset")
    model_cfg = config.model_config()
    cached = _training_arrays(config, scenarios, pseudo_targets)
    _steady_heap()

    params = init_params(model_cfg, config.seed)
    optimizer = Adam(params)
    rng = np.random.default_rng(config.seed)

    records = []
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        step = 0
        for epoch in range(config.epochs):
            lr = lr_at_epoch(config, epoch)
            order = rng.permutation(len(scenarios))
            for start in range(0, len(order), config.batch_size):
                batch = [cached[int(idx)] for idx in order[start:start + config.batch_size]]
                parts, grads = _scenario_step(params, model_cfg, config, batch, rng)
                n = len(batch)
                grads.flat /= n
                grad_norm = _norm(grads.flat)
                optimizer.step(params, grads, lr)
                l_reg, l_cls, l_temp, l_spa = (parts.sum(axis=0) / n).tolist()
                record = dict(zip(STEP_KEYS, (
                    epoch, step, lr, l_reg + l_cls + l_temp + l_spa, l_reg, l_cls, l_temp, l_spa,
                    grad_norm, _norm(params.flat))))
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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by numpy's own summation: np.linalg.norm takes a BLAS
    dot product, whose last digit depends on the BLAS thread count."""
    return float(np.sqrt(np.sum(v * v)))


def _check_lengths(model_cfg: ModelConfig, scenarios) -> None:
    """Every scenario must have the model's lengths, else ShapeMismatch
    naming the first that does not. Commands run this, then check each
    scenario's windows once (`_scenario_arrays`), before any work."""
    for sc in scenarios:
        if (sc.history_len, sc.future_len) != (model_cfg.history_len, model_cfg.horizon):
            raise ShapeMismatch(
                f"{sc.scenario_id}: scenario frames {sc.history_len}+{sc.future_len}, "
                f"model expects {model_cfg.history_len}+{model_cfg.horizon}")


def _training_arrays(config: TrainConfig, scenarios, pseudo_targets: dict | None) -> list:
    """The ScenarioArrays that `train` steps on, built in the pass it makes
    over its inputs before step 0. use_mpt needs pseudo targets (else
    ValueError), and only use_mpt reads them; every scenario must have the
    model's lengths (`_check_lengths`); with use_mpt, some scenario must have
    a pseudo-target entry (else ValueError: the run would be a plain one);
    and `_scenario_arrays` checks each scenario's windows and its entry,
    padded to the largest entry. The first scenario that fails is named."""
    if config.use_mpt and pseudo_targets is None:
        raise ValueError("use_mpt needs pseudo targets")
    _check_lengths(config.model_config(), scenarios)
    entries = [pseudo_targets.get(sc.scenario_id) if config.use_mpt else None
               for sc in scenarios]
    if config.use_mpt and all(entry is None for entry in entries):
        raise ValueError("use_mpt: no training scenario has a pseudo-target entry")
    n_pseudo = max((len(e[0]) for e in entries if e is not None), default=0)
    shift = config.s if config.use_temp else 0
    return [_scenario_arrays(sc, shift, entry, n_pseudo) for sc, entry in zip(scenarios, entries)]


def _chunks(scenarios) -> list:
    """The scenarios in runs of `HEAD_BLOCK`. Commands build their windows a
    run at a time, so memory does not grow with the split; a full run's
    nominal (or shifted) windows fill one of `predict`'s head blocks."""
    return [scenarios[start:start + HEAD_BLOCK] for start in range(0, len(scenarios), HEAD_BLOCK)]


def _finite(run, predictions):
    """A run's predictions, ((S, K, T, 2) trajectories, (S, K) scores), once
    checked to be finite; else NonFinitePrediction naming the run's first
    scenario with a non-finite value."""
    trajs, scores = predictions
    finite = np.isfinite(trajs).all(axis=(1, 2, 3)) & np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise NonFinitePrediction(f"{run[int(np.argmin(finite))].scenario_id}: "
                                  f"the model predicts non-finite trajectories or scores")
    return predictions


def _nominal_predictions(params: ParamStore, model_cfg: ModelConfig, scenarios):
    """`predict` on each scenario's nominal window, once all are checked and
    stacked (`_scenario_arrays`), cut (`make_window`) and predicted a run
    (`_chunks`) at a time: ((S, K, T, 2) world-frame trajectories, (S, K)
    scores). A non-finite prediction stops it (`_finite`)."""
    _check_lengths(model_cfg, scenarios)
    arrays = [_scenario_arrays(sc, 0) for sc in scenarios]
    trajs = np.empty((len(scenarios), model_cfg.n_modes, model_cfg.horizon, 2))
    scores = np.empty((len(scenarios), model_cfg.n_modes))
    start = 0
    for chunk in _chunks(arrays):
        end = start + len(chunk)
        trajs[start:end], scores[start:end] = _finite(
            chunk, predict(params, model_cfg, make_window(chunk)))
        start = end
    return trajs, scores


def _save_dump(dump_path, scenarios, predictions) -> None:
    from .ensemble import save_prediction_dump
    save_prediction_dump(dump_path, zip([sc.scenario_id for sc in scenarios], *predictions))


def evaluate(params: ParamStore, model_cfg: ModelConfig, scenarios,
             dump_path=None) -> MetricReport:
    """Deterministic metric report; optionally dumps world-frame predictions."""
    predictions = _nominal_predictions(params, model_cfg, scenarios)
    gt = np.reshape([sc.target.xy[sc.history_len:] for sc in scenarios],
                    (len(scenarios), model_cfg.horizon, 2))
    rep = report(predictions, gt, k_full=min(6, model_cfg.n_modes))
    if dump_path:
        _save_dump(dump_path, scenarios, predictions)
    return rep


def evaluate_checkpoint(checkpoint_path, scenarios, dump_path=None) -> MetricReport:
    params, model_cfg, _ = load_checkpoint(checkpoint_path)
    return evaluate(params, model_cfg, scenarios, dump_path=dump_path)


def dump_checkpoint(checkpoint_path, scenarios, dump_path) -> None:
    """A checkpoint's prediction dump, as `evaluate` writes it, without the
    report."""
    params, model_cfg, _ = load_checkpoint(checkpoint_path)
    _save_dump(dump_path, scenarios, _nominal_predictions(params, model_cfg, scenarios))


def jitter_score(predict_fn, scenarios, s: int) -> float:
    """Streaming-stability proxy: how much predictions move between windows.

    For each scenario, predictions from the nominal window and the window s
    frames later (same world frame) are paired by mutual-nearest-neighbor
    matching over their overlapping steps; the score is the mean matched
    overlap ADE across scenarios. 0 means perfectly consistent. Needs
    1 <= s < future_len; every scenario is checked before the first
    prediction.

    predict_fn maps a W-window WindowBatch to ((W, K, T, 2) world-frame
    trajectories, (W, K) scores), as `predict` does. Every scenario is
    checked and stacked first (`_scenario_arrays`); then the windows are cut
    a run of scenarios at a time (`make_shift_pair` on each of `_chunks`),
    and predict_fn is called on each run's nominal and shifted windows. A
    non-finite prediction stops it (`_finite`). Each run's (S, K, K) cost
    stack is built by one `similarity` and paired by one `match`; then each
    scenario's matched costs, in pair order, are summed and divided by
    their count, as `np.mean` does, so the score keeps the bits of one
    `similarity`, `match` and `np.mean` per scenario.
    """
    if not scenarios:
        raise ValueError("jitter needs at least one scenario")
    horizon = min(sc.future_len for sc in scenarios)
    if not 1 <= s < horizon:
        raise ValueError(f"jitter needs 1 <= s < {horizon}, got s={s}")
    arrays = [_scenario_arrays(sc, s) for sc in scenarios]
    total = 0.0
    for chunk in _chunks(arrays):
        trajs_a, trajs_b = (_finite(chunk, predict_fn(batch))[0]
                            for batch in make_shift_pair(chunk, s))
        sim = similarity(trajs_a, trajs_b, criterion="ade", overlap=trajs_a.shape[-2] - s)
        where = np.array(match(sim, "bidirectional").pairs).T  # scenario, row, column
        costs = sim.cost[tuple(where)]
        ends = np.cumsum(np.bincount(where[0], minlength=len(chunk))).tolist()
        for start, end in zip([0, *ends], ends):
            total += float(costs[start:end].sum() / (end - start))  # np.mean's bits
    return total / len(scenarios)


def jitter_checkpoint(checkpoint_path, scenarios, s: int) -> float:
    params, model_cfg, _ = load_checkpoint(checkpoint_path)
    _check_lengths(model_cfg, scenarios)
    return jitter_score(lambda w: predict(params, model_cfg, w), scenarios, s)


def branch_coverage(params: ParamStore, model_cfg: ModelConfig, scenarios) -> float:
    """Fraction of latent junction branches hit by any prediction.

    A branch counts as covered when some predicted trajectory ends within
    MISS_THRESHOLD_METERS of the branch's endpoint. Averaged over junction
    scenarios; scenarios without branches are ignored.
    """
    junctions = [(sc, branch_futures(sc)) for sc in scenarios]
    junctions = [(sc, branches) for sc, branches in junctions if branches]
    if not junctions:
        raise ValueError("no junction scenarios in the dataset")
    trajs, _ = _nominal_predictions(params, model_cfg, [sc for sc, _ in junctions])
    covered = []
    for (_, branches), preds in zip(junctions, trajs):
        ends = np.array([b.points[-1] for b in branches])                     # (B, 2)
        dists = np.linalg.norm(preds[:, None, -1] - ends, axis=-1)            # (K, B)
        covered.append(int((dists < MISS_THRESHOLD_METERS).any(axis=0).sum()) / len(branches))
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

    The spec is read by `grid_configs`, and both splits are checked against
    every row's config, so a bad row or scenario fails before any training:
    the training inputs as `train` checks them (`_training_arrays`; so rows
    with use_mpt need pseudo_targets, and a ValueError names the row), the
    eval split by its lengths and nominal windows. Results optionally go to
    a CSV whose columns mirror the toggle set plus the metric report.
    """
    configs = grid_configs(grid)
    for label, config in configs:
        try:
            _training_arrays(config, train_scenarios, pseudo_targets)
        except ValueError as exc:
            raise ValueError(f"row {label!r}: {exc}") from None
        _check_lengths(config.model_config(), eval_scenarios)
    for sc in eval_scenarios:
        check_windows(sc)
    results = []
    for label, config in configs:
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
