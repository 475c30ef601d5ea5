"""Two-stage trajectory predictor with analytically computed gradients.

Stage 1: a pooled point encoder (per-point affine+ReLU layers summed into a
single feature vector), a goal head, and a trajectory completion head that
decodes one full trajectory per goal. Stage 2: a refinement head that treats
the completed trajectories as anchors and regresses per-anchor offsets plus
raw classification scores.

Forward passes cache every intermediate needed for exact reverse-mode
differentiation; `backward` consumes that trace. No autograd framework is
involved, which keeps training deterministic and the gradient path
inspectable.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import PredictionSet, Trajectory, TrajcastError, Window, from_frame_xy

FEATURE_DIM = 5  # (x, y, t_rel_seconds, is_map, present)


class EmptyHistory(TrajcastError):
    """Encoder input has no history points."""


class StaleTrace(TrajcastError):
    """Backward called with a trace from an older parameter state."""


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and toggles of the predictor."""

    n_modes: int = 6        # K
    horizon: int = 30       # T
    history_len: int = 20   # M
    feature_dim: int = 64   # C
    use_goal: bool = True
    use_refine: bool = True

    def __post_init__(self):
        if min(self.n_modes, self.horizon, self.history_len, self.feature_dim) < 1:
            raise ValueError("all model dimensions must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _layer_shapes(cfg: ModelConfig) -> list:
    """Declared layer order; parameter init consumes the rng in this order."""
    c, k, t, m = cfg.feature_dim, cfg.n_modes, cfg.horizon, cfg.history_len
    shapes = [
        ("enc.w1", (FEATURE_DIM, c)), ("enc.b1", (c,)),
        ("enc.w2", (c, c)), ("enc.b2", (c,)),
    ]
    if cfg.use_goal:
        shapes += [
            ("goal.w1", (c, c)), ("goal.b1", (c,)),
            ("goal.w2", (c, 2 * k)), ("goal.b2", (2 * k,)),
            ("comp.w1", (c + 2, c)), ("comp.b1", (c,)),
            ("comp.w2", (c, 2 * t)), ("comp.b2", (2 * t,)),
        ]
    else:
        shapes += [
            ("comp.w1", (c, c)), ("comp.b1", (c,)),
            ("comp.w2", (c, k * 2 * t)), ("comp.b2", (k * 2 * t,)),
        ]
    if cfg.use_refine:
        shapes += [
            ("ref.w0", (2 * t + 2 * m, c)), ("ref.b0", (c,)),
            ("ref.w1", (c, c)), ("ref.b1", (c,)),
            ("ref.w2", (c, c)), ("ref.b2", (c,)),
            ("ref.wreg", (c, 2 * t)), ("ref.breg", (2 * t,)),
            ("ref.wcls", (c, 1)), ("ref.bcls", (1,)),
        ]
    else:
        shapes += [("cls.w", (c, k)), ("cls.b", (k,))]
    return shapes


class ParamStore:
    """Mutable parameter container with a version counter.

    Traces record the version they were built against; mutating parameters
    through `bump()` (as the optimizer does once per step) invalidates them.
    """

    def __init__(self, arrays: dict):
        self.arrays = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
        self.version = 0

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    def keys(self):
        return self.arrays.keys()

    def items(self):
        return self.arrays.items()

    def bump(self) -> None:
        self.version += 1

    def zeros_like(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}

    def copy(self) -> "ParamStore":
        return ParamStore({k: v.copy() for k, v in self.arrays.items()})


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Uniform init in [-a, a] with a = sqrt(1 / fan_in), per layer."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _layer_shapes(cfg):
        fan_in = shape[0] if len(shape) == 2 else _fan_in_for_bias(name, cfg)
        a = math.sqrt(1.0 / fan_in)
        arrays[name] = rng.uniform(-a, a, size=shape)
    return ParamStore(arrays)


def _fan_in_for_bias(name: str, cfg: ModelConfig) -> int:
    # bias bound follows its layer's weight fan-in
    weight_name = name.replace(".b", ".w")
    for n, shape in _layer_shapes(cfg):
        if n == weight_name:
            return shape[0]
    raise KeyError(name)


def zero_params(cfg: ModelConfig) -> ParamStore:
    return ParamStore({name: np.zeros(shape) for name, shape in _layer_shapes(cfg)})


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _softmax_backprop(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    return p * (d_p - float(d_p @ p))


def featurize(window: Window) -> np.ndarray:
    """Stack history and map points into the (N, 5) encoder input.

    History rows carry their time offset in seconds relative to t=0 and the
    presence flag; map rows are tagged is_map=1. All coordinates are in the
    window's agent frame.
    """
    m = window.history_len
    if m == 0:
        raise EmptyHistory(f"window for {window.scenario_id} has no history points")
    hist = window.history_in_frame()
    t_rel = (np.arange(m) - (m - 1)) * window.dt
    rows = [np.column_stack([hist, t_rel, np.zeros(m), window.history_mask.astype(np.float64)])]
    for poly in window.maps_in_frame():
        n = poly.shape[0]
        rows.append(np.column_stack([poly, np.zeros(n), np.ones(n), np.ones(n)]))
    return np.concatenate(rows, axis=0)


@dataclass
class RefineTrace:
    anchors_flat: np.ndarray
    r_in: np.ndarray
    h0: np.ndarray
    z5: np.ndarray
    a5: np.ndarray
    h: np.ndarray


@dataclass
class ForwardTrace:
    """Cached activations for exact backprop, tied to one parameter version."""

    params_id: int
    params_version: int
    cfg: ModelConfig
    points: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    h2: np.ndarray
    phi: np.ndarray
    z3: np.ndarray | None
    g1: np.ndarray | None
    goals: np.ndarray | None
    comp_in: np.ndarray
    z4: np.ndarray
    c1: np.ndarray
    completion: np.ndarray
    hist_flat: np.ndarray
    refine: RefineTrace | None
    raw_cls: np.ndarray
    probs: np.ndarray
    outputs: dict = field(default_factory=dict)


def refine_forward(params: ParamStore, cfg: ModelConfig, anchors: np.ndarray,
                   hist_flat: np.ndarray):
    """Refinement head: residual block over (anchor, history), linear outputs.

    Returns (offsets (K, T, 2), raw_cls (K,), RefineTrace).
    """
    k, t = anchors.shape[0], cfg.horizon
    anchors_flat = anchors.reshape(k, 2 * t)
    r_in = np.concatenate([anchors_flat, np.tile(hist_flat, (k, 1))], axis=1)
    h0 = r_in @ params["ref.w0"] + params["ref.b0"]
    z5 = h0 @ params["ref.w1"] + params["ref.b1"]
    a5 = _relu(z5)
    h = h0 + a5 @ params["ref.w2"] + params["ref.b2"]
    offsets = (h @ params["ref.wreg"] + params["ref.breg"]).reshape(k, t, 2)
    raw_cls = (h @ params["ref.wcls"] + params["ref.bcls"]).ravel()
    trace = RefineTrace(anchors_flat=anchors_flat, r_in=r_in, h0=h0, z5=z5, a5=a5, h=h)
    return offsets, raw_cls, trace


def refine_backward(params: ParamStore, cfg: ModelConfig, trace: RefineTrace,
                    d_offsets: np.ndarray, d_raw: np.ndarray, grads: dict):
    """Backprop through the refinement head.

    Accumulates parameter gradients into `grads`; returns the gradient
    w.r.t. the anchor trajectories, shape (K, T, 2).
    """
    k, t = d_offsets.shape[0], cfg.horizon
    d_off_flat = d_offsets.reshape(k, 2 * t)
    d_h = d_off_flat @ params["ref.wreg"].T + d_raw[:, None] @ params["ref.wcls"].T
    grads["ref.wreg"] += trace.h.T @ d_off_flat
    grads["ref.breg"] += d_off_flat.sum(axis=0)
    grads["ref.wcls"] += trace.h.T @ d_raw[:, None]
    grads["ref.bcls"] += np.array([d_raw.sum()])
    # residual block: h = h0 + relu(h0 w1 + b1) w2 + b2
    d_a5 = d_h @ params["ref.w2"].T
    grads["ref.w2"] += trace.a5.T @ d_h
    grads["ref.b2"] += d_h.sum(axis=0)
    d_z5 = d_a5 * (trace.z5 > 0)
    grads["ref.w1"] += trace.h0.T @ d_z5
    grads["ref.b1"] += d_z5.sum(axis=0)
    d_h0 = d_h + d_z5 @ params["ref.w1"].T
    grads["ref.w0"] += trace.r_in.T @ d_h0
    grads["ref.b0"] += d_h0.sum(axis=0)
    d_r_in = d_h0 @ params["ref.w0"].T
    return d_r_in[:, : 2 * t].reshape(k, t, 2)


def forward(params: ParamStore, cfg: ModelConfig, window: Window):
    """Full two-stage forward pass.

    Returns (outputs, trace). outputs holds agent-frame arrays:
      phi (C,), goals (K, 2) or None, completion (K, T, 2),
      offsets (K, T, 2), refined (K, T, 2), raw_cls (K,), probs (K,).
    """
    points = featurize(window)
    z1 = points @ params["enc.w1"] + params["enc.b1"]
    h1 = _relu(z1)
    z2 = h1 @ params["enc.w2"] + params["enc.b2"]
    h2 = _relu(z2)
    phi = h2.sum(axis=0)

    if cfg.use_goal:
        z3 = phi @ params["goal.w1"] + params["goal.b1"]
        g1 = _relu(z3)
        goals = (g1 @ params["goal.w2"] + params["goal.b2"]).reshape(cfg.n_modes, 2)
        comp_in = np.concatenate([np.tile(phi, (cfg.n_modes, 1)), goals], axis=1)
    else:
        z3 = g1 = goals = None
        comp_in = phi[None, :]
    z4 = comp_in @ params["comp.w1"] + params["comp.b1"]
    c1 = _relu(z4)
    flat = c1 @ params["comp.w2"] + params["comp.b2"]
    completion = flat.reshape(cfg.n_modes, cfg.horizon, 2)

    hist_flat = window.history_in_frame().reshape(-1)
    if cfg.use_refine:
        offsets, raw_cls, ref_trace = refine_forward(params, cfg, completion, hist_flat)
        refined = completion + offsets
    else:
        ref_trace = None
        offsets = np.zeros_like(completion)
        refined = completion
        raw_cls = phi @ params["cls.w"] + params["cls.b"]
    probs = _softmax(raw_cls)

    outputs = {
        "phi": phi, "goals": goals, "completion": completion,
        "offsets": offsets, "refined": refined, "raw_cls": raw_cls, "probs": probs,
    }
    trace = ForwardTrace(
        params_id=id(params), params_version=params.version, cfg=cfg,
        points=points, z1=z1, h1=h1, z2=z2, h2=h2, phi=phi,
        z3=z3, g1=g1, goals=goals, comp_in=comp_in, z4=z4, c1=c1,
        completion=completion, hist_flat=hist_flat, refine=ref_trace,
        raw_cls=raw_cls, probs=probs, outputs=outputs,
    )
    return outputs, trace


def backward(params: ParamStore, trace: ForwardTrace, upstream: dict) -> dict:
    """Exact parameter gradients for a forward trace.

    `upstream` maps output names ("refined", "completion", "offsets",
    "probs", "raw_cls", "goals", "phi") to gradients of the training scalar
    w.r.t. those outputs; missing entries are treated as zero.

    Raises StaleTrace when the parameters changed since the forward pass.
    """
    if trace.params_id != id(params) or trace.params_version != params.version:
        raise StaleTrace("parameters changed since this trace was recorded")
    cfg = trace.cfg
    k, t, c = cfg.n_modes, cfg.horizon, cfg.feature_dim
    grads = params.zeros_like()

    d_refined = np.asarray(upstream.get("refined", 0.0)) + np.zeros((k, t, 2))
    d_completion = np.asarray(upstream.get("completion", 0.0)) + np.zeros((k, t, 2))
    d_offsets = np.asarray(upstream.get("offsets", 0.0)) + np.zeros((k, t, 2))
    d_goals = np.asarray(upstream.get("goals", 0.0)) + np.zeros((k, 2))
    d_phi = np.asarray(upstream.get("phi", 0.0)) + np.zeros(c)
    d_raw = np.asarray(upstream.get("raw_cls", 0.0)) + np.zeros(k)
    d_probs = upstream.get("probs")
    if d_probs is not None:
        d_raw = d_raw + _softmax_backprop(trace.probs, np.asarray(d_probs))

    # refined = completion + offsets (refine mode) or refined = completion
    d_completion = d_completion + d_refined
    if cfg.use_refine:
        d_offsets = d_offsets + d_refined
        d_anchor = refine_backward(params, cfg, trace.refine, d_offsets, d_raw, grads)
        d_completion = d_completion + d_anchor
    else:
        grads["cls.w"] += np.outer(trace.phi, d_raw)
        grads["cls.b"] += d_raw
        d_phi = d_phi + params["cls.w"] @ d_raw

    # completion head; without goals comp_in is the single row phi[None, :]
    d_flat = d_completion.reshape(trace.comp_in.shape[0], -1)
    d_c1 = d_flat @ params["comp.w2"].T
    grads["comp.w2"] += trace.c1.T @ d_flat
    grads["comp.b2"] += d_flat.sum(axis=0)
    d_z4 = d_c1 * (trace.z4 > 0)
    grads["comp.w1"] += trace.comp_in.T @ d_z4
    grads["comp.b1"] += d_z4.sum(axis=0)
    d_comp_in = d_z4 @ params["comp.w1"].T
    d_phi = d_phi + d_comp_in[:, :c].sum(axis=0)
    if cfg.use_goal:
        d_goals = d_goals + d_comp_in[:, c:]
        # goal head
        d_goal_flat = d_goals.reshape(-1)
        d_g1 = d_goal_flat @ params["goal.w2"].T
        grads["goal.w2"] += np.outer(trace.g1, d_goal_flat)
        grads["goal.b2"] += d_goal_flat
        d_z3 = d_g1 * (trace.z3 > 0)
        grads["goal.w1"] += np.outer(trace.phi, d_z3)
        grads["goal.b1"] += d_z3
        d_phi = d_phi + params["goal.w1"] @ d_z3

    # encoder: phi = sum_n h2[n]
    d_h2 = np.tile(d_phi, (trace.points.shape[0], 1))
    d_z2 = d_h2 * (trace.z2 > 0)
    grads["enc.w2"] += trace.h1.T @ d_z2
    grads["enc.b2"] += d_z2.sum(axis=0)
    d_h1 = d_z2 @ params["enc.w2"].T
    d_z1 = d_h1 * (trace.z1 > 0)
    grads["enc.w1"] += trace.points.T @ d_z1
    grads["enc.b1"] += d_z1.sum(axis=0)
    return grads


def predict(params: ParamStore, cfg: ModelConfig, window: Window) -> PredictionSet:
    """Inference: K world-frame trajectories with normalized scores."""
    outputs, _ = forward(params, cfg, window)
    trajs = tuple(
        Trajectory(points=from_frame_xy(outputs["refined"][i], window.frame), dt=window.dt)
        for i in range(cfg.n_modes)
    )
    return PredictionSet(trajectories=trajs, scores=outputs["probs"])


CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ParamStore, cfg: ModelConfig, seed: int,
                    epoch: int, extra: dict | None = None) -> None:
    """Versioned JSON checkpoint; float values round-trip exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model": cfg.to_dict(),
        "layer_shapes": {name: list(arr.shape) for name, arr in params.items()},
        "params": {name: arr.tolist() for name, arr in params.items()},
        "seed": seed,
        "epoch": epoch,
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path):
    """Returns (params, cfg, meta) where meta has seed, epoch, extra."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')}")
    cfg = ModelConfig(**payload["model"])
    arrays = {}
    for name, shape in payload["layer_shapes"].items():
        arrays[name] = np.array(payload["params"][name], dtype=np.float64).reshape(shape)
    meta = {"seed": payload["seed"], "epoch": payload["epoch"], "extra": payload["extra"]}
    return ParamStore(arrays), cfg, meta
