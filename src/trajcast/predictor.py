"""Two-stage trajectory predictor with analytically computed gradients.

Stage 1: a pooled point encoder (per-point affine+ReLU layers summed into a
single feature vector), a goal head, and a trajectory completion head that
decodes one full trajectory per goal. Stage 2: a refinement head that treats
the completed trajectories as anchors and regresses per-anchor offsets plus
raw classification scores.

Forward passes cache the intermediates exact reverse-mode differentiation
needs; `backward` consumes that trace. `forward` and `predict` take a
WindowBatch, or one Window, which holds its one-window batch. The encoder
runs on blocks of windows with the same row count (one BLAS call per window
and layer, each with the shapes it would have on its own), the heads as one
matmul over every window. The goal and completion heads are
one two-layer rule, `_mlp`, whose backward pass, `_mlp_backward`, serves
the refinement head's residual block too. No autograd framework is involved,
which keeps training deterministic and the gradient path inspectable.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (DT, FUTURE_LEN, HISTORY_LEN, IDENTITY_FRAME, PredictionSet,
                   Trajectory, TrajcastError, from_frame_xy, json_array,
                   softmax, softmax_backprop, text_input)

FEATURE_DIM = 5  # (x, y, t_rel_seconds, is_map, present)

# windows per `forward` in `predict`: a matmul row's last bits depend on the
# row count, so every prediction runs its heads on blocks of this many windows
HEAD_BLOCK = 64

# the encoder's block size rule: a block holds g = max(1, ENCODER_BLOCK // (N * C))
# windows of N rows each. Of 2^13..2^16 this was fastest at C = 32 and 64: larger
# (N, g, C) activations spill the cache, smaller ones make more calls per window.
ENCODER_BLOCK = 2 ** 15


class StaleTrace(TrajcastError):
    """Backward called with a trace from an older parameter state."""


class MalformedCheckpoint(TrajcastError):
    """A checkpoint file that does not hold what `save_checkpoint` writes."""


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and toggles of the predictor."""

    n_modes: int = 6                # K
    horizon: int = FUTURE_LEN       # T
    history_len: int = HISTORY_LEN  # M
    feature_dim: int = 64           # C
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

    All values live in one float64 vector `flat`; `arrays[name]` is a view
    into it, laid out in the order the names were given (`_layer_shapes`
    order for a model): `layout[name]` is its (slice of `flat`, shape).
    `zeros_like()` and `copy()` keep the layout, so gradients and Adam state
    line up element for element with `flat`.

    Traces record the version they were built against; mutating parameters
    through `bump()` (as the optimizer does once per step) invalidates them.
    """

    def __init__(self, arrays: dict):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        layout, start = {}, 0
        for name, a in arrays.items():
            layout[name] = (slice(start, start + a.size), a.shape)
            start += a.size
        self._bind(np.concatenate([a.ravel() for a in arrays.values()]), layout)

    def _bind(self, flat: np.ndarray, layout: dict) -> None:
        self.flat, self.layout, self.version = flat, layout, 0
        self.arrays = {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    def __setitem__(self, key: str, value) -> None:
        self.arrays[key][...] = value

    def __iter__(self):
        return iter(self.arrays)

    def keys(self):
        return self.arrays.keys()

    def items(self):
        return self.arrays.items()

    def bump(self) -> None:
        self.version += 1

    def zeros_like(self) -> "ParamStore":
        return self._with_flat(np.zeros_like(self.flat))

    def copy(self) -> "ParamStore":
        return self._with_flat(self.flat.copy())

    def _with_flat(self, flat: np.ndarray) -> "ParamStore":
        """A store over `flat` with this store's names and shapes."""
        store = object.__new__(ParamStore)
        store._bind(flat, self.layout)
        return store


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Uniform init in [-a, a] with a = sqrt(1 / fan_in), per layer."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _layer_shapes(cfg):
        if len(shape) == 2:  # a bias follows its weight and takes the same fan-in
            fan_in = shape[0]
        a = math.sqrt(1.0 / fan_in)
        arrays[name] = rng.uniform(-a, a, size=shape)
    return ParamStore(arrays)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def featurize(history_xy: np.ndarray, history_mask: np.ndarray,
              map_xy: np.ndarray) -> np.ndarray:
    """A window's (N, 5) encoder input: its agent-frame history (M, 2), then
    its agent-frame map points (P, 2).

    History rows carry their time offset in seconds relative to t=0 and the
    presence flag; map rows are tagged is_map=1 and present. Leading axes of
    the three inputs index windows of one shape, giving (..., N, 5).
    """
    m = history_xy.shape[-2]
    points = np.zeros(history_xy.shape[:-2] + (m + map_xy.shape[-2], FEATURE_DIM))
    points[..., :m, :2] = history_xy
    points[..., m:, :2] = map_xy
    points[..., :m, 2] = (np.arange(m) - (m - 1)) * DT
    points[..., m:, 3] = 1.0
    points[..., :m, 4] = history_mask
    points[..., m:, 4] = 1.0
    return points


def _mlp(params: ParamStore, head: str, x: np.ndarray):
    """A two-layer head on rows x: (hidden, relu(x w1 + b1) w2 + b2)."""
    hidden = _relu(x @ params[f"{head}.w1"] + params[f"{head}.b1"])
    return hidden, hidden @ params[f"{head}.w2"] + params[f"{head}.b2"]


def _mlp_backward(params: ParamStore, grads: ParamStore, head: str, x: np.ndarray,
                  hidden: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Backprop through `_mlp(params, head, x)`, whose hidden layer was
    `hidden`: adds the head's gradients, summed over the rows, into grads
    and returns the gradient w.r.t. x."""
    d_hidden = d_out @ params[f"{head}.w2"].T
    grads[f"{head}.w2"] += hidden.T @ d_out
    grads[f"{head}.b2"] += d_out.sum(axis=0)
    d_z = d_hidden * (hidden > 0)
    grads[f"{head}.w1"] += x.T @ d_z
    grads[f"{head}.b1"] += d_z.sum(axis=0)
    return d_z @ params[f"{head}.w1"].T


@dataclass(frozen=True)
class WindowBatch:
    """Encoder inputs of W windows: each window's (N_w, 5) `featurize` rows
    (N_w may differ), its agent-frame history flattened, (W, 2M), and its
    agent Frame. Slicing gives the batch of a run of its windows. The batch
    window builder, `data._batch_windows`, gives it for stacked scenarios,
    and so for the one window a `core.Window` holds."""

    points: tuple
    hist_flat: np.ndarray
    frames: tuple

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: slice) -> "WindowBatch":
        return WindowBatch(points=self.points[index], hist_flat=self.hist_flat[index],
                           frames=self.frames[index])


@dataclass
class RefineTrace:
    r_in: np.ndarray
    h0: np.ndarray
    a5: np.ndarray
    h: np.ndarray


@dataclass
class EncoderBlock:
    """g windows of N encoder rows each, at batch positions `slots`, laid out
    window-minor: their rows (N, g, 5), the first layer's activations
    (N, g, C) and where the second layer's pre-activations are positive."""

    slots: list
    rows: np.ndarray
    h1: np.ndarray
    active2: np.ndarray


def _encoder_blocks(points, c: int) -> list:
    """The batch positions of each encoder block, ordered by their first: the
    windows grouped by row count N, each group cut into runs of
    `ENCODER_BLOCK` // (N * C) windows (at least one) in window order.
    Windows without rows form one block."""
    groups = {}
    for slot, rows in enumerate(points):
        groups.setdefault(len(rows), []).append(slot)
    return sorted(slots[start:start + size]
                  for n, slots in groups.items()
                  for size in [max(1, ENCODER_BLOCK // max(n * c, 1))]
                  for start in range(0, len(slots), size))


@dataclass
class ForwardTrace:
    """The activations `backward` reads, tied to one parameter version.

    Per encoder block: its EncoderBlock. Stacked over the W windows (heads):
    everything else.
    """

    params_id: int
    params_version: int
    cfg: ModelConfig
    encoder: list
    phi: np.ndarray
    g1: np.ndarray | None
    comp_in: np.ndarray
    c1: np.ndarray
    refine: RefineTrace | None
    probs: np.ndarray


def refine_forward(params: ParamStore, cfg: ModelConfig, anchors: np.ndarray,
                   hist_flat: np.ndarray):
    """Refinement head: residual block over (anchor, history), linear outputs.

    anchors is (..., K, T, 2) and hist_flat (..., 2M), with the same leading
    axes; every anchor of every set is one row of the same matmuls.
    Returns (offsets (..., K, T, 2), raw_cls (..., K), RefineTrace).
    """
    k, t = anchors.shape[-3], cfg.horizon
    rows = anchors.reshape(-1, 2 * t)
    hist = np.repeat(hist_flat.reshape(-1, hist_flat.shape[-1]), k, axis=0)
    r_in = np.concatenate([rows, hist], axis=1)
    h0 = r_in @ params["ref.w0"] + params["ref.b0"]
    # the residual block is `_mlp` "ref" on h0, added left to right:
    # h0 + (a5 w2 + b2) rounds differently
    a5 = _relu(h0 @ params["ref.w1"] + params["ref.b1"])
    h = h0 + a5 @ params["ref.w2"] + params["ref.b2"]
    offsets = (h @ params["ref.wreg"] + params["ref.breg"]).reshape(anchors.shape)
    raw_cls = (h @ params["ref.wcls"] + params["ref.bcls"]).reshape(anchors.shape[:-2])
    return offsets, raw_cls, RefineTrace(r_in=r_in, h0=h0, a5=a5, h=h)


def refine_backward(params: ParamStore, cfg: ModelConfig, trace: RefineTrace,
                    d_offsets: np.ndarray, d_raw: np.ndarray, grads):
    """Backprop through the refinement head.

    Accumulates parameter gradients, summed over every anchor row, into
    `grads`; returns the gradient w.r.t. the anchor trajectories, shaped like
    d_offsets (..., K, T, 2).
    """
    n, t = trace.h.shape[0], cfg.horizon
    d_off_flat = d_offsets.reshape(n, 2 * t)
    d_raw_col = np.reshape(d_raw, (n, 1))
    d_h = d_off_flat @ params["ref.wreg"].T + d_raw_col @ params["ref.wcls"].T
    grads["ref.wreg"] += trace.h.T @ d_off_flat
    grads["ref.breg"] += d_off_flat.sum(axis=0)
    grads["ref.wcls"] += trace.h.T @ d_raw_col
    grads["ref.bcls"] += d_raw_col.sum(axis=0)
    # residual block: h = h0 + relu(h0 w1 + b1) w2 + b2
    d_h0 = d_h + _mlp_backward(params, grads, "ref", trace.h0, trace.a5, d_h)
    grads["ref.w0"] += trace.r_in.T @ d_h0
    grads["ref.b0"] += d_h0.sum(axis=0)
    return (d_h0 @ params["ref.w0"][: 2 * t].T).reshape(d_offsets.shape)


def forward(params: ParamStore, cfg: ModelConfig, window):
    """Full two-stage forward pass over a WindowBatch, or one Window (its
    one-window batch).

    Returns (outputs, trace). outputs holds agent-frame arrays:
      phi (C,), goals (K, 2) or None, completion (K, T, 2),
      offsets (K, T, 2), refined (K, T, 2), raw_cls (K,), probs (K,);
    for a W-window WindowBatch each gains a leading (W,) axis.

    The encoder runs on the blocks of `_encoder_blocks`, each laid out
    window-minor: a layer is one batched matmul, which numpy runs as one BLAS
    call per window with that window's own shapes, and bias, ReLU and the
    pooled sum (over rows, in row order) run once per block. So a window's
    phi has the same bits however the windows are blocked. The heads run
    once over all W windows.
    """
    return _forward(params, cfg, window, keep_trace=True)


def _forward(params: ParamStore, cfg: ModelConfig, window, keep_trace: bool):
    """`forward`; without `keep_trace` the trace is None and the encoder
    keeps no activation past its block."""
    batch = window if isinstance(window, WindowBatch) else window.batch
    w, k, t, c = len(batch.points), cfg.n_modes, cfg.horizon, cfg.feature_dim
    phi = np.empty((w, c))
    encoder, blocks = [], _encoder_blocks(batch.points, c)
    # With a trace, every block's h1 and active2 are views of one array each;
    # without, space[1] holds each block's h1 in turn. space[0] holds each
    # block's z2. The C allocator reuses a few large arrays from step to step,
    # where it returned block-sized ones to the system and faulted their pages
    # in again: about 1,000 page faults per desk step.
    if keep_trace:
        total = sum(len(points) for points in batch.points)
        h1_all, active_all = np.empty((total, c)), np.empty((total, c), dtype=bool)
    space = np.empty((2, max((len(batch.points[s[0]]) * len(s) for s in blocks), default=0) * c))
    start = 0
    for slots in blocks:
        points = [batch.points[s] for s in slots]
        n, g = len(points[0]), len(points)
        rows = np.concatenate(points, axis=1).reshape(n, g, FEATURE_DIM)
        end = start + n * g
        h1 = (h1_all[start:end] if keep_trace else space[1, :n * g * c]).reshape(n, g, c)
        np.matmul(rows.transpose(1, 0, 2), params["enc.w1"], out=h1.transpose(1, 0, 2))
        h1 += params["enc.b1"]
        np.maximum(h1, 0.0, out=h1)
        z2 = space[0, :h1.size].reshape(h1.shape)
        np.matmul(h1.transpose(1, 0, 2), params["enc.w2"], out=z2.transpose(1, 0, 2))
        z2 += params["enc.b2"]
        if keep_trace:
            active2 = np.greater(z2, 0, out=active_all[start:end].reshape(n, g, c))
            encoder.append(EncoderBlock(slots=slots, rows=rows, h1=h1, active2=active2))
        phi[slots] = np.maximum(z2, 0.0, out=z2).sum(axis=0)
        start = end

    if cfg.use_goal:
        g1, goals = _mlp(params, "goal", phi)
        goals = goals.reshape(w, k, 2)
        comp_in = np.concatenate([np.broadcast_to(phi[:, None, :], (w, k, phi.shape[1])),
                                  goals], axis=2).reshape(w * k, -1)
    else:
        g1 = goals = None
        comp_in = phi  # one row per window decodes all K modes
    c1, completion = _mlp(params, "comp", comp_in)
    completion = completion.reshape(w, k, t, 2)

    if cfg.use_refine:
        offsets, raw_cls, ref_trace = refine_forward(params, cfg, completion, batch.hist_flat)
        refined = completion + offsets
    else:
        ref_trace = None
        offsets = np.zeros_like(completion)
        refined = completion
        raw_cls = phi @ params["cls.w"] + params["cls.b"]
    probs = softmax(raw_cls)

    outputs = {
        "phi": phi, "goals": goals, "completion": completion,
        "offsets": offsets, "refined": refined, "raw_cls": raw_cls, "probs": probs,
    }
    if batch is not window:
        outputs = {name: None if v is None else v[0] for name, v in outputs.items()}
    if not keep_trace:
        return outputs, None
    trace = ForwardTrace(
        params_id=id(params), params_version=params.version, cfg=cfg,
        encoder=encoder, phi=phi, g1=g1,
        comp_in=comp_in, c1=c1, refine=ref_trace,
        probs=probs,
    )
    return outputs, trace


_UPSTREAM_SLOTS = frozenset({"refined", "completion", "offsets", "probs"})


def backward(params: ParamStore, trace: ForwardTrace, upstream: dict) -> ParamStore:
    """Exact parameter gradients for a forward trace, summed over its windows.

    `upstream` maps output names ("refined", "completion", "offsets",
    "probs") to gradients of the training scalar w.r.t. those outputs,
    shaped as `forward` returned them; missing entries are treated as zero.

    Raises StaleTrace when the parameters changed since the forward pass,
    and ValueError for any other upstream name, whose gradient would
    otherwise be dropped unseen.
    """
    if trace.params_id != id(params) or trace.params_version != params.version:
        raise StaleTrace("parameters changed since this trace was recorded")
    unknown = set(upstream) - _UPSTREAM_SLOTS
    if unknown:
        raise ValueError(f"backward takes no upstream gradient for {sorted(unknown)}")
    cfg = trace.cfg
    w, k, t, c = len(trace.phi), cfg.n_modes, cfg.horizon, cfg.feature_dim
    grads = params.zeros_like()

    def grad_of(name, shape):
        g = np.asarray(upstream.get(name, 0.0))
        return g if g.shape == shape else g + np.zeros(shape)

    d_refined = grad_of("refined", (w, k, t, 2))
    d_completion = grad_of("completion", (w, k, t, 2))
    d_offsets = grad_of("offsets", (w, k, t, 2))
    d_raw = softmax_backprop(trace.probs, grad_of("probs", (w, k)))

    # refined = completion + offsets (refine mode) or refined = completion
    d_completion = d_completion + d_refined
    if cfg.use_refine:
        d_offsets = d_offsets + d_refined
        d_anchor = refine_backward(params, cfg, trace.refine, d_offsets, d_raw, grads)
        d_completion = d_completion + d_anchor
        d_phi = np.zeros((w, c))
    else:
        grads["cls.w"] += trace.phi.T @ d_raw
        grads["cls.b"] += d_raw.sum(axis=0)
        d_phi = d_raw @ params["cls.w"].T

    # completion head; without goals comp_in is phi, one row per window
    d_comp_in = _mlp_backward(params, grads, "comp", trace.comp_in, trace.c1,
                              d_completion.reshape(trace.comp_in.shape[0], -1))
    d_comp_in = d_comp_in.reshape(w, -1, trace.comp_in.shape[1])
    d_phi = d_phi + d_comp_in[:, :, :c].sum(axis=1)
    if cfg.use_goal:
        d_phi = d_phi + _mlp_backward(params, grads, "goal", trace.phi, trace.g1,
                                      d_comp_in[:, :, c:].reshape(w, 2 * k))

    # encoder, block by block: phi = sum_n relu(h1 w2 + b2)[n]. A window's enc.*
    # gradients are one row, each layer at its `grads.layout` slice (the enc.*
    # layers lead `flat`). Rows join the total in window order, as soon as every
    # earlier window's has: the same sums as adding one window at a time.
    w1, b1, w2, b2 = (grads.layout[f"enc.{name}"][0] for name in ("w1", "b1", "w2", "b2"))
    assert (w1.start, w1.stop, b1.stop, w2.stop) == (0, b1.start, w2.start, b2.start), \
        "the enc.* layers must lead ParamStore.flat in declared order"
    total = grads.flat[:b2.stop]
    pending, done = {}, 0
    space = np.empty((2, max((block.h1.size for block in trace.encoder), default=0)))
    for block in trace.encoder:  # space holds each block's d_z2 and d_z1, as in `forward`
        (n, g, _), size = block.h1.shape, block.h1.size
        out = np.empty((g, len(total)))
        d_z2 = np.multiply(block.active2, d_phi[block.slots], out=space[0, :size].reshape(n, g, c))
        np.matmul(block.h1.transpose(1, 2, 0), d_z2.transpose(1, 0, 2),
                  out=out[:, w2].reshape(g, c, c))
        d_z2.sum(axis=0, out=out[:, b2])
        d_z1 = space[1, :size].reshape(n, g, c)
        np.matmul(d_z2.transpose(1, 0, 2), params["enc.w2"].T, out=d_z1.transpose(1, 0, 2))
        d_z1 *= block.h1 > 0
        np.matmul(block.rows.transpose(1, 2, 0), d_z1.transpose(1, 0, 2),
                  out=out[:, w1].reshape(g, FEATURE_DIM, c))
        d_z1.sum(axis=0, out=out[:, b1])
        pending.update(zip(block.slots, out))
        while done in pending:
            total += pending.pop(done)
            done += 1
    return grads


def predict(params: ParamStore, cfg: ModelConfig, window):
    """Inference: K world-frame trajectories with normalized scores.

    One Window gives a PredictionSet of its one-window batch. A WindowBatch
    of W windows (what `make_window` and `make_shift_pair` give on a list of
    scenarios) gives arrays: ((W, K, T, 2) world-frame trajectories, (W, K) scores), mapped to
    the world frame through the batch's frames. Either way one forward pass,
    keeping no trace, runs per HEAD_BLOCK windows, a short last block padded
    with empty windows whose rows are dropped, so a window's prediction has
    the same bits whichever windows it is predicted with.
    """
    batch = window if isinstance(window, WindowBatch) else window.batch
    refined = np.empty((len(batch), cfg.n_modes, cfg.horizon, 2))
    probs = np.empty((len(batch), cfg.n_modes))
    # finite parameters whose products overflow predict inf or NaN; numpy
    # does not warn, as every caller refuses such a prediction by scenario
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(batch), HEAD_BLOCK):
            block = batch[start:start + HEAD_BLOCK]
            n, pad = len(block), HEAD_BLOCK - len(block)
            if pad:  # an empty window has no encoder rows, so phi = 0, and a zero history
                block = WindowBatch(points=block.points + (np.zeros((0, FEATURE_DIM)),) * pad,
                                    hist_flat=np.pad(block.hist_flat, ((0, pad), (0, 0))),
                                    frames=block.frames + (IDENTITY_FRAME,) * pad)
            outputs, _ = _forward(params, cfg, block, keep_trace=False)
            refined[start:start + n] = outputs["refined"][:n]
            probs[start:start + n] = outputs["probs"][:n]
        trajs = from_frame_xy(refined, batch.frames)
    if batch is window:
        return trajs, probs
    return PredictionSet(trajectories=tuple(Trajectory(points=p) for p in trajs[0]),
                         scores=probs[0])


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


# what `save_checkpoint` writes: each top-level key with the JSON type of its
# value, and each model config key with that of its field
_CHECKPOINT_KEYS = {"format_version": int, "model": dict, "layer_shapes": dict,
                    "params": dict, "seed": int, "epoch": int, "extra": dict}
_MODEL_KEYS = {field.name: type(field.default) for field in dataclasses.fields(ModelConfig)}
_JSON_NAMES = {int: "an integer", bool: "true or false", dict: "an object"}


def load_checkpoint(path):
    """Returns (params, cfg, meta) where meta has seed, epoch, extra.

    The file must hold what `save_checkpoint` writes: a JSON object with
    its keys and no other, a model config with every `ModelConfig` field
    and no other, and each layer `_layer_shapes(cfg)` declares, and no
    other, read by the one JSON-array rule, `core.json_array`, and of the
    declared shape, which `layer_shapes` lists. Else MalformedCheckpoint
    names the file and the key or layer: `layer '<name>'` and the rule's
    message, for a layer the rule refuses."""
    with text_input(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCheckpoint(f"{path}: not JSON: {exc}") from None
    if type(payload) is not dict:
        raise MalformedCheckpoint(f"{path}: not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise MalformedCheckpoint(f"{path}: unsupported checkpoint version {version!r}")
    _check_keys(path, "", payload, _CHECKPOINT_KEYS)
    _check_keys(path, "model: ", payload["model"], _MODEL_KEYS)
    try:
        cfg = ModelConfig(**payload["model"])
    except ValueError as exc:
        raise MalformedCheckpoint(f"{path}: model: {exc}") from None
    declared = dict(_layer_shapes(cfg))
    stored = payload["params"]
    arrays = {}
    for name in dict.fromkeys([*declared, *sorted(stored)]):
        if name in stored:
            try:
                arrays[name] = json_array(stored[name], f"layer {name!r}")
            except ValueError as exc:
                raise MalformedCheckpoint(f"{path}: {exc}") from None
        found = arrays[name].shape if name in arrays else "absent"
        if found != declared.get(name):
            raise MalformedCheckpoint(f"{path}: layer {name!r} is {found} in the checkpoint "
                                      f"but {declared.get(name, 'undeclared')} in its model config")
    listed = payload["layer_shapes"]
    for name in dict.fromkeys([*declared, *sorted(listed)]):
        shape = list(declared[name]) if name in declared else "undeclared"
        if json.dumps(listed.get(name)) != json.dumps(shape):  # so `true` is not 1
            raise MalformedCheckpoint(f"{path}: layer_shapes gives {name!r} as "
                                      f"{listed.get(name, 'absent')!r} but the layer is {shape}")
    meta = {"seed": payload["seed"], "epoch": payload["epoch"], "extra": payload["extra"]}
    return ParamStore({name: arrays[name] for name in declared}), cfg, meta


def _check_keys(path, where: str, obj: dict, kinds: dict) -> None:
    """MalformedCheckpoint unless obj has exactly the keys of `kinds`, each
    holding a value of exactly its type (so `true` is not an integer)."""
    for key in [*kinds, *sorted(obj)]:
        if key not in obj:
            raise MalformedCheckpoint(f"{path}: {where}no key {key!r}")
        if key not in kinds:
            raise MalformedCheckpoint(f"{path}: {where}unknown key {key!r}")
        if type(obj[key]) is not kinds[key]:
            raise MalformedCheckpoint(f"{path}: {where}{key!r} must be {_JSON_NAMES[kinds[key]]}, "
                                      f"got {obj[key]!r}")
