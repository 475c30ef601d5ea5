"""Training objectives: winner-takes-all regression and classification per
supervision target, temporal and spatial consistency terms, and the total.

The kernels `_wta_arrays`, `_temporal_arrays` and `_spatial_arrays` return
each loss with its exact derivatives w.r.t. the predictor outputs it consumes,
computed by hand; training calls them (WTA through `target_losses`). Leading
array axes index scenarios, so one call scores a whole minibatch. The public
value forms call the same kernels on one scenario and drop the gradients.
Winner selection and matching indices are treated as locally constant, which
is exact away from argmin ties.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import Frame, PredictionSet, TargetSet, Trajectory, TrajcastError, to_frame_xy
from .matching import pair_mask, pairwise_cost

HUBER_DELTA = 1.0
SOFTMIN_TAU = 1.0


class InvalidShift(TrajcastError):
    """Temporal shift outside 1 <= s < horizon."""


# ---------------------------------------------------------------------------
# elementwise pieces


def _huber_elem(diff: np.ndarray, delta: float = HUBER_DELTA) -> np.ndarray:
    a = np.abs(diff)
    return np.where(a <= delta, 0.5 * diff * diff, delta * (a - 0.5 * delta))


def _huber_grad(diff: np.ndarray, delta: float = HUBER_DELTA) -> np.ndarray:
    return np.where(np.abs(diff) <= delta, diff, delta * np.sign(diff))


def huber(a, b, delta: float = HUBER_DELTA) -> float:
    """Smooth-L1 between two points or arrays, summed over coordinates."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(_huber_elem(diff, delta).sum())


def softmin_scores(displacements, tau: float = SOFTMIN_TAU) -> np.ndarray:
    """exp(-d/tau) normalized to probabilities over the last axis; max-shift
    keeps it stable."""
    d = np.asarray(displacements, dtype=np.float64)
    z = -d / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmin_backprop(s: np.ndarray, d_s: np.ndarray, tau: float = SOFTMIN_TAU) -> np.ndarray:
    """Gradient w.r.t. the displacements given gradient w.r.t. the scores."""
    return -s * (d_s - (d_s * s).sum(axis=-1, keepdims=True)) / tau


# ---------------------------------------------------------------------------
# winner-takes-all supervision


def wta_target_loss(preds: PredictionSet, target: Trajectory, confidence: float):
    """Per-target WTA losses against one supervision trajectory.

    Returns (l_cls_j, l_reg_j, winner). The winner is the prediction with the
    smallest endpoint error; classification pulls the predicted scores toward
    a softmin distribution over per-prediction endpoint errors, weighted by
    the target's confidence.
    """
    stack = preds.stacked()
    l_cls, l_reg, _, k_star, *_ = _wta_arrays(stack, stack, preds.scores, target.points, confidence)
    return float(l_cls), float(l_reg), int(k_star)


def _wta_arrays(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
                target: np.ndarray, confidence, refined_reg: bool = True):
    """Core WTA computation on raw arrays, for one target per prediction set.

    Regression supervises both the completion output and the refined output
    at the shared winner (chosen on the refined endpoint error); the
    classification target is softmin over refined endpoint errors and is
    itself differentiated. With refined_reg False (refinement head disabled,
    refined is an alias of completion) the second regression term is skipped
    rather than double-counted.

    Returns (l_cls, l_reg_completion, l_reg_refined, k_star,
             d_completion, d_refined, d_probs).
    """
    *parts, d_completion, d_refined, d_probs = _wta_targets(
        completion, refined, probs, target[..., None, :, :],
        np.asarray(confidence, dtype=np.float64)[..., None], refined_reg)
    return (*(part[..., 0] for part in parts), d_completion, d_refined, d_probs)


def _wta_targets(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
                 targets: np.ndarray, confidences: np.ndarray, refined_reg: bool = True):
    """`_wta_arrays` against J targets per prediction set at once.

    Shapes: completion and refined (..., K, T, 2), probs (..., K), targets
    (..., J, T, 2), confidences (..., J); leading axes index prediction sets
    (scenarios). The losses and k_star come per target, (..., J); the
    gradients are summed over the J targets, shaped like the predictions.
    """
    k, t = refined.shape[-3], refined.shape[-2]
    end_diff = refined[..., None, :, -1, :] - targets[..., :, None, -1, :]  # (..., J, K, 2)
    end_err = np.linalg.norm(end_diff, axis=-1)
    k_star = np.argmin(end_err, axis=-1)                                   # (..., J)
    # (..., K, J): which targets each mode wins, to sum per-target gradients
    wins = (k_star[..., None, :] == np.arange(k)[:, None]).astype(np.float64)

    def at_winner(stack):
        return np.take_along_axis(stack, k_star[..., None, None], axis=-3)

    def scatter_to_winners(per_target):  # (..., J, T, 2) -> (..., K, T, 2)
        flat = per_target.reshape(per_target.shape[:-2] + (2 * t,))
        return (wins @ flat).reshape(wins.shape[:-1] + (t, 2))

    conf_t = (confidences / t)[..., None, None]
    diff_comp = at_winner(completion) - targets
    l_reg_c = confidences / t * _huber_elem(diff_comp).sum(axis=(-2, -1))
    d_completion = scatter_to_winners(conf_t * _huber_grad(diff_comp))
    if refined_reg:
        diff_ref = at_winner(refined) - targets
        l_reg_r = confidences / t * _huber_elem(diff_ref).sum(axis=(-2, -1))
        d_refined = scatter_to_winners(conf_t * _huber_grad(diff_ref))
    else:
        l_reg_r = np.zeros_like(l_reg_c)
        d_refined = np.zeros_like(d_completion)

    cls_target = softmin_scores(end_err)
    diff_cls = probs[..., None, :] - cls_target
    l_cls = confidences / k * _huber_elem(diff_cls).sum(axis=-1)
    g_cls = (confidences / k)[..., None] * _huber_grad(diff_cls)
    d_probs = g_cls.sum(axis=-2)
    d_end = _softmin_backprop(cls_target, -g_cls)
    # endpoint error e_k = |refined[k,-1] - target[-1]|; grad is the unit vector
    safe_err = np.where(end_err > 0, end_err, 1.0)[..., None]
    d_refined[..., -1, :] += (d_end[..., None] * end_diff / safe_err).sum(axis=-3)
    return l_cls, l_reg_c, l_reg_r, k_star, d_completion, d_refined, d_probs


# ---------------------------------------------------------------------------
# temporal consistency


def temporal_consistency(preds_a: PredictionSet, preds_b: PredictionSet, s: int,
                         strategy: str = "bidirectional", criterion: str = "ade") -> float:
    """Disagreement between predictions from windows s frames apart.

    Both sets must be expressed in a common frame. Trajectories are paired by
    the requested matching strategy over the T-s overlapping steps, then the
    mean Huber over matched pairs and overlap steps is returned.
    """
    return float(_temporal_arrays(preds_a.stacked(), preds_b.stacked(), s, strategy, criterion)[0])


def _temporal_arrays(stack_a: np.ndarray, stack_b: np.ndarray, s: int,
                     strategy: str = "bidirectional", criterion: str = "ade"):
    """Value and gradients of the temporal term for (..., K, T, 2) stacks.

    Leading axes index independent set pairs (a batch of scenarios); each
    gets its own matching and its own value.
    """
    t = stack_a.shape[-2]
    if stack_b.shape[-2] != t:
        raise InvalidShift("prediction sets must share a horizon")
    if not 1 <= s < t:
        raise InvalidShift(f"need 1 <= s < {t}, got s={s}")
    # A's trailing T-s steps against B's leading T-s steps
    tail, head = stack_a[..., s:, :], stack_b[..., : t - s, :]
    lead = stack_a.shape[:-3]
    paired = pair_mask(pairwise_cost(tail, head, criterion), strategy)  # (..., K_a, K_b)
    # one row per matched pair: scenario index into the flattened leading axes, i, j
    where, i, j = np.nonzero(paired.reshape((-1,) + paired.shape[-2:]))
    tail, head = tail.reshape((-1,) + tail.shape[-3:]), head.reshape((-1,) + head.shape[-3:])
    diff = tail[where, i] - head[where, j]                                # (P, T-s, 2)
    count = np.bincount(where, minlength=tail.shape[0])
    norm = (np.maximum(count, 1) * (t - s)).astype(np.float64)
    total = np.bincount(where, weights=_huber_elem(diff).sum(axis=(1, 2)),
                        minlength=tail.shape[0]) / norm
    g = _huber_grad(diff) / norm[where][:, None, None]
    d_a = np.zeros(tail.shape[:1] + stack_a.shape[-3:])
    d_b = np.zeros(head.shape[:1] + stack_b.shape[-3:])
    np.add.at(d_a[..., s:, :], (where, i), g)
    np.add.at(d_b[..., : t - s, :], (where, j), -g)
    return (total.reshape(lead), d_a.reshape(stack_a.shape), d_b.reshape(stack_b.shape))


# ---------------------------------------------------------------------------
# spatial consistency


_MIRROR = np.array([1.0, -1.0])
_KEEP = np.array([1.0, 1.0])


@dataclass(frozen=True)
class SpatialPermutation:
    """Input perturbation for the refinement head: optional reflection about
    the x-axis plus optional per-coordinate additive noise on the anchors.

    `apply` perturbs (anchors, history); `invert_offsets` maps the perturbed
    head's offsets back: the noise is re-added (an anchor-compensating head
    cancels it exactly) and the reflection is undone. `stack` joins B
    permutations into one whose flip is a (B,) array, for (B, K, T, 2)
    anchors and (B, M, 2) histories.
    """

    flip: bool | np.ndarray = False
    noise: np.ndarray | None = None  # (..., K, T, 2) or None

    @classmethod
    def stack(cls, perms) -> "SpatialPermutation":
        return cls(flip=np.array([p.flip for p in perms]),
                   noise=np.stack([p.noise for p in perms]))

    def _mirror(self, xy: np.ndarray) -> np.ndarray:
        """xy with its y coordinates negated wherever flip is set."""
        flip = np.asarray(self.flip)
        signs = np.where(flip[..., None], _MIRROR, _KEEP)
        return xy * signs.reshape(flip.shape + (1,) * (xy.ndim - flip.ndim - 1) + (2,))

    def apply(self, anchors: np.ndarray, history: np.ndarray):
        a, h = self._mirror(anchors), self._mirror(history)
        if self.noise is not None:
            a = a + self.noise
        return a, h

    def invert_offsets(self, offsets: np.ndarray) -> np.ndarray:
        o = offsets
        if self.noise is not None:
            o = o + self.noise
        return self._mirror(o)

    def backprop_inverse(self, d_mapped: np.ndarray) -> np.ndarray:
        """Gradient through invert_offsets (linear: reflection only)."""
        return self._mirror(d_mapped)


def sample_permutation(rng: np.random.Generator, shape, p_flip: float = 0.5,
                       noise_scale: float = 0.2) -> SpatialPermutation:
    """Random flip plus uniform anchor noise in [-noise_scale, noise_scale]."""
    flip = bool(rng.random() < p_flip)
    noise = rng.uniform(-noise_scale, noise_scale, size=shape)
    return SpatialPermutation(flip=flip, noise=noise)


def spatial_consistency(offsets: np.ndarray, anchors: np.ndarray, history: np.ndarray,
                        perm: SpatialPermutation, refine_fn) -> float:
    """Equivariance penalty on the refinement head.

    refine_fn(anchors, history) -> (offsets, raw_scores) is re-run on the
    permuted inputs; the inverse-mapped offsets are compared to the original
    ones with Huber, averaged over the K*T waypoints.
    """
    a2, h2 = perm.apply(anchors, history)
    off2, _ = refine_fn(a2, h2)
    return float(_spatial_arrays(offsets, perm.invert_offsets(off2))[0])


def _spatial_arrays(offsets: np.ndarray, mapped: np.ndarray):
    """Value and gradients given the already inverse-mapped second pass.

    offsets and mapped are (..., K, T, 2); l_spa has the leading shape.
    Returns (l_spa, d_offsets, d_mapped); the caller pushes d_mapped through
    perm.backprop_inverse and the second refinement trace.
    """
    k, t = offsets.shape[-3], offsets.shape[-2]
    diff = offsets - mapped
    l_spa = _huber_elem(diff).sum(axis=(-3, -2, -1)) / (k * t)
    g = _huber_grad(diff) / (k * t)
    return l_spa, g, -g


# ---------------------------------------------------------------------------
# total


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step objective parts; total is their plain sum."""

    l_reg: float
    l_cls: float
    l_temp: float
    l_spa: float
    total: float

    def __post_init__(self):
        parts = (self.l_reg, self.l_cls, self.l_temp, self.l_spa, self.total)
        if not all(np.isfinite(parts)):
            raise ValueError(f"loss parts must be finite, got {parts}")
        if abs(self.total - (self.l_reg + self.l_cls + self.l_temp + self.l_spa)) > 1e-9:
            raise ValueError("total must equal the sum of its parts")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def make_breakdown(l_reg: float, l_cls: float, l_temp: float = 0.0,
                   l_spa: float = 0.0) -> LossBreakdown:
    return LossBreakdown(l_reg=l_reg, l_cls=l_cls, l_temp=l_temp, l_spa=l_spa,
                         total=l_reg + l_cls + l_temp + l_spa)


def target_losses(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
                  targets_xy: np.ndarray, confidences: np.ndarray,
                  refined_reg: bool = True):
    """Supervision terms summed over all targets.

    targets_xy is (..., J+1, T, 2) in the same frame as the (..., K, T, 2)
    predictions and confidences is (..., J+1); leading axes index scenarios.
    Returns (l_reg, l_cls, d_completion, d_refined, d_probs), the losses with
    the leading shape.
    """
    cls, reg_c, reg_r, _, d_completion, d_refined, d_probs = _wta_targets(
        completion, refined, probs, targets_xy, confidences, refined_reg)
    return (reg_c + reg_r).sum(axis=-1), cls.sum(axis=-1), d_completion, d_refined, d_probs


def total_loss(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
               targets: TargetSet, frame: Frame, l_temp: float = 0.0,
               l_spa: float = 0.0) -> LossBreakdown:
    """Assemble the full objective for one scenario.

    Predictions are agent-frame arrays; the supervision targets are
    world-frame trajectories re-expressed through `frame`. Consistency terms
    are computed by the caller (they need extra forward passes) and passed in.
    """
    targets_xy = np.stack([to_frame_xy(tr.points, frame) for tr in targets.targets])
    l_reg, l_cls = target_losses(completion, refined, probs, targets_xy, targets.confidences)[:2]
    return make_breakdown(l_reg, l_cls, l_temp, l_spa)
