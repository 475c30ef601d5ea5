"""Training objectives: winner-takes-all regression and classification per
supervision target, temporal and spatial consistency terms, and the total.

Every loss has a value form (public ops below) and a `_with_grads` form used
by the training loop; the gradient forms return exact derivatives w.r.t. the
predictor outputs they consume, computed by hand alongside the value. Winner
selection and matching indices are treated as locally constant, which is
exact away from argmin ties.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import Frame, PredictionSet, TargetSet, Trajectory, TrajcastError, to_frame_xy
from .matching import match, pairwise_cost

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
    """exp(-d/tau) normalized to probabilities; max-shift keeps it stable."""
    d = np.asarray(displacements, dtype=np.float64)
    z = -d / tau
    e = np.exp(z - z.max())
    return e / e.sum()


def _softmin_backprop(s: np.ndarray, d_s: np.ndarray, tau: float = SOFTMIN_TAU) -> np.ndarray:
    """Gradient w.r.t. the displacements given gradient w.r.t. the scores."""
    return -s * (d_s - float(d_s @ s)) / tau


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
    tgt = target.points
    l_cls, l_reg, _, k_star, _, _, _ = _wta_arrays(stack, stack, preds.scores, tgt, confidence,
                                                   with_grads=False)
    return l_cls, l_reg, k_star


def _wta_arrays(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
                target: np.ndarray, confidence: float, with_grads: bool = True,
                refined_reg: bool = True):
    """Core WTA computation on raw arrays.

    Regression supervises both the completion output and the refined output
    at the shared winner (chosen on the refined endpoint error); the
    classification target is softmin over refined endpoint errors and is
    itself differentiated. With refined_reg False (refinement head disabled,
    refined is an alias of completion) the second regression term is skipped
    rather than double-counted.

    Returns (l_cls, l_reg_completion, l_reg_refined, k_star,
             d_completion, d_refined, d_probs).
    """
    k, t, _ = refined.shape
    end_err = np.linalg.norm(refined[:, -1, :] - target[-1], axis=1)
    k_star = int(np.argmin(end_err))

    diff_comp = completion[k_star] - target
    diff_ref = refined[k_star] - target
    l_reg_c = confidence / t * float(_huber_elem(diff_comp).sum())
    l_reg_r = confidence / t * float(_huber_elem(diff_ref).sum()) if refined_reg else 0.0

    cls_target = softmin_scores(end_err)
    diff_cls = probs - cls_target
    l_cls = confidence / k * float(_huber_elem(diff_cls).sum())

    if not with_grads:
        return l_cls, l_reg_c, l_reg_r, k_star, None, None, None

    d_completion = np.zeros_like(completion)
    d_refined = np.zeros_like(refined)
    d_completion[k_star] = confidence / t * _huber_grad(diff_comp)
    if refined_reg:
        d_refined[k_star] += confidence / t * _huber_grad(diff_ref)

    g_cls = confidence / k * _huber_grad(diff_cls)
    d_probs = g_cls.copy()
    d_end = _softmin_backprop(cls_target, -g_cls)
    # endpoint error e_k = |refined[k,-1] - target[-1]|; grad is the unit vector
    for i in range(k):
        if end_err[i] > 0:
            d_refined[i, -1] += d_end[i] * (refined[i, -1] - target[-1]) / end_err[i]
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
    l, _, _ = _temporal_arrays(preds_a.stacked(), preds_b.stacked(), s, strategy, criterion,
                               with_grads=False)
    return l


def _temporal_arrays(stack_a: np.ndarray, stack_b: np.ndarray, s: int,
                     strategy: str = "bidirectional", criterion: str = "ade",
                     with_grads: bool = True):
    t = stack_a.shape[1]
    if stack_b.shape[1] != t:
        raise InvalidShift("prediction sets must share a horizon")
    if not 1 <= s < t:
        raise InvalidShift(f"need 1 <= s < {t}, got s={s}")
    # A's trailing T-s steps against B's leading T-s steps
    pairs = match(pairwise_cost(stack_a[:, s:], stack_b[:, : t - s], criterion), strategy).pairs
    d_a = np.zeros_like(stack_a) if with_grads else None
    d_b = np.zeros_like(stack_b) if with_grads else None
    if not pairs:
        return 0.0, d_a, d_b
    norm = len(pairs) * (t - s)
    total = 0.0
    for i, j in pairs:
        diff = stack_a[i, s:, :] - stack_b[j, : t - s, :]
        total += float(_huber_elem(diff).sum())
        if with_grads:
            g = _huber_grad(diff) / norm
            d_a[i, s:, :] += g
            d_b[j, : t - s, :] -= g
    return total / norm, d_a, d_b


# ---------------------------------------------------------------------------
# spatial consistency


@dataclass(frozen=True)
class SpatialPermutation:
    """Input perturbation for the refinement head: optional reflection about
    the x-axis plus optional per-coordinate additive noise on the anchors.

    `apply` perturbs (anchors, history); `invert_offsets` maps the perturbed
    head's offsets back: the noise is re-added (an anchor-compensating head
    cancels it exactly) and the reflection is undone.
    """

    flip: bool = False
    noise: np.ndarray | None = None  # (K, T, 2) or None

    def apply(self, anchors: np.ndarray, history: np.ndarray):
        a, h = anchors, history
        if self.flip:
            a = a * np.array([1.0, -1.0])
            h = h * np.array([1.0, -1.0])
        if self.noise is not None:
            a = a + self.noise
        return a, h

    def invert_offsets(self, offsets: np.ndarray) -> np.ndarray:
        o = offsets
        if self.noise is not None:
            o = o + self.noise
        if self.flip:
            o = o * np.array([1.0, -1.0])
        return o

    def backprop_inverse(self, d_mapped: np.ndarray) -> np.ndarray:
        """Gradient through invert_offsets (linear: reflection only)."""
        return d_mapped * np.array([1.0, -1.0]) if self.flip else d_mapped


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
    return _spatial_arrays(offsets, perm.invert_offsets(off2))[0]


def _spatial_arrays(offsets: np.ndarray, mapped: np.ndarray):
    """Value and gradients given the already inverse-mapped second pass.

    Returns (l_spa, d_offsets, d_mapped); the caller pushes d_mapped through
    perm.backprop_inverse and the second refinement trace.
    """
    k, t, _ = offsets.shape
    diff = offsets - mapped
    l_spa = float(_huber_elem(diff).sum()) / (k * t)
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
                  with_grads: bool = True, refined_reg: bool = True):
    """Supervision terms summed over all targets.

    targets_xy is (J+1, T, 2) in the same frame as the predictions. Returns
    (l_reg, l_cls, d_completion, d_refined, d_probs); gradient slots are None
    when with_grads is False.
    """
    l_reg = 0.0
    l_cls = 0.0
    d_completion = np.zeros_like(completion) if with_grads else None
    d_refined = np.zeros_like(refined) if with_grads else None
    d_probs = np.zeros_like(probs) if with_grads else None
    for j in range(targets_xy.shape[0]):
        out = _wta_arrays(completion, refined, probs, targets_xy[j],
                          float(confidences[j]), with_grads=with_grads,
                          refined_reg=refined_reg)
        cls_j, reg_c, reg_r, _, dc, dr, dp = out
        l_reg += reg_c + reg_r
        l_cls += cls_j
        if with_grads:
            d_completion += dc
            d_refined += dr
            d_probs += dp
    return l_reg, l_cls, d_completion, d_refined, d_probs


def total_loss(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
               targets: TargetSet, frame: Frame, l_temp: float = 0.0,
               l_spa: float = 0.0) -> LossBreakdown:
    """Assemble the full objective for one scenario.

    Predictions are agent-frame arrays; the supervision targets are
    world-frame trajectories re-expressed through `frame`. Consistency terms
    are computed by the caller (they need extra forward passes) and passed in.
    """
    targets_xy = np.stack([to_frame_xy(tr.points, frame) for tr in targets.targets])
    l_reg, l_cls, _, _, _ = target_losses(completion, refined, probs, targets_xy,
                                          targets.confidences, with_grads=False)
    return make_breakdown(l_reg, l_cls, l_temp, l_spa)
