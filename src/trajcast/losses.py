"""Training objectives: winner-takes-all regression and classification per
supervision target, and temporal and spatial consistency terms. The step's
total is added where its record is built, in `harness.train`.

The kernels `_wta_targets`, `_temporal_arrays` and `_spatial_arrays` return
each loss with its exact derivatives w.r.t. the predictor outputs it consumes,
computed by hand; training calls them (WTA through `target_losses`). Leading
array axes index scenarios, so one call scores a whole minibatch. The public
consistency values call the same kernels on one scenario and drop the
gradients. Winner selection and matching indices are treated as locally
constant, which is exact away from argmin ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, TrajcastError, flip_scale_xy, softmax, softmax_backprop
from .core import to_frame_xy  # noqa: F401  re-exported: callers use losses.to_frame_xy
from .matching import pair_mask, pairwise_cost

HUBER_DELTA = 1.0
SOFTMIN_TAU = 1.0


class InvalidShift(TrajcastError):
    """Temporal shift outside 1 <= s < horizon."""


# ---------------------------------------------------------------------------
# elementwise pieces


def _huber(diff: np.ndarray, delta: float = HUBER_DELTA):
    """Elementwise Huber value, quadratic where |diff| <= delta and linear
    beyond, and its derivative w.r.t. diff: diff clipped to +-delta."""
    a = np.abs(diff)
    return (np.where(a <= delta, 0.5 * diff * diff, delta * (a - 0.5 * delta)),
            np.clip(diff, -delta, delta))


def softmin_scores(displacements, tau: float = SOFTMIN_TAU) -> np.ndarray:
    """exp(-d/tau) normalized to probabilities over the last axis:
    softmax(-d/tau)."""
    return softmax(-np.asarray(displacements, dtype=np.float64) / tau)


def _softmin_backprop(s: np.ndarray, d_s: np.ndarray, tau: float = SOFTMIN_TAU) -> np.ndarray:
    """Gradient w.r.t. the displacements given gradient w.r.t. the scores."""
    return -softmax_backprop(s, d_s) / tau


# ---------------------------------------------------------------------------
# winner-takes-all supervision


def _at_modes(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each (T, 2) block of a (..., K, T, 2) stack at the modes of a (..., J)
    index: (..., J, T, 2). Index arrays on the leading axes and the mode axis
    gather whole blocks; np.take_along_axis would broadcast its index over T
    and 2 and pick element by element."""
    return stack[(*np.indices(index.shape, sparse=True)[:-1], index)]


def _wta_targets(completion: np.ndarray, refined: np.ndarray, probs: np.ndarray,
                 targets: np.ndarray, confidences: np.ndarray, refined_reg: bool = True):
    """Winner-takes-all losses against J supervision targets per prediction
    set, with their gradients.

    For each target the winner k_star is the mode with the smallest refined
    endpoint error. Regression supervises both the completion output and the
    refined output at that winner; the classification target is softmin over
    refined endpoint errors and is itself differentiated. Each target's terms
    are weighted by its confidence. With refined_reg False (refinement head
    disabled, refined is an alias of completion) the second regression term
    is skipped rather than double-counted.

    Shapes: completion and refined (..., K, T, 2), probs (..., K), targets
    (..., J, T, 2), confidences (..., J); leading axes index prediction sets
    (scenarios). Returns (l_cls, l_reg_completion, l_reg_refined, k_star,
    d_completion, d_refined, d_probs): the losses and k_star per target,
    (..., J); the gradients summed over the J targets, shaped like the
    predictions.
    """
    k, t = refined.shape[-3], refined.shape[-2]
    end_diff = refined[..., None, :, -1, :] - targets[..., :, None, -1, :]  # (..., J, K, 2)
    end_err = np.linalg.norm(end_diff, axis=-1)
    k_star = np.argmin(end_err, axis=-1)                                   # (..., J)
    # (..., K, J): which targets each mode wins, to sum per-target gradients
    wins = (k_star[..., None, :] == np.arange(k)[:, None]).astype(np.float64)

    def scatter_to_winners(per_target):  # (..., J, T, 2) -> (..., K, T, 2)
        flat = per_target.reshape(per_target.shape[:-2] + (2 * t,))
        return (wins @ flat).reshape(wins.shape[:-1] + (t, 2))

    conf_t = (confidences / t)[..., None, None]
    value, grad = _huber(_at_modes(completion, k_star) - targets)
    l_reg_c = confidences / t * value.sum(axis=(-2, -1))
    d_completion = scatter_to_winners(conf_t * grad)
    if refined_reg:
        value, grad = _huber(_at_modes(refined, k_star) - targets)
        l_reg_r = confidences / t * value.sum(axis=(-2, -1))
        d_refined = scatter_to_winners(conf_t * grad)
    else:
        l_reg_r = np.zeros_like(l_reg_c)
        d_refined = np.zeros_like(d_completion)

    cls_target = softmin_scores(end_err)
    value, grad = _huber(probs[..., None, :] - cls_target)
    l_cls = confidences / k * value.sum(axis=-1)
    g_cls = (confidences / k)[..., None] * grad
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
    value, grad = _huber(tail[where, i] - head[where, j])                 # (P, T-s, 2)
    count = np.bincount(where, minlength=tail.shape[0])
    norm = (np.maximum(count, 1) * (t - s)).astype(np.float64)
    total = np.bincount(where, weights=value.sum(axis=(1, 2)), minlength=tail.shape[0]) / norm
    g = grad / norm[where][:, None, None]
    d_a = np.zeros(tail.shape[:1] + stack_a.shape[-3:])
    d_b = np.zeros(head.shape[:1] + stack_b.shape[-3:])
    np.add.at(d_a[..., s:, :], (where, i), g)
    np.add.at(d_b[..., : t - s, :], (where, j), -g)
    return (total.reshape(lead), d_a.reshape(stack_a.shape), d_b.reshape(stack_b.shape))


# ---------------------------------------------------------------------------
# spatial consistency


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
        return flip_scale_xy(xy, self.flip)

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
    """Random flip plus uniform anchor noise in [-noise_scale, noise_scale]; -0.0 reads as 0."""
    flip = bool(rng.random() < p_flip)
    noise = rng.uniform(-abs(noise_scale), abs(noise_scale), size=shape)
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
    value, grad = _huber(offsets - mapped)
    l_spa = value.sum(axis=(-3, -2, -1)) / (k * t)
    g = grad / (k * t)
    return l_spa, g, -g


# ---------------------------------------------------------------------------
# supervision total


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
