"""Loss values and hand gradients: WTA supervision, temporal and spatial
consistency, and the assembled breakdown."""

import json
import math

import numpy as np
import pytest

from conftest import line_trajectory, prediction_set
from trajcast.core import Frame, TargetSet, Trajectory, Waypoint
from trajcast.losses import (HUBER_DELTA, InvalidShift, LossBreakdown,
                             SpatialPermutation, _spatial_arrays,
                             _temporal_arrays, _wta_arrays, huber,
                             make_breakdown, sample_permutation,
                             softmin_scores, spatial_consistency,
                             target_losses, temporal_consistency, total_loss,
                             wta_target_loss)

IDENTITY = Frame(origin=Waypoint(0.0, 0.0), rotation=0.0)


# -- huber / softmin ----------------------------------------------------------

def test_huber_hand_values():
    assert HUBER_DELTA == 1.0
    assert huber(0.5, 0.0) == 0.125
    assert huber(2.0, 0.0) == 1.5
    assert huber(1.0, 0.0) == 0.5          # boundary uses the quadratic branch
    assert huber([0.5, 2.0], [0.0, 0.0]) == 1.625
    assert huber(0.0, 0.5) == 0.125        # symmetric
    assert huber(2.0, 0.0, delta=2.0) == 2.0


def test_softmin_hand_values():
    np.testing.assert_array_equal(softmin_scores([0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(softmin_scores([0.0, math.log(3.0)]),
                               [0.75, 0.25], rtol=1e-14)
    s = softmin_scores(np.arange(5.0))
    assert s.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(s) < 0)          # lower displacement, higher score


def test_softmin_shift_invariance():
    base = softmin_scores([0.0, 1.0, 3.0])
    shifted = softmin_scores([5.0, 6.0, 8.0])
    np.testing.assert_array_equal(base, shifted)


# -- winner-takes-all ---------------------------------------------------------

def _wta_hand_setup():
    preds = prediction_set([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                           scores=[0.5, 0.5])
    target = Trajectory(points=np.zeros((2, 2)))
    return preds, target


def test_wta_hand_case():
    preds, target = _wta_hand_setup()
    l_cls, l_reg, winner = wta_target_loss(preds, target, confidence=1.0)
    assert winner == 0
    assert l_reg == 0.0
    s0 = 1.0 / (1.0 + math.exp(-2.0))
    expected = 0.5 * (0.5 * (0.5 - s0) ** 2 + 0.5 * (0.5 - (1.0 - s0)) ** 2)
    assert l_cls == pytest.approx(expected, rel=1e-14)


def test_wta_perfect_prediction_is_zero():
    target = line_trajectory((0, 0), (1, 0), 4)
    preds = prediction_set([target.points, target.points], scores=[0.5, 0.5])
    l_cls, l_reg, _ = wta_target_loss(preds, target, confidence=1.0)
    assert l_reg == 0.0
    assert l_cls == 0.0        # equal end errors give the uniform cls target


def test_wta_zero_confidence_zeroes_everything():
    preds, target = _wta_hand_setup()
    l_cls, l_reg, _ = wta_target_loss(preds, target, confidence=0.0)
    assert l_cls == 0.0 and l_reg == 0.0
    stack = preds.stacked()
    _, _, _, _, dc, dr, dp = _wta_arrays(stack, stack, preds.scores,
                                         target.points, 0.0)
    assert np.all(dc == 0.0) and np.all(dr == 0.0) and np.all(dp == 0.0)


def test_wta_scales_linearly_with_confidence():
    preds, target = _wta_hand_setup()
    full_cls, full_reg, _ = wta_target_loss(preds, target, confidence=1.0)
    part_cls, part_reg, _ = wta_target_loss(preds, target, confidence=0.3)
    assert part_cls == pytest.approx(0.3 * full_cls, rel=1e-12)
    assert part_reg == pytest.approx(0.3 * full_reg, rel=1e-12)


def test_wta_winner_is_endpoint_argmin():
    preds = prediction_set([[[9.0, 9.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                           scores=[0.5, 0.5])
    target = Trajectory(points=np.zeros((2, 2)))
    _, _, winner = wta_target_loss(preds, target, confidence=1.0)
    assert winner == 1         # closer final point wins despite a worse start


def test_wta_refined_reg_flag_skips_second_term():
    rng = np.random.default_rng(3)
    completion = rng.normal(size=(3, 4, 2))
    refined = completion + rng.normal(size=(3, 4, 2))
    probs = np.full(3, 1 / 3)
    target = rng.normal(size=(4, 2))
    both = _wta_arrays(completion, refined, probs, target, 1.0)
    only_c = _wta_arrays(completion, refined, probs, target, 1.0, refined_reg=False)
    assert only_c[2] == 0.0 and both[2] > 0.0
    assert only_c[1] == both[1]
    k_star = both[3]
    assert np.all(only_c[5][k_star] != both[5][k_star])   # refined grad drops a term


def test_wta_array_grads_match_finite_differences():
    rng = np.random.default_rng(21)
    completion = rng.normal(size=(3, 4, 2))
    refined = completion + 0.1 * rng.normal(size=(3, 4, 2))
    probs = softmin_scores(rng.random(3))
    target = rng.normal(size=(4, 2))

    def value(c, r, p):
        l_cls, l_reg_c, l_reg_r, _, _, _, _ = _wta_arrays(c, r, p, target, 0.7)
        return l_cls + l_reg_c + l_reg_r

    _, _, _, _, dc, dr, dp = _wta_arrays(completion, refined, probs, target, 0.7)
    h = 1e-6
    for arr, grad in ((completion, dc), (refined, dr), (probs, dp)):
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = value(completion, refined, probs)
            flat[idx] = orig - h
            dn = value(completion, refined, probs)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            assert abs(grad.reshape(-1)[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


# -- temporal consistency -----------------------------------------------------

def _shifted_pair(k=2, t=5, s=2):
    """Set B looks s frames further ahead along the same straight lines."""
    starts = np.array([[0.0, 0.0], [0.0, 10.0]])
    step = np.array([1.0, 0.0])
    idx = np.arange(t)[None, :, None]
    stack_a = starts[:k, None, :] + idx * step
    stack_b = starts[:k, None, :] + (idx + s) * step
    return stack_a, stack_b


def test_temporal_fixed_point_is_zero():
    stack_a, stack_b = _shifted_pair()
    a = prediction_set(list(stack_a))
    b = prediction_set(list(stack_b))
    assert temporal_consistency(a, b, s=2) == 0.0
    l, d_a, d_b = _temporal_arrays(stack_a, stack_b, 2)
    assert l == 0.0
    assert np.all(d_a == 0.0) and np.all(d_b == 0.0)


def test_temporal_hand_value():
    """One pair, one overlap step, offset (3, 4): huber 2.5 + 3.5 = 6."""
    a = prediction_set([[[0.0, 0.0], [0.0, 0.0]]])
    b = prediction_set([[[3.0, 4.0], [99.0, 99.0]]])
    assert temporal_consistency(a, b, s=1) == 6.0


def test_temporal_normalizes_by_pairs_and_steps():
    stack_a, stack_b = _shifted_pair(k=2, t=5, s=2)
    stack_b = stack_b + np.array([0.0, 0.5])   # constant quadratic-zone offset
    l, _, _ = _temporal_arrays(stack_a, stack_b, 2)
    # per coordinate huber(0.5) = 0.125 on y only, same for every matched step
    assert l == pytest.approx(0.125, rel=1e-12)


def test_temporal_matches_mini_oracle_on_crossed_sets():
    rng = np.random.default_rng(5)
    t, s = 6, 2
    stack_a = rng.normal(size=(3, t, 2))
    stack_b = rng.normal(size=(3, t, 2))
    l, _, _ = _temporal_arrays(stack_a, stack_b, s)

    # plain-loop recomputation: mutual nearest neighbors on overlap ADE
    cost = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            d = stack_a[i, s:] - stack_b[j, : t - s]
            cost[i, j] = np.mean(np.hypot(d[:, 0], d[:, 1]))
    pairs = [(i, int(np.argmin(cost[i]))) for i in range(3)
             if int(np.argmin(cost[:, int(np.argmin(cost[i]))])) == i]
    total = 0.0
    for i, j in pairs:
        diff = stack_a[i, s:] - stack_b[j, : t - s]
        a = np.abs(diff)
        total += float(np.where(a <= 1.0, 0.5 * diff * diff, a - 0.5).sum())
    assert l == pytest.approx(total / (len(pairs) * (t - s)), rel=1e-12)


def test_temporal_grads_match_finite_differences():
    rng = np.random.default_rng(6)
    stack_a = rng.normal(size=(2, 5, 2))
    stack_b = rng.normal(size=(2, 5, 2))
    l, d_a, d_b = _temporal_arrays(stack_a, stack_b, 2)
    h = 1e-6
    for arr, grad in ((stack_a, d_a), (stack_b, d_b)):
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=8, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _, _ = _temporal_arrays(stack_a, stack_b, 2)
            flat[idx] = orig - h
            dn, _, _ = _temporal_arrays(stack_a, stack_b, 2)
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            assert abs(grad.reshape(-1)[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_temporal_invalid_shift():
    a = prediction_set([[[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(InvalidShift):
        temporal_consistency(a, a, s=0)
    with pytest.raises(InvalidShift):
        temporal_consistency(a, a, s=2)
    b = prediction_set([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(InvalidShift):
        temporal_consistency(a, b, s=1)


# -- spatial consistency ------------------------------------------------------

def test_spatial_identity_is_zero():
    rng = np.random.default_rng(8)
    anchors = rng.normal(size=(2, 4, 2))
    history = rng.normal(size=(5, 2))
    offsets = 0.1 * rng.normal(size=(2, 4, 2))
    perm = SpatialPermutation(flip=False, noise=None)
    assert spatial_consistency(offsets, anchors, history, perm,
                               lambda a, h: (offsets, None)) == 0.0


def test_spatial_zero_head_under_flip_is_zero():
    rng = np.random.default_rng(9)
    anchors = rng.normal(size=(2, 4, 2))
    history = rng.normal(size=(5, 2))
    zeros = np.zeros((2, 4, 2))
    perm = SpatialPermutation(flip=True, noise=None)
    assert spatial_consistency(zeros, anchors, history, perm,
                               lambda a, h: (np.zeros_like(a), None)) == 0.0


def test_spatial_compensating_head_is_fixed_point():
    """offsets = g(history) - anchors with g flip-equivariant: zero loss under
    any flip + anchor-noise permutation. Sign flips are exact in floats; the
    noise cancellation (x - e) + e rounds, so that case gets a tiny tolerance."""
    rng = np.random.default_rng(10)
    anchors = rng.normal(size=(3, 4, 2))
    history = rng.normal(size=(6, 2))

    def head(a, h):
        return np.tile(h.mean(axis=0), (a.shape[0], a.shape[1], 1)) - a, None

    offsets = head(anchors, history)[0]
    for flip in (False, True):
        flip_only = SpatialPermutation(flip=flip, noise=None)
        assert spatial_consistency(offsets, anchors, history, flip_only, head) == 0.0
        noisy = SpatialPermutation(flip=flip, noise=rng.uniform(-0.2, 0.2, size=(3, 4, 2)))
        assert spatial_consistency(offsets, anchors, history, noisy, head) < 1e-24


def test_spatial_constant_head_under_flip_hand_value():
    anchors = np.zeros((2, 3, 2))
    history = np.zeros((4, 2))
    const = np.full((2, 3, 2), 0.5)
    perm = SpatialPermutation(flip=True, noise=None)
    # y offsets flip sign: per point huber(1.0) = 0.5 on y, 0 on x
    assert spatial_consistency(const, anchors, history, perm,
                               lambda a, h: (np.full_like(a, 0.5), None)) == 0.5


def test_spatial_arrays_match_public_value():
    rng = np.random.default_rng(11)
    anchors = rng.normal(size=(2, 4, 2))
    history = rng.normal(size=(5, 2))
    offsets = 0.3 * rng.normal(size=(2, 4, 2))
    perm = sample_permutation(rng, (2, 4, 2))

    def head(a, h):
        return 0.2 * a + h.mean(axis=0), None

    public = spatial_consistency(offsets, anchors, history, perm, head)
    a2, h2 = perm.apply(anchors, history)
    mapped = perm.invert_offsets(head(a2, h2)[0])
    l, g_off, g_map = _spatial_arrays(offsets, mapped)
    assert l == public
    np.testing.assert_array_equal(g_off, -g_map)


def test_spatial_positive_under_perturbation():
    rng = np.random.default_rng(12)
    anchors = rng.normal(size=(2, 4, 2))
    history = rng.normal(size=(5, 2))
    offsets = rng.normal(size=(2, 4, 2))
    perm = SpatialPermutation(flip=True, noise=rng.uniform(-0.5, 0.5, size=(2, 4, 2)))
    val = spatial_consistency(offsets, anchors, history, perm,
                              lambda a, h: (np.zeros_like(a), None))
    assert val > 0.0


def test_permutation_invert_and_backprop():
    rng = np.random.default_rng(13)
    noise = rng.normal(size=(1, 2, 2))
    perm = SpatialPermutation(flip=True, noise=noise)
    offsets = rng.normal(size=(1, 2, 2))
    mapped = perm.invert_offsets(offsets)
    np.testing.assert_array_equal(mapped, (offsets + noise) * np.array([1.0, -1.0]))
    d = rng.normal(size=(1, 2, 2))
    np.testing.assert_array_equal(perm.backprop_inverse(d), d * np.array([1.0, -1.0]))
    plain = SpatialPermutation(flip=False, noise=None)
    np.testing.assert_array_equal(plain.backprop_inverse(d), d)


def test_sample_permutation_determinism():
    a = sample_permutation(np.random.default_rng(4), (2, 3, 2))
    b = sample_permutation(np.random.default_rng(4), (2, 3, 2))
    assert a.flip == b.flip
    np.testing.assert_array_equal(a.noise, b.noise)
    assert np.all(np.abs(a.noise) <= 0.2)


# -- breakdown / total --------------------------------------------------------

def test_breakdown_validation_and_json():
    bd = make_breakdown(1.0, 0.5, 0.25, 0.125)
    assert bd.total == 1.875
    data = json.loads(bd.to_json())
    assert list(data.keys()) == sorted(data.keys())
    assert data["total"] == 1.875
    with pytest.raises(ValueError):
        LossBreakdown(l_reg=1.0, l_cls=0.0, l_temp=0.0, l_spa=0.0, total=2.0)
    with pytest.raises(ValueError):
        LossBreakdown(l_reg=math.nan, l_cls=0.0, l_temp=0.0, l_spa=0.0, total=math.nan)


def test_total_loss_hand_case():
    """Perfect regression, equal end errors, probs (0.7, 0.3): only the
    classification term survives and equals 0.02."""
    gt = line_trajectory((0, 0), (1, 0), 4)
    other = np.array(gt.points)
    other[1] = (0.0, 5.0)                   # same endpoint, different body
    completion = np.stack([gt.points, other])
    targets = TargetSet(targets=(gt,), confidences=np.array([1.0]))
    bd = total_loss(completion, completion, np.array([0.7, 0.3]), targets, IDENTITY)
    assert bd.l_reg == 0.0
    assert bd.l_cls == pytest.approx(0.02, rel=1e-12)
    assert bd.l_temp == 0.0 and bd.l_spa == 0.0
    assert bd.total == pytest.approx(0.02, rel=1e-12)


def test_total_loss_passes_consistency_terms_through():
    gt = line_trajectory((0, 0), (1, 0), 4)
    completion = np.stack([gt.points, gt.points])
    targets = TargetSet(targets=(gt,), confidences=np.array([1.0]))
    bd = total_loss(completion, completion, np.array([0.5, 0.5]), targets,
                    IDENTITY, l_temp=0.25, l_spa=0.5)
    assert bd.l_temp == 0.25 and bd.l_spa == 0.5
    assert bd.total == 0.75


def test_zero_confidence_extras_change_nothing():
    rng = np.random.default_rng(14)
    completion = rng.normal(size=(2, 4, 2))
    refined = completion + 0.1 * rng.normal(size=(2, 4, 2))
    probs = np.array([0.6, 0.4])
    gt = rng.normal(size=(4, 2))
    extras = rng.normal(size=(2, 4, 2))
    single = target_losses(completion, refined, probs, gt[None], np.array([1.0]))
    padded = target_losses(completion, refined, probs,
                           np.concatenate([gt[None], extras]),
                           np.array([1.0, 0.0, 0.0]))
    assert padded[0] == single[0] and padded[1] == single[1]
    for a, b in zip(single[2:], padded[2:]):
        np.testing.assert_array_equal(a, b)


def test_target_losses_sum_over_targets():
    rng = np.random.default_rng(15)
    completion = rng.normal(size=(2, 4, 2))
    probs = np.array([0.5, 0.5])
    t0 = rng.normal(size=(4, 2))
    t1 = rng.normal(size=(4, 2))
    joint = target_losses(completion, completion, probs,
                          np.stack([t0, t1]), np.array([1.0, 0.25]))
    a = target_losses(completion, completion, probs, t0[None], np.array([1.0]))
    b = target_losses(completion, completion, probs, t1[None], np.array([0.25]))
    assert joint[0] == pytest.approx(a[0] + b[0], rel=1e-12)
    assert joint[1] == pytest.approx(a[1] + b[1], rel=1e-12)
