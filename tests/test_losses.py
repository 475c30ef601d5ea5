"""Loss values and hand gradients: WTA supervision summed over targets,
and temporal and spatial consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import line_trajectory, prediction_set
from trajcast.losses import (HUBER_DELTA, InvalidShift,
                             SpatialPermutation, _at_modes, _huber, _softmin_backprop,
                             _spatial_arrays, _temporal_arrays, _wta_targets,
                             sample_permutation,
                             softmin_scores, spatial_consistency,
                             target_losses, temporal_consistency)
from trajcast.matching import CRITERIA, STRATEGIES


# -- huber / softmin ----------------------------------------------------------

def test_huber_hand_values():
    assert HUBER_DELTA == 1.0
    assert _huber(np.array(0.5))[0] == 0.125
    assert _huber(np.array(2.0))[0] == 1.5
    assert _huber(np.array(1.0))[0] == 0.5          # boundary uses the quadratic branch
    assert _huber(np.array([0.5, 2.0]))[0].sum() == 1.625
    assert _huber(np.array(-0.5))[0] == 0.125       # symmetric
    assert _huber(np.array(2.0), delta=2.0)[0] == 2.0


def _huber_value_oracle(diff, delta):
    """The value formula as it stood before value and gradient were fused."""
    a = np.abs(diff)
    return np.where(a <= delta, 0.5 * diff * diff, delta * (a - 0.5 * delta))


def _huber_grad_oracle(diff, delta):
    """The gradient formula as it stood before value and gradient were fused."""
    return np.where(np.abs(diff) <= delta, diff, delta * np.sign(diff))


_DELTAS = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 0.1, 3.75]),
                    st.floats(1e-3, 1e3, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), delta=_DELTAS)
def test_huber_equals_the_separate_value_and_gradient_formulas(data, delta):
    """Bit for bit, at |d| == delta, at +-0.0 and +-inf and anywhere else
    (finite values stay below the square's overflow)."""
    special = st.sampled_from([delta, -delta, 0.0, -0.0, np.inf, -np.inf,
                               np.nextafter(delta, 0.0), np.nextafter(delta, np.inf)])
    diff = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3),
                                elements=st.one_of(special, st.floats(-1e150, 1e150))))
    value, grad = _huber(diff, delta)
    for got, want in ((value, _huber_value_oracle(diff, delta)),
                      (grad, _huber_grad_oracle(diff, delta))):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # -0.0 too


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 4), max_size=2),
       k=st.integers(1, 6), j=st.integers(1, 7), t=st.integers(1, 5))
def test_at_modes_equals_take_along_axis(seed, lead, k, j, t):
    """The winner gather against np.take_along_axis with its index
    broadcast over T and 2, for 0 to 2 leading axes and J = 1..7."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(*lead, k, t, 2))
    index = rng.integers(0, k, size=(*lead, j))
    want = np.take_along_axis(stack, index[..., None, None], axis=-3)
    got = _at_modes(stack, index)
    assert got.shape == (*lead, j, t, 2)
    assert np.array_equal(got, want)


def _softmin_oracle(displacements, tau):
    """softmin_scores as it stood before it called the shared softmax."""
    z = -np.asarray(displacements, dtype=np.float64) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmin_backprop_oracle(s, d_s, tau):
    """_softmin_backprop as it stood before it called the shared softmax
    backprop."""
    return -s * (d_s - (d_s * s).sum(axis=-1, keepdims=True)) / tau


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tau=st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(1e-2, 1e2)))
def test_softmin_pair_equals_the_former_formulas(data, tau):
    """softmin_scores and its backprop against their former formulas bit
    for bit, for 0 to 2 leading axes, at ties and at +-0.0."""
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    special = st.sampled_from([0.0, -0.0, 1.0])
    d = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(special, st.floats(0, 1e3))))
    d_s = data.draw(hnp.arrays(np.float64, shape,
                               elements=st.one_of(special, st.floats(-1e3, 1e3))))
    s = softmin_scores(d, tau)
    for got, want in ((s, _softmin_oracle(d, tau)),
                      (_softmin_backprop(s, d_s, tau), _softmin_backprop_oracle(s, d_s, tau))):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

def _wta_one(completion, refined, probs, target, confidence, refined_reg=True):
    """`_wta_targets` against the one target (T, 2): the losses and k_star
    without the J axis, and the gradients."""
    *parts, d_completion, d_refined, d_probs = _wta_targets(
        completion, refined, probs, target[None], np.array([confidence]), refined_reg)
    return (*(part[0] for part in parts), d_completion, d_refined, d_probs)


def _wta_loss(stack, probs, target, confidence):
    """(l_cls, completion l_reg, winner) with the completion as refined."""
    l_cls, l_reg, _, k_star, *_ = _wta_one(stack, stack, np.asarray(probs), target, confidence)
    return l_cls, l_reg, k_star


def _wta_hand_setup():
    stack = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    return stack, np.array([0.5, 0.5]), np.zeros((2, 2))


def test_wta_hand_case():
    stack, probs, target = _wta_hand_setup()
    l_cls, l_reg, winner = _wta_loss(stack, probs, target, confidence=1.0)
    assert winner == 0
    assert l_reg == 0.0
    s0 = 1.0 / (1.0 + math.exp(-2.0))
    expected = 0.5 * (0.5 * (0.5 - s0) ** 2 + 0.5 * (0.5 - (1.0 - s0)) ** 2)
    assert l_cls == pytest.approx(expected, rel=1e-14)


def test_wta_perfect_prediction_is_zero():
    target = line_trajectory((0, 0), (1, 0), 4).points
    l_cls, l_reg, _ = _wta_loss(np.stack([target, target]), [0.5, 0.5], target, confidence=1.0)
    assert l_reg == 0.0
    assert l_cls == 0.0        # equal end errors give the uniform cls target


def test_wta_zero_confidence_zeroes_everything():
    stack, probs, target = _wta_hand_setup()
    l_cls, l_reg, _ = _wta_loss(stack, probs, target, confidence=0.0)
    assert l_cls == 0.0 and l_reg == 0.0
    _, _, _, _, dc, dr, dp = _wta_one(stack, stack, probs, target, 0.0)
    assert np.all(dc == 0.0) and np.all(dr == 0.0) and np.all(dp == 0.0)


def test_wta_scales_linearly_with_confidence():
    stack, probs, target = _wta_hand_setup()
    full_cls, full_reg, _ = _wta_loss(stack, probs, target, confidence=1.0)
    part_cls, part_reg, _ = _wta_loss(stack, probs, target, confidence=0.3)
    assert part_cls == pytest.approx(0.3 * full_cls, rel=1e-12)
    assert part_reg == pytest.approx(0.3 * full_reg, rel=1e-12)


def test_wta_winner_is_endpoint_argmin():
    stack = np.array([[[9.0, 9.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    _, _, winner = _wta_loss(stack, [0.5, 0.5], np.zeros((2, 2)), confidence=1.0)
    assert winner == 1         # closer final point wins despite a worse start


def test_wta_refined_reg_flag_skips_second_term():
    rng = np.random.default_rng(3)
    completion = rng.normal(size=(3, 4, 2))
    refined = completion + rng.normal(size=(3, 4, 2))
    probs = np.full(3, 1 / 3)
    target = rng.normal(size=(4, 2))
    both = _wta_one(completion, refined, probs, target, 1.0)
    only_c = _wta_one(completion, refined, probs, target, 1.0, refined_reg=False)
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
        l_cls, l_reg_c, l_reg_r, _, _, _, _ = _wta_one(c, r, p, target, 0.7)
        return l_cls + l_reg_c + l_reg_r

    _, _, _, _, dc, dr, dp = _wta_one(completion, refined, probs, target, 0.7)
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 6),
       j=st.integers(1, 4), t=st.integers(1, 8))
def test_wta_regression_is_zero_where_a_mode_equals_each_target(seed, n, k, j, t):
    """Every target is a copy of some mode, so that mode wins it and the
    regression parts and their gradients are zero: d_completion is zero and
    d_refined is the classification gradient alone, as with refined_reg off.
    Moving one point of one target makes both regression parts positive."""
    rng = np.random.default_rng(seed)
    modes = rng.normal(scale=3.0, size=(n, k, t, 2))
    pick = rng.integers(0, k, size=(n, j))
    targets = np.take_along_axis(modes, pick[:, :, None, None], axis=1)
    probs = softmin_scores(rng.normal(size=(n, k)))
    confs = rng.uniform(0.1, 1.0, size=(n, j))
    _, reg_c, reg_r, k_star, d_comp, d_ref, _ = _wta_targets(modes, modes, probs, targets, confs)
    np.testing.assert_array_equal(k_star, pick)
    assert np.all(reg_c == 0.0) and np.all(reg_r == 0.0) and np.all(d_comp == 0.0)
    cls_only = _wta_targets(modes, modes, probs, targets, confs, refined_reg=False)[5]
    np.testing.assert_array_equal(d_ref, cls_only)
    i, jj, step = rng.integers(n), rng.integers(j), rng.integers(t)
    targets[i, jj, step] += rng.uniform(0.01, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    _, reg_c, reg_r, *_ = _wta_targets(modes, modes, probs, targets, confs)
    assert reg_c[i, jj] > 0.0 and reg_r[i, jj] > 0.0


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


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 5),
       s=st.integers(1, 4), extra=st.integers(1, 5))
def test_temporal_is_zero_when_window_b_is_window_a_shifted(strategy, criterion, seed, n,
                                                            k, s, extra):
    """B's modes, in another order, start where A's are s steps later: every
    strategy pairs each mode with its own continuation, so the term and its
    gradients are zero. Offsetting B makes every scenario's term positive."""
    rng = np.random.default_rng(seed)
    t = s + extra
    stack_a = rng.normal(scale=3.0, size=(n, k, t, 2))
    ahead = rng.normal(scale=3.0, size=(n, k, s, 2))   # B's steps past A's horizon
    stack_b = np.concatenate([stack_a[:, rng.permutation(k), s:], ahead], axis=2)
    l, d_a, d_b = _temporal_arrays(stack_a, stack_b, s, strategy, criterion)
    assert np.all(l == 0.0) and np.all(d_a == 0.0) and np.all(d_b == 0.0)
    moved = stack_b + rng.uniform(0.01, 1.0, size=2)
    assert np.all(_temporal_arrays(stack_a, moved, s, strategy, criterion)[0] > 0.0)


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(1, 6),
       t=st.integers(1, 8), m=st.integers(1, 6))
def test_spatial_is_zero_for_equivariant_offsets(seed, n, k, t, m):
    """A flip-equivariant head's second-pass offsets map back onto its first
    ones under any batch of flips, so the term and its gradients are zero.
    Moving one mapped offset makes that scenario's term positive."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(n, k, t, 2))
    history = rng.normal(size=(n, m, 2))

    def head(a, h):   # each waypoint's offset: the history mean minus the anchor
        return h.mean(axis=-2)[:, None, None, :] - a

    perm = SpatialPermutation(flip=rng.random(n) < 0.5, noise=None)
    mapped = perm.invert_offsets(head(*perm.apply(anchors, history)))
    l, d_offsets, d_mapped = _spatial_arrays(head(anchors, history), mapped)
    assert np.all(l == 0.0) and np.all(d_offsets == 0.0) and np.all(d_mapped == 0.0)
    i, mode, step = rng.integers(n), rng.integers(k), rng.integers(t)
    mapped[i, mode, step] += rng.uniform(0.01, 1.0, size=2)
    assert _spatial_arrays(head(anchors, history), mapped)[0][i] > 0.0


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


# -- target losses -------------------------------------------------------------

def test_total_loss_hand_case():
    """Perfect regression, equal end errors, probs (0.7, 0.3): only the
    classification term survives and equals 0.02."""
    gt = line_trajectory((0, 0), (1, 0), 4).points
    other = np.array(gt)
    other[1] = (0.0, 5.0)                   # same endpoint, different body
    completion = np.stack([gt, other])
    l_reg, l_cls = target_losses(completion, completion, np.array([0.7, 0.3]),
                                 gt[None], np.array([1.0]))[:2]
    assert l_reg == 0.0
    assert l_cls == pytest.approx(0.02, rel=1e-12)


def test_perfect_even_prediction_has_no_supervision_loss():
    """Two perfect modes scored evenly: no regression or classification
    term, and every gradient is zero."""
    gt = line_trajectory((0, 0), (1, 0), 4).points
    completion = np.stack([gt, gt])
    l_reg, l_cls, *grads = target_losses(completion, completion, np.array([0.5, 0.5]),
                                         gt[None], np.array([1.0]))
    assert l_reg == 0.0 and l_cls == 0.0
    for grad in grads:
        assert not np.any(grad)


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
