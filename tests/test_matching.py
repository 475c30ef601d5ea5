"""Matching strategies against brute-force oracles."""

import itertools

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_trajectory
from trajcast.matching import (STRATEGIES, EmptyOverlap, SimilarityMatrix, match,
                               match_backward, match_bidirectional,
                               match_forward, match_hungarian, pair_mask,
                               similarity, total_cost)


# -- oracles ------------------------------------------------------------------

def _argmin_first(vals):
    best = 0
    for i, v in enumerate(vals):
        if v < vals[best]:
            best = i
    return best


def _mutual_nn_oracle(cost):
    rows, cols = cost.shape
    row_best = [_argmin_first(cost[i]) for i in range(rows)]
    col_best = [_argmin_first(cost[:, j]) for j in range(cols)]
    return {(i, row_best[i]) for i in range(rows) if col_best[row_best[i]] == i}


def _assignment_oracle(cost):
    """Exhaustive minimum over all one-to-one assignments."""
    rows, cols = cost.shape
    if rows <= cols:
        return min(sum(cost[i, p[i]] for i in range(rows))
                   for p in itertools.permutations(range(cols), rows))
    return min(sum(cost[p[j], j] for j in range(cols))
               for p in itertools.permutations(range(rows), cols))


def _random_cost(rng):
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    # quantized costs so exact ties actually occur
    return np.round(rng.random((rows, cols)) * 4.0) / 2.0


# -- hand cases ---------------------------------------------------------------

def test_forward_backward_bidirectional_hand_case():
    sim = SimilarityMatrix(cost=np.array([[0.0, 1.0], [0.0, 2.0]]), criterion="fde")
    assert match_forward(sim).as_set() == {(0, 0), (1, 0)}
    assert match_backward(sim).as_set() == {(0, 0), (0, 1)}
    assert match_bidirectional(sim).as_set() == {(0, 0)}


def test_hungarian_hand_case():
    sim = SimilarityMatrix(cost=np.array([[4.0, 1.0], [2.0, 3.0]]), criterion="fde")
    result = match_hungarian(sim)
    assert result.as_set() == {(0, 1), (1, 0)}
    assert total_cost(sim, result) == 3.0


def test_hungarian_rectangular_drops_padding():
    sim = SimilarityMatrix(cost=np.array([[5.0, 1.0, 9.0]]), criterion="ade")
    result = match_hungarian(sim)
    assert result.as_set() == {(0, 1)}
    sim_t = SimilarityMatrix(cost=np.array([[5.0], [1.0], [9.0]]), criterion="ade")
    assert match_hungarian(sim_t).as_set() == {(1, 0)}


def test_tie_breaks_take_lowest_index():
    sim = SimilarityMatrix(cost=np.ones((3, 3)), criterion="fde")
    assert match_forward(sim).pairs == ((0, 0), (1, 0), (2, 0))
    assert match_backward(sim).pairs == ((0, 0), (0, 1), (0, 2))
    assert match_bidirectional(sim).pairs == ((0, 0),)


def test_match_dispatch_and_unknown_strategy():
    sim = SimilarityMatrix(cost=np.array([[1.0]]), criterion="fde")
    for strategy in ("forward", "backward", "bidirectional", "hungarian"):
        assert match(sim, strategy).strategy == strategy
        assert match(sim, strategy).as_set() == {(0, 0)}
    with pytest.raises(ValueError):
        match(sim, "greedy")


# -- oracle sweeps ------------------------------------------------------------

def test_bidirectional_equals_forward_intersect_backward():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sim = SimilarityMatrix(cost=_random_cost(rng), criterion="fde")
        fwd = match_forward(sim).as_set()
        bwd = match_backward(sim).as_set()
        bi = match_bidirectional(sim).as_set()
        assert bi == fwd & bwd
        assert bi == _mutual_nn_oracle(sim.cost)


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cost = _random_cost(rng)
        sim = SimilarityMatrix(cost=cost, criterion="fde")
        result = match_hungarian(sim)
        assert len(result.pairs) == min(cost.shape)
        assert len({i for i, _ in result.pairs}) == len(result.pairs)
        assert len({j for _, j in result.pairs}) == len(result.pairs)
        assert abs(total_cost(sim, result) - _assignment_oracle(cost)) < 1e-9


# (B, K_a, K_b) stacks of costs in steps of 0.5, so exact ties occur
_cost_stacks = st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.integers(0, 4).map(lambda v: v / 2)))


@settings(max_examples=200, deadline=None)
@given(_cost_stacks)
def test_pair_mask_on_a_stack_matches_match_per_matrix_property(cost):
    masks = {strategy: pair_mask(cost, strategy) for strategy in STRATEGIES}
    for b in range(cost.shape[0]):
        sim = SimilarityMatrix(cost=cost[b], criterion="fde")
        for strategy, mask in masks.items():
            assert set(zip(*np.nonzero(mask[b]))) == match(sim, strategy).as_set()


@settings(max_examples=200, deadline=None)
@given(_cost_stacks)
def test_bidirectional_is_forward_and_backward_property(cost):
    for b in range(cost.shape[0]):
        sim = SimilarityMatrix(cost=cost[b], criterion="fde")
        fwd, bwd, bi = (match(sim, s).as_set() for s in ("forward", "backward", "bidirectional"))
        assert sorted(i for i, _ in fwd) == list(range(cost.shape[1]))
        assert sorted(j for _, j in bwd) == list(range(cost.shape[2]))
        assert bi == fwd & bwd == _mutual_nn_oracle(cost[b])


@settings(max_examples=200, deadline=None)
@given(_cost_stacks)
def test_hungarian_pairs_one_to_one_property(cost):
    mask = pair_mask(cost, "hungarian")
    for b in range(cost.shape[0]):
        sim = SimilarityMatrix(cost=cost[b], criterion="fde")
        result = match_hungarian(sim)
        assert len(result.pairs) == min(cost.shape[1:]) == mask[b].sum()
        assert mask[b].sum(axis=0).max() == mask[b].sum(axis=1).max() == 1
        assert abs(total_cost(sim, result) - _assignment_oracle(cost[b])) < 1e-9


def test_hungarian_is_deterministic_under_ties():
    sim = SimilarityMatrix(cost=np.ones((4, 4)), criterion="fde")
    first = match_hungarian(sim).pairs
    for _ in range(5):
        assert match_hungarian(sim).pairs == first


# -- similarity ---------------------------------------------------------------

def _set(*trajectories):
    """A (K, L, 2) trajectory set."""
    return np.stack([t.points for t in trajectories])


def test_similarity_full_length():
    a = _set(line_trajectory((0, 0), (1, 0), 3))
    b = _set(line_trajectory((0, 1), (1, 0), 3))
    sim_ade = similarity(a, b, criterion="ade")
    sim_fde = similarity(a, b, criterion="fde")
    assert sim_ade.cost[0, 0] == 1.0
    assert sim_fde.cost[0, 0] == 1.0


def test_similarity_overlap_window():
    """Last L of A against first L of B, the time-shift coincidence window."""
    a = _set(line_trajectory((0, 0), (1, 0), 3))                # (0,0) (1,0) (2,0)
    b = _set(line_trajectory((1, 0), (1, 0), 3))                # (1,0) (2,0) (3,0)
    sim = similarity(a, b, criterion="ade", overlap=2)
    assert sim.cost[0, 0] == 0.0
    b_far = _set(line_trajectory((1, 0), (4, 0), 3))            # (1,0) (5,0) (9,0)
    sim2 = similarity(a, b_far, criterion="ade", overlap=2)
    assert sim2.cost[0, 0] == 1.5                               # (0 + 3) / 2
    sim3 = similarity(a, b_far, criterion="fde", overlap=2)
    assert sim3.cost[0, 0] == 3.0


def test_similarity_rejects_bad_overlap():
    a = _set(line_trajectory((0, 0), (1, 0), 3))
    b = _set(line_trajectory((0, 0), (1, 0), 5))
    with pytest.raises(EmptyOverlap):
        similarity(a, b)                    # unequal lengths, no overlap given
    with pytest.raises(EmptyOverlap):
        similarity(a, b, overlap=0)
    with pytest.raises(EmptyOverlap):
        similarity(a, b, overlap=4)


def test_similarity_matrix_validation():
    with pytest.raises(ValueError):
        SimilarityMatrix(cost=np.array([[np.nan]]), criterion="fde")
    with pytest.raises(ValueError):
        SimilarityMatrix(cost=np.array([[-1.0]]), criterion="fde")
    with pytest.raises(ValueError):
        SimilarityMatrix(cost=np.array([[1.0]]), criterion="dtw")
    with pytest.raises(ValueError):
        SimilarityMatrix(cost=np.zeros((0, 3)), criterion="fde")


# -- the stack rule -------------------------------------------------------------

@st.composite
def _set_stacks(draw):
    """Two (..., K, L, 2) stacks of trajectory sets with 0 to 2 leading axes,
    coordinates in steps of 0.5 (so costs tie exactly) or any float, and an
    overlap that fits both lengths, or None where the lengths are equal."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k_a, k_b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    len_a = draw(st.integers(1, 5))
    overlap = draw(st.none() | st.integers(1, len_a))
    len_b = len_a if overlap is None else draw(st.integers(overlap, 5))
    coords = st.one_of(st.integers(0, 4).map(lambda v: v / 2),
                       st.floats(-10, 10, allow_subnormal=False))
    set_a = draw(hnp.arrays(np.float64, lead + (k_a, len_a, 2), elements=coords))
    set_b = draw(hnp.arrays(np.float64, lead + (k_b, len_b, 2), elements=coords))
    return set_a, set_b, overlap


@settings(max_examples=200, deadline=None)
@given(_set_stacks(), st.sampled_from(("ade", "fde")))
def test_similarity_match_and_total_cost_on_a_stack_equal_the_per_matrix_calls_property(
        sets, criterion):
    set_a, set_b, overlap = sets
    sim = similarity(set_a, set_b, criterion=criterion, overlap=overlap)
    lead = set_a.shape[:-3]
    assert sim.cost.shape == lead + (set_a.shape[-3], set_b.shape[-3])
    per = {idx: similarity(set_a[idx], set_b[idx], criterion=criterion, overlap=overlap)
           for idx in np.ndindex(lead)}
    for idx, one in per.items():
        assert np.array_equal(sim.cost[idx], one.cost)
    for strategy in STRATEGIES:
        result = match(sim, strategy)
        assert result.strategy == strategy
        assert result.pairs == tuple((*idx, i, j) for idx, one in per.items()
                                     for i, j in match(one, strategy).pairs)
        expected = 0.0
        for one in per.values():
            expected += total_cost(one, match(one, strategy))
        assert total_cost(sim, result) == expected


@settings(max_examples=100, deadline=None)
@given(_cost_stacks, st.sampled_from((np.nan, np.inf, -0.5)), st.data())
def test_similarity_matrix_refuses_a_stack_with_one_bad_cost_property(cost, bad, data):
    SimilarityMatrix(cost=cost, criterion="ade")
    with pytest.raises(ValueError, match="criterion"):
        SimilarityMatrix(cost=cost, criterion="dtw")
    cost = cost.copy()
    cost[tuple(data.draw(st.integers(0, n - 1)) for n in cost.shape)] = bad
    with pytest.raises(ValueError, match="finite and >= 0"):
        SimilarityMatrix(cost=cost, criterion="fde")


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 3, 0), (3,)])
def test_similarity_matrix_refuses_an_empty_stack_or_a_vector(shape):
    with pytest.raises(ValueError, match=r"nonempty \(\.\.\., K_a, K_b\) stack"):
        SimilarityMatrix(cost=np.ones(shape), criterion="fde")


def test_match_on_a_stack_orders_pairs_by_matrix_then_row_or_column():
    cost = np.ones((2, 3, 3))
    sim = SimilarityMatrix(cost=cost, criterion="fde")
    assert match(sim, "forward").pairs == ((0, 0, 0), (0, 1, 0), (0, 2, 0),
                                           (1, 0, 0), (1, 1, 0), (1, 2, 0))
    assert match(sim, "backward").pairs == ((0, 0, 0), (0, 0, 1), (0, 0, 2),
                                            (1, 0, 0), (1, 0, 1), (1, 0, 2))
    assert total_cost(sim, match(sim, "hungarian")) == 6.0
