"""Similarity matrices and the four strategies for pairing trajectory sets.

Forward matching picks the cheapest partner per row, backward per column,
bidirectional keeps mutual nearest neighbors, and Hungarian solves the
one-to-one linear assignment. Ties always resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TrajcastError

CRITERIA = ("ade", "fde")
STRATEGIES = ("forward", "backward", "bidirectional", "hungarian")

# padding cost for rectangular assignment problems; padded pairs are discarded
PAD_COST = 1e9


class EmptyOverlap(TrajcastError):
    """Requested comparison window has no timesteps."""


class NonFinite(TrajcastError):
    """Cost matrix contains NaN or infinity."""


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    cost: np.ndarray        # (K_a, K_b) meters
    criterion: str

    def __post_init__(self):
        cost = np.array(self.cost, dtype=np.float64)
        if cost.ndim != 2 or cost.size == 0:
            raise ValueError(f"cost must be a nonempty 2-D matrix, got shape {cost.shape}")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("cost entries must be finite and >= 0")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple            # ((m_k, n_k), ...)
    strategy: str

    def as_set(self) -> set:
        return set(self.pairs)


def similarity(set_a, set_b, criterion: str = "fde",
               overlap: int | None = None) -> SimilarityMatrix:
    """Pairwise ADE or FDE between two (K, L, 2) trajectory sets.

    With `overlap` = L, the last L steps of each trajectory in set_a are
    compared against the first L steps of each trajectory in set_b; this is
    the window where time-shifted prediction sets coincide. overlap=None
    compares full trajectories (requires equal lengths).
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if len(set_a) == 0 or len(set_b) == 0:
        raise ValueError("both trajectory sets must be nonempty")
    len_a, len_b = set_a.shape[1], set_b.shape[1]
    if overlap is None:
        if len_a != len_b:
            raise EmptyOverlap(f"full comparison needs equal lengths, got {len_a} vs {len_b}")
        overlap = len_a
    if overlap < 1 or overlap > len_a or overlap > len_b:
        raise EmptyOverlap(f"overlap {overlap} incompatible with lengths {len_a}, {len_b}")
    cost = pairwise_cost(set_a[:, len_a - overlap:], set_b[:, :overlap], criterion)
    return SimilarityMatrix(cost=cost, criterion=criterion)


def pairwise_cost(tail: np.ndarray, head: np.ndarray, criterion: str) -> np.ndarray:
    """ADE or FDE between every row of tail (..., K_a, L, 2) and of head
    (..., K_b, L, 2): a (..., K_a, K_b) stack of cost matrices."""
    if criterion != "ade":  # FDE reads the last step only
        tail, head = tail[..., -1:, :], head[..., -1:, :]
    dists = np.linalg.norm(tail[..., :, None, :, :] - head[..., None, :, :, :], axis=-1)
    return dists.mean(axis=-1) if criterion == "ade" else dists[..., -1]


def pair_mask(cost: np.ndarray, strategy: str) -> np.ndarray:
    """The pairs `strategy` picks in each matrix of a (..., K_a, K_b) cost
    stack, as a boolean mask of the same shape.

    The argmin strategies work on the whole stack at once; hungarian solves
    the matrices one by one and needs finite costs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    rows, cols = cost.shape[-2:]
    if strategy == "hungarian":
        if not np.all(np.isfinite(cost)):
            raise NonFinite("assignment requires finite costs")
        mask = np.zeros(cost.shape, dtype=bool)
        n = max(rows, cols)
        padded = np.full((n, n), PAD_COST, dtype=np.float64)
        for idx in np.ndindex(cost.shape[:-2]):
            padded[:rows, :cols] = cost[idx]
            col_of_row = _solve_assignment(padded)[:rows]
            real = col_of_row < cols
            mask[idx][np.flatnonzero(real), col_of_row[real]] = True
        return mask
    # ties resolve to the lowest index, as np.argmin does
    row_pick = np.argmin(cost, axis=-1)[..., :, None] == np.arange(cols)
    if strategy == "forward":
        return row_pick
    col_pick = np.argmin(cost, axis=-2)[..., None, :] == np.arange(rows)[:, None]
    return col_pick if strategy == "backward" else row_pick & col_pick


def match(sim: SimilarityMatrix, strategy: str) -> MatchResult:
    """The pairs `strategy` picks on one matrix, ordered by row (backward:
    by column)."""
    mask = pair_mask(sim.cost, strategy)
    if strategy == "backward":
        pairs = tuple((int(i), int(j)) for j, i in zip(*np.nonzero(mask.T)))
    else:
        pairs = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(mask)))
    return MatchResult(pairs=pairs, strategy=strategy)


def match_forward(sim: SimilarityMatrix) -> MatchResult:
    """Each row pairs with its cheapest column (many-to-one allowed)."""
    return match(sim, "forward")


def match_backward(sim: SimilarityMatrix) -> MatchResult:
    """Each column pairs with its cheapest row (many-to-one allowed)."""
    return match(sim, "backward")


def match_bidirectional(sim: SimilarityMatrix) -> MatchResult:
    """Mutual nearest neighbors; may be empty, is always one-to-one."""
    return match(sim, "bidirectional")


def match_hungarian(sim: SimilarityMatrix) -> MatchResult:
    """Minimum-total-cost one-to-one assignment.

    Rectangular matrices are padded square with PAD_COST; pairs landing on
    padding are discarded, so min(K_a, K_b) pairs are returned.
    """
    return match(sim, "hungarian")


def total_cost(sim: SimilarityMatrix, result: MatchResult) -> float:
    return float(sum(sim.cost[i, j] for i, j in result.pairs))


def _solve_assignment(a: np.ndarray) -> np.ndarray:
    """O(n^3) shortest-augmenting-path assignment on a square cost matrix.

    Returns col_of_row such that sum(a[i, col_of_row[i]]) is minimal.
    """
    n = a.shape[0]
    # potentials and the column -> row assignment, 1-indexed with a slot 0 sentinel
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    assigned_row = np.zeros(n + 1, dtype=np.int64)   # row matched to each column, 0 = free
    way = np.zeros(n + 1, dtype=np.int64)

    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[assigned_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assigned_row[j0] == 0:
                break
        # walk the alternating path back, flipping assignments
        while j0 != 0:
            j1 = way[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1

    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        if assigned_row[j] > 0:
            col_of_row[assigned_row[j] - 1] = j - 1
    return col_of_row
