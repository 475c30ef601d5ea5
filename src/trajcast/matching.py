"""Similarity matrices and the four strategies for pairing trajectory sets.

Forward matching picks the cheapest partner per row, backward per column,
bidirectional keeps mutual nearest neighbors, and Hungarian solves the
one-to-one linear assignment. Ties always resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Trajectory, TrajcastError

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


def similarity(set_a: Sequence[Trajectory], set_b: Sequence[Trajectory],
               criterion: str = "fde", overlap: int | None = None) -> SimilarityMatrix:
    """Pairwise ADE or FDE between two trajectory sets.

    With `overlap` = L, the last L steps of each trajectory in set_a are
    compared against the first L steps of each trajectory in set_b; this is
    the window where time-shifted prediction sets coincide. overlap=None
    compares full trajectories (requires equal lengths).
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if not set_a or not set_b:
        raise ValueError("both trajectory sets must be nonempty")
    len_a = len(set_a[0])
    len_b = len(set_b[0])
    if overlap is None:
        if len_a != len_b:
            raise EmptyOverlap(f"full comparison needs equal lengths, got {len_a} vs {len_b}")
        overlap = len_a
    if overlap < 1 or overlap > len_a or overlap > len_b:
        raise EmptyOverlap(f"overlap {overlap} incompatible with lengths {len_a}, {len_b}")
    tail_a = np.stack([t.points[len_a - overlap:] for t in set_a])   # (Ka, L, 2)
    head_b = np.stack([t.points[:overlap] for t in set_b])           # (Kb, L, 2)
    return pairwise_cost(tail_a, head_b, criterion)


def pairwise_cost(tail: np.ndarray, head: np.ndarray, criterion: str) -> SimilarityMatrix:
    """ADE or FDE between every row of tail (K_a, L, 2) and of head (K_b, L, 2)."""
    dists = np.linalg.norm(tail[:, None] - head[None, :], axis=-1)  # (Ka, Kb, L)
    cost = dists.mean(axis=-1) if criterion == "ade" else dists[..., -1]
    return SimilarityMatrix(cost=cost, criterion=criterion)


def match_forward(sim: SimilarityMatrix) -> MatchResult:
    """Each row pairs with its cheapest column (many-to-one allowed)."""
    cost = sim.cost
    pairs = tuple((i, int(np.argmin(cost[i]))) for i in range(cost.shape[0]))
    return MatchResult(pairs=pairs, strategy="forward")


def match_backward(sim: SimilarityMatrix) -> MatchResult:
    """Each column pairs with its cheapest row (many-to-one allowed)."""
    cost = sim.cost
    pairs = tuple((int(np.argmin(cost[:, j])), j) for j in range(cost.shape[1]))
    return MatchResult(pairs=pairs, strategy="backward")


def match_bidirectional(sim: SimilarityMatrix) -> MatchResult:
    """Mutual nearest neighbors; may be empty, is always one-to-one."""
    cost = sim.cost
    row_best = np.argmin(cost, axis=1)
    col_best = np.argmin(cost, axis=0)
    pairs = tuple((i, int(j)) for i, j in enumerate(row_best) if col_best[j] == i)
    return MatchResult(pairs=pairs, strategy="bidirectional")


def match_hungarian(sim: SimilarityMatrix) -> MatchResult:
    """Minimum-total-cost one-to-one assignment.

    Rectangular matrices are padded square with PAD_COST; pairs landing on
    padding are discarded, so min(K_a, K_b) pairs are returned.
    """
    cost = sim.cost
    if not np.all(np.isfinite(cost)):
        raise NonFinite("assignment requires finite costs")
    rows, cols = cost.shape
    n = max(rows, cols)
    padded = np.full((n, n), PAD_COST, dtype=np.float64)
    padded[:rows, :cols] = cost
    col_of_row = _solve_assignment(padded)
    pairs = tuple((i, int(col_of_row[i])) for i in range(rows) if col_of_row[i] < cols)
    return MatchResult(pairs=pairs, strategy="hungarian")


def match(sim: SimilarityMatrix, strategy: str) -> MatchResult:
    if strategy == "forward":
        return match_forward(sim)
    if strategy == "backward":
        return match_backward(sim)
    if strategy == "bidirectional":
        return match_bidirectional(sim)
    if strategy == "hungarian":
        return match_hungarian(sim)
    raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


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
