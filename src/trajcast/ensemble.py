"""Pseudo-target generation by self-ensembling.

Predictions from several trained model variants are pooled per scenario and
clustered with k-means on flattened waypoint vectors; cluster centroids plus
their probability-mass scores become extra supervision trajectories next to
the ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PredictionSet, TargetSet, Trajectory, TrajcastError
from .data import DT
from .metrics import LengthMismatch


class UnknownScenario(TrajcastError):
    """Scenario id not present in the ensemble bank."""


class TooFewTrajectories(TrajcastError):
    """Fewer pooled trajectories than requested clusters."""


class TooFewModels(TrajcastError):
    """Clustering needs predictions from at least two distinct model tags."""


class EnsembleBank:
    """Per-scenario collections of (model_tag, PredictionSet).

    Insertion order is preserved; pooling flattens in that order so the whole
    pipeline stays deterministic.
    """

    def __init__(self):
        self._entries = {}

    def add(self, scenario_id: str, model_tag: str, preds: PredictionSet) -> None:
        entries = self._entries.setdefault(scenario_id, [])
        if entries and len(entries[0][1].trajectories[0]) != len(preds.trajectories[0]):
            raise LengthMismatch(f"prediction horizon differs for {scenario_id}")
        entries.append((model_tag, preds))

    def scenario_ids(self) -> list:
        return list(self._entries.keys())

    def entries(self, scenario_id: str) -> list:
        if scenario_id not in self._entries:
            raise UnknownScenario(scenario_id)
        return list(self._entries[scenario_id])

    def tags(self, scenario_id: str) -> set:
        return {tag for tag, _ in self.entries(scenario_id)}


def pool(bank: EnsembleBank, scenario_id: str) -> list:
    """Flatten all models' predictions for one scenario.

    Returns [(Trajectory, score), ...] in model insertion order; duplicates
    from repeated tags are kept and counted separately.
    """
    out = []
    for _, preds in bank.entries(scenario_id):
        for traj, score in zip(preds.trajectories, preds.scores):
            out.append((traj, float(score)))
    return out


@dataclass(frozen=True)
class ClusterResult:
    """k-means output: J centroid trajectories with probability-mass scores."""

    centroids: tuple
    scores: np.ndarray
    member_counts: np.ndarray
    sse_history: tuple

    def __post_init__(self):
        object.__setattr__(self, "centroids", tuple(self.centroids))
        scores = np.asarray(self.scores, dtype=np.float64)
        counts = np.asarray(self.member_counts, dtype=np.int64)
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("cluster scores must lie in [0, 1]")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "member_counts", counts)
        object.__setattr__(self, "sse_history", tuple(float(v) for v in self.sse_history))

    @property
    def j(self) -> int:
        return len(self.centroids)


def _kmeans_pp_seed(x: np.ndarray, j: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers: D^2-weighted sampling."""
    n = x.shape[0]
    centers = np.empty((j, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, j):
        total = d2.sum()
        if total <= 0:
            # all points coincide with chosen centers; any point works
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans_trajectories(pooled, j: int, seed: int, max_iter: int = 100) -> ClusterResult:
    """Cluster pooled (Trajectory, score) pairs into J centroid trajectories.

    Lloyd iterations on flattened 2T-dim vectors with k-means++ seeding.
    Centroids are plain member means; a cluster's score is the fraction of
    total probability mass its members carry. Ties in assignment go to the
    lowest cluster index; an emptied cluster is reseeded from the point
    farthest from its current centroid.
    """
    if len(pooled) < j or j < 1:
        raise TooFewTrajectories(f"need at least {j} pooled trajectories, got {len(pooled)}")
    dt = pooled[0][0].dt
    t = len(pooled[0][0])
    x = np.stack([tr.points.reshape(-1) for tr, _ in pooled])
    w = np.array([s for _, s in pooled], dtype=np.float64)
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp_seed(x, j, rng)
    assign = np.full(x.shape[0], -1)
    sse_history = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        sse_history.append(float(d2[np.arange(x.shape[0]), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(j):
            members = assign == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                # reseed from the point farthest from its assigned center
                dist_own = d2[np.arange(x.shape[0]), assign]
                centers[c] = x[int(dist_own.argmax())]

    counts = np.bincount(assign, minlength=j)
    total_mass = w.sum()
    scores = np.array([w[assign == c].sum() for c in range(j)]) / total_mass
    centroids = tuple(Trajectory(points=centers[c].reshape(t, 2), dt=dt) for c in range(j))
    return ClusterResult(centroids=centroids, scores=scores,
                         member_counts=counts, sse_history=sse_history)


def build_target_set(cluster: ClusterResult | None, gt: Trajectory) -> TargetSet:
    """Ground truth (confidence exactly 1) plus the cluster centroids."""
    if cluster is None or cluster.j == 0:
        return TargetSet(targets=(gt,), confidences=np.array([1.0]))
    for c in cluster.centroids:
        if len(c) != len(gt):
            raise LengthMismatch(f"centroid length {len(c)} vs gt length {len(gt)}")
    targets = (gt,) + cluster.centroids
    confidences = np.concatenate([[1.0], cluster.scores])
    return TargetSet(targets=targets, confidences=confidences)


def cluster_bank(bank: EnsembleBank, j: int, seed: int, max_iter: int = 100) -> dict:
    """Cluster every scenario in the bank; scenario_id -> ClusterResult.

    Requires predictions from at least two distinct model tags per scenario
    (a single model just reproduces itself). Each scenario gets a distinct
    deterministic sub-seed so results do not depend on iteration order.
    """
    results = {}
    for i, sid in enumerate(sorted(bank.scenario_ids())):
        if len(bank.tags(sid)) < 2:
            raise TooFewModels(f"scenario {sid} has predictions from fewer than 2 models")
        results[sid] = kmeans_trajectories(pool(bank, sid), j, seed=seed + i, max_iter=max_iter)
    return results


# ---------------------------------------------------------------------------
# file formats


def save_pseudo_targets(path, results: dict, dt: float = 0.1) -> None:
    """JSON-lines: one record per scenario with J trajectories + confidences."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid in sorted(results.keys()):
            res = results[sid]
            rec = {
                "scenario_id": sid,
                "trajectories": [c.points.tolist() for c in res.centroids],
                "confidences": res.scores.tolist(),
                "dt": dt,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_pseudo_targets(path) -> dict:
    """scenario_id -> (tuple of Trajectory, confidences array)."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        trajs = tuple(Trajectory(points=np.array(p), dt=rec.get("dt", 0.1))
                      for p in rec["trajectories"])
        out[rec["scenario_id"]] = (trajs, np.array(rec["confidences"], dtype=np.float64))
    return out


def save_prediction_dump(path, records) -> None:
    """JSON-lines dump of (scenario_id, (K, T, 2) world-frame trajectories,
    (K,) scores) records."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, trajs, scores in records:
            rec = {
                "scenario_id": sid,
                "trajectories": trajs.tolist(),
                "scores": scores.tolist(),
                "dt": DT,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_prediction_dump(path) -> list:
    """Inverse of save_prediction_dump; [(scenario_id, PredictionSet), ...]."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        trajs = tuple(Trajectory(points=np.array(p), dt=rec.get("dt", 0.1))
                      for p in rec["trajectories"])
        out.append((rec["scenario_id"],
                    PredictionSet(trajectories=trajs, scores=np.array(rec["scores"]))))
    return out


def bank_from_dumps(tagged_paths) -> EnsembleBank:
    """Assemble a bank from (model_tag, dump_path) pairs."""
    bank = EnsembleBank()
    for tag, path in tagged_paths:
        for sid, preds in load_prediction_dump(path):
            bank.add(sid, tag, preds)
    return bank
