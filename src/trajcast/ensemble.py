"""Pseudo-target generation by self-ensembling.

Predictions from several trained model variants are pooled per scenario and
clustered with k-means on flattened waypoint vectors; cluster centroids plus
their probability-mass scores become extra supervision trajectories next to
the ground truth. The whole path works on arrays: dumps load as
`(K, T, 2)` trajectories and `(K,)` scores, the bank pools them per scenario,
and k-means runs on the stack of every scenario at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (DT, JSON_NUMBER_TYPES, PredictionSet, TargetSet, Trajectory, TrajcastError,
                   check_confidences, check_dt, json_number_pairs, target_arrays)
from .metrics import LengthMismatch


class UnknownScenario(TrajcastError):
    """Scenario id not present in the ensemble bank."""


class TooFewTrajectories(TrajcastError):
    """Fewer pooled trajectories than requested clusters, or fewer than one
    cluster requested."""


class TooFewModels(TrajcastError):
    """Clustering needs predictions from at least two distinct model tags."""


class MalformedRecord(TrajcastError):
    """A prediction-dump or pseudo-target line that cannot be read; the
    message names the file, the line and, where it has one, the scenario."""


class EnsembleBank:
    """Per-scenario collections of (model_tag, (K, T, 2) trajectories, (K,)
    scores).

    Insertion order is preserved; pooling flattens in that order so the whole
    pipeline stays deterministic.
    """

    def __init__(self):
        self._entries = {}

    def add(self, scenario_id: str, model_tag: str, preds: PredictionSet) -> None:
        self.add_arrays(scenario_id, model_tag, preds.stacked(), preds.scores)

    def add_arrays(self, scenario_id: str, model_tag: str, trajectories: np.ndarray,
                   scores: np.ndarray) -> None:
        """`add` for (K, T, 2) trajectories and (K,) scores, as
        `load_prediction_dump` returns them."""
        entries = self._entries.setdefault(scenario_id, [])
        if entries and entries[0][1].shape[1] != trajectories.shape[1]:
            raise LengthMismatch(f"prediction horizon differs for {scenario_id}: "
                                 f"{trajectories.shape[1]} vs {entries[0][1].shape[1]}")
        entries.append((model_tag, trajectories, scores))

    def scenario_ids(self) -> list:
        return list(self._entries.keys())

    def entries(self, scenario_id: str) -> list:
        """[(model_tag, trajectories, scores), ...] in insertion order."""
        if scenario_id not in self._entries:
            raise UnknownScenario(scenario_id)
        return list(self._entries[scenario_id])

    def tags(self, scenario_id: str) -> set:
        return {tag for tag, _, _ in self.entries(scenario_id)}

    def pooled(self, scenario_id: str):
        """All models' predictions for one scenario as ((N, T, 2)
        trajectories, (N,) scores), in model insertion order; duplicates from
        repeated tags are kept and counted separately."""
        entries = self.entries(scenario_id)
        return (np.concatenate([trajs for _, trajs, _ in entries]),
                np.concatenate([scores for _, _, scores in entries]))


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """k-means output for one scenario, or with a leading scenario axis on
    every array for a stack of S.

    centroids (..., J, T, 2); scores (..., J), each cluster's fraction of the
    total probability mass; member_counts (..., J); assignments (..., N), each
    pooled trajectory's cluster. sse_history has one entry per Lloyd pass:
    the SSE, or for a stack the (S,) SSEs of that pass over it, NaN for a
    scenario that converged in an earlier pass.
    """

    centroids: np.ndarray
    scores: np.ndarray
    member_counts: np.ndarray
    assignments: np.ndarray
    sse_history: tuple

    @property
    def j(self) -> int:
        return self.scores.shape[-1]

    def scenario(self, i: int) -> "ClusterResult":
        """Scenario i of a stacked result, with its own SSE history."""
        return ClusterResult(centroids=self.centroids[i], scores=self.scores[i],
                             member_counts=self.member_counts[i],
                             assignments=self.assignments[i],
                             sse_history=tuple(float(sse[i]) for sse in self.sse_history
                                               if not np.isnan(sse[i])))


# Lloyd passes after which k-means stops even if assignments still change
KMEANS_MAX_ITER = 100


def kmeans_trajectories(pooled, j: int, seed) -> ClusterResult:
    """Cluster pooled trajectories into J centroid trajectories.

    pooled is one scenario's [(Trajectory, score), ...] with one int seed,
    giving that scenario's ClusterResult; or S scenarios' ((S, N, T, 2)
    trajectories, (S, N) scores) with S seeds, giving a ClusterResult with a
    leading scenario axis. Each scenario draws from its own
    default_rng(seed); the one-scenario call is the stack of one.

    Lloyd passes on flattened 2T-dim vectors with k-means++ seeding, over the
    whole stack until every scenario's assignments stop changing (at most
    KMEANS_MAX_ITER passes). Centroids are plain member means; a cluster's
    score is the fraction of total probability mass its members carry. Ties
    in assignment go to the lowest cluster index; an emptied cluster is
    reseeded from the point farthest from its current centroid.
    """
    if j < 1:
        raise TooFewTrajectories(f"j must be at least 1, got {j}")
    if isinstance(pooled, list):
        if len(pooled) < j:
            raise TooFewTrajectories(f"need at least {j} pooled trajectories, got {len(pooled)}")
        trajs = np.stack([traj.points for traj, _ in pooled])[None]
        weights = np.array([[score for _, score in pooled]], dtype=np.float64)
        return _kmeans_stack(trajs, weights, j, [seed]).scenario(0)
    return _kmeans_stack(*pooled, j, seed)


def _kmeans_stack(trajs: np.ndarray, weights: np.ndarray, j: int, seeds) -> ClusterResult:
    s, n, t, _ = trajs.shape
    if n < j:
        raise TooFewTrajectories(f"need at least {j} pooled trajectories, got {n}")
    if len(seeds) != s:
        raise ValueError(f"need one seed per scenario, got {len(seeds)} for {s}")
    # contiguous rows, so each row sum adds in the order a 1-D sum does
    x = np.ascontiguousarray(trajs, dtype=np.float64).reshape(s, n, 2 * t)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    rngs = [np.random.default_rng(int(sd)) for sd in seeds]

    centers = _seed_centers(x, j, rngs)
    assign = np.full((s, n), -1)
    sse_history = []
    active, x_active = np.arange(s), x   # scenarios whose assignments still change
    while active.size and len(sse_history) < KMEANS_MAX_ITER:
        d2 = _sq_dists(x_active, centers[active])
        new_assign = d2.argmin(axis=2)
        own = np.take_along_axis(d2, new_assign[:, :, None], axis=2)[:, :, 0]
        sse = np.full(s, np.nan)
        sse[active] = own.sum(axis=1)
        sse_history.append(sse)
        moved = ~np.all(new_assign == assign[active], axis=1)
        if not moved.all():   # drop the scenarios that converged
            active, x_active = active[moved], x_active[moved]
            new_assign, own = new_assign[moved], own[moved]
        assign[active] = new_assign
        centers[active] = _member_means(x_active, new_assign, own, j)

    counts = np.sum(assign[:, :, None] == np.arange(j), axis=1)
    scores = _cluster_mass(weights, assign, counts) / weights.sum(axis=1)[:, None]
    return ClusterResult(centroids=centers.reshape(s, j, t, 2), scores=scores,
                         member_counts=counts, assignments=assign,
                         sse_history=tuple(sse_history))


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(S, N, J) squared distances from (S, N, D) points to (S, J, D) centers."""
    d2 = np.empty(x.shape[:2] + centers.shape[1:2])
    diff = np.empty_like(x)
    for c in range(centers.shape[1]):
        np.subtract(x, centers[:, c, None], out=diff)
        d2[:, :, c] = np.square(diff, out=diff).sum(axis=2)
    return d2


def _seed_centers(x: np.ndarray, j: int, rngs: list) -> np.ndarray:
    """k-means++ initial centers, (S, J, D): D^2-weighted sampling.

    Each scenario draws from its own rng: integers(n) for the first center;
    then per center one random(), mapped to the index Generator.choice(n,
    p=d2 / total) would pick (the count of entries <= it in the cumulative
    sum of d2 / total, normalised by its last entry), or integers(n) when
    every point coincides with a chosen center.
    """
    s, n, dim = x.shape
    rows = np.arange(s)
    centers = np.empty((s, j, dim))
    centers[:, 0] = x[rows, [rng.integers(n) for rng in rngs]]
    d2 = _sq_dists(x, centers[:, :1])[:, :, 0]
    for c in range(1, j):
        total = d2.sum(axis=1)
        spread = total > 0
        # a uniform in [0, 1) where the points spread, else the drawn index
        u = np.array([rng.random() if ok else rng.integers(n) for rng, ok in zip(rngs, spread)],
                     dtype=np.float64)
        idx = u.astype(np.intp)
        cdf = np.cumsum(d2[spread] / total[spread, None], axis=1)
        cdf /= cdf[:, -1:]
        idx[spread] = np.sum(cdf <= u[spread, None], axis=1)
        centers[:, c] = x[rows, idx]
        d2 = np.minimum(d2, _sq_dists(x, centers[:, c:c + 1])[:, :, 0])
    return centers


def _member_means(x: np.ndarray, assign: np.ndarray, own: np.ndarray, j: int) -> np.ndarray:
    """(S, J, D) cluster means of (S, N, D) points, members summed in point
    order as a masked mean sums them; an emptied cluster takes the point
    farthest from its own center (own holds those squared distances)."""
    s = x.shape[0]
    rows = np.arange(s)[:, None]
    sums = np.zeros((s, j, x.shape[2]))
    np.add.at(sums, (rows, assign), x)
    counts = np.sum(assign[:, :, None] == np.arange(j), axis=1)
    means = np.divide(sums, np.maximum(counts, 1)[:, :, None], out=sums)
    empty_s, empty_c = np.nonzero(counts == 0)
    means[empty_s, empty_c] = x[empty_s, own[empty_s].argmax(axis=1)]
    return means


def _cluster_mass(weights: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(S, J) summed weights of each cluster's members.

    Each cluster's weights are gathered in point order and summed as one row
    of an equal-length block, which numpy sums exactly as it sums the 1-D
    masked selection; so there is one sum call per distinct member count.
    """
    s, j = counts.shape
    order = np.argsort((np.arange(s)[:, None] * j + assign).ravel(), kind="stable")
    gathered = weights.ravel()[order]
    flat = counts.ravel()
    starts = np.cumsum(flat) - flat
    mass = np.zeros(s * j)
    # not np.unique, whose first call imports numpy.ma (over 1 MB of RSS)
    lengths = np.flatnonzero(np.bincount(flat))
    for length in lengths[lengths > 0]:
        clusters = np.flatnonzero(flat == length)
        mass[clusters] = gathered[starts[clusters, None] + np.arange(length)].sum(axis=1)
    return mass.reshape(s, j)


def build_target_set(cluster: ClusterResult | None, gt: Trajectory) -> TargetSet:
    """Ground truth (confidence exactly 1, and `gt` itself) plus the cluster
    centroids with their scores as confidences: `core.target_arrays`, as
    Trajectory objects."""
    trajs, confs = (), ()
    if cluster is not None and cluster.j > 0:
        if cluster.centroids.shape[1] != len(gt):
            raise LengthMismatch(f"centroid length {cluster.centroids.shape[1]} "
                                 f"vs gt length {len(gt)}")
        trajs, confs = cluster.centroids, cluster.scores
    targets, confidences = target_arrays(gt.points, trajs, confs, len(trajs))
    return TargetSet(targets=(gt, *(Trajectory(points=p, dt=gt.dt) for p in targets[1:])),
                     confidences=confidences)


def cluster_bank(bank: EnsembleBank, j: int, seed: int) -> dict:
    """Cluster every scenario in the bank; scenario_id -> ClusterResult.

    Requires predictions from at least two distinct model tags per scenario
    (a single model just reproduces itself). Scenario i in sorted id order
    gets sub-seed seed + i, so results do not depend on insertion order.
    Scenarios whose pooled trajectories share one shape are clustered in one
    stacked `kmeans_trajectories` call.
    """
    sids = sorted(bank.scenario_ids())
    groups = {}   # pooled (N, T) -> [(sub-seed, sid)]
    for i, sid in enumerate(sids):
        if len(bank.tags(sid)) < 2:
            raise TooFewModels(f"scenario {sid} has predictions from fewer than 2 models")
        entries = bank.entries(sid)
        n = sum(len(scores) for _, _, scores in entries)
        if n < j:
            raise TooFewTrajectories(f"scenario {sid}: need at least {j} pooled "
                                     f"trajectories, got {n}")
        groups.setdefault((n, entries[0][1].shape[1]), []).append((seed + i, sid))
    results = {}
    for (n, t), members in groups.items():
        trajs, scores = np.empty((len(members), n, t, 2)), np.empty((len(members), n))
        for k, (_, sid) in enumerate(members):
            trajs[k], scores[k] = bank.pooled(sid)
        stacked = kmeans_trajectories((trajs, scores), j, seed=[sub for sub, _ in members])
        for k, (_, sid) in enumerate(members):
            results[sid] = stacked.scenario(k)
    return {sid: results[sid] for sid in sids}


# ---------------------------------------------------------------------------
# file formats


def _read_records(path, key: str, rule=None):
    """Yields (line number, scenario_id, (n, T, 2) trajectories, (n,) values)
    from a JSON-lines file whose per-trajectory values are under `key`, one
    line at a time, so a caller's own check on a record runs before the next
    line is read.

    Each record must hold a string scenario_id that no earlier line holds,
    finite trajectories of one shape (n, T, 2) with n, T >= 1 and one finite
    value >= 0 per trajectory, all as JSON numbers, and a dt, if stated,
    that meets `core.check_dt`. `rule`, if given, checks the (n,) values
    first and raises a ValueError naming what is wrong. A line that fails
    raises MalformedRecord.
    """
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            sid = None
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("a record must be a JSON object")
                sid = rec.get("scenario_id")
                if not isinstance(rec["scenario_id"], str):
                    raise ValueError("scenario_id must be a string")
                record = (number, rec["scenario_id"], *_record_arrays(rec, key, rule))
                if first_line.setdefault(sid, number) != number:
                    raise ValueError(f"scenario {sid} is also on line {first_line[sid]}")
            except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: a huge int
                raise _malformed(path, number, sid, str(exc)) from None
            except KeyError as exc:
                raise _malformed(path, number, sid, f"missing key {exc}") from None
            yield record


def _record_arrays(rec: dict, key: str, rule):
    raw = rec["trajectories"]
    flat = json_number_pairs(raw)
    if flat is not None and len(flat) and len(set(map(len, raw))) == 1:
        trajs = flat.reshape(len(raw), -1, 2)
    else:
        # an object array keeps each value's JSON type, to name what is wrong
        points = np.array(raw, dtype=object)
        if points.ndim != 3 or points.shape[2] != 2 or 0 in points.shape:
            lengths = sorted({len(t) for t in raw if isinstance(t, list)}) if points.ndim else []
            if len(lengths) > 1:
                raise ValueError(f"all trajectories must share a length, got {lengths}")
            raise ValueError(f"trajectories must be (n, T, 2) with n, T >= 1, "
                             f"got {points.shape}")
        if not set(map(type, points.ravel())) <= JSON_NUMBER_TYPES:
            raise ValueError("trajectories must be an (n, T, 2) array of numbers")
        trajs = points.astype(np.float64)
    if not np.all(np.isfinite(trajs)):
        raise ValueError("trajectory points contain non-finite values")
    values = np.array(rec[key], dtype=np.float64)
    if values.shape != trajs.shape[:1]:
        raise ValueError(f"need one {key[:-1]} per trajectory, "
                         f"got {values.size} for {trajs.shape[0]}")
    numbers = set(map(type, rec[key])) <= JSON_NUMBER_TYPES
    if numbers and rule is not None:
        rule(values)
    if not numbers or not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError(f"{key} must be finite and nonnegative numbers, got {rec[key]}")
    check_dt(rec.get("dt", DT))
    return trajs, values


def _write_records(path, key: str, records) -> None:
    """The format _read_records reads: one JSON line per (scenario_id,
    (n, T, 2) trajectories, (n,) values) record, the values under `key`,
    stating dt."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, trajs, values in records:
            rec = {"scenario_id": sid, "trajectories": trajs.tolist(), key: values.tolist(),
                   "dt": DT}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _malformed(path, number: int, sid, what: str) -> MalformedRecord:
    where = f"{path}: line {number}" + ("" if sid is None else f" ({sid})")
    return MalformedRecord(f"{where}: {what}")


def save_pseudo_targets(path, results: dict) -> None:
    """JSON-lines: one record per scenario, in id order, with its J
    trajectories (the cluster centroids) and their confidences."""
    _write_records(path, "confidences",
                   ((sid, results[sid].centroids, results[sid].scores) for sid in sorted(results)))


def load_pseudo_targets(path) -> dict:
    """scenario_id -> ((J, T, 2) trajectories, (J,) confidences); each
    record's confidences must meet the target-set rule,
    `core.check_confidences`."""
    return {sid: (trajs, confs)
            for _, sid, trajs, confs in _read_records(path, "confidences", check_confidences)}


def save_prediction_dump(path, records) -> None:
    """JSON-lines dump of (scenario_id, (K, T, 2) world-frame trajectories,
    (K,) scores) records."""
    _write_records(path, "scores", records)


def load_prediction_dump(path) -> list:
    """Inverse of save_prediction_dump: [(scenario_id, (K, T, 2) trajectories,
    (K,) scores), ...]; each record's scores must also sum to 1, checked
    after the reader's finite-and-nonnegative check and before the next line
    is read, so the first bad line is the one named."""
    out = []
    for number, sid, trajs, scores in _read_records(path, "scores"):
        if abs(float(scores.sum()) - 1.0) > 1e-6:
            raise _malformed(path, number, sid, f"scores must sum to 1, got {scores.sum()}")
        out.append((sid, trajs, scores))
    return out


def bank_from_dumps(tagged_paths) -> EnsembleBank:
    """Assemble a bank from (model_tag, dump_path) pairs; a dump that holds
    no record is refused by name."""
    bank = EnsembleBank()
    for tag, path in tagged_paths:
        records = load_prediction_dump(path)
        if not records:
            raise MalformedRecord(f"{path}: the dump holds no records")
        for sid, trajs, scores in records:
            try:
                bank.add_arrays(sid, tag, trajs, scores)
            except LengthMismatch as exc:
                raise LengthMismatch(f"{path}: {exc}") from None
    return bank
