"""Domain types, agent-centric coordinate frames, augmentation transforms, and
the softmax both the classifier head and the loss's softmin use.

Everything downstream (metrics, matching, losses, the predictor, the training
harness) trades in the types defined here. All types are immutable after
construction and all operations are pure functions, so unrestricted parallel
use is safe.

Conventions:
    - coordinates are meters in a flat 2-D plane, double precision throughout
    - trajectories are (N, 2) arrays of waypoints DT seconds apart
    - the agent frame puts the target agent at the origin at t=0 with its
      t=-1 -> t=0 displacement along the positive x-axis
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

OBJECT_TYPES = ("agent", "av", "other")

DT = 0.1  # seconds per frame
HISTORY_LEN = 20  # frames up to and including t=0
FUTURE_LEN = 30   # frames after t=0

JSON_NUMBER_TYPES = frozenset({int, float})  # the types json.loads gives JSON numbers
_JSON_KINDS = JSON_NUMBER_TYPES | {list}


def json_array(value, what: str) -> np.ndarray:
    """The float64 array of a parsed JSON value: a JSON number, or a regular
    nested list of them. Else ValueError starting with `what`, naming the
    first fault in this order:

    1. a value that is neither a list nor a JSON number (one of
       `JSON_NUMBER_TYPES`, so a quoted number, `true` and `null` are
       refused), the shallowest first, then in file order;
    2. lists and numbers at one depth, or lists of unequal lengths;
    3. a number beyond float range;
    4. a non-finite value.
    """
    level, shape, uneven = [value], [], None
    while True:
        kinds = set(map(type, level))
        if not kinds <= _JSON_KINDS:
            bad = next(v for v in level if type(v) not in _JSON_KINDS)
            raise ValueError(f"{what} must hold only lists and JSON numbers, got {bad!r}")
        if list not in kinds:
            break
        if len(kinds) > 1:
            uneven = uneven or f"{what} mixes lists and numbers at one depth"
            level = [v for v in level if type(v) is list]
        lengths = set(map(len, level))
        if len(lengths) > 1:
            uneven = uneven or f"{what} has rows of unequal lengths, got {sorted(lengths)}"
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))
    if uneven:
        raise ValueError(uneven)
    try:
        arr = np.fromiter(level, np.float64, len(level)).reshape(shape)
    except OverflowError:  # an integer beyond float range
        raise ValueError(f"{what} holds a number beyond float range") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds a non-finite value")
    return arr


@contextmanager
def text_input(path):
    """`path` open for reading as UTF-8 text. Bytes that do not decode, met
    anywhere in the `with` body, raise ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def check_dt(dt) -> None:
    """The timestep rule of a file that states one: it must be DT, the one
    timestep every model and scenario here runs at; else ValueError quoting
    it. A file that states none reads as DT."""
    if dt != DT:
        raise ValueError(f"dt must be {DT}, got {dt!r}")


def check_range(key: str, value, lo=None, hi=None, open_lo=False) -> None:
    """The range rule of a numeric setting: lo <= value <= hi, lo < value with
    open_lo, and value < inf for hi = inf; None leaves a side unbounded. Else
    ValueError `need LO <= KEY <= HI, got KEY=VALUE` with the missing side left
    out. NaN lies in no range with a bound."""
    if not ((lo is None or (lo < value if open_lo else lo <= value))
            and (hi is None or (value < hi if hi == math.inf else value <= hi))):
        left = "" if lo is None else f"{lo:g} {'<' if open_lo else '<='} "
        right = "" if hi is None else f" {'<' if hi == math.inf else '<='} {hi:g}"
        raise ValueError(f"need {left}{key}{right}, got {key}={value}")


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; the max-shift keeps it stable."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backprop(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. softmax's input given p = softmax(z) and the gradient
    w.r.t. p."""
    return p * (d_p - (d_p * p).sum(axis=-1, keepdims=True))


class TrajcastError(Exception):
    """Base class for all toolkit errors."""


class MissingTargetFrame(TrajcastError):
    """Target agent is absent at a frame required to build the agent frame."""


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{shape_hint} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{shape_hint} contains non-finite values")
    arr.setflags(write=False)
    return arr


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def rotation_matrices(thetas) -> np.ndarray:
    """(W, 2, 2) stack of the rotation matrices [[cos, -sin], [sin, cos]],
    one per angle; every rotation here is built by it. Points are rows, so
    a point p rotates to p @ R.T."""
    cos_sin = [(math.cos(theta), math.sin(theta)) for theta in thetas]
    return np.array([(c, -s, s, c) for c, s in cos_sin]).reshape(-1, 2, 2)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered 2-D waypoint sequence, DT seconds apart.

    points has shape (N, 2) with N >= 1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points, "trajectory points")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"trajectory points must be (N, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class AgentTrack:
    """One agent's observed positions over the scenario's frames.

    Frames where the agent was not observed are padded with the nearest
    observed waypoint and flagged False in `present`.
    """

    track_id: str
    object_type: str
    xy: np.ndarray        # (total_frames, 2)
    present: np.ndarray   # (total_frames,) bool

    def __post_init__(self):
        if self.object_type not in OBJECT_TYPES:
            raise ValueError(f"object_type must be one of {OBJECT_TYPES}, got {self.object_type!r}")
        xy = _frozen_array(self.xy, f"track {self.track_id} xy")
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"track xy must be (frames, 2), got {xy.shape}")
        present = np.array(self.present, dtype=bool)
        if present.shape != (xy.shape[0],):
            raise ValueError("presence mask length must match frame count")
        if not present.any():
            raise ValueError(f"track {self.track_id} is never present")
        present.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "present", present)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One prediction problem: tracks, map polylines, and the target agent.

    Frames are indexed 0..total_frames-1; the last history frame
    (index history_len - 1) is t=0, so index history_len - 2 is t=-1 and the
    ground-truth future occupies indices history_len..total_frames-1.
    """

    scenario_id: str
    agents: tuple
    map_polylines: tuple
    target_track_id: str
    history_len: int = HISTORY_LEN
    future_len: int = FUTURE_LEN

    def __post_init__(self):
        agents = tuple(self.agents)
        polylines = tuple(self.map_polylines)
        if self.history_len < 2 or self.future_len < 1:
            raise ValueError("need history_len >= 2 and future_len >= 1")
        total = self.total_frames
        agent_tagged = [a for a in agents if a.object_type == "agent"]
        if len(agent_tagged) != 1:
            raise ValueError(f"scenario {self.scenario_id} must have exactly one 'agent' track, got {len(agent_tagged)}")
        ids = [a.track_id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate track ids")
        if self.target_track_id not in ids:
            raise ValueError(f"target track {self.target_track_id!r} not in scenario")
        for a in agents:
            if a.xy.shape[0] != total:
                raise ValueError(f"track {a.track_id} has {a.xy.shape[0]} frames, expected {total}")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "map_polylines", polylines)

    @property
    def total_frames(self) -> int:
        return self.history_len + self.future_len

    @property
    def target(self) -> AgentTrack:
        return self.track(self.target_track_id)

    def track(self, track_id: str) -> AgentTrack:
        for a in self.agents:
            if a.track_id == track_id:
                return a
        raise KeyError(track_id)

    def gt_future(self) -> Trajectory:
        """Target agent's ground-truth future as a Trajectory."""
        xy = self.target.xy[self.history_len:]
        return Trajectory(points=xy)


@dataclass(frozen=True)
class Frame:
    """Rigid 2-D coordinate frame: to_frame_xy rotates by `rotation` after
    translating the origin, an (x, y) float tuple, to zero."""

    origin: tuple
    rotation: float

    def __post_init__(self):
        if not (all(map(math.isfinite, self.origin)) and math.isfinite(self.rotation)):
            raise ValueError("frame origin and rotation must be finite")
        if not (-math.pi < self.rotation <= math.pi):
            raise ValueError(f"rotation must lie in (-pi, pi], got {self.rotation}")


IDENTITY_FRAME = Frame(origin=(0.0, 0.0), rotation=0.0)

# displacements shorter than this give an undefined heading; rotation falls back to 0
STATIONARY_EPS = 1e-6


def track_frame(track: AgentTrack, end_index: int) -> Frame:
    """Agent-centric frame anchored at one frame of a track.

    Origin is the track position at end_index; rotation aligns the
    displacement from end_index-1 to end_index with the positive x-axis. A
    displacement shorter than STATIONARY_EPS leaves rotation at 0.

    Raises MissingTargetFrame if the track is absent at either frame.
    """
    if end_index < 1 or end_index >= track.xy.shape[0]:
        raise MissingTargetFrame(f"frame index {end_index} out of range for track {track.track_id}")
    for idx in (end_index - 1, end_index):
        if not track.present[idx]:
            raise MissingTargetFrame(f"track {track.track_id} absent at frame {idx}")
    return heading_frame(track.xy[end_index - 1], track.xy[end_index])


def heading_frame(p_prev, p_now, heading_jitter: float = 0.0) -> Frame:
    """Frame with origin p_now whose rotation aligns p_prev -> p_now with the
    positive x-axis (0 below STATIONARY_EPS), plus heading_jitter radians.
    The points are (x, y) pairs: arrays, tuples or lists."""
    x, y = float(p_now[0]), float(p_now[1])
    dx, dy = x - float(p_prev[0]), y - float(p_prev[1])
    if float(np.hypot(dx, dy)) < STATIONARY_EPS:
        rotation = 0.0
    else:
        rotation = -math.atan2(dy, dx)
    return Frame(origin=(x, y), rotation=normalize_angle(rotation + heading_jitter))


def _per_row(stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A (W, *tail) stack with unit axes after W, so that row w pairs with
    points[w] of (W, ..., 2) points: (W, 1, ..., 1, *tail) as a view."""
    return stack[(slice(None),) + (None,) * (points.ndim - stack.ndim)]


def to_frame_xy(xy: np.ndarray, frame) -> np.ndarray:
    """xy (W, ..., N, 2) re-expressed in a sequence of W frames, row w in
    frame w (one stacked matmul, whose rows have the bits of W separate
    calls). A single Frame is the stack of one and takes xy (..., N, 2)."""
    xy = np.asarray(xy, dtype=np.float64)
    if isinstance(frame, Frame):
        return to_frame_xy(xy[None], [frame])[0]
    origins = np.array([f.origin for f in frame]).reshape(-1, 2)
    rotations = rotation_matrices([f.rotation for f in frame]).swapaxes(-1, -2)
    return (xy - _per_row(origins, xy)) @ _per_row(rotations, xy)


def from_frame_xy(xy: np.ndarray, frame) -> np.ndarray:
    """Inverse of to_frame_xy: xy (W, ..., N, 2) in a sequence of W frames,
    or (..., N, 2) in a single Frame, back in the world frame."""
    if isinstance(frame, Frame):
        return from_frame_xy(np.asarray(xy)[None], [frame])[0]
    return FrameMap(matrix=rotation_matrices([-f.rotation for f in frame]).swapaxes(-1, -2),
                    offset=np.array([f.origin for f in frame]).reshape(-1, 2)).apply(xy)


@dataclass(frozen=True)
class FrameMap:
    """Affine map between two frames: p_dst = p_src @ matrix + offset. A
    stack of B maps has a (B, 2, 2) matrix and a (B, 2) offset and maps
    (B, ..., 2) points, map b to row b."""

    matrix: np.ndarray  # (2, 2)
    offset: np.ndarray  # (2,)

    def apply(self, xy: np.ndarray) -> np.ndarray:
        xy = np.asarray(xy, dtype=np.float64)
        if self.matrix.ndim == 2:
            return xy @ self.matrix + self.offset
        return xy @ _per_row(self.matrix, xy) + _per_row(self.offset, xy)

    def backprop(self, d_dst: np.ndarray) -> np.ndarray:
        """Gradient of apply w.r.t. its input."""
        d_dst = np.asarray(d_dst)
        matrix = self.matrix if self.matrix.ndim == 2 else _per_row(self.matrix, d_dst)
        return d_dst @ matrix.swapaxes(-1, -2)


def compose_frames(src, dst) -> FrameMap:
    """Map coordinates expressed in `src` directly into `dst`. Given two
    sequences of B frames, the B maps of their pairs, stacked; sequences of
    different lengths raise ValueError."""
    if isinstance(src, Frame):
        fmap = compose_frames([src], [dst])
        return FrameMap(matrix=fmap.matrix[0], offset=fmap.offset[0])
    if len(src) != len(dst):
        raise ValueError(f"compose_frames needs as many src frames as dst frames, "
                         f"got {len(src)} and {len(dst)}")
    matrix = rotation_matrices([d.rotation - s.rotation for s, d in zip(src, dst)])
    offset = to_frame_xy(np.array([s.origin for s in src]).reshape(-1, 1, 2), dst)
    return FrameMap(matrix=matrix.swapaxes(-1, -2), offset=offset[:, 0])


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """K predicted trajectories with K probabilities for one scenario."""

    trajectories: tuple
    scores: np.ndarray

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if len(trajs) < 1:
            raise ValueError("need at least one trajectory")
        lengths = {len(t) for t in trajs}
        if len(lengths) != 1:
            raise ValueError(f"all trajectories must share a length, got {sorted(lengths)}")
        scores = np.array(self.scores, dtype=np.float64)
        if scores.shape != (len(trajs),):
            raise ValueError("need one score per trajectory")
        check_probabilities(scores, "scores")
        scores.setflags(write=False)
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "scores", scores)

    @property
    def k(self) -> int:
        return len(self.trajectories)

    @property
    def horizon(self) -> int:
        return len(self.trajectories[0])

    def stacked(self) -> np.ndarray:
        """(K, T, 2) view of the trajectories."""
        return np.stack([t.points for t in self.trajectories])


def check_probabilities(p: np.ndarray, what: str) -> None:
    """The rule of a probability vector (prediction scores, mode and branch
    weights): else ValueError starting with `what`, for the first fault in
    this order: a non-finite entry, a negative entry, a sum more than 1e-9
    away from 1. numpy's `Generator.choice` refuses a sum off by ~1.5e-8."""
    if not np.isfinite(p).all():
        raise ValueError(f"{what} holds a non-finite value")
    if (p < 0).any():
        raise ValueError(f"{what} must be nonnegative, got {p.tolist()}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"{what} must sum to 1, got {float(p.sum())}")


def check_confidences(confidences: np.ndarray) -> None:
    """The confidence rule of a supervision target set: every confidence
    lies in [0, 1], which NaN does not; else ValueError quoting them."""
    if not np.all((confidences >= 0.0) & (confidences <= 1.0)):
        raise ValueError(f"confidences must lie in [0, 1], got {confidences.tolist()}")


def target_arrays(gt, trajs, confidences, n: int):
    """A scenario's supervision target set as arrays: ((1 + n, T, 2)
    targets, (1 + n,) confidences). The (T, 2) ground truth comes first,
    with confidence exactly 1, then the J trajectories `trajs` with their J
    `confidences`, then n - J zero-confidence copies of the ground truth,
    which add nothing to the loss or its gradients.

    Raises ValueError if the counts differ, if a trajectory is not a finite
    (T, 2) array, if a confidence breaks `check_confidences`, or if J > n.
    """
    gt = np.asarray(gt, dtype=np.float64)
    confs = np.asarray(confidences, dtype=np.float64)
    j = len(trajs)
    if confs.shape != (j,):
        raise ValueError(f"{confs.size} confidences for {j} trajectories")
    targets = np.empty((1 + max(n, j), *gt.shape))  # J > n is refused below
    targets[0] = gt
    for i, traj in enumerate(trajs):
        pts = np.asarray(traj, dtype=np.float64)
        if pts.shape != gt.shape or not np.all(np.isfinite(pts)):
            raise ValueError(f"trajectory {i} must be finite {gt.shape}, got shape {pts.shape}")
        targets[1 + i] = pts
    check_confidences(confs)
    if j > n:
        raise ValueError(f"{j} targets do not fit in {n}")
    targets[1 + j:] = gt
    padded = np.zeros(1 + n)
    padded[0] = 1.0
    padded[1:1 + j] = confs
    return targets, padded


@dataclass(frozen=True, eq=False)
class TargetSet:
    """J+1 supervision trajectories; index 0 is ground truth with confidence
    1, and every confidence meets `check_confidences`."""

    targets: tuple
    confidences: np.ndarray

    def __post_init__(self):
        targets = tuple(self.targets)
        if len(targets) < 1:
            raise ValueError("need at least the ground-truth target")
        lengths = {len(t) for t in targets}
        if len(lengths) != 1:
            raise ValueError(f"all targets must share a length, got {sorted(lengths)}")
        conf = np.array(self.confidences, dtype=np.float64)
        if conf.shape != (len(targets),):
            raise ValueError("need one confidence per target")
        if conf[0] != 1.0:
            raise ValueError(f"ground-truth confidence must be exactly 1, got {conf[0]}")
        check_confidences(conf)
        conf.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "confidences", conf)

    @property
    def count(self) -> int:
        return len(self.targets)


@dataclass(frozen=True, eq=False)
class Window:
    """Model input cut from a scenario. `batch` is its one-window
    `predictor.WindowBatch` (encoder rows, agent-frame history, agent
    frame), from the batch window builder, `data._batch_windows`.

    `shift` records how many frames past the scenario's nominal t=0 the
    window ends; gt_future, world-frame, is attached only where supervision
    is defined.
    """

    scenario_id: str
    batch: WindowBatch
    gt_future: Trajectory | None = None
    shift: int = 0

    @property
    def frame(self) -> Frame:
        return self.batch.frames[0]

    def history_in_frame(self) -> np.ndarray:
        """(M, 2) agent-frame history."""
        return self.batch.hist_flat[0].reshape(-1, 2)


def flip_scale_xy(xy: np.ndarray, flip, scale=1.0) -> np.ndarray:
    """xy (..., 2) times scale, with y negated where flip is set. flip and
    scale are scalars, or (G,) arrays (a scalar scale is shared) whose entry
    g applies to xy[g] of (G, ..., 2) points."""
    # y * -scale is -(y * scale) exactly, so one product flips and scales
    xy = np.asarray(xy, dtype=np.float64)
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), np.shape(flip))
    factors = np.stack([scale, np.where(flip, -scale, scale)], axis=-1)
    return xy * factors.reshape(scale.shape + (1,) * (xy.ndim - scale.ndim - 1) + (2,))


@dataclass(frozen=True)
class SceneTransform:
    """A sampled scene augmentation: a flip/scale pair, applicable to any
    world-frame coordinates, and a heading jitter in radians for the agent
    frame (a global scene rotation would cancel under agent-centric
    normalization, so the jitter is applied where the frame is built).

    `stack` joins G transforms into one whose fields are (G,) arrays; it
    applies to (G, ..., 2) coordinates, transform g to row g.
    """

    flip: bool | np.ndarray = False
    scale: float | np.ndarray = 1.0
    heading_jitter: float | np.ndarray = 0.0

    @classmethod
    def stack(cls, transforms) -> "SceneTransform":
        return cls(flip=np.array([tf.flip for tf in transforms]),
                   scale=np.array([tf.scale for tf in transforms]),
                   heading_jitter=np.array([tf.heading_jitter for tf in transforms]))

    def apply_xy(self, xy: np.ndarray) -> np.ndarray:
        return flip_scale_xy(xy, self.flip, self.scale)


def sample_transform(aug_flip: float, aug_scale_lo: float, aug_scale_hi: float,
                     heading_jitter_deg: float, rng: np.random.Generator) -> SceneTransform:
    """Flip with probability aug_flip, scale uniform in [aug_scale_lo,
    aug_scale_hi] and heading jitter uniform in +-heading_jitter_deg, drawn
    in that order; no jitter draw when heading_jitter_deg is 0."""
    flip = bool(rng.random() < aug_flip)
    scale = float(rng.uniform(aug_scale_lo, aug_scale_hi))
    jitter = 0.0
    if heading_jitter_deg != 0.0:
        bound = math.radians(heading_jitter_deg)
        jitter = float(rng.uniform(-bound, bound))
    return SceneTransform(flip=flip, scale=scale, heading_jitter=jitter)


@dataclass(frozen=True, eq=False)
class ScenarioArrays:
    """A scenario's training inputs, stacked once so that each step
    transforms one array.

    `xy` holds world-frame rows: the target track's `history_len` history
    frames; then `future_len` rows per supervision target (the ground-truth
    future first, then each pseudo target); then every map point. `present`
    flags the target track's observed frames, all `history_len + future_len`
    of them. `confidences` has one entry per target. The windows are the
    nominal one and, when `shift` > 0, the one `shift` frames later.

    `stack` joins G same-shape arrays into one whose arrays gain a leading
    (G,) axis and whose scenario_id is the tuple of their ids.
    """

    scenario_id: str
    xy: np.ndarray
    present: np.ndarray
    confidences: np.ndarray
    history_len: int
    future_len: int
    shift: int

    @classmethod
    def stack(cls, members) -> "ScenarioArrays":
        first = members[0]
        return cls(scenario_id=tuple(a.scenario_id for a in members),
                   xy=np.stack([a.xy for a in members]),
                   present=np.stack([a.present for a in members]),
                   confidences=np.stack([a.confidences for a in members]),
                   history_len=first.history_len, future_len=first.future_len,
                   shift=first.shift)

    @property
    def map_start(self) -> int:
        return self.history_len + self.confidences.shape[-1] * self.future_len


def apply_transform(arrays: ScenarioArrays, tf: SceneTransform) -> ScenarioArrays:
    """A copy of the arrays with every coordinate flipped and scaled by tf;
    stacked arrays take a stack of as many transforms."""
    return dataclasses.replace(arrays, xy=tf.apply_xy(arrays.xy))
