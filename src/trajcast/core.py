"""Domain types, agent-centric coordinate frames, and augmentation transforms.

Everything downstream (metrics, matching, losses, the predictor, the training
harness) trades in the types defined here. All types are immutable after
construction and all operations are pure functions, so unrestricted parallel
use is safe.

Conventions:
    - coordinates are meters in a flat 2-D plane, double precision throughout
    - trajectories are (N, 2) arrays of waypoints with a fixed timestep dt
    - the agent frame puts the target agent at the origin at t=0 with its
      t=-1 -> t=0 displacement along the positive x-axis
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

OBJECT_TYPES = ("agent", "av", "other")

DT = 0.1  # seconds per frame

JSON_NUMBER_TYPES = frozenset({int, float})  # the types json.loads gives JSON numbers


def json_number_pairs(lists) -> np.ndarray | None:
    """The [x, y] pairs of a parsed JSON list of lists of them, stacked into
    one (n, 2) float array; None unless every pair holds two JSON numbers
    (a float dtype alone would also read numeric strings and booleans) that
    fit a float."""
    if type(lists) is not list or not set(map(type, lists)) <= {list}:
        return None
    pairs = list(chain.from_iterable(lists))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        return None
    values = list(chain.from_iterable(pairs))
    if not set(map(type, values)) <= JSON_NUMBER_TYPES:
        return None
    try:
        return np.fromiter(values, np.float64, len(values)).reshape(-1, 2)
    except OverflowError:  # an integer beyond float range
        return None


class TrajcastError(Exception):
    """Base class for all toolkit errors."""


class MissingTargetFrame(TrajcastError):
    """Target agent is absent at a frame required to build the agent frame."""


def _frozen_array(values, shape_hint: str, allow_empty: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if not allow_empty and arr.size == 0:
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


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_matrices(thetas) -> np.ndarray:
    """(W, 2, 2) stack of rotation_matrix(theta), one per angle: the same
    cos and sin values, written into one array from one list of floats."""
    cos_sin = [(math.cos(theta), math.sin(theta)) for theta in thetas]
    return np.array([(c, -s, s, c) for c, s in cos_sin]).reshape(-1, 2, 2)


def rotate_xy(xy: np.ndarray, theta: float) -> np.ndarray:
    # row-vector convention: each point p maps to R(theta) @ p
    return np.asarray(xy, dtype=np.float64) @ rotation_matrix(theta).T


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered 2-D waypoint sequence with a fixed timestep.

    points has shape (N, 2) with N >= 1; dt is seconds per step.
    """

    points: np.ndarray
    dt: float = DT

    def __post_init__(self):
        pts = _frozen_array(self.points, "trajectory points")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"trajectory points must be (N, 2), got {pts.shape}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
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
    history_len: int = 20
    future_len: int = 30

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
        return Trajectory(points=xy, dt=DT)


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


def to_frame_xy(xy: np.ndarray, frame) -> np.ndarray:
    """xy (..., 2) re-expressed in a Frame; given a sequence of W frames, xy
    is (W, N, 2) and row w holds points of frame w (one stacked matmul,
    whose rows have the bits of W separate calls)."""
    if isinstance(frame, Frame):
        return rotate_xy(np.asarray(xy, dtype=np.float64) - np.array(frame.origin),
                         frame.rotation)
    origins = np.array([f.origin for f in frame]).reshape(-1, 1, 2)
    return ((np.asarray(xy, dtype=np.float64) - origins)
            @ rotation_matrices([f.rotation for f in frame]).swapaxes(-1, -2))


def from_frame_xy(xy: np.ndarray, frame: Frame) -> np.ndarray:
    return rotate_xy(xy, -frame.rotation) + np.array(frame.origin)


@dataclass(frozen=True)
class FrameMap:
    """Affine map between two frames: p_dst = p_src @ matrix + offset. A
    stack of B maps has a (B, 2, 2) matrix and a (B, 2) offset."""

    matrix: np.ndarray  # (2, 2)
    offset: np.ndarray  # (2,)

    def apply(self, xy: np.ndarray) -> np.ndarray:
        return np.asarray(xy, dtype=np.float64) @ self.matrix + self.offset

    def backprop(self, d_dst: np.ndarray) -> np.ndarray:
        # gradient of apply w.r.t. its input
        return np.asarray(d_dst) @ self.matrix.T


def compose_frames(src, dst) -> FrameMap:
    """Map coordinates expressed in `src` directly into `dst`. Given two
    sequences of B frames, the B maps of their pairs, stacked."""
    if isinstance(src, Frame):
        fmap = compose_frames([src], [dst])
        return FrameMap(matrix=fmap.matrix[0], offset=fmap.offset[0])
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
        scores = _frozen_array(self.scores, "scores")
        if scores.shape != (len(trajs),):
            raise ValueError("need one score per trajectory")
        if np.any(scores < 0):
            raise ValueError("scores must be nonnegative")
        if abs(float(scores.sum()) - 1.0) > 1e-6:
            raise ValueError(f"scores must sum to 1, got {scores.sum()}")
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


@dataclass(frozen=True, eq=False)
class TargetSet:
    """J+1 supervision trajectories; index 0 is ground truth with confidence 1."""

    targets: tuple
    confidences: np.ndarray

    def __post_init__(self):
        targets = tuple(self.targets)
        if len(targets) < 1:
            raise ValueError("need at least the ground-truth target")
        lengths = {len(t) for t in targets}
        if len(lengths) != 1:
            raise ValueError(f"all targets must share a length, got {sorted(lengths)}")
        conf = _frozen_array(self.confidences, "confidences")
        if conf.shape != (len(targets),):
            raise ValueError("need one confidence per target")
        if conf[0] != 1.0:
            raise ValueError(f"ground-truth confidence must be exactly 1, got {conf[0]}")
        if np.any(conf < 0) or np.any(conf > 1):
            raise ValueError("confidences must lie in [0, 1]")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "confidences", conf)

    @property
    def count(self) -> int:
        return len(self.targets)


@dataclass(frozen=True, eq=False)
class Window:
    """Model input cut from a scenario: target history, maps, and the frame.

    `shift` records how many frames past the scenario's nominal t=0 the
    window ends; gt_future is attached only where supervision is defined.
    All coordinates are world-frame; callers re-express via `frame`.
    """

    scenario_id: str
    history_xy: np.ndarray      # (M, 2) world frame
    history_mask: np.ndarray    # (M,) bool
    map_polylines: tuple
    frame: Frame
    gt_future: Trajectory | None = None
    shift: int = 0
    dt: float = DT

    def __post_init__(self):
        # empty history is representable here; the encoder is where it errors
        xy = _frozen_array(self.history_xy, "window history", allow_empty=True)
        mask = np.array(self.history_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "history_xy", xy)
        object.__setattr__(self, "history_mask", mask)
        object.__setattr__(self, "map_polylines", tuple(self.map_polylines))

    @property
    def history_len(self) -> int:
        return self.history_xy.shape[0]

    def history_in_frame(self) -> np.ndarray:
        return to_frame_xy(self.history_xy, self.frame)


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
        # y * -scale is -(y * scale) exactly, so one product flips and scales
        xy = np.asarray(xy, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        factors = np.stack([scale, np.where(self.flip, -scale, scale)], axis=-1)
        return xy * factors.reshape(scale.shape + (1,) * (xy.ndim - scale.ndim - 1) + (2,))


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
