"""Synthetic scenario generation plus Argoverse-style CSV ingestion.

Synthetic scenarios are 50 frames at 0.1 s (20 history + 30 future), placed
at a random world pose so the agent-frame normalization does real work. Five
motion modes are supported; junction scenarios pick a latent branch whose
paths only diverge after the history, so the multimodality is genuine.

CSV files follow the Argoverse layout (TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,
CITY_NAME), one file per scenario; coordinates are written with 9
significant digits so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (DT, AgentTrack, MissingTargetFrame, Scenario, Trajectory, TrajcastError,
                   Window, rotate_xy, track_frame)

log = logging.getLogger("trajcast.data")

MODES = ("straight", "turn-left", "turn-right", "lane-change", "junction")

HISTORY_LEN = 20
FUTURE_LEN = 30
TOTAL_FRAMES = HISTORY_LEN + FUTURE_LEN

TURN_FRAMES = 15          # frames over which a turn sweeps its full angle
LANE_WIDTH = 3.5          # meters between adjacent lane centerlines
AV_FOLLOW_FRAMES = 8      # the AV trails the agent by this many frames

CSV_HEADER = "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME"

_TYPE_TO_CSV = {"agent": "AGENT", "av": "AV", "other": "OTHERS"}
_CSV_TO_TYPE = {"AGENT": "agent", "AV": "av"}


class MalformedRow(TrajcastError):
    """Scenario file (CSV or map sidecar) that cannot be parsed into a valid
    Scenario; the message names the file, and the line for a bad row."""


class MissingAgent(TrajcastError):
    """CSV scenario without an AGENT row."""


class WrongFrameCount(TrajcastError):
    """CSV scenario whose timestamp count differs from history + future."""


class InsufficientFrames(TrajcastError):
    """Not enough observed target frames to build the requested windows."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic dataset generator."""

    scenario_count: int = 100
    mode_mix: dict = field(default_factory=lambda: {m: 0.2 for m in MODES})
    speed_range: tuple = (5.0, 15.0)
    noise_sigma: float = 0.05
    seed: int = 0
    branch_probs: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if self.scenario_count < 0:
            raise ValueError("scenario_count must be >= 0")
        unknown = set(self.mode_mix) - set(MODES)
        if unknown:
            raise ValueError(f"unknown modes in mode_mix: {sorted(unknown)}")
        probs = np.array([self.mode_mix.get(m, 0.0) for m in MODES])
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("mode_mix must be nonnegative and sum to 1")
        lo, hi = self.speed_range
        if not (0.0 < lo <= hi):
            raise ValueError("speed_range must satisfy 0 < lo <= hi")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        bp = np.array(self.branch_probs)
        if bp.size < 2 or np.any(bp < 0) or abs(bp.sum() - 1.0) > 1e-9:
            raise ValueError("branch_probs needs >= 2 nonnegative entries summing to 1")

    def mode_probs(self) -> np.ndarray:
        return np.array([self.mode_mix.get(m, 0.0) for m in MODES])


def _integrate(headings: np.ndarray, speed: float) -> np.ndarray:
    """Unit-timestep path from a heading profile: p_0 = 0, constant speed."""
    steps = speed * DT * np.column_stack([np.cos(headings[:-1]), np.sin(headings[:-1])])
    return np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])


def _turn_headings(angle: float) -> np.ndarray:
    # straight through the history, then sweep to `angle` over TURN_FRAMES
    ramp = np.clip((np.arange(TOTAL_FRAMES) - HISTORY_LEN) / TURN_FRAMES, 0.0, 1.0)
    return angle * ramp


def _branch_angles(n: int) -> np.ndarray:
    return np.linspace(math.pi / 2.0, -math.pi / 2.0, n)


def _canonical_paths(mode: str, speed: float, branch_idx: int, lane_sign: float,
                     n_branches: int):
    """Noiseless agent path plus lane centerlines, in the canonical pose.

    Returns (path (50, 2), polylines list of (50, 2)). Junction polylines are
    the full per-branch paths; they share every point up to the first future
    frame, so the history carries no branch cue.
    """
    if mode == "straight":
        path = _integrate(np.zeros(TOTAL_FRAMES), speed)
        return path, [path]
    if mode in ("turn-left", "turn-right"):
        sign = 1.0 if mode == "turn-left" else -1.0
        path = _integrate(_turn_headings(sign * math.pi / 2.0), speed)
        return path, [path]
    if mode == "lane-change":
        x = np.arange(TOTAL_FRAMES) * speed * DT
        u = np.clip((np.arange(TOTAL_FRAMES) - HISTORY_LEN) / TURN_FRAMES, 0.0, 1.0)
        y = lane_sign * LANE_WIDTH * (3.0 * u ** 2 - 2.0 * u ** 3)
        path = np.column_stack([x, y])
        lane_a = np.column_stack([x, np.zeros(TOTAL_FRAMES)])
        lane_b = np.column_stack([x, np.full(TOTAL_FRAMES, lane_sign * LANE_WIDTH)])
        return path, [lane_a, lane_b]
    if mode == "junction":
        branches = [_integrate(_turn_headings(a), speed) for a in _branch_angles(n_branches)]
        return branches[branch_idx], branches
    raise ValueError(f"unknown mode {mode!r}")


def generate(spec: SyntheticSpec) -> list:
    """Deterministic synthetic scenarios; exactly spec.scenario_count of them."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.scenario_count)
    mode_probs = spec.mode_probs()
    n_branches = len(spec.branch_probs)
    scenarios = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        mode = MODES[int(rng.choice(len(MODES), p=mode_probs))]
        speed = float(rng.uniform(*spec.speed_range))
        psi = float(rng.uniform(-math.pi, math.pi))
        origin = rng.uniform(-100.0, 100.0, size=2)
        branch_idx = int(rng.choice(n_branches, p=np.array(spec.branch_probs)))
        lane_sign = 1.0 if rng.random() < 0.5 else -1.0
        agent_noise = rng.normal(0.0, spec.noise_sigma, size=(TOTAL_FRAMES, 2))
        av_noise = rng.normal(0.0, spec.noise_sigma, size=(TOTAL_FRAMES, 2))

        path, polylines = _canonical_paths(mode, speed, branch_idx, lane_sign, n_branches)
        world = rotate_xy(path, psi) + origin
        full = np.ones(TOTAL_FRAMES, dtype=bool)
        agent = AgentTrack(track_id="agent-0", object_type="agent",
                           xy=world + agent_noise, present=full)
        trail = world[np.clip(np.arange(TOTAL_FRAMES) - AV_FOLLOW_FRAMES, 0, None)]
        av = AgentTrack(track_id="av-0", object_type="av",
                        xy=trail + av_noise, present=full)
        maps = tuple(Trajectory(points=rotate_xy(p, psi) + origin, dt=DT)
                     for p in polylines)
        scenarios.append(Scenario(scenario_id=f"{mode}-{i:05d}", agents=(agent, av),
                                  map_polylines=maps, target_track_id="agent-0",
                                  history_len=HISTORY_LEN, future_len=FUTURE_LEN))
    return scenarios


def branch_futures(scenario: Scenario) -> list:
    """Per-branch noiseless futures of a junction scenario, [] otherwise.

    Junction map polylines are the full branch paths, so the futures are
    their tails past the history.
    """
    if not scenario.scenario_id.startswith("junction"):
        return []
    m = scenario.history_len
    return [Trajectory(points=p.points[m:], dt=p.dt) for p in scenario.map_polylines]


# ---------------------------------------------------------------------------
# CSV + manifest


def save_csv(scenario: Scenario, path) -> None:
    """One Argoverse-style file per scenario; rows are frame-major.

    Only present frames are written; map polylines are stored in a sidecar
    ".map.json" next to the CSV since the CSV layout has no map columns.
    """
    lines = [CSV_HEADER]
    for f in range(scenario.total_frames):
        ts = f * DT
        for a in scenario.agents:
            if not a.present[f]:
                continue
            lines.append(f"{ts:.9g},{a.track_id},{_TYPE_TO_CSV[a.object_type]},"
                         f"{a.xy[f, 0]:.9g},{a.xy[f, 1]:.9g},SYN")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {"polylines": [p.points.tolist() for p in scenario.map_polylines]}
    Path(str(path) + ".map.json").write_text(json.dumps(sidecar), encoding="utf-8")


def load_csv(path, history_len: int = HISTORY_LEN, future_len: int = FUTURE_LEN) -> Scenario:
    """Parse one scenario file; frame index = rank of its timestamp."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"{path}: line 1: expected header {CSV_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise MalformedRow(f"{path}: line {n}: expected 6 fields, got {len(parts)}")
        try:
            ts, x, y = float(parts[0]), float(parts[3]), float(parts[4])
        except ValueError:
            raise MalformedRow(f"{path}: line {n}: non-numeric TIMESTAMP/X/Y") from None
        if not (math.isfinite(ts) and math.isfinite(x) and math.isfinite(y)):
            raise MalformedRow(f"{path}: line {n}: non-finite value")
        rows.append((ts, parts[1], parts[2], x, y))

    stamps = sorted({r[0] for r in rows})
    total = history_len + future_len
    if len(stamps) != total:
        raise WrongFrameCount(f"{path}: {len(stamps)} distinct timestamps, expected {total}")
    frame_of = {ts: i for i, ts in enumerate(stamps)}

    by_track: dict = {}
    order = []
    for ts, track_id, obj, x, y in rows:
        if track_id not in by_track:
            by_track[track_id] = (obj, {})
            order.append(track_id)
        by_track[track_id][1][frame_of[ts]] = (x, y)

    agents = []
    target_id = None
    for track_id in order:
        obj, frames = by_track[track_id]
        xy = np.zeros((total, 2))
        present = np.zeros(total, dtype=bool)
        for f, (x, y) in frames.items():
            xy[f] = (x, y)
            present[f] = True
        # pad absent frames with the nearest observed waypoint
        seen = np.flatnonzero(present)
        for f in range(total):
            if not present[f]:
                xy[f] = xy[seen[np.abs(seen - f).argmin()]]
        kind = _CSV_TO_TYPE.get(obj, "other")
        if kind == "agent":
            target_id = track_id
        agents.append(AgentTrack(track_id=track_id, object_type=kind, xy=xy, present=present))
    if target_id is None:
        raise MissingAgent(f"{path}: no AGENT row")

    sidecar = Path(str(path) + ".map.json")
    polylines = ()
    if sidecar.exists():
        try:
            data = json.loads(sidecar.read_text(encoding="utf-8"))
            if not isinstance(data, dict) or "polylines" not in data:
                raise ValueError("expected a JSON object with a 'polylines' key")
            polylines = tuple(Trajectory(points=np.array(p), dt=DT) for p in data["polylines"])
        except ValueError as exc:
            raise MalformedRow(f"{sidecar}: {exc}") from None
    try:
        return Scenario(scenario_id=Path(path).stem, agents=tuple(agents),
                        map_polylines=polylines, target_track_id=target_id,
                        history_len=history_len, future_len=future_len)
    except ValueError as exc:
        raise MalformedRow(f"{path}: {exc}") from None


def _load_all(files, history_len: int, future_len: int, strict: bool) -> list:
    """load_csv over files in order; bad files warn and skip unless strict."""
    scenarios = []
    for file in files:
        try:
            scenarios.append(load_csv(file, history_len, future_len))
        except TrajcastError as exc:
            if strict:
                raise
            log.warning("skipping %s: %s", file, exc)
    return scenarios


def load_dir(path, history_len: int = HISTORY_LEN, future_len: int = FUTURE_LEN,
             strict: bool = False) -> list:
    """Load every *.csv under a directory; bad files warn and skip by default."""
    return _load_all(sorted(Path(path).glob("*.csv")), history_len, future_len, strict)


def save_dataset(scenarios, out_dir, val_fraction: float = 0.2) -> Path:
    """Write one CSV per scenario plus a manifest; returns the manifest path.

    The trailing val_fraction of the list becomes the val split.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_val = int(round(len(scenarios) * val_fraction))
    entries = []
    for i, sc in enumerate(scenarios):
        name = f"{sc.scenario_id}.csv"
        save_csv(sc, out / name)
        split = "val" if i >= len(scenarios) - n_val else "train"
        entries.append({"file": name, "split": split})
    manifest = {
        "format_version": 1,
        "dt": DT,
        "history_len": HISTORY_LEN,
        "future_len": FUTURE_LEN,
        "scenarios": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest_path


def load_manifest(manifest_path, split: str | None = None, strict: bool = False) -> list:
    """Scenarios listed in a manifest, optionally filtered by split."""
    mpath = Path(manifest_path)
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    files = [mpath.parent / entry["file"] for entry in manifest["scenarios"]
             if split is None or entry["split"] == split]
    return _load_all(files, manifest["history_len"], manifest["future_len"], strict)


# ---------------------------------------------------------------------------
# model input windows


def check_windows(scenario: Scenario, s: int = 0) -> None:
    """What a scenario must meet to be cut into its nominal window and, for
    s > 0, the window s frames later: the target present at t=-1 and t=0
    (the nominal agent frame is built from them) and at every future frame
    (the ground truth is supervised and scored there, and the shifted
    window's agent frame is built from two of them), and for s > 0 at least
    history_len + s observed target frames. Raises InsufficientFrames or
    MissingTargetFrame, each message starting with the scenario id."""
    if s < 0:
        raise ValueError("shift must be >= 0")
    m, target = scenario.history_len, scenario.target
    if s and (m + s > scenario.total_frames or int(target.present.sum()) < m + s):
        raise InsufficientFrames(
            f"{scenario.scenario_id}: need {m + s} observed frames for shift {s}")
    needed = target.present[m - 2:]
    if not needed.all():
        raise MissingTargetFrame(f"{scenario.scenario_id}: track {target.track_id} "
                                 f"absent at frame {m - 2 + int(needed.argmin())}")


def _cut_window(scenario: Scenario, s: int) -> Window:
    """The window ending s frames after t=0, in its own agent frame; only the
    nominal window (s = 0) carries the ground truth."""
    m, target = scenario.history_len, scenario.target
    return Window(scenario_id=scenario.scenario_id,
                  history_xy=target.xy[s:m + s], history_mask=target.present[s:m + s],
                  map_polylines=scenario.map_polylines,
                  frame=track_frame(target, m + s - 1),
                  gt_future=None if s else scenario.gt_future(), shift=s, dt=DT)


def make_window(scenario: Scenario) -> Window:
    """Nominal input window: full history, agent frame at t=0, GT attached;
    raises as check_windows(scenario) does."""
    check_windows(scenario)
    return _cut_window(scenario, 0)


def make_shift_pair(scenario: Scenario, s: int):
    """Windows s frames apart for consistency training.

    Window A is the nominal window (with GT); window B slides the history s
    frames forward and gets its own agent frame, no GT. s = 0 gives window A
    twice. Raises as check_windows(scenario, s) does.
    """
    check_windows(scenario, s)
    window_a = _cut_window(scenario, 0)
    return window_a, (window_a if s == 0 else _cut_window(scenario, s))
