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

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from pathlib import Path

import numpy as np

from .core import (DT, JSON_NUMBER_TYPES, AgentTrack, MissingTargetFrame, Scenario,
                   ScenarioArrays, SceneTransform, Trajectory, TrajcastError, Window,
                   apply_transform, heading_frame, json_number_pairs, rotate_xy, to_frame_xy,
                   track_frame)
from .predictor import WindowBatch, featurize

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


class MalformedManifest(TrajcastError):
    """Dataset manifest that cannot be read; the message names it."""


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
    """Parse one scenario file; frame index = rank of its timestamp.

    Blank lines are skipped. Every other body row needs 6 fields and finite
    numeric TIMESTAMP, X and Y (else MalformedRow naming the first bad line);
    there must be history_len + future_len distinct timestamps (else
    WrongFrameCount), at most one row per track and timestamp (else
    MalformedRow naming both lines) and an AGENT track (else MissingAgent).
    A track's object type is that of its first row, and its absent frames
    are padded with its nearest observed waypoint (the earlier one on a
    tie). The ".map.json" sidecar, if there is one, must be a JSON object
    whose "polylines" are non-empty lists of [x, y] pairs of finite JSON
    numbers (else MalformedRow naming the sidecar).
    """
    with open(path, encoding="utf-8") as fh:
        numbers, stamps, track_ids, types, values = _columns(path, fh.read())
    total = history_len + future_len
    ordered = np.array(sorted(set(values[0].tolist())))
    if len(ordered) != total:
        raise WrongFrameCount(f"{path}: {len(ordered)} distinct timestamps, expected {total}")

    # each row's track is numbered by the track's first row, which keys
    # first_row in track order; cell = track * total + frame
    first_row = {}
    row_first = np.fromiter(map(first_row.setdefault, track_ids, range(len(track_ids))),
                            np.intp, len(track_ids))
    firsts = np.fromiter(first_row.values(), np.intp, len(first_row))
    cell = firsts.searchsorted(row_first) * total + ordered.searchsorted(values[0])
    counts = np.bincount(cell, minlength=len(firsts) * total)
    if np.count_nonzero(counts) != len(cell):
        _raise_duplicate_row(path, numbers, cell, track_ids, stamps)
    # every cell is written: by its row, or by the padding
    tracks_xy = np.empty((len(firsts) * total, 2))
    tracks_xy[cell] = values[1:].T
    tracks_xy = tracks_xy.reshape(len(firsts), total, 2)
    present = counts.reshape(len(firsts), total) > 0
    if len(cell) != present.size:
        _pad_absent(tracks_xy, present)

    kinds = [_CSV_TO_TYPE.get(types[i], "other") for i in first_row.values()]
    if "agent" not in kinds:
        raise MissingAgent(f"{path}: no AGENT row")
    order = list(first_row)
    target_id = order[kinds.index("agent")]  # a second AGENT track fails in Scenario
    agents = tuple(map(AgentTrack, order, kinds, tracks_xy, present))

    sidecar = f"{path}.map.json"
    try:
        with open(sidecar, encoding="utf-8") as fh:
            polylines = _map_polylines(fh.read())
    except FileNotFoundError:
        polylines = ()
    except ValueError as exc:
        raise MalformedRow(f"{Path(sidecar)}: {exc}") from None
    try:
        return Scenario(scenario_id=Path(path).stem, agents=agents, map_polylines=polylines,
                        target_track_id=target_id, history_len=history_len,
                        future_len=future_len)
    except ValueError as exc:
        raise MalformedRow(f"{path}: {exc}") from None


def _columns(path, text: str):
    """(line numbers, TIMESTAMP, TRACK_ID and OBJECT_TYPE strings, (3, n)
    float TIMESTAMP/X/Y) of the n non-blank body rows of a CSV file's text;
    raises MalformedRow for a bad header, then for the first row without 6
    fields or with a non-numeric or non-finite TIMESTAMP/X/Y."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"{path}: line 1: expected header {CSV_HEADER!r}")
    rows = lines[1:]
    kept = list(map(str.strip, rows))  # "" for a blank line, which is skipped
    numbers = list(compress(range(2, len(lines) + 1), kept))
    body = list(compress(rows, kept))
    if set(map(str.count, body, repeat(","))) - {5}:
        _raise_first_bad_row(path, lines)
    fields = ",".join(body).split(",") if body else []
    stamps = fields[0::6]
    try:
        values = np.fromiter(map(float, chain(stamps, fields[3::6], fields[4::6])),
                             np.float64, len(fields) // 2).reshape(3, -1)
    except ValueError:
        _raise_first_bad_row(path, lines)
    if not np.isfinite(values).all():
        _raise_first_bad_row(path, lines)
    return numbers, stamps, fields[1::6], fields[2::6], values


def _raise_first_bad_row(path, lines: list) -> None:
    """The row checks of `_columns`, one row at a time in file order."""
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


def _raise_duplicate_row(path, numbers, cell: np.ndarray, track_ids: list, stamps: list) -> None:
    """Raise MalformedRow for the first row whose track already has a row
    in its frame (cell = track * total + frame), naming both lines."""
    first = {}
    for i, c in enumerate(cell.tolist()):
        j = first.setdefault(c, i)
        if j != i:
            raise MalformedRow(f"{path}: line {numbers[i]}: track {track_ids[i]} already has "
                               f"a row at timestamp {stamps[i]} (line {numbers[j]})")


def _pad_absent(xy: np.ndarray, present: np.ndarray) -> None:
    """Pad each track's absent frames, in place, with the waypoint of its
    nearest present frame, the earlier one on a tie."""
    frames = np.arange(present.shape[1])
    before = np.maximum.accumulate(np.where(present, frames, -1), axis=1)
    after = np.minimum.accumulate(np.where(present, frames, len(frames))[:, ::-1], axis=1)[:, ::-1]
    take_before = (before >= 0) & ((after == len(frames)) | (frames - before <= after - frames))
    source = np.where(take_before, before, after)
    xy[:] = np.take_along_axis(xy, source[:, :, None], axis=1)


def _map_polylines(text: str) -> tuple:
    """The Trajectories of a sidecar's "polylines"; raises ValueError for
    text that is not a JSON object with that key, then for a value in it that
    is not a list or a JSON number, then for the first polyline that is
    empty, ragged, not (N, 2) or not finite."""
    data = json.loads(text)
    if not isinstance(data, dict) or "polylines" not in data:
        raise ValueError("expected a JSON object with a 'polylines' key")
    polylines = data["polylines"]
    flat = json_number_pairs(polylines)
    if flat is not None and all(polylines) and np.isfinite(flat).all():
        ends = list(accumulate(map(len, polylines)))
        return tuple(Trajectory(points=flat[start:end], dt=DT)
                     for start, end in zip([0, *ends], ends))
    # some rule is broken: name the first, in the order the docstring gives
    stack = [polylines]
    while stack:
        value = stack.pop()
        if type(value) is list:
            stack.extend(reversed(value))
        elif type(value) not in JSON_NUMBER_TYPES:
            raise ValueError(f"polylines must hold only lists and JSON numbers, got {value!r}")
    if type(polylines) is not list:
        raise ValueError(f"polylines must be a list, got {polylines!r}")
    out = []
    for p in polylines:
        try:
            out.append(Trajectory(points=np.array(p), dt=DT))
        except OverflowError:  # an integer beyond float range
            raise ValueError("trajectory points contains non-finite values") from None
    return tuple(out)


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
    """Scenarios listed in a manifest, optionally filtered by split.

    The manifest is checked before any scenario loads, else MalformedManifest
    names it and what is wrong: it must be a JSON object with an integer
    history_len >= 2 and future_len >= 1 and a "scenarios" list whose
    entries are objects with a string "file" and "split", and every file of
    the split must exist.
    """
    mpath = Path(manifest_path)
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.loads(fh.read())
    except ValueError as exc:  # undecodable bytes or JSON
        raise MalformedManifest(f"{mpath}: {exc}") from None
    if not isinstance(manifest, dict):
        raise MalformedManifest(f"{mpath}: expected a JSON object")
    for key, least in (("history_len", 2), ("future_len", 1)):
        value = manifest.get(key)
        if type(value) is not int or value < least:
            raise MalformedManifest(f"{mpath}: {key} must be an integer >= {least}, "
                                    f"got {value!r}")
    entries = manifest.get("scenarios")
    if type(entries) is not list:
        raise MalformedManifest(f"{mpath}: scenarios must be a list, got {entries!r}")
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and type(entry.get("file")) is str
                and type(entry.get("split")) is str):
            raise MalformedManifest(f"{mpath}: scenario entry {n} needs a string 'file' "
                                    f"and 'split', got {entry!r}")
    files = [mpath.parent / entry["file"] for entry in entries
             if split is None or entry["split"] == split]
    for file in files:
        if not file.is_file():
            raise MalformedManifest(f"{mpath}: listed file {file} does not exist")
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
    if s and (m + s > scenario.total_frames or np.count_nonzero(target.present) < m + s):
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


def _scenario_arrays(scenario: Scenario, s: int, pseudo=None,
                     n_pseudo: int = 0) -> ScenarioArrays:
    """A scenario's world-frame rows, stacked once, for the batch window
    builder.

    s is the second window's shift (0: no second window). pseudo is None or
    ((J, T, 2) points, (J,) confidences); it is padded to n_pseudo targets
    with zero-confidence copies of the ground truth, which add nothing to
    the loss or its gradients. Raises as check_windows(scenario, s) does.
    """
    check_windows(scenario, s)
    m, target = scenario.history_len, scenario.target
    trajs, confs = pseudo if pseudo is not None else ((), ())
    gt = target.xy[m:]
    maps = [p.points for p in scenario.map_polylines]
    xy = np.concatenate([target.xy[:m], gt, *trajs, *([gt] * (n_pseudo - len(trajs))), *maps])
    confidences = np.zeros(1 + n_pseudo)
    confidences[0] = 1.0
    confidences[1:1 + len(trajs)] = confs
    return ScenarioArrays(scenario_id=scenario.scenario_id, xy=xy, present=target.present,
                          confidences=confidences, history_len=m,
                          future_len=scenario.future_len, shift=s)


def _batch_windows(batch, shifts, tfs=None):
    """The windows of a list of ScenarioArrays (`_scenario_arrays`): for each
    shift in `shifts`, in that order, each scenario's window ending that many
    frames after t=0, in list order. tfs, if given, holds one SceneTransform
    per scenario: its flip and scale apply to every row, and its heading
    jitter to the windows' agent frames.

    Same-shape scenarios are stacked; per shift, each stack is framed,
    rotated (one `to_frame_xy`) and laid out (one `featurize`) at once.
    Returns (WindowBatch of len(shifts) * B windows, and the (B, J+1, T, 2)
    targets in the frames of the first shift's windows).
    """
    if not batch:
        return WindowBatch(points=(), hist_flat=np.empty((0, 0)), frames=()), None
    n, m, t = len(batch), batch[0].history_len, batch[0].future_len
    if any((a.history_len, a.future_len) != (m, t) for a in batch):
        raise ValueError("the scenarios of one batch must share history and future lengths")
    groups = {}
    for i, arrays in enumerate(batch):
        groups.setdefault((len(arrays.xy), arrays.map_start), []).append(i)
    points = [None] * (len(shifts) * n)
    frames = [None] * (len(shifts) * n)
    hist_flat = np.empty((len(shifts) * n, 2 * m))
    targets = np.empty((n, (batch[0].map_start - m) // t, t, 2))
    for (_, map_start), members in groups.items():
        group = ScenarioArrays.stack([batch[i] for i in members])
        jitters = [0.0] * len(members)
        if tfs is not None:
            group = apply_transform(group, SceneTransform.stack([tfs[i] for i in members]))
            jitters = [tfs[i].heading_jitter for i in members]
        for w, shift in enumerate(shifts):
            anchor = m + shift - 1
            frames_w = [heading_frame(p_prev, p_now, jitter) for p_prev, p_now, jitter
                        in zip(group.xy[:, anchor - 1].tolist(), group.xy[:, anchor].tolist(),
                               jitters)]
            in_frame = dataclasses.replace(group, xy=to_frame_xy(group.xy, frames_w))
            rows = featurize(in_frame, shift)
            slots = [w * n + i for i in members]
            hist_flat[slots] = in_frame.xy[:, shift:m + shift].reshape(len(members), -1)
            for slot, window_rows, frame in zip(slots, rows, frames_w):
                points[slot] = window_rows
                frames[slot] = frame
            if w == 0:
                targets[members] = in_frame.xy[:, m:map_start].reshape(len(members), -1, t, 2)
    return WindowBatch(points=tuple(points), hist_flat=hist_flat, frames=tuple(frames)), targets


def make_window(scenario):
    """Nominal input window: full history, agent frame at t=0, GT attached;
    raises as check_windows(scenario) does.

    Given a list of scenarios, checks each one and returns their nominal
    windows as one WindowBatch, from the batch window builder.
    """
    if isinstance(scenario, Scenario):
        check_windows(scenario)
        return _cut_window(scenario, 0)
    return _batch_windows([_scenario_arrays(sc, 0) for sc in scenario], (0,))[0]


def make_shift_pair(scenario, s: int):
    """Windows s frames apart for consistency training.

    Window A is the nominal window (with GT); window B slides the history s
    frames forward and gets its own agent frame, no GT. s = 0 gives window A
    twice. Raises as check_windows(scenario, s) does.

    Given a list of scenarios, checks each one and returns two WindowBatch
    objects, every window A and then every window B, from the batch window
    builder, which stacks each scenario's rows once for both.
    """
    if isinstance(scenario, Scenario):
        check_windows(scenario, s)
        window_a = _cut_window(scenario, 0)
        return window_a, (window_a if s == 0 else _cut_window(scenario, s))
    arrays = [_scenario_arrays(sc, s) for sc in scenario]
    batch = _batch_windows(arrays, (0, s))[0]
    return batch[:len(arrays)], batch[len(arrays):]
