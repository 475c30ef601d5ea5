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
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from pathlib import Path

import numpy as np

from .core import (DT, FUTURE_LEN, HISTORY_LEN, AgentTrack, MissingTargetFrame, Scenario,
                   ScenarioArrays, SceneTransform, Trajectory, TrajcastError, Window,
                   apply_transform, check_dt, check_probabilities, check_range, heading_frame,
                   json_array, rotation_matrices, target_arrays, text_input, to_frame_xy)
from .predictor import WindowBatch, featurize

MODES = ("straight", "turn-left", "turn-right", "lane-change", "junction")

TOTAL_FRAMES = HISTORY_LEN + FUTURE_LEN

TURN_FRAMES = 15          # frames over which a turn sweeps its full angle
LANE_WIDTH = 3.5          # meters between adjacent lane centerlines
AV_FOLLOW_FRAMES = 8      # the AV trails the agent by this many frames
# bounds on finite settings whose arithmetic would overflow past them: a
# generated speed in m/s, a noise scale in meters (the generator's
# noise_sigma and training's spatial_noise), training's augmentation scale
# (aug_scale_lo/hi) and its learning rate
MAX_SPEED = 1e6
MAX_NOISE = 1e6
MAX_SCALE = 1e6
MAX_LR = 1.0
# SyntheticSpec's int or float field name -> its (lo, hi, open_lo) for
# core.check_range; each end of speed_range lies in SPEED_RANGE
SPEC_RANGES = {"scenario_count": (0,), "noise_sigma": (0.0, MAX_NOISE), "seed": (0,)}
SPEED_RANGE = (0.0, MAX_SPEED, True)

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
        for key, bounds in SPEC_RANGES.items():
            check_range(key, getattr(self, key), *bounds)
        unknown = set(self.mode_mix) - set(MODES)
        if unknown:
            raise ValueError(f"unknown modes in mode_mix: {sorted(unknown)}")
        check_probabilities(self.mode_probs(), "mode_mix")
        for end, speed in enumerate(self.speed_range):
            check_range(f"speed_range[{end}]", speed, *SPEED_RANGE)
        if self.speed_range[0] > self.speed_range[1]:
            raise ValueError("need speed_range[0] <= speed_range[1], got speed_range[0]={}, "
                             "speed_range[1]={}".format(*self.speed_range))
        if math.copysign(1.0, self.noise_sigma) < 0:  # numpy's normal draw refuses it
            raise ValueError("need noise_sigma without a sign bit, got noise_sigma=-0.0")
        if len(self.branch_probs) < 2:
            raise ValueError(f"branch_probs needs at least 2 entries, "
                             f"got {len(self.branch_probs)}")
        check_probabilities(np.array(self.branch_probs), "branch_probs")

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
        rotation = rotation_matrices([psi])[0].T  # points are rows: p -> p @ R.T
        world = path @ rotation + origin
        full = np.ones(TOTAL_FRAMES, dtype=bool)
        agent = AgentTrack(track_id="agent-0", object_type="agent",
                           xy=world + agent_noise, present=full)
        trail = world[np.clip(np.arange(TOTAL_FRAMES) - AV_FOLLOW_FRAMES, 0, None)]
        av = AgentTrack(track_id="av-0", object_type="av",
                        xy=trail + av_noise, present=full)
        maps = tuple(Trajectory(points=p @ rotation + origin) for p in polylines)
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
    return [Trajectory(points=p.points[m:]) for p in scenario.map_polylines]


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
    whose "polylines" are non-empty lists of [x, y] points, read by the
    JSON-array rule `core.json_array` (else MalformedRow naming the
    sidecar). Bytes of either file that are not UTF-8 raise ValueError
    naming it (`core.text_input`).
    """
    with text_input(path) as fh:
        text = fh.read()
    numbers, stamps, track_ids, types, values = _columns(path, text)
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
        with text_input(sidecar) as fh:
            text = fh.read()
    except FileNotFoundError:
        polylines = ()
    else:
        try:
            polylines = _map_polylines(text)
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
    text that is not a JSON object with that key, then for polylines that
    are not a list of non-empty lists, then for what the JSON-array rule
    (`core.json_array`, one call over every polyline's points) refuses, then
    for points that are not [x, y] pairs."""
    data = json.loads(text)
    if not isinstance(data, dict) or "polylines" not in data:
        raise ValueError("expected a JSON object with a 'polylines' key")
    polylines = data["polylines"]
    if type(polylines) is not list:
        raise ValueError(f"polylines must be a list, got {polylines!r}")
    for i, polyline in enumerate(polylines):
        if type(polyline) is not list or not polyline:
            raise ValueError(f"polyline {i} must be a non-empty list, got {polyline!r}")
    points = json_array(list(chain.from_iterable(polylines)), "polylines")
    if polylines and points.shape[1:] != (2,):
        raise ValueError(f"polylines must hold [x, y] points, got points of shape "
                         f"{points.shape[1:]}")
    ends = list(accumulate(map(len, polylines)))
    return tuple(Trajectory(points=points[start:end]) for start, end in zip([0, *ends], ends))


def save_dataset(scenarios, out_dir, val_fraction: float = 0.2) -> Path:
    """Write one CSV per scenario plus a manifest; returns the manifest path.

    The trailing val_fraction of the list becomes the val split; a
    val_fraction outside [0, 1] (NaN too) raises ValueError naming it before
    anything is written.
    """
    check_range("val_fraction", val_fraction, 0.0, 1.0)
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


def load_manifest(manifest_path, split: str) -> list:
    """The scenarios of one split of a manifest; the first file load_csv
    cannot read raises, naming it.

    The manifest is checked before any scenario loads, else MalformedManifest
    names it and what is wrong: it must be a JSON object with an integer
    history_len >= 2 and future_len >= 1, a dt, if stated, that meets
    `core.check_dt`, and a "scenarios" list whose entries are objects with a
    string "file" and "split", no two of whose files give one scenario id
    (the file stem), and every file of the split must exist.
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
    try:
        check_dt(manifest.get("dt", DT))
    except ValueError as exc:
        raise MalformedManifest(f"{mpath}: {exc}") from None
    entries = manifest.get("scenarios")
    if type(entries) is not list:
        raise MalformedManifest(f"{mpath}: scenarios must be a list, got {entries!r}")
    first_entry = {}
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and type(entry.get("file")) is str
                and type(entry.get("split")) is str):
            raise MalformedManifest(f"{mpath}: scenario entry {n} needs a string 'file' "
                                    f"and 'split', got {entry!r}")
        sid = Path(entry["file"]).stem
        first = first_entry.setdefault(sid, n)
        if first != n:
            raise MalformedManifest(f"{mpath}: scenario entries {first} and {n} both give "
                                    f"scenario {sid}: {entries[first]!r} and {entry!r}")
    files = [mpath.parent / entry["file"] for entry in entries if entry["split"] == split]
    for file in files:
        if not file.is_file():
            raise MalformedManifest(f"{mpath}: listed file {file} does not exist")
    return [load_csv(file, manifest["history_len"], manifest["future_len"]) for file in files]


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


def _scenario_arrays(scenario: Scenario, s: int, pseudo=None,
                     n_pseudo: int = 0) -> ScenarioArrays:
    """A scenario's world-frame rows, stacked once, for the batch window
    builder.

    s is the second window's shift (0: no second window). pseudo is None or
    a pseudo-target entry (J (T, 2) trajectories, J confidences); the
    target set is `core.target_arrays` of the ground truth and that entry,
    padded to n_pseudo. Raises as check_windows(scenario, s) does, then a
    ValueError from target_arrays, prefixed "pseudo targets for <id>: ".
    """
    check_windows(scenario, s)
    m, target = scenario.history_len, scenario.target
    trajs, confs = pseudo if pseudo is not None else ((), ())
    try:
        targets, confidences = target_arrays(target.xy[m:], trajs, confs, n_pseudo)
    except ValueError as exc:
        raise ValueError(f"pseudo targets for {scenario.scenario_id}: {exc}") from None
    maps = [p.points for p in scenario.map_polylines]
    xy = np.concatenate([target.xy[:m], targets.reshape(-1, 2), *maps])
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
    rotated (one `to_frame_xy`) and laid out (one `featurize` of its
    windows' history rows, presence flags and map rows) at once.
    Returns (a WindowBatch holding len(shifts) * B windows, and the (B, J+1, T, 2)
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
            xy = to_frame_xy(group.xy, frames_w)
            history = xy[:, shift:m + shift]
            rows = featurize(history, group.present[:, shift:m + shift], xy[:, map_start:])
            slots = [w * n + i for i in members]
            hist_flat[slots] = history.reshape(len(members), -1)
            for slot, window_rows, frame in zip(slots, rows, frames_w):
                points[slot] = window_rows
                frames[slot] = frame
            if w == 0:
                targets[members] = xy[:, m:map_start].reshape(len(members), -1, t, 2)
    return WindowBatch(points=tuple(points), hist_flat=hist_flat, frames=tuple(frames)), targets


def _list_arrays(scenarios, s: int) -> list:
    """The list forms' scenarios as ScenarioArrays, each checked by
    `_scenario_arrays(scenario, s)`. Items that are ScenarioArrays already
    were checked when made, for a shift that must be at least s."""
    arrays = [sc if isinstance(sc, ScenarioArrays) else _scenario_arrays(sc, s)
              for sc in scenarios]
    if any(a.shift < s for a in arrays):
        raise ValueError(f"ScenarioArrays made for a shift below {s}")
    return arrays


def make_window(scenario):
    """Nominal input window: full history, agent frame at t=0, GT attached;
    raises as check_windows(scenario) does.

    Given a list of scenarios, checks each one and returns their nominal
    windows as one WindowBatch. The list may hold their ScenarioArrays
    instead (`_list_arrays`). Either way the windows come from the batch
    window builder.
    """
    if isinstance(scenario, Scenario):
        return make_shift_pair(scenario, 0)[0]
    return _batch_windows(_list_arrays(scenario, 0), (0,))[0]


def make_shift_pair(scenario, s: int):
    """Windows s frames apart for consistency training.

    Window A is the nominal window (with GT); window B slides the history s
    frames forward and gets its own agent frame, no GT. s = 0 gives window A
    twice. Raises as check_windows(scenario, s) does. Each Window holds its
    one-window batch from the batch window builder.

    Given a list of scenarios, checks each one and returns two WindowBatch
    objects, every window A and then every window B, from the batch window
    builder, which stacks each scenario's rows once for both. The list may
    hold their ScenarioArrays instead (`_list_arrays`).
    """
    if isinstance(scenario, Scenario):
        batch = _batch_windows([_scenario_arrays(scenario, s)], (0, s) if s else (0,))[0]
        window_a = Window(scenario_id=scenario.scenario_id, batch=batch[:1],
                          gt_future=scenario.gt_future())
        return window_a, (Window(scenario_id=scenario.scenario_id, batch=batch[1:], shift=s)
                          if s else window_a)
    arrays = _list_arrays(scenario, s)
    batch = _batch_windows(arrays, (0, s))[0]
    return batch[:len(arrays)], batch[len(arrays):]
