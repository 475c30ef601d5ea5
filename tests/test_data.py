"""Synthetic generator behavior and CSV/manifest round trips."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trajcast.core import (AgentTrack, MissingTargetFrame, Scenario, Trajectory, TrajcastError,
                          json_array, to_frame_xy)
from trajcast.data import (CSV_HEADER, DT, FUTURE_LEN, HISTORY_LEN, InsufficientFrames,
                           MalformedRow, MissingAgent, SyntheticSpec,
                           TOTAL_FRAMES, WrongFrameCount, branch_futures,
                           check_windows, generate, load_csv, load_manifest,
                           make_shift_pair, make_window, save_csv,
                           save_dataset)


def _spec(**kw):
    base = dict(scenario_count=1, noise_sigma=0.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def _only(mode):
    return {m: (1.0 if m == mode else 0.0) for m in
            ("straight", "turn-left", "turn-right", "lane-change", "junction")}


# -- generator ----------------------------------------------------------------

def test_straight_scenario_geometry():
    spec = _spec(mode_mix=_only("straight"), speed_range=(10.0, 10.0))
    sc = generate(spec)[0]
    xy = sc.target.xy
    assert xy.shape == (TOTAL_FRAMES, 2)
    steps = np.diff(xy, axis=0)
    np.testing.assert_allclose(np.linalg.norm(steps, axis=1), 1.0, atol=1e-9)
    cross = steps[:-1, 0] * steps[1:, 1] - steps[:-1, 1] * steps[1:, 0]
    np.testing.assert_allclose(cross, 0.0, atol=1e-9)     # collinear
    assert sc.history_len == HISTORY_LEN and sc.future_len == FUTURE_LEN


def test_generate_is_deterministic_and_counts():
    spec = _spec(scenario_count=12, noise_sigma=0.05, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert len(a) == 12
    for sa, sb in zip(a, b):
        assert sa.scenario_id == sb.scenario_id
        np.testing.assert_array_equal(sa.target.xy, sb.target.xy)
        np.testing.assert_array_equal(sa.track("av-0").xy, sb.track("av-0").xy)
    assert a[3].scenario_id.endswith("-00003")


def test_different_seeds_differ():
    a = generate(_spec(mode_mix=_only("straight")))
    b = generate(_spec(mode_mix=_only("straight"), seed=1))
    assert not np.array_equal(a[0].target.xy, b[0].target.xy)


def test_av_trails_agent():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    agent = sc.target.xy
    av = sc.track("av-0").xy
    np.testing.assert_array_equal(av[8:], agent[:-8])
    np.testing.assert_array_equal(av[:8], np.tile(agent[0], (8, 1)))


def test_junction_branches_share_history():
    spec = _spec(mode_mix=_only("junction"), branch_probs=(0.5, 0.5))
    sc = generate(spec)[0]
    polys = [p.points for p in sc.map_polylines]
    assert len(polys) == 2
    # headings ramp only after the history, so paths coincide through index 21
    np.testing.assert_array_equal(polys[0][:22], polys[1][:22])
    assert not np.allclose(polys[0][22:], polys[1][22:])
    futures = branch_futures(sc)
    assert len(futures) == 2 and all(len(f) == FUTURE_LEN for f in futures)
    assert branch_futures(generate(_spec(mode_mix=_only("straight")))[0]) == []


def test_junction_branch_frequencies():
    spec = _spec(scenario_count=1000, mode_mix=_only("junction"),
                 branch_probs=(0.5, 0.5), seed=7)
    hits = 0
    for sc in generate(spec):
        futures = branch_futures(sc)
        end = sc.target.xy[-1]
        dists = [np.linalg.norm(f.points[-1] - end) for f in futures]
        hits += int(np.argmin(dists) == 0)
    sigma = math.sqrt(1000 * 0.25)
    assert abs(hits - 500) <= 3 * sigma


def test_lane_change_has_two_lanes_and_lateral_offset():
    spec = _spec(mode_mix=_only("lane-change"), speed_range=(10.0, 10.0))
    sc = generate(spec)[0]
    assert len(sc.map_polylines) == 2
    lane_gap = np.linalg.norm(sc.map_polylines[0].points[0] - sc.map_polylines[1].points[0])
    assert lane_gap == pytest.approx(3.5, abs=1e-9)
    # the path starts on one lane and ends on the other
    start = sc.target.xy[0]
    end = sc.target.xy[-1]
    d_start = [np.linalg.norm(start - p.points[0]) for p in sc.map_polylines]
    d_end = [np.linalg.norm(end - p.points[-1]) for p in sc.map_polylines]
    assert np.argmin(d_start) != np.argmin(d_end)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(mode_mix={"straight": 0.5})              # does not sum to 1
    with pytest.raises(ValueError):
        SyntheticSpec(mode_mix={"hover": 1.0})
    with pytest.raises(ValueError):
        SyntheticSpec(speed_range=(0.0, 5.0))
    with pytest.raises(ValueError):
        SyntheticSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(branch_probs=(1.0,))
    with pytest.raises(ValueError):
        SyntheticSpec(scenario_count=-1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SyntheticSpec(seed=-1)
    # finite, but a path integral or a noise draw past the bound overflows
    with pytest.raises(ValueError, match=r"^speed_range must satisfy hi <= 1e\+06"):
        SyntheticSpec(speed_range=(5.0, 1e308))
    with pytest.raises(ValueError, match=r"^noise_sigma must satisfy noise_sigma <= 1e\+06"):
        SyntheticSpec(noise_sigma=1e308)


# -- CSV ----------------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    sc = generate(_spec(mode_mix=_only("junction"), noise_sigma=0.05))[0]
    path = tmp_path / f"{sc.scenario_id}.csv"
    save_csv(sc, path)
    loaded = load_csv(path)
    assert loaded.scenario_id == sc.scenario_id
    assert loaded.target_track_id == "agent-0"
    # 9 significant digits bound the absolute error for |coord| < 1000
    np.testing.assert_allclose(loaded.target.xy, sc.target.xy, atol=5e-6)
    assert len(loaded.map_polylines) == len(sc.map_polylines)
    np.testing.assert_array_equal(loaded.map_polylines[0].points,
                                  sc.map_polylines[0].points)


def test_csv_second_save_is_byte_identical(tmp_path):
    sc = generate(_spec(mode_mix=_only("turn-left"), noise_sigma=0.05))[0]
    first = tmp_path / "first.csv"
    save_csv(sc, first)
    loaded = load_csv(first)
    second = tmp_path / "second.csv"
    save_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "first.csv.map.json").read_bytes() == \
        (tmp_path / "second.csv.map.json").read_bytes()


def _write_csv(path, body_rows, header="TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME"):
    path.write_text("\n".join([header] + body_rows) + "\n", encoding="utf-8")


def _full_rows(track_id="a0", obj="AGENT", frames=TOTAL_FRAMES):
    return [f"{i * DT:.9g},{track_id},{obj},{float(i)},0,SYN" for i in range(frames)]


def test_csv_malformed_rows_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    rows = _full_rows()
    rows[1] = "0.1,a0,AGENT,1.0,0"                    # 5 fields, line 3
    _write_csv(path, rows)
    with pytest.raises(MalformedRow, match="line 3"):
        load_csv(path)
    rows = _full_rows()
    rows[4] = "0.4,a0,AGENT,oops,0,SYN"
    _write_csv(path, rows)
    with pytest.raises(MalformedRow, match="line 6"):
        load_csv(path)
    rows = _full_rows()
    rows[0] = "0,a0,AGENT,inf,0,SYN"
    _write_csv(path, rows)
    with pytest.raises(MalformedRow, match="line 2"):
        load_csv(path)
    _write_csv(path, _full_rows(), header="X,Y")
    with pytest.raises(MalformedRow, match="line 1"):
        load_csv(path)


def test_csv_missing_agent(tmp_path):
    path = tmp_path / "noagent.csv"
    _write_csv(path, _full_rows(track_id="av0", obj="AV"))
    with pytest.raises(MissingAgent):
        load_csv(path)


def test_csv_wrong_frame_count(tmp_path):
    path = tmp_path / "short.csv"
    _write_csv(path, _full_rows(frames=49))
    with pytest.raises(WrongFrameCount):
        load_csv(path)


def test_csv_pads_absent_frames_with_nearest(tmp_path):
    path = tmp_path / "sparse.csv"
    rows = _full_rows()
    rows.append("0,x9,OTHERS,100,100,SYN")
    rows.append(f"{49 * DT:.9g},x9,OTHERS,200,200,SYN")
    _write_csv(path, rows)
    sc = load_csv(path)
    other = sc.track("x9")
    assert other.object_type == "other"
    assert other.present.sum() == 2
    np.testing.assert_array_equal(other.xy[24], [100.0, 100.0])
    np.testing.assert_array_equal(other.xy[25], [200.0, 200.0])


def test_load_csv_raises_naming_the_file_it_cannot_load(tmp_path):
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    save_csv(sc, tmp_path / "good.csv")
    _write_csv(tmp_path / "bad.csv", _full_rows(frames=10))
    _write_csv(tmp_path / "two-agents.csv", _full_rows() + _full_rows(track_id="a1"))
    save_csv(sc, tmp_path / "nan-map.csv")
    (tmp_path / "nan-map.csv.map.json").write_text('{"polylines": [[[0, 0], [NaN, 1]]]}')
    save_csv(sc, tmp_path / "no-polylines.csv")
    (tmp_path / "no-polylines.csv.map.json").write_text("{}")
    save_csv(sc, tmp_path / "list-map.csv")
    (tmp_path / "list-map.csv.map.json").write_text("[]")
    save_csv(sc, tmp_path / "string-map.csv")
    (tmp_path / "string-map.csv.map.json").write_text(
        '{"polylines": [[["1.5", "2"], ["3", "4"]]]}')
    save_csv(sc, tmp_path / "bool-map.csv")
    (tmp_path / "bool-map.csv.map.json").write_text('{"polylines": [[[true, false], [1, 2]]]}')
    save_csv(sc, tmp_path / "big-int-map.csv")
    (tmp_path / "big-int-map.csv.map.json").write_text('{"polylines": [[[1%s, 2]]]}' % ("0" * 400))
    save_csv(sc, tmp_path / "number-map.csv")
    (tmp_path / "number-map.csv.map.json").write_text('{"polylines": 5}')
    save_csv(sc, tmp_path / "twice.csv")
    lines = (tmp_path / "twice.csv").read_text().splitlines()
    lines.insert(3, "0,agent-0,AGENT,999,999,SYN")
    (tmp_path / "twice.csv").write_text("\n".join(lines) + "\n")
    for name, reason in [("two-agents.csv", "exactly one 'agent' track, got 2"),
                         ("nan-map.csv.map.json", "non-finite"),
                         ("no-polylines.csv.map.json", "'polylines' key"),
                         ("list-map.csv.map.json", "'polylines' key"),
                         ("string-map.csv.map.json",
                          "polylines must hold only lists and JSON numbers, got '1.5'$"),
                         ("bool-map.csv.map.json",
                          "polylines must hold only lists and JSON numbers, got True$"),
                         ("big-int-map.csv.map.json",
                          "polylines holds a number beyond float range$"),
                         ("number-map.csv.map.json", "polylines must be a list, got 5$"),
                         ("twice.csv", "line 4: track agent-0 already has a row at "
                                       "timestamp 0 \\(line 2\\)$")]:
        with pytest.raises(MalformedRow, match=f"{name}: .*{reason}"):
            load_csv(tmp_path / name.removesuffix(".map.json"))
    with pytest.raises(WrongFrameCount, match=f"^{re.escape(str(tmp_path / 'bad.csv'))}: "):
        load_csv(tmp_path / "bad.csv")
    assert load_csv(tmp_path / "good.csv").scenario_id == "good"


# -- manifest -----------------------------------------------------------------

def test_save_dataset_and_manifest_splits(tmp_path):
    scenarios = generate(_spec(scenario_count=10, noise_sigma=0.02, seed=3))
    manifest_path = save_dataset(scenarios, tmp_path / "ds", val_fraction=0.2)
    manifest = json.loads(manifest_path.read_text())
    splits = [e["split"] for e in manifest["scenarios"]]
    assert splits.count("train") == 8 and splits.count("val") == 2
    assert splits == ["train"] * 8 + ["val"] * 2
    train = load_manifest(manifest_path, split="train")
    val = load_manifest(manifest_path, split="val")
    assert len(train) == 8 and len(val) == 2
    assert [sc.scenario_id for sc in train + val] == [sc.scenario_id for sc in scenarios]


@pytest.mark.parametrize("fraction", [1.5, -1.0, math.nan, math.inf])
def test_save_dataset_refuses_a_val_fraction_outside_0_1(tmp_path, fraction):
    """1.5 would put every scenario in val and -1 none, and NaN failed as a
    float conversion naming no key; each is refused before anything is
    written. Both ends of [0, 1] stay legal."""
    scenarios = generate(_spec(scenario_count=2))
    with pytest.raises(ValueError, match=rf"^need 0 <= val_fraction <= 1, "
                                         rf"got val_fraction={fraction}$"):
        save_dataset(scenarios, tmp_path / "ds", val_fraction=fraction)
    assert not (tmp_path / "ds").exists()
    for fraction, n_val in ((0.0, 0), (1.0, 2)):
        manifest = json.loads(save_dataset(scenarios, tmp_path / str(fraction),
                                           val_fraction=fraction).read_text())
        assert [e["split"] for e in manifest["scenarios"]].count("val") == n_val


# -- windows ------------------------------------------------------------------

def test_make_window_fields():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    win = make_window(sc)
    assert win.scenario_id == sc.scenario_id
    np.testing.assert_array_equal(win.history_in_frame(),
                                  to_frame_xy(sc.target.xy[:HISTORY_LEN], win.frame))
    assert len(win.gt_future) == FUTURE_LEN
    assert win.shift == 0
    # frame's origin sits on the last history point
    np.testing.assert_array_equal(np.array(win.frame.origin),
                                  sc.target.xy[HISTORY_LEN - 1])


def test_make_shift_pair():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    a0, b0 = make_shift_pair(sc, s=0)
    assert a0 is b0
    a, b = make_shift_pair(sc, s=2)
    assert a.shift == 0 and b.shift == 2
    assert b.gt_future is None
    np.testing.assert_array_equal(b.history_in_frame(),
                                  to_frame_xy(sc.target.xy[2:HISTORY_LEN + 2], b.frame))
    np.testing.assert_array_equal(np.array(b.frame.origin),
                                  sc.target.xy[HISTORY_LEN + 1])
    with pytest.raises(ValueError):
        make_shift_pair(sc, s=-1)


def test_make_shift_pair_insufficient_frames():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    with pytest.raises(InsufficientFrames):
        make_shift_pair(sc, s=FUTURE_LEN + 1)
    # absent target frames also count as missing
    target = sc.target
    present = np.ones(TOTAL_FRAMES, dtype=bool)
    present[HISTORY_LEN:] = False
    gappy = AgentTrack(track_id=target.track_id, object_type="agent",
                       xy=target.xy, present=present)
    sc2 = Scenario(scenario_id=sc.scenario_id, agents=(gappy, sc.track("av-0")),
                   map_polylines=sc.map_polylines, target_track_id="agent-0",
                   history_len=HISTORY_LEN, future_len=FUTURE_LEN)
    with pytest.raises(InsufficientFrames):
        make_shift_pair(sc2, s=1)
    # the nominal window's ground truth is absent too
    with pytest.raises(MissingTargetFrame, match=f"absent at frame {HISTORY_LEN}$"):
        make_shift_pair(sc2, s=0)


def _with_target_present(sc, present):
    target = sc.target
    gappy = AgentTrack(track_id=target.track_id, object_type="agent",
                       xy=target.xy, present=present)
    return Scenario(scenario_id=sc.scenario_id, agents=(gappy, sc.track("av-0")),
                    map_polylines=sc.map_polylines, target_track_id="agent-0",
                    history_len=HISTORY_LEN, future_len=FUTURE_LEN)


@pytest.mark.parametrize("absent, s, error, message", [
    ((18,), 0, MissingTargetFrame, "track agent-0 absent at frame 18"),
    ((19,), 2, MissingTargetFrame, "track agent-0 absent at frame 19"),
    ((20,), 2, MissingTargetFrame, "track agent-0 absent at frame 20"),
    ((), FUTURE_LEN + 1, InsufficientFrames, "need 51 observed frames for shift 31"),
    (range(HISTORY_LEN + 1, TOTAL_FRAMES), 2, InsufficientFrames, "need 22 observed frames"),
])
def test_check_windows_names_the_scenario_first(absent, s, error, message):
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    present = np.ones(TOTAL_FRAMES, dtype=bool)
    present[list(absent)] = False
    sc = _with_target_present(sc, present)
    with pytest.raises(error, match=f"^{sc.scenario_id}: {message}"):
        check_windows(sc, s)
    with pytest.raises(error, match=f"^{sc.scenario_id}: {message}"):
        make_shift_pair(sc, s)
    with pytest.raises(ValueError, match="shift must be >= 0"):
        check_windows(sc, -1)


def test_shift_zero_needs_the_nominal_window_only():
    """s = 0 asks for what the nominal window needs, as make_window does:
    the target at t=-1, t=0 and every future frame, however few other
    history frames were observed."""
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    present = np.zeros(TOTAL_FRAMES, dtype=bool)
    present[HISTORY_LEN - 2:] = True
    sc = _with_target_present(sc, present)
    check_windows(sc, 0)
    a, b = make_shift_pair(sc, 0)
    assert a is b and a.frame == make_window(sc).frame
    with pytest.raises(InsufficientFrames):
        make_shift_pair(sc, FUTURE_LEN - 1)


@pytest.mark.parametrize("frame", [HISTORY_LEN, HISTORY_LEN + 13, TOTAL_FRAMES - 1])
@pytest.mark.parametrize("s", [0, 1, 3])
def test_check_windows_rejects_an_absent_future_frame(frame, s):
    """The ground truth is supervised and scored at every future frame, so a
    target absent at any of them is rejected whatever the shift, not padded."""
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    present = np.ones(TOTAL_FRAMES, dtype=bool)
    present[frame] = False
    sc = _with_target_present(sc, present)
    message = f"^{sc.scenario_id}: track agent-0 absent at frame {frame}$"
    with pytest.raises(MissingTargetFrame, match=message):
        check_windows(sc, s)
    with pytest.raises(MissingTargetFrame, match=message):
        make_window(sc)


def test_window_requires_target_presence_at_frame_edge():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    target = sc.target
    present = np.ones(TOTAL_FRAMES, dtype=bool)
    present[HISTORY_LEN - 1] = False
    gappy = AgentTrack(track_id=target.track_id, object_type="agent",
                       xy=target.xy, present=present)
    sc2 = Scenario(scenario_id=sc.scenario_id, agents=(gappy, sc.track("av-0")),
                   map_polylines=sc.map_polylines, target_track_id="agent-0",
                   history_len=HISTORY_LEN, future_len=FUTURE_LEN)
    with pytest.raises(MissingTargetFrame):
        make_window(sc2)


# -- load_csv against the row-loop reference ------------------------------------

def _row_loop_load_csv(path, history_len=HISTORY_LEN, future_len=FUTURE_LEN):
    """The row-by-row reader load_csv replaced, kept as its reference: the
    same files give the same arrays, or the same error. It differs on two
    rules only: a second row for one track and timestamp (it keeps the later
    row) and the sidecar's polylines, which it reads one polyline at a time
    with np.array, so that it reads numeric strings and booleans as numbers
    and gives numpy's and Trajectory's messages."""
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
        seen = np.flatnonzero(present)
        for f in range(total):
            if not present[f]:
                xy[f] = xy[seen[np.abs(seen - f).argmin()]]
        kind = {"AGENT": "agent", "AV": "av"}.get(obj, "other")
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
            polylines = tuple(Trajectory(points=np.array(p)) for p in data["polylines"])
        except ValueError as exc:
            raise MalformedRow(f"{sidecar}: {exc}") from None
    try:
        return Scenario(scenario_id=Path(path).stem, agents=tuple(agents),
                        map_polylines=polylines, target_track_id=target_id,
                        history_len=history_len, future_len=future_len)
    except ValueError as exc:
        raise MalformedRow(f"{path}: {exc}") from None


_SMALL = (3, 2)  # history and future frames of the generated files


def _coordinate():
    return st.one_of(st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: f"{v:.9g}"),
                     st.integers(-50, 50).map(str))


@st.composite
def _csv_lines(draw):
    """Lines of a scenario file: shuffled rows, absent frames, extra OTHERS
    tracks, blank lines, two spellings of one timestamp, and 0-2 corruptions
    at random lines."""
    total = sum(_SMALL)
    everything = set(range(total))
    tracks = [("agent-0", "AGENT", draw(st.sets(st.integers(0, total - 1), min_size=1)))]
    if draw(st.booleans()) or tracks[0][2] != everything:
        tracks.append(("av-0", "AV", everything))
    tracks += [(f"other-{i}", "OTHERS", draw(st.sets(st.integers(0, total - 1), min_size=1)))
               for i in range(draw(st.integers(0, 2)))]
    rows = [[draw(st.sampled_from([f"{f * DT:.9g}", f"{f * DT:.4f}"])), tid, obj,
             draw(_coordinate()), draw(_coordinate()), "SYN"]
            for tid, obj, frames in tracks for f in sorted(frames)]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["fields", "text", "non-finite", "duplicate", "duplicate",
                                    "type", "type", "second agent", "drop frame", "header"]))
        if how == "fields":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
        elif how == "text":
            rows[i][draw(st.sampled_from([0, 3, 4]))] = "oops"
        elif how == "non-finite":
            rows[i][draw(st.sampled_from([0, 3, 4]))] = draw(st.sampled_from(["inf", "nan"]))
        elif how == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), [*rows[i][:3], "999", "0", "SYN"])
        elif how == "type":  # a later row of a track gives another type
            last = max(j for j, r in enumerate(rows) if r[1:2] == rows[i][1:2])
            rows[last][2] = draw(st.sampled_from(["AGENT", "AV", "OTHERS"]))
        elif how == "second agent":
            rows = [[*r[:2], "AGENT", *r[3:]] if r[1] == rows[i][1] else r for r in rows]
        elif how == "drop frame":
            rows = [r for r in rows if len(r) < 1 or r[0] != rows[i][0]] or rows
        else:
            return ["TIMESTAMP,TRACK_ID,X,Y"] + [",".join(r) for r in rows]
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return [CSV_HEADER] + lines


_BAD_VALUES = ["1.5", True, None, {"x": 1}, float("nan"), 1e400, [1.0, 2.0]]


@st.composite
def _sidecar_text(draw):
    """None (no sidecar) or the text of one: 0-3 polylines of 1-4 points,
    maybe another key, on one line or indented, and at most one
    corruption."""
    if draw(st.integers(0, 3)) == 0:
        return None
    number = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-50, 50),
                       st.just(2 ** 70))  # beyond int64, within float range
    point = st.lists(number, min_size=2, max_size=2)
    polylines = [draw(st.lists(point, min_size=1, max_size=4))
                 for _ in range(draw(st.integers(0, 3)))]
    how = draw(st.sampled_from(["none", "none", "value", "shape", "polylines", "document",
                                "truncated"]))
    if how == "value" and polylines:
        p = draw(st.integers(0, len(polylines) - 1))
        q = draw(st.integers(0, len(polylines[p]) - 1))
        polylines[p][q][draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_VALUES))
    elif how == "shape" and polylines:
        p = draw(st.integers(0, len(polylines) - 1))
        change = draw(st.sampled_from(["empty", "short point", "long point", "number"]))
        if change == "empty":
            polylines[p] = []
        elif change == "short point":
            polylines[p][0] = polylines[p][0][:1]
        elif change == "long point":
            polylines[p][-1] = polylines[p][-1] + [0.0]
        else:
            polylines[p] = 7
    elif how == "polylines":
        polylines = draw(st.sampled_from([5, "xy", None, {"a": [[0, 0]]}]))
    elif how == "document":
        return draw(st.sampled_from(['{"polylines": [[[0, 0]]', '{\n "polylines": [\n  [[0, 0]]',
                                     '{"polylines":\n [[[0, x]]]}', "[]", "{}", '{"maps": []}']))
    extra = draw(st.sampled_from([{}, {"city": "SYN"}]))
    text = json.dumps({"polylines": polylines, **extra}, indent=draw(st.sampled_from([None, 1])))
    if how == "truncated":
        return text[:draw(st.integers(1, len(text) - 1))]
    return text


def _sidecar_message(polylines):
    """The message load_csv gives for a sidecar's "polylines" that break
    the README's rule, checked in its order: a list, of non-empty lists,
    whose points together the JSON-array rule reads, as [x, y] pairs; None
    when none is broken."""
    if not isinstance(polylines, list):
        return f"polylines must be a list, got {polylines!r}"
    for i, polyline in enumerate(polylines):
        if not isinstance(polyline, list) or not polyline:
            return f"polyline {i} must be a non-empty list, got {polyline!r}"
    try:
        points = json_array([point for polyline in polylines for point in polyline], "polylines")
    except ValueError as exc:
        return str(exc)
    if polylines and points.shape[1:] != (2,):
        return f"polylines must hold [x, y] points, got points of shape {points.shape[1:]}"
    return None


def _expected_load(path, lines, sidecar_text):
    """What load_csv should give: the reference's result or error, except
    that a second row for a track and timestamp, then polylines that break
    the sidecar rule (`_sidecar_message`), are rejected at the stage where
    load_csv checks them."""
    try:
        expected = _row_loop_load_csv(path, *_SMALL)
    except (TrajcastError, TypeError) as exc:
        expected = exc
    if isinstance(expected, WrongFrameCount) or (
            isinstance(expected, MalformedRow) and str(expected).startswith(f"{path}: line ")):
        return expected
    first_line = {}
    for n, line in enumerate(lines[1:], start=2):
        if line.strip():
            parts = line.split(",")
            m = first_line.setdefault((parts[1], float(parts[0])), n)
            if m != n:
                return MalformedRow(f"{path}: line {n}: track {parts[1]} already has a row "
                                    f"at timestamp {parts[0]} (line {m})")
    if isinstance(expected, MissingAgent) or sidecar_text is None:
        return expected
    try:
        document = json.loads(sidecar_text)
    except ValueError:
        return expected
    if isinstance(document, dict) and "polylines" in document:
        message = _sidecar_message(document["polylines"])
        if message is not None:
            return MalformedRow(f"{path}.map.json: {message}")
    return expected


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_csv_lines(), sidecar_text=_sidecar_text(),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), last_newline=st.booleans())
def test_load_csv_matches_the_row_loop_reference(tmp_path, lines, sidecar_text, newline,
                                                 last_newline):
    path = tmp_path / "scenario.csv"
    path.write_bytes((newline.join(lines) + newline * last_newline).encode("utf-8"))
    sidecar = tmp_path / "scenario.csv.map.json"
    sidecar.unlink(missing_ok=True)
    if sidecar_text is not None:
        sidecar.write_bytes(sidecar_text.replace("\n", newline).encode("utf-8"))
    expected = _expected_load(path, lines, sidecar_text)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            load_csv(path, *_SMALL)
        assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
        return
    loaded = load_csv(path, *_SMALL)
    assert (loaded.scenario_id, loaded.target_track_id, loaded.history_len,
            loaded.future_len) == (expected.scenario_id, expected.target_track_id,
                                   expected.history_len, expected.future_len)
    assert [(a.track_id, a.object_type) for a in loaded.agents] == \
        [(a.track_id, a.object_type) for a in expected.agents]
    for a, b in zip(loaded.agents, expected.agents):
        assert a.xy.dtype == b.xy.dtype and a.xy.tobytes() == b.xy.tobytes()
        assert a.present.dtype == b.present.dtype and a.present.tobytes() == b.present.tobytes()
    assert len(loaded.map_polylines) == len(expected.map_polylines)
    for p, q in zip(loaded.map_polylines, expected.map_polylines):
        assert p.points.shape == q.points.shape and p.points.tobytes() == q.points.tobytes()
