"""Synthetic generator behavior and CSV/manifest round trips."""

import json
import logging
import math

import numpy as np
import pytest

from trajcast.core import AgentTrack, MissingTargetFrame, Scenario, Trajectory
from trajcast.data import (DT, FUTURE_LEN, HISTORY_LEN, InsufficientFrames,
                           MalformedRow, MissingAgent, SyntheticSpec,
                           TOTAL_FRAMES, WrongFrameCount, branch_futures,
                           check_windows, generate, load_csv, load_dir, load_manifest,
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


def test_load_dir_warns_and_skips(tmp_path, caplog):
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
    for name, reason in [("two-agents.csv", "exactly one 'agent' track, got 2"),
                         ("nan-map.csv.map.json", "non-finite"),
                         ("no-polylines.csv.map.json", "'polylines' key"),
                         ("list-map.csv.map.json", "'polylines' key")]:
        with pytest.raises(MalformedRow, match=f"{name}: .*{reason}"):
            load_csv(tmp_path / name.removesuffix(".map.json"))
    with caplog.at_level(logging.WARNING, logger="trajcast.data"):
        scenarios = load_dir(tmp_path)
    assert len(scenarios) == 1
    for name in ("bad.csv", "two-agents.csv", "nan-map.csv", "no-polylines.csv", "list-map.csv"):
        assert any(name in rec.getMessage() for rec in caplog.records)
    with pytest.raises(WrongFrameCount):
        load_dir(tmp_path, strict=True)


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
    everything = load_manifest(manifest_path)
    assert len(train) == 8 and len(val) == 2 and len(everything) == 10
    assert train[0].scenario_id == scenarios[0].scenario_id


# -- windows ------------------------------------------------------------------

def test_make_window_fields():
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    win = make_window(sc)
    assert win.scenario_id == sc.scenario_id
    assert win.history_len == HISTORY_LEN
    np.testing.assert_array_equal(win.history_xy, sc.target.xy[:HISTORY_LEN])
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
    np.testing.assert_array_equal(b.history_xy,
                                  sc.target.xy[2:HISTORY_LEN + 2])
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
    make_shift_pair(sc2, s=0)     # nominal window still fine


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
    the target at t=-1 and t=0, however few other frames were observed."""
    sc = generate(_spec(mode_mix=_only("straight")))[0]
    present = np.zeros(TOTAL_FRAMES, dtype=bool)
    present[[HISTORY_LEN - 2, HISTORY_LEN - 1]] = True
    sc = _with_target_present(sc, present)
    check_windows(sc, 0)
    a, b = make_shift_pair(sc, 0)
    assert a is b and a.frame == make_window(sc).frame
    with pytest.raises(InsufficientFrames):
        make_shift_pair(sc, 1)


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
