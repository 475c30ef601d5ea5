"""Domain types, agent frames, and augmentation."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import prediction_set, straight_scenario, straight_track
from trajcast.core import (AgentTrack, AugmentSpec, Frame, IDENTITY_AUGMENT,
                           IDENTITY_FRAME, MissingTargetFrame, PredictionSet,
                           Scenario, SceneTransform, TargetSet, Trajectory,
                           Waypoint, Window, agent_frame, apply_transform,
                           compose_frames, from_frame, from_frame_xy,
                           normalize_angle, rotate_xy, rotation_matrix,
                           sample_transform, to_frame, to_frame_xy, track_frame)


def test_normalize_angle_range():
    for theta in (0.0, 1.0, -1.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                  2 * math.pi, 100.0, -100.0):
        wrapped = normalize_angle(theta)
        assert -math.pi < wrapped <= math.pi
        # same direction up to full turns
        assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-12)


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def test_rotation_matrix_orthonormal():
    r = rotation_matrix(0.7)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
    assert np.isclose(np.linalg.det(r), 1.0)


def test_agent_frame_aligns_heading():
    """Target moving along +y: t=-1 point must land at (-2, 0) in frame."""
    sc = straight_scenario(speed=20.0, heading=math.pi / 2)
    frame = agent_frame(sc)
    assert math.isclose(frame.rotation, -math.pi / 2)
    t0 = sc.history_len - 1
    in_frame = to_frame_xy(sc.target.xy[t0 - 1: t0 + 1], frame)
    assert np.allclose(in_frame[1], [0.0, 0.0], atol=1e-12)
    assert np.allclose(in_frame[0], [-2.0, 0.0], atol=1e-12)


def test_agent_frame_stationary_fallback():
    xy = np.tile([3.0, 4.0], (50, 1))
    track = AgentTrack(track_id="agent-0", object_type="agent", xy=xy,
                       present=np.ones(50, dtype=bool))
    sc = Scenario(scenario_id="s", agents=(track,), map_polylines=(),
                  target_track_id="agent-0")
    frame = agent_frame(sc)
    assert frame.rotation == 0.0
    assert frame.origin == Waypoint(3.0, 4.0)


def test_agent_frame_missing_target_frame():
    present = np.ones(50, dtype=bool)
    present[19] = False
    track = AgentTrack(track_id="agent-0", object_type="agent",
                       xy=np.cumsum(np.ones((50, 2)), axis=0), present=present)
    sc = Scenario(scenario_id="s", agents=(track,), map_polylines=(),
                  target_track_id="agent-0")
    with pytest.raises(MissingTargetFrame):
        agent_frame(sc)


def test_agent_frame_heading_jitter():
    sc = straight_scenario(heading=0.3)
    base = agent_frame(sc).rotation
    jittered = agent_frame(sc, heading_jitter=0.25).rotation
    assert math.isclose(jittered, normalize_angle(base + 0.25))


def test_track_frame_bounds():
    track = straight_track()
    with pytest.raises(MissingTargetFrame):
        track_frame(track, 0)
    with pytest.raises(MissingTargetFrame):
        track_frame(track, 50)


def test_frame_roundtrip():
    rng = np.random.default_rng(0)
    frame = Frame(origin=Waypoint(3.0, -2.0), rotation=1.1)
    xy = rng.normal(size=(40, 2))
    back = from_frame_xy(to_frame_xy(xy, frame), frame)
    assert np.allclose(back, xy, atol=1e-12)
    traj = Trajectory(points=xy)
    assert np.allclose(from_frame(to_frame(traj, frame), frame).points, xy, atol=1e-12)


def test_frame_rotation_validated():
    with pytest.raises(ValueError):
        Frame(origin=Waypoint(0.0, 0.0), rotation=4.0)


def test_compose_frames_matches_two_step():
    rng = np.random.default_rng(1)
    fa = Frame(origin=Waypoint(1.0, 2.0), rotation=0.6)
    fb = Frame(origin=Waypoint(-3.0, 0.5), rotation=-1.2)
    xy_in_a = rng.normal(size=(25, 2))
    direct = compose_frames(fa, fb).apply(xy_in_a)
    two_step = to_frame_xy(from_frame_xy(xy_in_a, fa), fb)
    assert np.allclose(direct, two_step, atol=1e-12)


# coordinates up to 1 km; float64 rounding over a few rotations stays far below 1e-9 m
_coords = st.floats(-1e3, 1e3, allow_nan=False)
_frames = st.builds(Frame, origin=st.builds(Waypoint, _coords, _coords),
                    rotation=st.floats(-math.pi, math.pi, exclude_min=True))
_points = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)), elements=_coords)


@settings(max_examples=200, deadline=None)
@given(_frames, _points)
def test_frame_roundtrip_property(frame, xy):
    np.testing.assert_allclose(from_frame_xy(to_frame_xy(xy, frame), frame), xy,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(to_frame_xy(from_frame_xy(xy, frame), frame), xy,
                               rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(_frames, _frames, _points)
def test_compose_frames_property(src, dst, xy):
    two_step = to_frame_xy(from_frame_xy(xy, src), dst)
    np.testing.assert_allclose(compose_frames(src, dst).apply(xy), two_step,
                               rtol=0, atol=1e-9)


def test_rigid_invariance_of_distances():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(30, 2))
    frame = Frame(origin=Waypoint(5.0, -7.0), rotation=2.2)
    d_world = np.linalg.norm(a - b, axis=1)
    d_frame = np.linalg.norm(to_frame_xy(a, frame) - to_frame_xy(b, frame), axis=1)
    assert np.allclose(d_world, d_frame, atol=1e-10)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(points=np.array([[0.0, np.nan]]))
    with pytest.raises(ValueError):
        Trajectory(points=np.zeros((3, 2)), dt=0.0)
    with pytest.raises(ValueError):
        Trajectory(points=np.zeros((3, 3)))
    traj = Trajectory(points=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        traj.points[0, 0] = 1.0  # frozen


def test_prediction_set_validation():
    ok = prediction_set([[[0, 0]], [[1, 1]]], scores=[0.25, 0.75])
    assert ok.k == 2 and ok.horizon == 1
    assert ok.stacked().shape == (2, 1, 2)
    with pytest.raises(ValueError):
        prediction_set([[[0, 0]], [[1, 1]]], scores=[0.5, 0.4])
    with pytest.raises(ValueError):
        prediction_set([[[0, 0]], [[1, 1]]], scores=[-0.1, 1.1])
    with pytest.raises(ValueError):
        prediction_set([[[0, 0]], [[1, 1], [2, 2]]])


def test_target_set_gt_confidence_exact():
    gt = Trajectory(points=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        TargetSet(targets=(gt,), confidences=np.array([1.0 - 1e-12]))
    with pytest.raises(ValueError):
        TargetSet(targets=(gt, gt), confidences=np.array([1.0, 1.4]))
    ts = TargetSet(targets=(gt, gt), confidences=np.array([1.0, 0.3]))
    assert ts.count == 2


def test_agent_track_validation():
    with pytest.raises(ValueError):
        AgentTrack(track_id="x", object_type="agent", xy=np.zeros((5, 2)),
                   present=np.zeros(5, dtype=bool))
    with pytest.raises(ValueError):
        AgentTrack(track_id="x", object_type="pedestrian", xy=np.zeros((5, 2)),
                   present=np.ones(5, dtype=bool))


def test_scenario_validation():
    a = straight_track()
    b = straight_track(track_id="agent-1")
    with pytest.raises(ValueError):
        Scenario(scenario_id="s", agents=(a, b), map_polylines=(),
                 target_track_id="agent-0")  # two 'agent' tracks
    av = straight_track(track_id="agent-0", object_type="av")
    with pytest.raises(ValueError):
        Scenario(scenario_id="s", agents=(a, av), map_polylines=(),
                 target_track_id="agent-0")  # duplicate id
    short = AgentTrack(track_id="short", object_type="av", xy=np.zeros((10, 2)),
                       present=np.ones(10, dtype=bool))
    with pytest.raises(ValueError):
        Scenario(scenario_id="s", agents=(a, short), map_polylines=(),
                 target_track_id="agent-0")
    with pytest.raises(ValueError):
        Scenario(scenario_id="s", agents=(a,), map_polylines=(),
                 target_track_id="nope")


def test_gt_future_slice():
    sc = straight_scenario(speed=10.0)
    fut = sc.gt_future()
    assert len(fut) == 30
    assert np.allclose(fut.points[0], sc.target.xy[20])


def test_scene_transform_values():
    tf = SceneTransform(flip=False, scale=1.25)
    assert np.allclose(tf.apply_xy(np.array([[2.0, 4.0]])), [[2.5, 5.0]])
    flipped = SceneTransform(flip=True, scale=1.0)
    assert np.allclose(flipped.apply_xy(np.array([[2.0, 4.0]])), [[2.0, -4.0]])


def test_augment_deterministic_and_identity():
    sc = straight_scenario(heading=0.4)

    def augment(spec, seed):
        return apply_transform(sc, sample_transform(spec, np.random.default_rng(seed)))

    a1 = augment(AugmentSpec(), 9)
    a2 = augment(AugmentSpec(), 9)
    assert np.array_equal(a1.target.xy, a2.target.xy)
    ident = augment(IDENTITY_AUGMENT, 9)
    assert np.array_equal(ident.target.xy, sc.target.xy)


def test_apply_transform_touches_everything():
    sc = straight_scenario(heading=0.4)
    tf = SceneTransform(flip=True, scale=2.0)
    out = apply_transform(sc, tf)
    assert np.allclose(out.target.xy, tf.apply_xy(sc.target.xy))
    assert np.allclose(out.map_polylines[0].points, tf.apply_xy(sc.map_polylines[0].points))
    assert np.allclose(out.gt_future().points, tf.apply_xy(sc.gt_future().points))


def test_sample_transform_respects_spec():
    rng = np.random.default_rng(3)
    spec = AugmentSpec(p_flip=1.0, scale_range=(0.9, 0.9))
    tf = sample_transform(spec, rng)
    assert tf.flip is True and tf.scale == 0.9
    with pytest.raises(ValueError):
        AugmentSpec(p_flip=1.5)
    with pytest.raises(ValueError):
        AugmentSpec(scale_range=(0.0, 1.0))


def test_window_accessors():
    sc = straight_scenario(heading=1.0)
    frame = agent_frame(sc)
    win = Window(scenario_id=sc.scenario_id, history_xy=sc.target.xy[:20],
                 history_mask=sc.target.present[:20],
                 map_polylines=sc.map_polylines, frame=frame,
                 gt_future=sc.gt_future())
    assert win.history_len == 20
    hist = win.history_in_frame()
    assert np.allclose(hist[-1], [0.0, 0.0], atol=1e-12)
    # heading aligned: previous step sits on the -x axis
    assert hist[-2][0] < 0 and abs(hist[-2][1]) < 1e-9


def test_identity_frame_is_noop():
    xy = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(to_frame_xy(xy, IDENTITY_FRAME), xy)
    assert np.allclose(rotate_xy(xy, 0.0), xy)
