"""Domain types, agent frames, and augmentation."""

import copy
import json
import math
import re
from collections import Counter

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import prediction_set, straight_scenario, straight_track
from trajcast.core import (AgentTrack, Frame, IDENTITY_FRAME, MissingTargetFrame,
                           PredictionSet, Scenario, ScenarioArrays, SceneTransform, TargetSet,
                           Trajectory, apply_transform, check_probabilities,
                           compose_frames, from_frame_xy, heading_frame, json_array,
                           normalize_angle, rotation_matrices, sample_transform, to_frame_xy,
                           track_frame)
from trajcast.data import MODES, MalformedRow, SyntheticSpec, load_csv, make_window, save_csv
from trajcast.ensemble import MalformedRecord, load_prediction_dump
from trajcast.losses import SpatialPermutation
from trajcast.predictor import (MalformedCheckpoint, ModelConfig, init_params, load_checkpoint,
                                save_checkpoint)


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
    [r] = rotation_matrices([0.7])
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
    assert np.isclose(np.linalg.det(r), 1.0)


def test_agent_frame_aligns_heading():
    """Target moving along +y: t=-1 point must land at (-2, 0) in frame."""
    sc = straight_scenario(speed=20.0, heading=math.pi / 2)
    frame = track_frame(sc.target, sc.history_len - 1)
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
    frame = track_frame(sc.target, sc.history_len - 1)
    assert frame.rotation == 0.0
    assert frame.origin == (3.0, 4.0)


def test_agent_frame_missing_target_frame():
    present = np.ones(50, dtype=bool)
    present[19] = False
    track = AgentTrack(track_id="agent-0", object_type="agent",
                       xy=np.cumsum(np.ones((50, 2)), axis=0), present=present)
    sc = Scenario(scenario_id="s", agents=(track,), map_polylines=(),
                  target_track_id="agent-0")
    with pytest.raises(MissingTargetFrame):
        track_frame(sc.target, sc.history_len - 1)


def test_agent_frame_heading_jitter():
    sc = straight_scenario(heading=0.3)
    m = sc.history_len
    base = track_frame(sc.target, m - 1).rotation
    jittered = heading_frame(sc.target.xy[m - 2], sc.target.xy[m - 1], 0.25).rotation
    assert math.isclose(jittered, normalize_angle(base + 0.25))


def test_track_frame_bounds():
    track = straight_track()
    with pytest.raises(MissingTargetFrame):
        track_frame(track, 0)
    with pytest.raises(MissingTargetFrame):
        track_frame(track, 50)


def test_frame_roundtrip():
    rng = np.random.default_rng(0)
    frame = Frame(origin=(3.0, -2.0), rotation=1.1)
    xy = rng.normal(size=(40, 2))
    back = from_frame_xy(to_frame_xy(xy, frame), frame)
    assert np.allclose(back, xy, atol=1e-12)


def test_frame_rotation_validated():
    with pytest.raises(ValueError):
        Frame(origin=(0.0, 0.0), rotation=4.0)


def test_compose_frames_matches_two_step():
    rng = np.random.default_rng(1)
    fa = Frame(origin=(1.0, 2.0), rotation=0.6)
    fb = Frame(origin=(-3.0, 0.5), rotation=-1.2)
    xy_in_a = rng.normal(size=(25, 2))
    direct = compose_frames(fa, fb).apply(xy_in_a)
    two_step = to_frame_xy(from_frame_xy(xy_in_a, fa), fb)
    assert np.allclose(direct, two_step, atol=1e-12)


@pytest.mark.parametrize("n_src", [0, 1])
def test_compose_frames_refuses_sequences_of_different_lengths(n_src):
    frames = [Frame(origin=(1.0, 2.0), rotation=0.6), Frame(origin=(-3.0, 0.5), rotation=-1.2)]
    with pytest.raises(ValueError, match=f"as many src frames as dst frames, got {n_src} and 2$"):
        compose_frames(frames[:n_src], frames)


# coordinates up to 1 km; float64 rounding over a few rotations stays far below 1e-9 m
_coords = st.floats(-1e3, 1e3, allow_nan=False)
_frames = st.builds(Frame, origin=st.tuples(_coords, _coords),
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_frames, _frames), min_size=1, max_size=4),
       st.lists(st.integers(1, 3), max_size=2), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_frame_maps_equal_per_frame_calls(pairs, extra, n, seed):
    """A stack of B frame maps, and to_frame_xy and from_frame_xy on B
    frames, give row b of (B, ..., N, 2) points, with 0 to 2 axes between B
    and N, the bits of the call on frame b alone; the frame conversions also
    give the bits of the one-frame formulas they replaced (`_rotate_oracle`)."""
    src, dst = [p[0] for p in pairs], [p[1] for p in pairs]
    xy = np.random.default_rng(seed).uniform(-1e3, 1e3, size=(len(pairs), *extra, n, 2))
    fmap = compose_frames(src, dst)
    mapped, grad = fmap.apply(xy), fmap.backprop(xy)
    local, world = to_frame_xy(xy, dst), from_frame_xy(xy, dst)
    for b in range(len(pairs)):
        single = compose_frames(src[b], dst[b])
        assert np.array_equal(mapped[b], single.apply(xy[b]))
        assert np.array_equal(grad[b], single.backprop(xy[b]))
        assert np.array_equal(local[b], to_frame_xy(xy[b], dst[b]))
        assert np.array_equal(world[b], from_frame_xy(xy[b], dst[b]))
        origin = np.array(dst[b].origin)
        assert np.array_equal(local[b], _rotate_oracle(xy[b] - origin, dst[b].rotation))
        assert np.array_equal(world[b], _rotate_oracle(xy[b], -dst[b].rotation) + origin)


def _rotate_oracle(xy, theta):
    """The one-frame rotation as it stood before every rotation was built by
    `rotation_matrices`: p -> R(theta) @ p for row points p."""
    c, s = math.cos(theta), math.sin(theta)
    return np.asarray(xy, dtype=np.float64) @ np.array([[c, -s], [s, c]]).T


def _apply_xy_oracle(xy, flip, scale):
    """SceneTransform.apply_xy as it stood before the flip rule was shared."""
    xy = np.asarray(xy, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    factors = np.stack([scale, np.where(flip, -scale, scale)], axis=-1)
    return xy * factors.reshape(scale.shape + (1,) * (xy.ndim - scale.ndim - 1) + (2,))


def _mirror_oracle(xy, flip):
    """SpatialPermutation._mirror as it stood before the flip rule was shared."""
    flip = np.asarray(flip)
    signs = np.where(flip[..., None], np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    return xy * signs.reshape(flip.shape + (1,) * (xy.ndim - flip.ndim - 1) + (2,))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), stacked=st.booleans(), g=st.integers(1, 4),
       extra=st.lists(st.integers(1, 3), max_size=2))
def test_flip_and_scale_equal_the_former_formulas(data, stacked, g, extra):
    """The scene transform and the spatial permutation's mirror, one flip or
    a (G,) stack of them, against their separate formulas bit for bit, at
    +-0.0, +-inf and NaN too."""
    lead = (g,) if stacked else ()
    flip = data.draw(hnp.arrays(bool, lead)) if stacked else data.draw(st.booleans())
    scale = data.draw(hnp.arrays(np.float64, lead, elements=st.floats(0.5, 2.0)))
    if not stacked:
        scale = float(scale)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    xy = data.draw(hnp.arrays(np.float64, (*lead, *extra, 2),
                              elements=st.one_of(special, st.floats(-1e6, 1e6))))
    tf = SceneTransform(flip=flip, scale=scale)
    for got, want in ((tf.apply_xy(xy), _apply_xy_oracle(xy, flip, scale)),
                      (SpatialPermutation(flip=flip)._mirror(xy), _mirror_oracle(xy, flip))):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_rigid_invariance_of_distances():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(30, 2))
    frame = Frame(origin=(5.0, -7.0), rotation=2.2)
    d_world = np.linalg.norm(a - b, axis=1)
    d_frame = np.linalg.norm(to_frame_xy(a, frame) - to_frame_xy(b, frame), axis=1)
    assert np.allclose(d_world, d_frame, atol=1e-10)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(points=np.array([[0.0, np.nan]]))
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


@pytest.mark.parametrize("p, message", [
    ([math.nan, -1.0, 3.0], "holds a non-finite value"),
    ([0.5, math.inf], "holds a non-finite value"),
    ([-0.5, 0.5], "must be nonnegative, got [-0.5, 0.5]"),
    ([1.25, -0.25], "must be nonnegative, got [1.25, -0.25]"),
    ([0.5, 0.25], "must sum to 1, got 0.75"),
    ([0.5, 0.5 + 5e-7], f"must sum to 1, got {0.5 + (0.5 + 5e-7)}"),
    ([0.5, 0.5 + 5e-10], None),
    ([1.0 / 3.0] * 3, None),
], ids=["non-finite before negative", "inf", "negative before sum", "negative",
        "sum", "sum off by 5e-7", "sum off by 5e-10", "thirds"])
def test_check_probabilities_names_the_first_fault_in_its_order(p, message):
    """Non-finite, then negative, then a sum more than 1e-9 away from 1."""
    if message is None:
        check_probabilities(np.array(p), "p")
        return
    with pytest.raises(ValueError, match=f"^p {re.escape(message)}$"):
        check_probabilities(np.array(p), "p")


_BAD_PROBABILITIES = {
    "NaN": ([math.nan, 0.25, 0.25, 0.25, 0.25], "holds a non-finite value"),
    "negative": ([1.25, -0.25, 0.0, 0.0, 0.0], "must be nonnegative, got "
                                               "[1.25, -0.25, 0.0, 0.0, 0.0]"),
    "bad sum": ([0.5, 0.25, 0.0, 0.0, 0.0], "must sum to 1, got 0.75"),
}


@pytest.mark.parametrize("fault", list(_BAD_PROBABILITIES))
def test_every_probability_vector_gives_a_fault_one_wording(tmp_path, fault):
    """The same faulty vector, as a mode mix, as branch probabilities, as
    PredictionSet scores and as a dump line's scores, gets one message after
    each caller's own prefix (in a dump the JSON-array rule refuses NaN, in
    the same words)."""
    p, tail = _BAD_PROBABILITIES[fault]
    with pytest.raises(ValueError, match=f"^mode_mix {re.escape(tail)}$"):
        SyntheticSpec(mode_mix=dict(zip(MODES, p)))
    with pytest.raises(ValueError, match=f"^branch_probs {re.escape(tail)}$"):
        SyntheticSpec(branch_probs=tuple(p))
    trajs = [Trajectory(points=[[float(i), 0.0]]) for i in range(len(p))]
    with pytest.raises(ValueError, match=f"^scores {re.escape(tail)}$"):
        PredictionSet(trajectories=trajs, scores=p)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({"scenario_id": "s0", "trajectories": [[[0.0, 0.0]]] * len(p),
                                "scores": p}) + "\n")
    with pytest.raises(MalformedRecord, match=f"^{re.escape(f'{dump}: line 1 (s0): ')}"
                                              f"scores {re.escape(tail)}$"):
        load_prediction_dump(dump)


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


def _straight_arrays():
    """ScenarioArrays of a straight scenario: its target track, then its map."""
    sc = straight_scenario(heading=0.4)
    return ScenarioArrays(scenario_id=sc.scenario_id,
                          xy=np.concatenate([sc.target.xy, sc.map_polylines[0].points]),
                          present=sc.target.present, confidences=np.array([1.0]),
                          history_len=sc.history_len, future_len=sc.future_len, shift=0)


def test_augment_deterministic_and_identity():
    arrays = _straight_arrays()

    def augment(aug_flip, scale_lo, scale_hi, seed):
        tf = sample_transform(aug_flip, scale_lo, scale_hi, 0.0, np.random.default_rng(seed))
        return apply_transform(arrays, tf)

    a1 = augment(0.5, 0.8, 1.25, 9)
    a2 = augment(0.5, 0.8, 1.25, 9)
    assert np.array_equal(a1.xy, a2.xy)
    ident = augment(0.0, 1.0, 1.0, 9)
    assert np.array_equal(ident.xy, arrays.xy)


def test_apply_transform_touches_everything():
    arrays = _straight_arrays()
    tf = SceneTransform(flip=True, scale=2.0)
    out = apply_transform(arrays, tf)
    assert np.allclose(out.xy, tf.apply_xy(arrays.xy))
    assert out.scenario_id == arrays.scenario_id and out.shift == arrays.shift
    assert out.present is arrays.present and out.confidences is arrays.confidences
    assert (out.history_len, out.future_len) == (arrays.history_len, arrays.future_len)


def test_sample_transform_respects_spec():
    """Its values as given (TrainConfig checks their ranges), and the draws
    of flip, scale and heading jitter in that order, with no jitter draw at
    heading_jitter_deg 0."""
    tf = sample_transform(1.0, 0.9, 0.9, 0.0, np.random.default_rng(3))
    assert tf.flip is True and tf.scale == 0.9 and tf.heading_jitter == 0.0
    tf = sample_transform(0.5, 0.8, 1.25, 10.0, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    flip, scale = rng.random() < 0.5, rng.uniform(0.8, 1.25)
    jitter = rng.uniform(-math.radians(10.0), math.radians(10.0))
    assert (tf.flip, tf.scale, tf.heading_jitter) == (flip, scale, jitter)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    sample_transform(0.5, 0.8, 1.25, 0.0, rng_a)
    rng_b.random(), rng_b.uniform(0.8, 1.25)
    assert rng_a.random() == rng_b.random()


def test_window_accessors():
    sc = straight_scenario(heading=1.0)
    win = make_window(sc)
    assert win.frame == track_frame(sc.target, sc.history_len - 1)
    hist = win.history_in_frame()
    assert np.array_equal(hist, to_frame_xy(sc.target.xy[:20], win.frame))
    assert np.allclose(hist[-1], [0.0, 0.0], atol=1e-12)
    # heading aligned: previous step sits on the -x axis
    assert hist[-2][0] < 0 and abs(hist[-2][1]) < 1e-9


def test_identity_frame_is_noop():
    xy = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(to_frame_xy(xy, IDENTITY_FRAME), xy)
    assert np.array_equal(from_frame_xy(xy, IDENTITY_FRAME), xy)


# -- the JSON-array rule --------------------------------------------------------

def _nest(flat, shape):
    """flat as nested lists of the given shape."""
    if len(shape) == 1:
        return list(flat)
    n = math.prod(shape[1:])
    return [_nest(flat[i * n:(i + 1) * n], shape[1:]) for i in range(shape[0])]


def _nodes(value, path=()):
    """(path, value) of value and every list item under it, depth first."""
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _set(value, path, new):
    if not path:
        return new
    node = value
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] = new
    return value


@st.composite
def _json_arrays(draw):
    """A regular nested list of ints and floats, depth 1-4, and maybe one
    fault put in at a random place, with the message the rule gives."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    number = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                       st.floats(allow_nan=False, allow_infinity=False))
    size = math.prod(shape)
    value = _nest(draw(st.lists(number, min_size=size, max_size=size)), shape)
    nodes = list(_nodes(value))
    leaves = [path for path, node in nodes if not isinstance(node, list)]
    per_depth = Counter(len(path) for path, _ in nodes)
    crowded = [(path, node) for path, node in nodes if per_depth[len(path)] > 1]
    rows = [node for _, node in crowded if isinstance(node, list)]
    fault = draw(st.sampled_from([fault for fault, possible in [
        ("none", True), ("value", True), ("huge", leaves), ("non-finite", leaves),
        ("mixed", crowded), ("ragged", rows)] if possible]))
    if fault == "none":
        return value, None
    if fault == "value":
        bad = draw(st.sampled_from(["1.5", True, None, {"a": 1}]))
        path = draw(st.sampled_from([path for path, _ in nodes]))
        return _set(value, path, bad), f"v must hold only lists and JSON numbers, got {bad!r}"
    if fault == "huge":
        huge = draw(st.sampled_from([10 ** 400, -(10 ** 400)]))
        return _set(value, draw(st.sampled_from(leaves)), huge), \
            "v holds a number beyond float range"
    if fault == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return _set(value, draw(st.sampled_from(leaves)), bad), "v holds a non-finite value"
    if fault == "mixed":  # a number where its depth holds lists, or a list among numbers
        path, node = crowded[draw(st.integers(0, len(crowded) - 1))]
        return (_set(value, path, 0.5 if isinstance(node, list) else [node]),
                "v mixes lists and numbers at one depth")
    row = rows[draw(st.integers(0, len(rows) - 1))]
    lengths = [len(row), len(row) + 1]
    row.append(copy.deepcopy(row[0]) if row else 0.5)
    return value, f"v has rows of unequal lengths, got {lengths}"


@settings(max_examples=400, deadline=None)
@given(_json_arrays())
def test_json_array_reads_what_np_array_reads_and_names_a_fault(case):
    value, message = case
    if message is None:
        expected = np.array(value, dtype=np.float64)
        arr = json_array(value, "v")
        assert arr.dtype == np.float64 and arr.shape == expected.shape
        assert np.array_equal(arr, expected)
        return
    with pytest.raises(ValueError) as exc:
        json_array(value, "v")
    assert str(exc.value) == message


@pytest.mark.parametrize("value, message", [
    ([[10 ** 400, math.nan], ["x"]], "must hold only lists and JSON numbers, got 'x'"),
    ([[[None]], [0.0, True]], "must hold only lists and JSON numbers, got True"),
    ([[math.nan], [10 ** 400, 0.0]], "has rows of unequal lengths, got [1, 2]"),
    ([[0.0, [0.0]], [0.0, 0.0]], "mixes lists and numbers at one depth"),
    ([[0.0, 0.0], [0.0, 0.0, 0.0], 0.0], "mixes lists and numbers at one depth"),
    ([math.inf, 10 ** 400], "holds a number beyond float range"),
    (math.nan, "holds a non-finite value"),
], ids=["value before shape", "shallowest value first", "shape before range",
        "mixed below", "mixed before unequal", "range before finite", "scalar"])
def test_json_array_names_the_first_fault_in_its_order(value, message):
    with pytest.raises(ValueError, match=f"^v {re.escape(message)}$"):
        json_array(value, "v")


_FAULTY_POINTS = {
    "string": ([[0.0, 0.0], [0.0, "1.5"]], "must hold only lists and JSON numbers, got '1.5'"),
    "true": ([[0.0, True]], "must hold only lists and JSON numbers, got True"),
    "null": ([[None, 0.0]], "must hold only lists and JSON numbers, got None"),
    "huge integer": ([[10 ** 400, 0.0]], "holds a number beyond float range"),
    "NaN": ([[0.0, math.nan]], "holds a non-finite value"),
    "ragged": ([[0.0, 0.0], [0.0]], "has rows of unequal lengths, got [1, 2]"),
    "mixed depth": ([[0.1, 0.2], 0.3], "mixes lists and numbers at one depth"),
}


@pytest.mark.parametrize("fault", list(_FAULTY_POINTS))
def test_every_json_reader_gives_a_fault_one_wording(tmp_path, fault):
    """The same faulty points, as a checkpoint layer, as a dump record's
    trajectories and as a sidecar's polylines, get one message after each
    reader's own prefix."""
    points, tail = _FAULTY_POINTS[fault]
    ckpt = tmp_path / "model.json"
    cfg = ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=8)
    save_checkpoint(ckpt, init_params(cfg, seed=0), cfg, seed=0, epoch=0)
    payload = json.loads(ckpt.read_text())
    payload["params"]["enc.w1"] = points
    ckpt.write_text(json.dumps(payload))
    with pytest.raises(MalformedCheckpoint, match=f"^{re.escape(f'{ckpt}: layer ')}'enc.w1' "
                                                  f"{re.escape(tail)}$"):
        load_checkpoint(ckpt)

    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({"scenario_id": "s0", "trajectories": [points],
                                "scores": [1.0]}) + "\n")
    with pytest.raises(MalformedRecord, match=f"^{re.escape(f'{dump}: line 1 (s0): ')}"
                                              f"trajectories {re.escape(tail)}$"):
        load_prediction_dump(dump)

    csv = tmp_path / "scenario.csv"
    save_csv(straight_scenario(), csv)
    (tmp_path / "scenario.csv.map.json").write_text(json.dumps({"polylines": [points]}))
    with pytest.raises(MalformedRow, match=f"^{re.escape(f'{csv}.map.json: ')}"
                                           f"polylines {re.escape(tail)}$"):
        load_csv(csv)
