"""Shared hand-built fixtures.

Scenarios here are constructed directly from arrays (not via the synthetic
generator) so the core/metric/matching tests do not depend on the data
module being correct.
"""

import numpy as np
import pytest

from trajcast.core import AgentTrack, PredictionSet, Scenario, Trajectory

DT = 0.1


def straight_track(track_id="agent-0", object_type="agent", speed=10.0,
                   heading=0.0, start=(0.0, 0.0), frames=50):
    """Constant-velocity track; 1 m per frame at the default speed."""
    t = np.arange(frames)[:, None]
    step = speed * DT * np.array([np.cos(heading), np.sin(heading)])
    xy = np.asarray(start, dtype=float) + t * step
    return AgentTrack(track_id=track_id, object_type=object_type, xy=xy,
                      present=np.ones(frames, dtype=bool))


def straight_scenario(speed=10.0, heading=0.0, start=(0.0, 0.0),
                      history_len=20, future_len=30, with_map=True):
    frames = history_len + future_len
    agent = straight_track(speed=speed, heading=heading, start=start, frames=frames)
    maps = (Trajectory(points=agent.xy),) if with_map else ()
    return Scenario(scenario_id="straight-test", agents=(agent,),
                    map_polylines=maps, target_track_id="agent-0",
                    history_len=history_len, future_len=future_len)


def line_trajectory(start, step, n):
    t = np.arange(n)[:, None]
    return Trajectory(points=np.asarray(start, dtype=float) + t * np.asarray(step, dtype=float))


def prediction_set(points_list, scores=None):
    trajs = tuple(Trajectory(points=np.asarray(p, dtype=float)) for p in points_list)
    if scores is None:
        scores = np.full(len(trajs), 1.0 / len(trajs))
    return PredictionSet(trajectories=trajs, scores=np.asarray(scores, dtype=float))


@pytest.fixture
def tiny_scenario():
    return straight_scenario()
