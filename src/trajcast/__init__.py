"""trajcast: desk-scale multimodal trajectory prediction toolkit.

Two-stage prediction (goals -> completion -> refinement) trained with
winner-takes-all supervision, temporal and spatial consistency losses, and
optional pseudo targets clustered from a model ensemble. Pure numpy with
hand-written gradients; deterministic end to end.
"""

from .core import (AgentTrack, Frame, IDENTITY_FRAME, PredictionSet, Scenario, TargetSet,
                   Trajectory, TrajcastError, Window)
from .data import SyntheticSpec, generate, load_csv, make_shift_pair, make_window, save_csv
from .ensemble import EnsembleBank, build_target_set, kmeans_trajectories
from .harness import Adam, TrainConfig, evaluate, jitter_score, run_grid, train
from .losses import softmin_scores, temporal_consistency
from .matching import match, similarity
from .metrics import MetricReport, min_metrics, report
from .predictor import ModelConfig, ParamStore, backward, forward, init_params, predict

__version__ = "0.1.0"

__all__ = [
    "AgentTrack", "Frame", "IDENTITY_FRAME", "PredictionSet", "Scenario", "TargetSet",
    "Trajectory", "TrajcastError", "Window",
    "SyntheticSpec", "generate", "load_csv", "make_shift_pair", "make_window", "save_csv",
    "EnsembleBank", "build_target_set", "kmeans_trajectories",
    "Adam", "TrainConfig", "evaluate", "jitter_score", "run_grid", "train",
    "softmin_scores", "temporal_consistency",
    "match", "similarity",
    "MetricReport", "min_metrics", "report",
    "ModelConfig", "ParamStore", "backward", "forward", "init_params", "predict",
    "__version__",
]
