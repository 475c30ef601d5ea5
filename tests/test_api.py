"""The public surface: what `trajcast` exports, the names removed from it,
and the README's library quick start run as written."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import trajcast

README = Path(__file__).resolve().parent.parent / "README.md"

# object wrappers that restated an array kernel, by module; the kernels
# (_wta_targets, _huber, target_losses, track_frame, to_frame_xy,
# from_frame_xy, ParamStore.zeros_like, EnsembleBank.pooled, pairwise_cost)
# are what callers use instead; _huber gives the Huber value and gradient
# together. The augmentation settings live in TrainConfig alone, and
# sample_transform draws the heading jitter with the flip and scale.
# JSON numbers are read by one rule, core.json_array. A step record is built
# from one key tuple, harness.STEP_KEYS, and a window's encoder rows are laid
# out by one function, predictor.featurize. Every rotation is built by
# core.rotation_matrices, and a single Frame is the stack of one. A Window
# holds its one-window batch from the batch window builder, so no window is
# cut or laid out on its own, and its history is never empty.
REMOVED = {
    "losses": ("huber", "wta_target_loss", "_wta_arrays", "total_loss", "_huber_elem",
               "_huber_grad", "LossBreakdown", "make_breakdown"),
    "core": ("Waypoint", "agent_frame", "to_frame", "from_frame", "AugmentSpec",
             "IDENTITY_AUGMENT", "sample_heading_jitter", "json_number_pairs", "rotate_xy",
             "rotation_matrix"),
    "predictor": ("zero_params", "_layer_array", "encoder_rows", "EmptyHistory"),
    "ensemble": ("pool",),
    "metrics": ("ade", "fde"),
    "matching": ("_points",),
    "harness": ("SEED_ENV_VAR",),
    "data": ("_cut_window",),
}


def test_every_exported_name_resolves():
    assert len(set(trajcast.__all__)) == len(trajcast.__all__)
    for name in trajcast.__all__:
        assert getattr(trajcast, name) is not None, name


def test_removed_names_are_gone_from_the_package_and_the_readme():
    readme = README.read_text(encoding="utf-8")
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"trajcast.{module}")
        for name in names:
            assert not hasattr(mod, name), f"trajcast.{module}.{name}"
            assert name not in trajcast.__all__, name
            assert not re.search(rf"`[\w.]*\b{name}\b", readme), name
    assert not hasattr(trajcast.core.Trajectory, "waypoint")
    assert not hasattr(trajcast.core.SceneTransform, "apply_trajectory")
    assert not hasattr(trajcast.core.apply_transform, "register")   # one plain function
    assert "dt" not in inspect.signature(trajcast.ensemble.save_pseudo_targets).parameters
    assert not hasattr(trajcast.harness.TrainConfig, "augment_spec")
    # the layout of cached scenario rows is known to core and data alone, and
    # which JSON values are numbers to core alone
    assert not hasattr(trajcast.predictor, "ScenarioArrays")
    assert not hasattr(importlib.import_module("trajcast.cli"), "JSON_NUMBER_TYPES")
    assert not hasattr(trajcast.predictor.WindowBatch, "of")
    window_fields = {f.name for f in dataclasses.fields(trajcast.core.Window)}
    assert not window_fields & {"history_xy", "history_mask", "map_polylines"}


# parameters that every caller left at one value; each is now a constant
FIXED_PARAMETERS = {
    "data.make_window": ("heading_jitter",),
    "data.make_shift_pair": ("heading_jitter",),
    "core.track_frame": ("heading_jitter",),
    "harness.Adam": ("beta1", "beta2", "eps"),
    "ensemble.kmeans_trajectories": ("max_iter",),
    "ensemble.cluster_bank": ("max_iter",),
    "metrics.min_metrics": ("threshold",),
    "metrics.report": ("threshold",),
    "harness.branch_coverage": ("threshold",),
    "harness.jitter_score": ("criterion",),
    "data.load_manifest": ("strict",),
    "harness.train": ("initial_params",),
    "cli.render_line_chart": ("width", "height"),
}


@pytest.mark.parametrize("qualname", FIXED_PARAMETERS)
def test_fixed_parameters_are_gone(qualname):
    module, name = qualname.split(".")
    func = getattr(importlib.import_module(f"trajcast.{module}"), name)
    parameters = inspect.signature(func).parameters
    for param in FIXED_PARAMETERS[qualname]:
        assert param not in parameters, f"{qualname}({param})"


def test_load_manifest_always_names_a_split():
    split = inspect.signature(trajcast.data.load_manifest).parameters["split"]
    assert split.default is inspect.Parameter.empty


def test_backward_takes_only_the_upstream_slots_training_sets():
    """backward reads "refined", "completion", "offsets" and "probs"; a
    gradient under the removed goals, phi or raw_cls slot, or any other
    name, is refused rather than dropped."""
    cfg = trajcast.ModelConfig(n_modes=2, horizon=3, history_len=20, feature_dim=4)
    params = trajcast.init_params(cfg, seed=0)
    window = trajcast.make_window(trajcast.generate(trajcast.SyntheticSpec(scenario_count=1))[0])
    out, trace = trajcast.forward(params, cfg, window)
    rng = np.random.default_rng(0)
    upstream = {name: rng.normal(size=np.shape(out[name]))
                for name in ("refined", "completion", "offsets", "probs")}
    assert np.any(trajcast.backward(params, trace, upstream).flat != 0.0)
    for name in ("goals", "phi", "raw_cls", "refine"):
        with pytest.raises(ValueError, match=f"no upstream gradient for \\['{name}'\\]$"):
            trajcast.backward(params, trace, {**upstream, name: np.zeros_like(out["probs"])})


def test_the_timestep_is_stated_once():
    assert trajcast.data.DT is trajcast.core.DT
    for cls in (trajcast.core.Trajectory, trajcast.core.Window):
        assert "dt" not in {field.name for field in dataclasses.fields(cls)}


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "(10, 6, 30, 2) (10, 6)"
