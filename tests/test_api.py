"""The public surface: what `trajcast` exports, the names removed from it,
and the README's library quick start run as written."""

import importlib
import inspect
import re
from pathlib import Path

import trajcast

README = Path(__file__).resolve().parent.parent / "README.md"

# object wrappers that restated an array kernel, by module; the kernels
# (_wta_targets, _huber_elem, target_losses, track_frame, to_frame_xy,
# from_frame_xy, ParamStore.zeros_like, EnsembleBank.pooled, pairwise_cost)
# are what callers use instead
REMOVED = {
    "losses": ("huber", "wta_target_loss", "_wta_arrays", "total_loss"),
    "core": ("Waypoint", "agent_frame", "to_frame", "from_frame"),
    "predictor": ("zero_params",),
    "ensemble": ("pool",),
    "metrics": ("ade", "fde"),
    "matching": ("_points",),
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


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "(10, 6, 30, 2) (10, 6)"
