"""Tests of the benchmark harness itself; run with `python -m pytest perfbench`.

The smoke runs go through the real command line at tiny sizes, so a change
to the library's interfaces that breaks the benchmark fails here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads as wls  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wls.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        # every layer function is reached on every workload, so no self time reads 0
        times = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".self_ms")}
        assert all(v > 0 for v in times.values()), times


def test_benchmark_json_matches_the_code():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == wls.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.per_layer_units()
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(wls.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert max(BENCHMARK["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train-desk", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    t = tracing.Tracer("unit")
    # parent 0..100 with children 10..30 and 40..50; grandchild 12..20
    t.spans[:] = [["a.outer", 0, 100, -1], ["b.inner", 10, 30, 0],
                  ["c.leaf", 12, 20, 1], ["b.inner", 40, 50, 0]]
    assert t.layer_totals() == {"a.outer": [70, 1], "b.inner": [22, 2], "c.leaf": [8, 1]}


def test_install_wraps_callers_and_uninstall_restores():
    from trajcast import harness, predictor
    before = (harness.forward, predictor.featurize, harness.Adam.step)
    t = tracing.Tracer("unit")
    t.install()
    try:
        assert harness.forward is not before[0]
        assert harness.forward.__wrapped__ is before[0]
        assert predictor.forward is harness.forward
        assert predictor.featurize is not before[1]
    finally:
        t.uninstall()
    assert (harness.forward, predictor.featurize, harness.Adam.step) == before


def test_ledger_counts_failures_and_changed_outputs(tmp_path):
    ledger = wls.Ledger()
    out = tmp_path / "out.txt"
    out.write_text("a")
    assert ledger.run("first", ledger.same_as_first, "key", out) is None
    out.write_text("b")
    ledger.run("second", ledger.same_as_first, "key", out)
    ledger.run("third", lambda: 1 / 0)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert "differs" in ledger.errors[0] and "ZeroDivisionError" in ledger.errors[1]


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_clock_discounts_cpu_speed(monkeypatch, slowdown):
    import time
    # the kernel takes `slowdown` times its reference time, as on a slowed CPU
    monkeypatch.setattr(wls, "_reference_work",
                        lambda: time.sleep(wls.REF_SECONDS * slowdown))
    result, seconds, wall = wls.Clock().time(lambda x: time.sleep(0.1) or x, 5)
    assert result == 5 and wall >= 0.1
    assert seconds == pytest.approx(wall / slowdown, rel=0.2)
