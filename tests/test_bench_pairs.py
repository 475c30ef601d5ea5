"""The summary arithmetic of tools/bench_pairs.py: quartiles, ratios, pair
counts and the verdicts against each metric's bound, from hand-made runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(workload, seed, side, rate, loss, attempted=10, failed=0):
    return {"workload": workload, "seed": seed, "side": side, "ran_first": True,
            "attempted": attempted, "failed": failed,
            "metrics": {"rate": rate, "loss": loss}}


def _metrics(**better_and_bound):
    """BENCHMARK.json's end_to_end list: name=(better, bound)."""
    return [{"name": name, "better": better, "bound": bound}
            for name, (better, bound) in better_and_bound.items()]


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 4.0, 8.0]) == \
        {"median": 3.0, "q1": 1.75, "q3": 5.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_counts_pairs_by_direction_and_skips_unpaired_seeds():
    parent_rates, change_rates = [100.0, 110.0, 120.0, 130.0], [120.0, 110.0, 150.0, 125.0]
    parent_loss, change_loss = [2.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 4.0]
    runs = []
    for seed, (pr, cr, pl, cl) in enumerate(zip(parent_rates, change_rates,
                                                parent_loss, change_loss)):
        runs += [_run("w", seed, "parent", pr, pl, failed=int(seed == 0)),
                 _run("w", seed, "change", cr, cl, attempted=11)]
    runs.append(_run("w", 99, "parent", 1.0, 1.0))           # no change run: not a pair
    runs += [_run("v", 5, "change", 2.0, 1.0), _run("v", 5, "parent", 1.0, 1.0)]

    summary = bench_pairs.summarize(runs, _metrics(rate=("higher", 0.25), loss=("lower", 0.2)))
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["pairs"] == 4
    assert w["ops_failed"] == {"attempted": {"parent": 40, "change": 44},
                               "parent": 1, "change": 0}
    rate = w["rate"]
    assert rate["better"] == "higher"
    assert rate["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert rate["change"] == {"median": 122.5, "q1": 117.5, "q3": 131.25}
    assert rate["change_over_parent"] == pytest.approx(122.5 / 115.0, rel=1e-15)
    assert (rate["change_better_in"], rate["ties"]) == (2, 1)
    loss = w["loss"]
    assert loss["better"] == "lower"
    assert (loss["change_better_in"], loss["ties"]) == (2, 2)
    assert loss["change_over_parent"] == pytest.approx(2.5 / 2.5, rel=1e-15)
    v = summary["v"]
    assert v["pairs"] == 1 and v["rate"]["change_better_in"] == 1
    assert v["loss"]["ties"] == 1


def test_summary_of_a_workload_without_a_whole_pair_has_no_metrics():
    summary = bench_pairs.summarize([_run("w", 1, "parent", 1.0, 1.0)],
                                    _metrics(rate=("higher", 0.25)))
    assert summary == {"w": {"pairs": 0, "ops_failed": {
        "attempted": {"parent": 0, "change": 0}, "parent": 0, "change": 0}}}


@pytest.mark.parametrize("parent, change, better, regressed, unresolved", [
    # the median 13% lower against a 10% bound; no parent spread
    ([100.0] * 4, [85.0, 86.0, 88.0, 90.0], "higher", True, False),
    # the median 5% lower: inside the bound
    ([100.0] * 4, [94.0, 95.0, 95.0, 96.0], "higher", False, False),
    # the parent's quartiles 1.375-2.125 around 1.75: a 43% spread
    ([1.0, 1.5, 2.0, 2.5], [1.0, 1.5, 2.0, 2.5], "lower", False, True),
    # ... resolved when every change run beats every parent run
    ([1.0, 1.5, 2.0, 2.5], [0.9, 0.95, 0.98, 0.99], "lower", False, False),
    # a tie with the parent's best run is not a win
    ([1.0, 1.5, 2.0, 2.5], [0.9, 0.95, 0.98, 1.0], "lower", False, True),
    # worse beyond the bound and too spread to tell
    ([1.0, 1.5, 2.0, 2.5], [3.0, 3.0, 3.0, 3.0], "lower", True, True),
])
def test_summary_gives_the_verdicts_against_the_bound(parent, change, better, regressed,
                                                      unresolved):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("w", seed, "parent", p, 0.0), _run("w", seed, "change", c, 0.0)]
    rate = bench_pairs.summarize(runs, _metrics(rate=(better, 0.1)))["w"]["rate"]
    assert rate["bound"] == 0.1
    assert (rate["regressed"], rate["unresolved"]) == (regressed, unresolved)


def test_summary_says_whether_both_sides_read_the_same_in_every_pair():
    runs = []
    for seed, (rate, loss) in enumerate([(100.0, 2.0), (90.0, 3.0), (95.0, 2.5)]):
        runs += [_run("w", seed, "parent", rate, loss),
                 _run("w", seed, "change", rate + (seed == 2), loss)]
    runs.append(_run("w", 9, "change", 1.0, 7.0))           # unpaired: not compared
    summary = bench_pairs.summarize(runs, _metrics(rate=("higher", 0.1), loss=("lower", 0.1)))
    assert summary["w"]["loss"]["same_in_every_pair"] is True
    assert summary["w"]["rate"]["same_in_every_pair"] is False
    assert summary["w"]["rate"]["ties"] == 2


@pytest.mark.parametrize("parent, change, met", [
    # 10 of 10 pairs won, and the medians 10 apart against a parent spread of 4.5
    ([100.0 + i for i in range(10)], [110.0 + i for i in range(10)], True),
    # the same gap, but one pair tied and one lost: 8 of 10
    ([100.0 + i for i in range(10)], [110.0 + i for i in range(8)] + [108.0, 100.0], False),
    # 9 of 10 won (one tie), but +4.1% (3652 to 3803) is a gap of 151 inside
    # the parent's quartiles, 3570-3765
    ([3450.0, 3500.0, 3560.0, 3600.0, 3650.0, 3654.0, 3720.0, 3780.0, 3850.0, 3900.0],
     [3700.0, 3720.0, 3750.0, 3790.0, 3800.0, 3806.0, 3850.0, 3900.0, 3920.0, 3900.0], False),
    # 9 of 10 won, well clear of the spread
    ([100.0] * 10, [120.0] * 9 + [100.0], True),
    # only 9 pairs: too few to claim anything
    ([100.0] * 9, [120.0] * 9, False),
])
def test_claim_verdict_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parents_spread(
        parent, change, met):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("w", seed, "parent", p, 0.0), _run("w", seed, "change", c, 0.0)]
    summary = bench_pairs.summarize(runs, _metrics(rate=("higher", 0.25), loss=("lower", 0.2)))
    verdict = bench_pairs.claim_verdict(summary, "w", "rate")
    assert verdict["claim_met"] is met
    assert verdict["pairs"] == len(parent)
    assert bench_pairs.claim_verdict(summary, "other", "rate") == {"claim_met": False, "pairs": 0}


def test_claim_verdict_on_a_lower_is_better_metric():
    runs = []
    for seed in range(10):
        runs += [_run("w", seed, "parent", 0.0, 2.0 + seed / 100),
                 _run("w", seed, "change", 0.0, 1.5 + seed / 100)]
    summary = bench_pairs.summarize(runs, _metrics(loss=("lower", 0.2)))
    verdict = bench_pairs.claim_verdict(summary, "w", "loss")
    assert verdict["claim_met"] is True and verdict["change_better_in"] == 10
    assert verdict["median_gap"] == pytest.approx(0.5)


def test_trace_seed_adds_one_traced_run_per_side_and_a_layers_block(tmp_path, monkeypatch):
    """With --trace-seed, the pairs come first; then each workload gets one
    --trace 1 run per side on that seed, and `layers` holds every per-layer
    metric of BENCHMARK.json on both sides (None where a side lacks it)."""
    spec = {"run_seconds": 5, "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25}],
            "per_layer": [{"name": "m.similarity.calls"}, {"name": "m.gone.calls"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout.name == "parent" else "change"
        calls.append((workload, seed, side, trace))
        metrics = ({"m.similarity.calls": 256.0 if side == "parent" else 4.0}
                   if trace else {"rate": 1.0})
        if trace and side == "parent":
            metrics["m.gone.calls"] = 1.0
        return {"attempted": 1, "failed": 0, "metrics": metrics}, {}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    (tmp_path / "parent").mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
                             "--workload", "a", "--workload", "b", "--first-seed", "10",
                             "--trace-seed", "99", "--out", str(out)]) == 0
    assert [c for c in calls if c[3] == 0] == [
        ("a", 10, "parent", 0), ("a", 10, "change", 0), ("b", 110, "parent", 0),
        ("b", 110, "change", 0), ("a", 11, "change", 0), ("a", 11, "parent", 0),
        ("b", 111, "change", 0), ("b", 111, "parent", 0)]
    assert calls[8:] == [("a", 99, "parent", 1), ("a", 99, "change", 1),
                         ("b", 99, "parent", 1), ("b", 99, "change", 1)]
    report = json.loads(out.read_text())
    assert report["layers"] == {w: {"m.similarity.calls": {"parent": 256.0, "change": 4.0},
                                    "m.gone.calls": {"parent": 1.0, "change": None}}
                                for w in ("a", "b")}
    assert report["trace_command"].endswith("--seed 99 --seconds 5 --trace 1")
    assert report["summary"]["a"]["pairs"] == 2
