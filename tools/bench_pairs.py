"""Alternating parent/change pairs of the benchmark, summarized per workload.

Runs `perfbench/run.py` in two checkouts, one pair of runs per seed, and
swaps which side runs first from one pair to the next, so drift in the host
falls on both sides alike. Writes one JSON file in the layout of the
committed `BENCH_*.json` files: every run, then per workload and end-to-end
metric each side's median and quartiles, the ratio of the medians, the
number of pairs the change won, and the two verdicts against the metric's
bound: whether the change regressed, and whether the parent's own spread is
too wide to tell. Given `--claimed-metric` and `--claimed-workload`, it
also says whether the pairs show that gain (`claimed.claim_met`, see
`claim_verdict`). Given `--trace-seed`, it then makes one `--trace 1` run
per side and workload on that seed, and reports each per-layer metric of
BENCHMARK.json on both sides (`layers`), to show where a saving sits.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload train-mpt-aug --workload train-desk --first-seed 14001 \\
        --trace-seed 14999 --out BENCH_14.json

Each run lasts the `run_seconds` of the change's BENCHMARK.json. Workload i
runs seeds first_seed + 100 * i + p for pairs p = 0..PAIRS-1.
The file is rewritten after every run, so an interrupted session keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def quartiles(values) -> dict:
    """Median and the inclusive-method quartiles (a single value is all three)."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: each metric's quartiles on both sides, the change's
    median over the parent's, in how many pairs (same workload and seed)
    the change was better or tied, whether it tied in every pair
    (`same_in_every_pair`: a quality metric that a change must not move),
    and two verdicts against the metric's bound; plus operations attempted
    and failed: each side's counts, its failed share (0 when it attempted
    none), and `share_rose`, whether the change's share exceeds the
    parent's, which a change must not do.

    `end_to_end` lists the metrics as BENCHMARK.json does: each has a name,
    "better" ("higher" or "lower") and a relative "bound". `regressed`: the
    change's median is worse than the parent's by more than bound times the
    parent's median. `unresolved`: the parent's (q3 - q1) exceeds bound
    times its median, and not every change run beats every parent run. Only
    seeds with a run on both sides count.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if set(p) == set(SIDES)]
        attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        share = {side: failed[side] / attempted[side] if attempted[side] else 0.0
                 for side in SIDES}
        entry = {"pairs": len(pairs), "ops_failed": {
            "attempted": attempted, **failed, "share": share,
            "share_rose": share["change"] > share["parent"]}}
        for spec in (end_to_end if pairs else ()):
            metric, direction, bound = spec["name"], spec["better"], spec["bound"]
            values = {side: [p[side]["metrics"][metric] for p in pairs] for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            moves = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            scale = bound * abs(parent["median"])
            beats_all = all(sign * (c - p) > 0 for c in values["change"]
                            for p in values["parent"])
            entry[metric] = {
                "better": direction, "bound": bound, "parent": parent, "change": change,
                "change_over_parent": (change["median"] / parent["median"]
                                       if parent["median"] else None),
                "change_better_in": sum(m > 0 for m in moves),
                "ties": sum(m == 0 for m in moves),
                "same_in_every_pair": values["parent"] == values["change"],
                "regressed": sign * (parent["median"] - change["median"]) > scale,
                "unresolved": parent["q3"] - parent["q1"] > scale and not beats_all,
            }
        summary[workload] = entry
    return summary


def claim_verdict(summary: dict, workload: str, metric: str) -> dict:
    """Whether the pairs show a claimed gain on `metric` in `workload`: at
    least PAIRS pairs, the change better in at least nine tenths of them
    (a tie counts for neither side), and the change's median better than
    the parent's by more than the parent's own spread, q3 - q1."""
    entry = summary.get(workload, {})
    stats = entry.get(metric)
    if stats is None:
        return {"claim_met": False, "pairs": entry.get("pairs", 0)}
    sign = 1.0 if stats["better"] == "higher" else -1.0
    gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    wins, pairs = stats["change_better_in"], entry["pairs"]
    return {"claim_met": pairs >= PAIRS and wins >= 0.9 * pairs and gap > spread,
            "pairs": entry["pairs"], "change_better_in": stats["change_better_in"],
            "median_gap": gap, "parent_spread": spread}


def layers(traced: dict, per_layer: list) -> dict:
    """Per workload, each per-layer metric of `per_layer` (BENCHMARK.json's
    list) as both sides' traced runs read it, {"parent": v, "change": v}; a
    side that did not report the metric reads None. `traced` holds each
    workload's traced metrics per side."""
    return {workload: {spec["name"]: {side: sides.get(side, {}).get(spec["name"])
                                      for side in SIDES}
                       for spec in per_layer}
            for workload, sides in traced.items()}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple:
    """One benchmark run: its record fields, and the environment it printed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    env = next((json.loads(line.split(":", 1)[1]) for line in out
                if line.startswith("environment:")), {})
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}, env


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claimed-metric", default=None)
    parser.add_argument("--claimed-workload", default=None)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="after the pairs, one traced run per side and workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = {w: [args.first_seed + 100 * i + p for p in range(PAIRS)]
             for i, w in enumerate(args.workload)}
    report = {
        "claimed": {"metric": args.claimed_metric, "workload": args.claimed_workload},
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "machine": {},
        "runs": [],
        "what": f"perfbench/run.py end-to-end results, parent against change on the same "
                f"seeds, {PAIRS} alternating pairs per workload: the side that runs "
                f"first alternates from pair to pair",
    }
    for p in range(PAIRS):
        for workload in args.workload:
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                seed = seeds[workload][p]
                record, env = _run(checkouts[side], workload, seed, seconds)
                report["machine"] = {"cpu": _cpu(), **{k: env.get(k) for k in (
                    "python", "numpy", "blas", "blas_threads", "nproc")}}
                report["runs"].append({**record, "ran_first": position == 0, "seed": seed,
                                       "side": side, "workload": workload})
                report["summary"] = summarize(report["runs"], spec["end_to_end"])
                if args.claimed_metric:
                    report["claimed"].update(claim_verdict(
                        report["summary"], args.claimed_workload, args.claimed_metric))
                _write(args.out, report)
                print(f"pair {p} {workload} seed {seed} {side}: "
                      f"{json.dumps(record['metrics'], sort_keys=True)}", flush=True)
    if args.trace_seed is not None:
        traced = {}
        report["trace_command"] = (f"python3 perfbench/run.py --workload <workload> "
                                   f"--seed {args.trace_seed} --seconds {seconds:g} --trace 1")
        for workload in args.workload:
            for side in SIDES:
                record, _ = _run(checkouts[side], workload, args.trace_seed, seconds, trace=1)
                traced.setdefault(workload, {})[side] = record["metrics"]
                report["layers"] = layers(traced, spec["per_layer"])
                _write(args.out, report)
                print(f"traced {workload} seed {args.trace_seed} {side}", flush=True)
    return 0


def _write(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
