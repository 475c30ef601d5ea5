"""trajcast benchmark: training and inference throughput, and per-layer costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics untraced; --trace 1 runs a fixed
amount of the workload untraced, traced and untraced again, and reports each
layer's self time and call counts plus the tracing overhead. --smoke shrinks every
size to a few scenarios. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Work files, the full result
and the spans of a traced run go under .perfbench/ in the checkout.
"""

import os

# one BLAS thread, set before numpy loads: the default pool is slower and
# noisier on the small matrices this library multiplies
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-desk", "train-mpt-aug", "infer-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few scenarios per workload, to test the harness")
    args = parser.parse_args(argv)

    if not (SRC / "trajcast" / "__init__.py").is_file():
        print(f"perfbench: no trajcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import trajcast
    import tracer as tracing
    import workloads as wls

    if Path(trajcast.__file__).resolve().parent != SRC / "trajcast":
        print(f"perfbench: imported trajcast from {trajcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    sizes = wls.SMOKE if args.smoke else wls.FULL
    ledger = wls.Ledger()
    wl = wls.WORKLOADS[args.workload](args.seed, sizes, ledger)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "work" / tag
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    wall = {}
    try:
        if args.trace:
            tracer = tracing.Tracer(run_id=tag)
            metrics = wls.trace(wl, tracer, work)
            tracer.write(results / f"{tag}.spans.jsonl")
            units = tracing.per_layer_units()
        else:
            metrics = wls.measure(wl, args.seconds, work)
            units = wls.END_TO_END
            wall = {name: statistics.median(wl.samples[wls.WALL + name])
                    for name in wls.TIMED}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = ledger.failed / ledger.attempted
    env = _environment(np)
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "environment": env, "attempted": ledger.attempted,
            "failed": ledger.failed, "ops_failed_frac": failed_frac,
            "errors": ledger.errors, "metrics": metrics, "wall_metrics": wall,
            "samples": dict(wl.samples)}
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")

    _print_table(f"perfbench {tag}{' (smoke)' if args.smoke else ''}", metrics, units)
    if wall:
        _print_table("wall-clock medians, uncorrected for CPU speed", wall, units)
    print(f"  {'ops_failed_frac':<44} {failed_frac:>14.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for error in ledger.errors:
        print(f"  failed: {error}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
