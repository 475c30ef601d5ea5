"""Command-line entry points.

Subcommands cover the full workflow: generate a synthetic dataset, train,
evaluate, measure jitter, dump per-model predictions, cluster them into
pseudo targets, run an experiment grid, and render SVG charts from logs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data, ensemble, harness
from .core import TrajcastError, json_array, text_input


def _parse_mode_mix(text: str) -> dict:
    mix = {}
    for part in text.split(","):
        name, _, weight = part.partition("=")
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise ValueError(f"--mode-mix expects name=weight pairs, got {part!r}") from None
    return mix


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _need(flag: str, path):
    """path, unless it was given and does not exist: then refuse it, naming
    the flag."""
    if path is not None and not Path(path).exists():
        raise ValueError(f"{flag} {path}: no such file or directory")
    return path


def _load_split(args, split):
    """One split of the dataset --data names: a manifest, or a directory
    holding one. A scenario file that cannot be loaded, or a split that
    lists no scenario, stops the command."""
    path = Path(_need("--data", args.data))
    manifest = _need("--data", path / "manifest.json") if path.is_dir() else path
    scenarios = data.load_manifest(manifest, split=split)
    if not scenarios:
        raise ValueError(f"split {split!r} of {manifest} has no scenarios")
    return scenarios


def cmd_generate(args) -> int:
    mix = _parse_mode_mix(args.mode_mix) if args.mode_mix else {m: 0.2 for m in data.MODES}
    try:
        branch_probs = tuple(float(p) for p in args.branch_probs.split(","))
    except ValueError:
        raise ValueError(f"--branch-probs expects numbers, got {args.branch_probs!r}") from None
    spec = data.SyntheticSpec(scenario_count=args.count, mode_mix=mix,
                              speed_range=(args.speed_lo, args.speed_hi),
                              noise_sigma=args.noise, seed=args.seed,
                              branch_probs=branch_probs)
    scenarios = data.generate(spec)
    manifest = data.save_dataset(scenarios, args.out, val_fraction=args.val_fraction)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    config = harness.make_config(_parse_overrides(args.set),
                                 config_path=_need("--config", args.config))
    _need("--pseudo-targets", args.pseudo_targets)
    scenarios = _load_split(args, args.split)
    pseudo = ensemble.load_pseudo_targets(args.pseudo_targets) if args.pseudo_targets else None
    _, _, records = harness.train(config, scenarios, pseudo_targets=pseudo,
                                  log_path=args.log, checkpoint_path=args.out)
    if records:
        print(json.dumps({"checkpoint": str(args.out), "steps": len(records),
                          "final_total": records[-1]["total"]}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    _need("--checkpoint", args.checkpoint)
    scenarios = _load_split(args, args.split)
    rep = harness.evaluate_checkpoint(args.checkpoint, scenarios, dump_path=args.dump)
    text = rep.to_json()
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_jitter(args) -> int:
    _need("--checkpoint", args.checkpoint)
    scenarios = _load_split(args, args.split)
    score = harness.jitter_checkpoint(args.checkpoint, scenarios, args.s)
    print(json.dumps({"jitter": score, "s": args.s}, sort_keys=True))
    return 0


def cmd_ensemble_dump(args) -> int:
    _need("--checkpoint", args.checkpoint)
    scenarios = _load_split(args, args.split)
    harness.dump_checkpoint(args.checkpoint, scenarios, args.out)
    print(args.out)
    return 0


def cmd_cluster(args) -> int:
    if args.seed < 0:
        raise ValueError(f"need seed >= 0, got seed={args.seed}")
    tagged = []
    for item in args.dump:
        tag, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"--dump expects tag=path, got {item!r}")
        tagged.append((tag, _need("--dump", path)))
    bank = ensemble.bank_from_dumps(tagged)
    results = ensemble.cluster_bank(bank, args.j, seed=args.seed)
    ensemble.save_pseudo_targets(args.out, results)
    print(args.out)
    return 0


def cmd_grid(args) -> int:
    grid = {"base": _parse_overrides(args.set), "rows": harness.table2_rows()}
    harness.grid_configs(grid)
    _need("--pseudo-targets", args.pseudo_targets)
    train_scenarios = _load_split(args, args.train_split)
    eval_scenarios = _load_split(args, args.eval_split)
    pseudo = ensemble.load_pseudo_targets(args.pseudo_targets) if args.pseudo_targets else None
    rows = harness.run_grid(grid, train_scenarios, eval_scenarios,
                            pseudo_targets=pseudo, out_csv=args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# SVG report

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
CHART_WIDTH, CHART_HEIGHT = 720, 360  # pixels


def render_line_chart(series: dict, title: str) -> str:
    """Minimal SVG line chart; series maps label -> list of y values."""
    width, height, margin = CHART_WIDTH, CHART_HEIGHT, 50.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    ys = [y for values in series.values() for y in values]
    if not ys:
        raise ValueError("nothing to plot")
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    n = max(len(v) for v in series.values())

    def sx(i):
        return margin + (plot_w * i / max(n - 1, 1))

    def sy(y):
        return margin + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{margin + plot_h}" stroke="#333"/>',
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" y2="{margin + plot_h}" stroke="#333"/>',
        f'<text x="{margin - 6}" y="{sy(y_hi) + 4}" text-anchor="end" font-size="11">{y_hi:.4g}</text>',
        f'<text x="{margin - 6}" y="{sy(y_lo) + 4}" text-anchor="end" font-size="11">{y_lo:.4g}</text>',
        f'<text x="{margin + plot_w}" y="{margin + plot_h + 16}" text-anchor="end" font-size="11">{n - 1}</text>',
    ]
    for idx, (label, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(i):.1f},{sy(y):.1f}" for i, y in enumerate(values))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{margin + 8}" y="{margin + 16 + 14 * idx}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _log_series(path) -> dict:
    """The loss keys of a training log (`harness.LOSS_KEYS`), key -> one
    value per record. Each non-blank line must be a JSON object holding a
    number under every loss key, read by the JSON-array rule
    (`core.json_array`), so a non-finite value is refused; else ValueError
    naming the file and line."""
    series = {key: [] for key in harness.LOSS_KEYS}
    with text_input(path) as fh:
        lines = fh.read().splitlines()
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {n}: not JSON: {exc.msg} "
                             f"(column {exc.colno})") from None
        try:
            for key, values in series.items():
                values.append(_log_number(record, key))
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: not a training log record: {exc}") from None
    if not series["total"]:
        raise ValueError(f"no records in {path}")
    return series


def _log_number(record, key: str) -> float:
    """The number under `key` of a parsed log line, by `core.json_array`;
    else ValueError saying what is wrong."""
    if type(record) is not dict or key not in record:
        raise ValueError(f"no number under {key!r}")
    value = json_array(record[key], repr(key))
    if value.ndim:
        raise ValueError(f"no number under {key!r}")
    return float(value)


def cmd_report(args) -> int:
    _need("--log", args.log)
    series = _log_series(args.log)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_line_chart(series, "training loss per step"), encoding="utf-8")
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajcast",
                                     description="desk-scale trajectory prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic CSV dataset + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--speed-lo", type=float, default=5.0)
    p.add_argument("--speed-hi", type=float, default=15.0)
    p.add_argument("--mode-mix", default=None,
                   help='e.g. "junction=1.0" or "straight=0.5,turn-left=0.5"')
    p.add_argument("--branch-probs", default="0.3333333333333333,0.3333333333333333,0.3333333333333334")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="manifest path or dataset dir")
    p.add_argument("--split", default="train")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="JSON-lines training log")
    p.add_argument("--pseudo-targets", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--report", default=None, help="write the JSON report here too")
    p.add_argument("--dump", default=None, help="JSON-lines prediction dump")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("jitter", help="temporal jitter score for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--s", type=int, default=1)
    p.set_defaults(func=cmd_jitter)

    p = sub.add_parser("ensemble-dump", help="dump one model's predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble_dump)

    p = sub.add_parser("cluster", help="build pseudo targets from dumps")
    p.add_argument("--dump", action="append", required=True, metavar="TAG=PATH")
    p.add_argument("--j", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("grid", help="train/evaluate a grid of configs")
    p.add_argument("--data", required=True)
    p.add_argument("--preset", required=True, choices=("table2",))
    p.add_argument("--train-split", default="train")
    p.add_argument("--eval-split", default="val")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="base config overrides")
    p.add_argument("--pseudo-targets", default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("report", help="render SVG charts from a training log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrajcastError, ValueError) as exc:  # input errors name what is at fault
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
