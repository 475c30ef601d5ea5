"""The three benchmark workloads, their set-up, and the checks on every output.

Each workload is a closed loop: one process calls the library back to back.
Inputs come from ``data.generate`` with the run's seed. The training
workloads alternate their training repetitions with the self-ensembling
command chain (evaluate, ensemble-dump and jitter per member, cluster), run
in-process through ``trajcast.cli.main``, so every workload reports every
end-to-end metric. ``infer-pipeline`` loops on the chain alone and takes its
training figures from the members its set-up trains.

On a shared CPU the speed of identical work drifts over seconds, so every
kind of sample is spread over the whole run: the loop alternates its
operations, the repeated set-ups are spaced out across the measured window,
and each chain pass reads one of CHUNKS equal chunks of the chain's scenarios
in turn, which gives many short samples. The drift reaches a factor of two
over tens of seconds, more than a median over one run can absorb, so every
timed sample is also corrected for the CPU speed at the time it ran (see
``Clock``). The quality metrics are means over
the chunks, so they equal one pass over all the scenarios.

A failed or mismatched operation is counted, never fatal: the run goes on and
``ops_failed_frac`` reports the share.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trajcast import cli, data, ensemble, harness

JUNCTION_MIX = {m: float(m == "junction") for m in data.MODES}
FIVE_MODE_MIX = {m: 0.2 for m in data.MODES}
# the acceptance gate's desk config: K=6, C=32, batch 32, s=1, both consistency losses
DESK = {"k": 6, "j": 6, "feature_dim": 32, "batch_size": 32, "lr": 3e-3,
        "lr_decay_every": 30, "s": 1}
STUDENT = {**DESK, "use_temp": False, "use_spatial": False, "use_mpt": True,
           "aug_flip": 0.5, "aug_scale_lo": 0.8, "aug_scale_hi": 1.25,
           "heading_jitter_deg": 5.0}
MEMBER_SEEDS = (7, 8)
CLUSTER_J = 6
CHUNKS = 3
# deterministic outputs of a chain pass; reported as means over the chunks
QUALITY = ("train.heldout_minFDE_6", "infer.minFDE_6", "infer.jitter_m")

# name -> unit; every run prints all of them
END_TO_END = {
    "setup_s": "s",
    "train.scen_steps_per_s": "1/s",
    "train.final_loss": "1",
    "train.heldout_minFDE_6": "m",
    "evaluate.scen_per_s": "1/s",
    "jitter.scen_per_s": "1/s",
    "cluster.scen_per_s": "1/s",
    "infer.minFDE_6": "m",
    "infer.jitter_m": "m",
    "peak_rss_mb": "MB",
}
# the timed metrics, in reference seconds; their wall-clock samples are kept
# under this prefix for the result file
TIMED = ("setup_s", "train.scen_steps_per_s", "evaluate.scen_per_s",
         "jitter.scen_per_s", "cluster.scen_per_s")
WALL = "wall."


# The reference kernel that gauges CPU speed: fixed work that never touches
# trajcast, mixing small numpy calls with plain python as the library does.
REF_ITERS = 130
# runs per gauge; their median discards a run that an interrupt slowed
REF_RUNS = 3
# the kernel's time at the reference speed, the median on a 2-vCPU shared
# x86-64 host
REF_SECONDS = 0.0055
# untimed runs of the kernel before its first timed one: the first runs in a
# process are slower
REF_WARMUP = 3


def _reference_work() -> float:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((32, 32)) * 0.1
    x = rng.standard_normal((96, 32))
    acc = 0.0
    for _ in range(REF_ITERS):
        h = np.tanh(x @ w)
        acc += float(np.linalg.norm(h[:, :2] - h[:1, :2], axis=1).min())
    rows = json.loads(json.dumps([[round(v, 6) for v in row] for row in x[:24].tolist()]))
    return acc + sum(map(sum, rows))


class Clock:
    """Times operations in reference seconds, which discount CPU speed drift.

    Each timed operation is bracketed by two gauges, each the median time of
    REF_RUNS runs of the reference kernel, and its wall time is scaled by
    REF_SECONDS over their mean: the result is the time the operation would
    have taken at the speed where the kernel takes REF_SECONDS. Every
    operation starts on a collected heap, as a command does in a fresh
    process, so where the garbage collector's passes fall does not depend on
    what ran before. The kernel runs with the collector paused and is warmed
    up before its first gauge. An operation timed inside another is scaled by
    the outer one's first gauge.
    """

    def __init__(self):
        self._before = None  # the outermost operation's first gauge, in seconds
        self._depth = 0
        self.total = 0.0  # reference seconds of every outermost operation so far

    def _gauge(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(REF_RUNS):
                start = time.perf_counter()
                _reference_work()
                runs.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(runs)

    def time(self, fn, *args) -> tuple:
        """(result, reference seconds, wall seconds) of fn(*args)."""
        if self._depth:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
            return result, wall * REF_SECONDS / self._before, wall
        if self._before is None:
            for _ in range(REF_WARMUP):
                _reference_work()
        gc.collect()
        before = self._before = self._gauge()
        self._depth += 1
        try:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
        finally:
            self._depth -= 1
        seconds = wall * 2 * REF_SECONDS / (before + self._gauge())
        self.total += seconds
        return result, seconds, wall


CLOCK = Clock()


class Mismatch(Exception):
    """An output differs from what its check expects."""


@dataclass(frozen=True)
class Sizes:
    n_train: int          # scenarios each training run sees
    n_chain: int          # scenarios the command chain reads, CHUNKS equal chunks
    epochs: int           # epochs of one timed training repetition
    member_epochs: int    # epochs of each member trained in set-up
    alloc_scenarios: int  # scenarios trained under tracemalloc


FULL = Sizes(n_train=256, n_chain=768, epochs=4, member_epochs=2, alloc_scenarios=128)
SMOKE = Sizes(n_train=8, n_chain=6, epochs=1, member_epochs=1, alloc_scenarios=8)
# training repetitions 0 and 1, then the first chain pass, which needs both
TRACE_OPS = 3


class Ledger:
    """Operations attempted and failed, plus the first digest of each output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digests = {}

    def run(self, what: str, fn, *args):
        """fn(*args), counted; an exception counts as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark keeps running past a failed operation
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def same_as_first(self, key: str, *paths) -> None:
        """Raise Mismatch unless the files hash as they did the first time."""
        h = hashlib.sha256()
        for path in paths:
            h.update(Path(path).read_bytes())
        first = self._digests.setdefault(key, h.hexdigest())
        if h.hexdigest() != first:
            raise Mismatch(f"{key} differs from the first repetition")


def _scenarios(seed: int, count: int, mix: dict) -> list:
    spec = data.SyntheticSpec(scenario_count=count, mode_mix=mix, noise_sigma=0.05, seed=seed)
    return data.generate(spec)


def _dataset_files(manifests: list) -> list:
    return [f for manifest in manifests for f in sorted(manifest.parent.iterdir())]


@dataclass
class TrainRun:
    rate: float           # scenario-steps per reference second
    wall_rate: float      # scenario-steps per wall-clock second
    final_loss: float     # mean total loss over the last epoch
    log: Path
    checkpoint: Path
    params: object
    model_cfg: object


def _train(overrides: dict, scenarios: list, out: Path, pseudo=None) -> TrainRun:
    """One harness.train call writing its log and checkpoint; checks the records."""
    config = harness.TrainConfig(**overrides)
    log, ckpt = out.with_suffix(".log"), out.with_suffix(".json")
    (params, model_cfg, records), seconds, wall = CLOCK.time(
        harness.train, config, scenarios, pseudo, log, ckpt)
    totals = defaultdict(list)
    for rec in records:
        if not all(math.isfinite(v) for v in rec.values()):
            raise Mismatch(f"non-finite loss record {rec}")
        totals[rec["epoch"]].append(rec["total"])
    final = float(np.mean(totals[config.epochs - 1]))
    if config.epochs > 1 and not final < np.mean(totals[0]):
        raise Mismatch(f"loss did not fall: epoch 0 {np.mean(totals[0])}, last {final}")
    steps = config.epochs * len(scenarios)
    return TrainRun(steps / seconds, steps / wall, final, log, ckpt, params, model_cfg)


def _cli(argv: list) -> tuple:
    """(reference seconds, wall seconds, printed text) of one trajcast command
    run in-process."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code, seconds, wall = CLOCK.time(cli.main, argv)
    if code != 0:
        raise Mismatch(f"trajcast {argv[0]} returned {code}")
    return seconds, wall, printed.getvalue()


def _min_fde(trajs: np.ndarray, scores: np.ndarray, gt: np.ndarray, k: int) -> float:
    """Best final displacement among the k highest scores (ties: lower index)."""
    chosen = np.argsort(-scores, kind="stable")[:k]
    return float(np.linalg.norm(trajs[chosen, -1] - gt[-1], axis=1).min())


def _records(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def run_chain(ckpts: list, manifest: Path, gt: dict, out: Path, ledger: Ledger,
              samples: dict) -> dict:
    """evaluate, ensemble-dump and jitter per member, then cluster, on the val split.

    Appends the rates to `samples` and returns the QUALITY values. Checks the
    report against minFDE recomputed from the dump, the jitter scores for
    finiteness, the pseudo targets for shape and normalised confidences, and
    every output file against the first pass over the same scenarios.
    """
    out.mkdir(parents=True, exist_ok=True)
    n = len(gt)
    source = ["--data", str(manifest), "--split", "val"]
    report = out / "report.json"
    dumps = [out / f"dump{i}.jsonl" for i in range(len(ckpts))]
    pseudo = out / "pseudo.jsonl"

    # [reference seconds, wall seconds] per command kind
    t_eval = np.array(_cli(["evaluate", "--checkpoint", str(ckpts[0]), *source,
                            "--report", str(report)])[:2])
    for ckpt, dump in zip(ckpts, dumps):
        t_eval += _cli(["ensemble-dump", "--checkpoint", str(ckpt), *source,
                        "--out", str(dump)])[:2]
    t_jitter, jitters = np.zeros(2), []
    for ckpt in ckpts:
        *seconds, printed = _cli(["jitter", "--checkpoint", str(ckpt), *source, "--s", "1"])
        t_jitter += seconds
        jitters.append(json.loads(printed)["jitter"])
    tagged = [arg for i, dump in enumerate(dumps) for arg in ("--dump", f"m{i}={dump}")]
    t_cluster = np.array(_cli(["cluster", *tagged, "--j", str(CLUSTER_J), "--seed", "0",
                               "--out", str(pseudo)])[:2])

    rep = json.loads(report.read_text(encoding="utf-8"))
    preds = {r["scenario_id"]: r for r in _records(dumps[0])}
    if rep["n_scenarios"] != n or sorted(preds) != sorted(gt):
        raise Mismatch("report or dump does not cover the val split")
    # gt holds full-precision points; the commands read the 9-digit CSV copy
    for key, k in (("minFDE_1", 1), ("minFDE_6", 6)):
        oracle = np.mean([_min_fde(np.array(r["trajectories"]), np.array(r["scores"]),
                                   gt[sid], k) for sid, r in preds.items()])
        if abs(oracle - rep[key]) > 1e-5:
            raise Mismatch(f"report {key} {rep[key]} vs recomputed {oracle}")

    if not all(math.isfinite(j) and j >= 0 for j in jitters):
        raise Mismatch(f"jitter scores {jitters}")

    ensemble_fde = []
    targets = _records(pseudo)
    if sorted(r["scenario_id"] for r in targets) != sorted(gt):
        raise Mismatch("pseudo targets do not cover the val split")
    for r in targets:
        trajs, conf = np.array(r["trajectories"]), np.array(r["confidences"])
        shape_ok = trajs.shape == (CLUSTER_J, *gt[r["scenario_id"]].shape)
        if not shape_ok or conf.min() < 0 or abs(conf.sum() - 1) > 1e-9:
            raise Mismatch(f"malformed pseudo targets for {r['scenario_id']}")
        ensemble_fde.append(_min_fde(trajs, conf, gt[r["scenario_id"]], 6))

    ledger.same_as_first(f"chain {out.name}", report, *dumps, pseudo)
    # ensemble-dump scores every scenario through the same evaluate_checkpoint
    for name, scored, (seconds, wall) in (
            ("evaluate.scen_per_s", n * (1 + len(ckpts)), t_eval),
            ("jitter.scen_per_s", n * len(ckpts), t_jitter),
            ("cluster.scen_per_s", n, t_cluster)):
        samples[name].append(scored / seconds)
        samples[WALL + name].append(scored / wall)
    return {"train.heldout_minFDE_6": rep["minFDE_6"],
            "infer.minFDE_6": float(np.mean(ensemble_fde)),
            "infer.jitter_m": float(np.mean(jitters))}


class Workload:
    """Set-up and the operations of the closed loop."""

    mix: dict
    min_ops = 2 + 2 * CHUNKS  # until every chunk has had a chain pass
    setup_reps = 3            # set-ups per run; setup_s is their median

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger):
        self.seed, self.sizes, self.ledger = seed, sizes, ledger
        self.samples = defaultdict(list)
        self.quality = {}  # chunk -> QUALITY values of its chain passes

    def _generate(self, out: Path) -> dict:
        """Training scenarios in memory and the chain's chunks on disk."""
        sz = self.sizes
        scenarios = _scenarios(self.seed, sz.n_train + sz.n_chain, self.mix)
        size = sz.n_chain // CHUNKS
        chunks = [scenarios[sz.n_train + c * size:sz.n_train + (c + 1) * size]
                  for c in range(CHUNKS)]
        return {"out": out, "train": scenarios[:sz.n_train],
                "manifests": [data.save_dataset(chunk, out / f"chunk{c}", val_fraction=1.0)
                              for c, chunk in enumerate(chunks)],
                "gts": [{sc.scenario_id: sc.gt_future().points for sc in chunk}
                        for chunk in chunks]}

    def chain_pass(self, state: dict, chunk: int) -> None:
        self.quality[chunk] = run_chain(
            self.chain_checkpoints(state), state["manifests"][chunk], state["gts"][chunk],
            state["out"] / f"chain{chunk}", self.ledger, self.samples)

    def _members(self, state: dict) -> list:
        """Members differing only in init seed, trained with the desk objective."""
        runs = []
        for seed in MEMBER_SEEDS:
            run = _train({**DESK, "epochs": self.sizes.member_epochs, "seed": seed},
                         state["train"], state["out"] / f"member{seed}")
            self.ledger.same_as_first(f"member{seed}", run.log, run.checkpoint)
            runs.append(run)
        return runs

    def setup(self, out: Path) -> dict:
        raise NotImplementedError

    def train_rep(self, state: dict, rep: int) -> None:
        raise NotImplementedError

    def chain_checkpoints(self, state: dict) -> list:
        raise NotImplementedError

    def step(self, state: dict, i: int) -> None:
        """Operation i of the loop: training repetitions 0 and 1, then a chain
        pass and a training repetition in turn."""
        if i >= 2 and i % 2 == 0:
            self.chain_pass(state, (i // 2 - 1) % CHUNKS)
        else:
            self.train_rep(state, (i + 1) // 2)

    def alloc_job(self, state: dict) -> tuple:
        """(config overrides, scenarios, pseudo targets) for the tracemalloc pass."""
        return {**DESK, "seed": MEMBER_SEEDS[0]}, state["train"], None


class TrainDesk(Workload):
    """harness.train on the acceptance desk config, junction scenarios only.

    Repetitions alternate the two member seeds, so the chain has an ensemble
    of two to cluster.
    """

    mix = JUNCTION_MIX
    setup_reps = 7  # its set-up is short and noisy, so the median needs more samples

    def setup(self, out: Path) -> dict:
        state = self._generate(out)
        self.ledger.same_as_first("dataset", *_dataset_files(state["manifests"]))
        state["checkpoints"] = {}
        return state

    def train_rep(self, state: dict, rep: int) -> None:
        seed = MEMBER_SEEDS[rep % len(MEMBER_SEEDS)]
        run = _train({**DESK, "epochs": self.sizes.epochs, "seed": seed},
                     state["train"], state["out"] / f"desk{seed}")
        self.ledger.same_as_first(f"desk{seed}", run.log, run.checkpoint)
        state["checkpoints"][seed] = run.checkpoint
        self.samples["train.scen_steps_per_s"].append(run.rate)
        self.samples[WALL + "train.scen_steps_per_s"].append(run.wall_rate)
        if seed == MEMBER_SEEDS[0]:
            self.samples["train.final_loss"].append(run.final_loss)

    def chain_checkpoints(self, state: dict) -> list:
        return [state["checkpoints"][seed] for seed in MEMBER_SEEDS]


class TrainMptAug(Workload):
    """The desk model on the five-mode mix, trained on J=6 pseudo targets
    with augmentation and no consistency losses."""

    mix = FIVE_MODE_MIX

    def setup(self, out: Path) -> dict:
        state = self._generate(out)
        tagged = []
        for run in self._members(state):
            dump = run.checkpoint.with_suffix(".dump.jsonl")
            harness.evaluate(run.params, run.model_cfg, state["train"], dump_path=dump)
            tagged.append((run.checkpoint.stem, dump))
        results = ensemble.cluster_bank(ensemble.bank_from_dumps(tagged), CLUSTER_J, seed=0)
        pseudo = out / "pseudo.jsonl"
        ensemble.save_pseudo_targets(pseudo, results)
        self.ledger.same_as_first("dataset+pseudo", *_dataset_files(state["manifests"]), pseudo)
        state["pseudo"] = ensemble.load_pseudo_targets(pseudo)
        state["member"] = out / f"member{MEMBER_SEEDS[0]}.json"
        return state

    def train_rep(self, state: dict, rep: int) -> None:
        run = _train({**STUDENT, "epochs": self.sizes.epochs, "seed": MEMBER_SEEDS[0]},
                     state["train"], state["out"] / "student", pseudo=state["pseudo"])
        self.ledger.same_as_first("student", run.log, run.checkpoint)
        state["student"] = run.checkpoint
        self.samples["train.scen_steps_per_s"].append(run.rate)
        self.samples[WALL + "train.scen_steps_per_s"].append(run.wall_rate)
        self.samples["train.final_loss"].append(run.final_loss)

    def chain_checkpoints(self, state: dict) -> list:
        return [state["student"], state["member"]]

    def alloc_job(self, state: dict) -> tuple:
        return {**STUDENT, "seed": MEMBER_SEEDS[0]}, state["train"], state["pseudo"]


class InferPipeline(Workload):
    """The command chain on a CSV dataset and member checkpoints from set-up.

    Its training figures come from the members the set-up trains.
    """

    mix = FIVE_MODE_MIX
    min_ops = CHUNKS

    def setup(self, out: Path) -> dict:
        state = self._generate(out)
        runs = self._members(state)
        self.ledger.same_as_first("dataset", *_dataset_files(state["manifests"]))
        self.samples["train.scen_steps_per_s"].extend(run.rate for run in runs)
        self.samples[WALL + "train.scen_steps_per_s"].extend(run.wall_rate for run in runs)
        self.samples["train.final_loss"].append(runs[0].final_loss)
        state["checkpoints"] = [run.checkpoint for run in runs]
        return state

    def chain_checkpoints(self, state: dict) -> list:
        return state["checkpoints"]

    def step(self, state: dict, i: int) -> None:
        self.chain_pass(state, i % CHUNKS)


WORKLOADS = {
    "train-desk": TrainDesk,
    "train-mpt-aug": TrainMptAug,
    "infer-pipeline": InferPipeline,
}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(wl: Workload, out: Path):
    timed = wl.ledger.run(f"setup in {out.name}", CLOCK.time, wl.setup, _fresh(out))
    if timed is None:
        return None
    state, seconds, wall = timed
    wl.samples["setup_s"].append(seconds)
    wl.samples[WALL + "setup_s"].append(wall)
    return state


def measure(wl: Workload, seconds: float, work: Path) -> dict:
    """End-to-end metrics of an untraced run: medians of every sample.

    The loop runs on the first set-up's state for `seconds` (and at least
    min_ops operations); the other set-ups are spaced out across that window.
    """
    reps = wl.setup_reps
    state = _timed_setup(wl, work / "setup0")
    if state is None:
        raise RuntimeError("set-up failed: " + "; ".join(wl.ledger.errors))
    start = time.perf_counter()
    due = [(r, start + seconds * r / reps) for r in range(1, reps)]
    i = 0
    while i < wl.min_ops or time.perf_counter() < start + seconds:
        if due and time.perf_counter() >= due[0][1]:
            _timed_setup(wl, work / f"setup{due.pop(0)[0]}")
        wl.ledger.run(f"operation {i}", wl.step, state, i)
        i += 1
    for r, _ in due:
        _timed_setup(wl, work / f"setup{r}")
    wl.samples["peak_rss_mb"].append(peak_rss_mb())
    if len(wl.quality) == CHUNKS:
        for name in QUALITY:
            wl.samples[name].append(float(np.mean([q[name] for q in wl.quality.values()])))
    missing = [name for name in END_TO_END if not wl.samples[name]]
    if missing:
        raise RuntimeError(f"no sample of {missing}: " + "; ".join(wl.ledger.errors))
    return {name: statistics.median(wl.samples[name]) for name in END_TO_END}


def _fixed_work(wl: Workload, out: Path, phase):
    """One set-up and the first TRACE_OPS operations; returns the state."""
    with phase("bench.setup"):
        timed = wl.ledger.run("setup", CLOCK.time, wl.setup, _fresh(out))
    if timed is None:
        return None
    state = timed[0]
    for i in range(TRACE_OPS):
        with phase("bench.operation"):
            wl.ledger.run(f"operation {i}", wl.step, state, i)
    return state


def alloc_peak_kb(wl: Workload, state: dict) -> float:
    """Median tracemalloc peak of one optimizer step, first step excluded.

    Each window runs from the end of one Adam step to the end of the next,
    so it covers a batch of scenario steps, their gradient sums and Adam.
    """
    overrides, scenarios, pseudo = wl.alloc_job(state)
    config = harness.TrainConfig(**{**overrides, "epochs": 1})
    peaks = []
    original = harness.Adam.step

    def step(self, *args, **kwargs):
        original(self, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    harness.Adam.step = step
    tracemalloc.start()
    base = [tracemalloc.get_traced_memory()[0]]
    try:
        harness.train(config, scenarios[:wl.sizes.alloc_scenarios], pseudo_targets=pseudo)
    finally:
        tracemalloc.stop()
        harness.Adam.step = original
    return statistics.median(peaks[1:] or peaks) / 1024.0


def trace(wl: Workload, tracer, work: Path) -> dict:
    """Per-layer metrics: the same fixed work untraced, traced, then untraced.

    The overhead compares the traced pass with the mean of the two untraced
    passes around it. A pass's time is the sum of its set-up's and its
    operations' times in reference seconds, each gauged on its own, which
    damps the effect of CPU speed drift; the gauges and the checks between
    the operations are left out. An untimed pass first warms the process,
    whose first pass is the slowest.
    """
    def timed(out: Path, phase) -> tuple:
        start = CLOCK.total
        state = _fixed_work(wl, out, phase)
        return state, CLOCK.total - start

    def untraced(out: Path) -> float:
        return timed(out, lambda name: contextlib.nullcontext())[1]

    untraced(work / "warmup")
    t_before = untraced(work / "untraced0")
    tracer.install()
    try:
        state, t_traced = timed(work / "traced", tracer.span)
    finally:
        tracer.uninstall()
    t_untraced = (t_before + untraced(work / "untraced1")) / 2
    if state is None:
        raise RuntimeError("set-up failed: " + "; ".join(wl.ledger.errors))
    alloc_kb = wl.ledger.run("tracemalloc pass", alloc_peak_kb, wl, state)
    if alloc_kb is None:
        raise RuntimeError("tracemalloc pass failed: " + "; ".join(wl.ledger.errors))
    return tracer.metrics(overhead_pct=100.0 * (t_traced / t_untraced - 1.0),
                          alloc_peak_kb=alloc_kb)
