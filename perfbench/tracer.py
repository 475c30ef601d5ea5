"""Outside-in tracing of trajcast's module boundaries.

A traced run wraps the names that callers look up (``harness.forward``,
``predictor.featurize``, ``losses.match`` and so on) so that every call into a
layer's public functions records a span. The library itself is not edited.
Spans stay in memory and are written out once, when the run ends.

A layer's self time is its span's duration minus the time covered by the
spans it caused.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

MODULES = ("core", "data", "predictor", "losses", "matching", "metrics",
           "ensemble", "harness", "cli")


def _count_pairs(counts, args, kwargs, result):
    sim = args[0] if args else kwargs["sim"]
    counts["matching.pairs"] += len(result.pairs)
    counts["matching.pair_slots"] += sim.cost.shape[0]
    counts["matching.zero_pair_calls"] += not result.pairs


def _count_iters(counts, args, kwargs, result):
    counts["ensemble.kmeans.iters"] += len(result.sse_history)


# (owning module, attribute, span name, hook, end-to-end metric the layer
# should move, workload where it should move it). The span name is
# "<module>.<function>", so its first part names the layer. Attributes with a
# dot are methods, patched on their class.
LAYERS = (
    ("core", "apply_transform", "core.apply_transform", None,
     "train.scen_steps_per_s", "train-mpt-aug"),
    ("core", "sample_transform", "core.sample_transform", None,
     "train.scen_steps_per_s", "train-mpt-aug"),
    ("core", "compose_frames", "core.compose_frames", None,
     "train.scen_steps_per_s", "train-desk"),
    ("data", "generate", "data.generate", None, "setup_s", "all"),
    ("data", "make_window", "data.make_window", None,
     "train.scen_steps_per_s", "train-mpt-aug"),
    ("data", "make_shift_pair", "data.make_shift_pair", None,
     "train.scen_steps_per_s", "train-desk"),
    ("data", "load_manifest", "data.load_manifest", None,
     "evaluate.scen_per_s jitter.scen_per_s", "infer-pipeline"),
    ("predictor", "forward", "predictor.forward", None, "train.scen_steps_per_s", "train"),
    ("predictor", "featurize", "predictor.featurize", None, "train.scen_steps_per_s", "train"),
    ("predictor", "backward", "predictor.backward", None, "train.scen_steps_per_s", "train"),
    ("predictor", "refine_forward", "predictor.refine_forward", None,
     "train.scen_steps_per_s", "train-desk"),
    ("predictor", "refine_backward", "predictor.refine_backward", None,
     "train.scen_steps_per_s", "train-desk"),
    ("predictor", "ParamStore.zeros_like", "predictor.zeros_like", None,
     "train.scen_steps_per_s", "train"),
    ("predictor", "predict", "predictor.predict", None,
     "evaluate.scen_per_s jitter.scen_per_s", "infer-pipeline"),
    ("predictor", "load_checkpoint", "predictor.load_checkpoint", None,
     "evaluate.scen_per_s jitter.scen_per_s", "infer-pipeline"),
    ("predictor", "save_checkpoint", "predictor.save_checkpoint", None,
     "train.scen_steps_per_s", "train"),
    ("losses", "target_losses", "losses.target_losses", None,
     "train.scen_steps_per_s", "train-mpt-aug"),
    ("losses", "_temporal_arrays", "losses.temporal", None,
     "train.scen_steps_per_s", "train-desk"),
    ("losses", "_spatial_arrays", "losses.spatial", None,
     "train.scen_steps_per_s", "train-desk"),
    ("losses", "sample_permutation", "losses.sample_permutation", None,
     "train.scen_steps_per_s", "train-desk"),
    ("matching", "match", "matching.match", _count_pairs,
     "train.scen_steps_per_s jitter.scen_per_s", "train-desk infer-pipeline"),
    ("matching", "similarity", "matching.similarity", None,
     "jitter.scen_per_s", "infer-pipeline"),
    ("metrics", "report", "metrics.report", None, "evaluate.scen_per_s", "infer-pipeline"),
    ("metrics", "min_metrics", "metrics.min_metrics", None,
     "evaluate.scen_per_s", "infer-pipeline"),
    ("ensemble", "kmeans_trajectories", "ensemble.kmeans_trajectories", _count_iters,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("ensemble", "cluster_bank", "ensemble.cluster_bank", None,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("ensemble", "bank_from_dumps", "ensemble.bank_from_dumps", None,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("ensemble", "load_prediction_dump", "ensemble.load_prediction_dump", None,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("ensemble", "save_prediction_dump", "ensemble.save_prediction_dump", None,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("ensemble", "save_pseudo_targets", "ensemble.save_pseudo_targets", None,
     "cluster.scen_per_s setup_s", "infer-pipeline train-mpt-aug"),
    ("harness", "train", "harness.train", None, "train.scen_steps_per_s", "train"),
    ("harness", "_scenario_step", "harness.scenario_step", None,
     "train.scen_steps_per_s", "train"),
    ("harness", "Adam.step", "harness.adam_step", None, "train.scen_steps_per_s", "train"),
    ("harness", "evaluate", "harness.evaluate", None, "evaluate.scen_per_s", "infer-pipeline"),
    ("harness", "jitter_score", "harness.jitter_score", None,
     "jitter.scen_per_s", "infer-pipeline"),
    ("cli", "main", "cli.main", None,
     "evaluate.scen_per_s jitter.scen_per_s cluster.scen_per_s", "infer-pipeline"),
)

# Ratios and counts derived from the spans and hooks above, with the metric
# they should move: (name, unit, end-to-end metric, workload).
DERIVED = (
    ("predictor.zeros_like.calls_per_scen_step", "count", "train.scen_steps_per_s", "train"),
    ("matching.pairs_per_call", "ratio", "train.scen_steps_per_s jitter.scen_per_s",
     "train-desk infer-pipeline"),
    ("matching.zero_pair_frac", "ratio", "train.scen_steps_per_s jitter.scen_per_s",
     "train-desk infer-pipeline"),
    ("ensemble.kmeans.iters", "count", "cluster.scen_per_s", "infer-pipeline"),
    ("harness.step.alloc_peak_kb", "KiB", "train.scen_steps_per_s", "train"),
    ("trace.overhead_pct", "%", "none", "all"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for _, _, name, *_ in LAYERS:
        units[name + ".self_ms"] = "ms"
        units[name + ".calls"] = "count"
    for module in MODULES:
        units[module + ".self_ms"] = "ms"
        units[module + ".calls"] = "count"
    for name, unit, *_ in DERIVED:
        units[name] = unit
    return units


class Tracer:
    """Records spans (name, start, end, parent) for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = collections.Counter()
        self._stack = [-1]
        self._patches = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a set-up."""
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def _wrap(self, fn, name, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every LAYERS entry wherever a trajcast module refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "trajcast" or n.startswith("trajcast.")]
        for owner, attr, name, hook, *_ in LAYERS:
            home = importlib.import_module(f"trajcast.{owner}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, hook))
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, name, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def layer_totals(self) -> dict:
        """span name -> [self_ns, calls], over every closed span."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0])
            entry[0] += end - start - covered[idx]
            entry[1] += 1
        return totals

    def metrics(self, overhead_pct: float, alloc_peak_kb: float) -> dict:
        """Every per-layer metric, keyed as per_layer_units() names them."""
        totals = self.layer_totals()
        out = {}
        modules = {m: [0, 0] for m in MODULES}
        for _, _, name, *_ in LAYERS:
            self_ns, calls = totals.get(name, (0, 0))
            out[name + ".self_ms"] = self_ns / 1e6
            out[name + ".calls"] = calls
            agg = modules[name.split(".", 1)[0]]
            agg[0] += self_ns
            agg[1] += calls
        for module, (self_ns, calls) in modules.items():
            out[module + ".self_ms"] = self_ns / 1e6
            out[module + ".calls"] = calls
        c = self.counts
        steps = out["harness.scenario_step.calls"]
        match_calls = out["matching.match.calls"]
        kmeans_calls = out["ensemble.kmeans_trajectories.calls"]
        out["predictor.zeros_like.calls_per_scen_step"] = (
            out["predictor.zeros_like.calls"] / steps if steps else 0.0)
        out["matching.pairs_per_call"] = (
            c["matching.pairs"] / c["matching.pair_slots"] if match_calls else 0.0)
        out["matching.zero_pair_frac"] = (
            c["matching.zero_pair_calls"] / match_calls if match_calls else 0.0)
        out["ensemble.kmeans.iters"] = (
            c["ensemble.kmeans.iters"] / kmeans_calls if kmeans_calls else 0.0)
        out["harness.step.alloc_peak_kb"] = alloc_peak_kb
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines; times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
