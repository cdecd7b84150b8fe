"""Span recorder for the traced run, and the per-layer metrics it yields.

The traced run records a span around each call into the program's layers by
rebinding, inside its own process, the module and class attributes that the
callers look up (``graphokit.gbt.fit``, the names that
``graphokit.features.extract`` imports, the click command callbacks, ...).
No program file changes. Spans stay in memory and are written out when the
run ends.

A span's self time is its duration minus the time its child spans cover. The
calls are single-threaded, so children never overlap and that time is the sum
of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


class SpanRecorder:
    """Spans as parallel lists: name, start, end and parent index (-1 = root).

    ``counts`` holds counters recorded at the same boundaries, such as the
    samples a parse returned or the fits whose every tree is a single leaf.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def add(self, name, start, end, parent=-1) -> int:
        """Record a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(self, name, fn, observe=None):
        """``fn`` with a span named ``name`` around each call.

        ``observe(recorder, result)`` runs after a call returns. A call that
        raises counts in ``<name>.raised`` and the exception propagates.
        """
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.add(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(idx)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        return own

    def summary(self) -> dict:
        """Per span name: calls, total self seconds and per-call durations."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = self.self_times()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "per_call_s": []})
            entry["calls"] += 1
            entry["self_s"] += float(own[i])
            entry["per_call_s"].append(float(dur[i]))
        return out

    def write(self, path) -> None:
        """Spans as JSON lines ``[name, start, end, parent]``, then counts."""
        with open(path, "w") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def tail_ms(per_call_s, q) -> float:
    """Per-call percentile ``q`` in ms. The median needs one call; a higher
    percentile reads 0.0 unless ten calls lie beyond it, for then it would
    be no tail."""
    n = len(per_call_s)
    if n == 0 or (q > 50 and n * (100 - q) / 100 < 10):
        return 0.0
    return float(np.percentile(per_call_s, q)) * 1000.0


def _observe_fit(rec, model):
    split_nodes = sum(sum(f >= 0 for f in tree.feature)
                      for tree in model.trees)
    rec.counts["gbt.split_nodes"] += split_nodes
    rec.counts["gbt.split_free_fits"] += split_nodes == 0


def _observe_serialize(rec, text):
    rec.counts["svcio.serialize_svc.mb"] += len(text) / 1e6


def _observe_parse(rec, recording):
    rec.counts["svcio.parse_svc.samples"] += len(recording)


# (module, attribute, span name, observer): the attributes the callers look
# up. Module-level functions are rebound in the module the caller imported
# them into; "Class.method" rebinds the attribute on the class.
PATCHES = (
    ("graphokit.cli", "gen_cohort", "synth.gen_cohort", None),
    ("graphokit.synth", "serialize_svc", "svcio.serialize_svc",
     _observe_serialize),
    ("graphokit.cli", "load_cohort", "svcio.load_cohort", None),
    ("graphokit.svcio", "parse_svc", "svcio.parse_svc", _observe_parse),
    ("graphokit.cli", "validate_recording", "ink.validate_recording", None),
    ("graphokit.features.extract", "segment_strokes", "ink.segment_strokes",
     None),
    ("graphokit.features.basic", "segment_strokes", "ink.segment_strokes",
     None),
    ("graphokit.features.events", "segment_strokes", "ink.segment_strokes",
     None),
    ("graphokit.features.spiral", "segment_strokes", "ink.segment_strokes",
     None),
    ("graphokit.cli", "extract_features", "features.extract_features", None),
    ("graphokit.features.extract", "temporal_features", "features.temporal",
     None),
    ("graphokit.features.extract", "kinematic_vector", "features.kinematic",
     None),
    ("graphokit.features.extract", "dynamic_features", "features.dynamic",
     None),
    ("graphokit.features.extract", "spatial_features", "features.spatial",
     None),
    ("graphokit.features.extract", "unwrap_polar", "features.spiral", None),
    ("graphokit.features.extract", "spiral_features", "features.spiral", None),
    ("graphokit.features.extract", "count_pen_stops", "features.pen_stops",
     None),
    ("graphokit.features.extract", "count_intersections",
     "features.intersections", None),
    ("graphokit.features.extract", "shannon_entropy", "features.entropy",
     None),
    ("graphokit.features.extract", "aggregate_all", "features.aggregate",
     None),
    ("graphokit.table", "FeatureTable.from_rows", "table.from_rows", None),
    ("graphokit.table", "FeatureTable.from_csv", "table.from_csv", None),
    ("graphokit.table", "FeatureTable.to_csv", "table.to_csv", None),
    ("graphokit.cli", "combine_tasks", "table.combine_tasks", None),
    ("graphokit.cli", "analyze_features", "stats.analyze_features", None),
    ("graphokit.gbt", "fit", "gbt.fit", _observe_fit),
    ("graphokit.gbt", "BoostedEnsemble.predict_proba", "gbt.predict_proba",
     None),
    ("graphokit.pipeline", "cv_scores", "pipeline.cv_scores", None),
    ("graphokit.pipeline", "random_search", "pipeline.random_search", None),
    ("graphokit.pipeline", "cv_probabilities", "pipeline.cv_probabilities",
     None),
    ("graphokit.pipeline", "loocv_evaluate", "pipeline.loocv_evaluate", None),
    ("graphokit.pipeline", "permutation_test", "pipeline.permutation_test",
     None),
    ("graphokit.cli", "evaluate_task", "pipeline.evaluate_task", None),
)

CLI_COMMANDS = ("synth", "extract", "analyze", "train")


def instrument(recorder: SpanRecorder) -> None:
    """Rebind every attribute in :data:`PATCHES` and each CLI command's
    callback to a traced wrapper. Lasts for the life of the process."""
    for module_name, attr, span, observe in PATCHES:
        owner = importlib.import_module(module_name)
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if cls_path else getattr(owner, name)
        if isinstance(raw, classmethod):
            setattr(owner, name,
                    classmethod(recorder.wrap(span, raw.__func__, observe)))
        else:
            setattr(owner, name, recorder.wrap(span, raw, observe))
    group = importlib.import_module("graphokit.cli").main
    for command in CLI_COMMANDS:
        cmd = group.commands[command]
        cmd.callback = recorder.wrap(f"cli.{command}", cmd.callback)


def span_cost_s(samples: int = 20000) -> float:
    """Mean cost of one span, measured on a no-op inside a scratch recorder."""
    def noop():
        return None

    traced = SpanRecorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / samples)


def layer_metrics(recorder: SpanRecorder) -> dict:
    """The per-layer metrics, by name, from one traced rep of each stage.

    Layers that did not run read 0, as do per-call percentiles with too few
    calls behind them.
    """
    summ = recorder.summary()

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0)

    def per_call(name):
        return summ.get(name, {}).get("per_call_s", [])

    out = {}
    for name in ("gbt.fit", "gbt.predict_proba", "pipeline.permutation_test",
                 "pipeline.random_search", "pipeline.cv_probabilities",
                 "pipeline.loocv_evaluate", "pipeline.cv_scores",
                 "svcio.serialize_svc", "synth.gen_cohort", "svcio.parse_svc",
                 "svcio.load_cohort", "ink.validate_recording",
                 "ink.segment_strokes", "features.extract_features",
                 "features.temporal", "features.kinematic",
                 "features.dynamic", "features.spatial", "features.spiral",
                 "features.pen_stops", "features.intersections",
                 "features.entropy", "features.aggregate", "table.from_rows",
                 "table.from_csv", "table.to_csv", "table.combine_tasks",
                 "stats.analyze_features"):
        out[f"{name}.s"] = self_s(name)
    # the protocol stages do their work in gbt; their inclusive time is the
    # share of the result they hold
    for name in ("pipeline.permutation_test", "pipeline.random_search",
                 "pipeline.cv_probabilities", "pipeline.loocv_evaluate"):
        out[f"{name}.total_s"] = sum(per_call(name))
    out["gbt.fit.calls"] = calls("gbt.fit")
    out["gbt.fit.ms_p50"] = tail_ms(per_call("gbt.fit"), 50)
    out["gbt.fit.ms_p99"] = tail_ms(per_call("gbt.fit"), 99)
    out["gbt.split_free_fits"] = recorder.counts["gbt.split_free_fits"]
    out["gbt.split_nodes"] = recorder.counts["gbt.split_nodes"]
    out["pipeline.cv_scores.calls"] = calls("pipeline.cv_scores")
    out["pipeline.cv_scores.raised"] = recorder.counts[
        "pipeline.cv_scores.raised"]
    out["svcio.serialize_svc.mb"] = recorder.counts["svcio.serialize_svc.mb"]
    out["svcio.parse_svc.samples"] = recorder.counts["svcio.parse_svc.samples"]
    n_extract = calls("features.extract_features")
    out["ink.segment_strokes.per_recording"] = (
        calls("ink.segment_strokes") / n_extract if n_extract else 0.0)
    out["features.extract_features.ms_p50"] = tail_ms(
        per_call("features.extract_features"), 50)
    out["features.extract_features.ms_p90"] = tail_ms(
        per_call("features.extract_features"), 90)
    out["cli.train.self_s"] = self_s("cli.train")
    out["trace.spans"] = len(recorder.names)
    return out
