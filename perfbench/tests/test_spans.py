"""The span recorder: self time, nesting, raised counts, per-call tails and
the rebinding of the program's attributes in a traced process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import SpanRecorder, layer_metrics, tail_ms

HERE = Path(__file__).resolve().parent


def test_self_time_on_hand_built_tree():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, root)
    b = rec.add("b", 5.0, 9.0, root)
    rec.add("leaf", 6.0, 7.5, b)
    rec.add("a", 11.0, 12.0)  # a second call of "a", with no parent
    assert rec.self_times().tolist() == [3.0, 3.0, 2.5, 1.5, 1.0]
    summ = rec.summary()
    assert summ["a"]["calls"] == 2
    assert summ["a"]["self_s"] == 4.0
    assert summ["a"]["per_call_s"] == [3.0, 1.0]
    assert summ["root"]["per_call_s"] == [10.0]
    assert a == 1


def test_wrap_nests_spans_and_counts_raises():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = rec.wrap("inner", inner)
    outer_t = rec.wrap("outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(2) == 4
    assert rec.names == ["outer", "inner", "inner"]
    assert rec.parents == [-1, 0, 0]
    assert rec.self_times().tolist() == [3.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        outer_t(-1)
    assert rec.counts["inner.raised"] == 1
    assert rec.counts["outer.raised"] == 1
    assert rec._stack == []


def test_tail_needs_ten_calls_beyond_it():
    assert tail_ms([], 50) == 0.0
    assert tail_ms([0.002], 50) == 2.0
    assert tail_ms([0.001] * 99, 90) == 0.0
    assert tail_ms([0.001] * 100, 90) == pytest.approx(1.0)
    assert tail_ms([0.001] * 999, 99) == 0.0
    assert tail_ms([0.001] * 1000, 99) == pytest.approx(1.0)


def test_layer_metrics_ratio_and_absent_layers():
    rec = SpanRecorder()
    for i in range(3):
        top = rec.add("features.extract_features", 0.0, 1.0)
        for _ in range(6):
            rec.add("ink.segment_strokes", 0.0, 0.01, top)
    m = layer_metrics(rec)
    assert m["ink.segment_strokes.per_recording"] == 6.0
    assert m["gbt.fit.calls"] == 0 and m["gbt.fit.ms_p50"] == 0.0
    assert m["features.extract_features.s"] == pytest.approx(3 * 0.94)
    assert m["trace.spans"] == 21


INSTRUMENTED = """
import sys, json, contextlib, io
import graphokit.cli as cli
import spans
rec = spans.SpanRecorder()
spans.instrument(rec)
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main.main(["synth", "--out", out + "/c", "--hc", "5", "--lbd", "5",
                   "--seed", "3"], standalone_mode=False)
    cli.main.main(["extract", "--manifest", out + "/c/manifest.json",
                   "--out", out + "/f"], standalone_mode=False)
print(json.dumps(spans.layer_metrics(rec)))
print(json.dumps(sorted(set(rec.names))))
"""


def test_instrument_sees_every_layer_of_synth_and_extract(tmp_path):
    env_path = [str(HERE.parent), str(HERE.parent.parent / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", INSTRUMENTED, str(tmp_path)],
        env={"PYTHONPATH": ":".join(env_path)}, capture_output=True,
        text=True, timeout=120, check=True)
    metrics_line, names_line = proc.stdout.strip().splitlines()[-2:]
    metrics, names = json.loads(metrics_line), json.loads(names_line)
    for family in ("temporal", "kinematic", "dynamic", "spatial", "spiral",
                   "pen_stops", "intersections", "entropy", "aggregate"):
        assert f"features.{family}" in names
    for name in ("cli.synth", "cli.extract", "synth.gen_cohort",
                 "svcio.serialize_svc", "svcio.parse_svc",
                 "ink.validate_recording", "table.from_rows", "table.to_csv",
                 "table.combine_tasks"):
        assert name in names
    # 10 subjects x 3 tasks; spiral recordings segment once more
    assert metrics["ink.segment_strokes.per_recording"] == pytest.approx(
        19 / 3)
    assert metrics["svcio.parse_svc.samples"] > 0
    assert metrics["svcio.serialize_svc.mb"] > 0
