"""One benchmark run in a fresh interpreter; started by ``run.py``.

Usage: worker.py <workload> <seed> <seconds> <trace 0|1> <spawn clock>
                 <host-speed samples file, untraced runs only>

The spawn clock is ``time.perf_counter()`` read by the parent just before it
started this process, so ``setup_s`` covers interpreter start-up and the
import of ``graphokit.cli``, the start-up every CLI command pays. Nothing is
imported before that import, so it loads numpy, scipy and click itself.
"""

import sys
import time

import graphokit.cli  # (the timed set-up)

SETUP_END = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import STAGES, WORKLOADS, tree_digest  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
if Path(graphokit.cli.__file__).resolve().parents[1] != HERE.parent / "src":
    sys.exit(f"graphokit was imported from {graphokit.cli.__file__}, not "
             f"from this checkout's src/")


def check_digest(key: str, digest: str) -> None:
    """Every run of one workload and seed, traced or not, must produce the
    same outputs; the first run's digest is kept in ``out/digests.json``."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    checks.require(known.setdefault(key, digest) == digest,
                   f"outputs differ from an earlier run of {key}")
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)


def main() -> int:
    name, seed, seconds, traced = (sys.argv[1], int(sys.argv[2]),
                                   float(sys.argv[3]), sys.argv[4] == "1")
    run_dir = OUT / f"{name}-s{seed}-{os.getpid()}"
    workload = WORKLOADS[name](seed, run_dir)
    recorder = None
    if traced:
        recorder = spans.SpanRecorder()
        spans.instrument(recorder)

    # Each stage repeats, on the previous stage's outputs, until it has run
    # for a third of the run length; a rep is never cut. Short stages thus
    # get many reps and a steady median. A traced run does one rep of each,
    # so its counts are per rep. An untraced run reports each rep, and the
    # set-up, at the reference speed (hostspeed.py).
    spells = {stage: [] for stage in STAGES}  # (start, end) of each rep
    digests = {stage: set() for stage in STAGES}
    attempted = failed = 0
    for stage in STAGES:
        run_stage = getattr(workload, stage)
        while True:
            t0 = time.perf_counter()
            ops = run_stage()
            spells[stage].append((t0, time.perf_counter()))
            attempted, failed = attempted + ops[0], failed + ops[1]
            digests[stage].add(tree_digest(run_dir, workload.summary(),
                                           workload.outputs[stage]))
            if traced or sum(b - a for a, b in spells[stage]) >= (
                    seconds / len(STAGES)):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []

    def attempt(check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            failures.append(str(exc))

    attempt(workload.check)
    attempt(checks.require, all(len(d) == 1 for d in digests.values()),
            "reps of one stage produced different outputs")
    attempt(check_digest, f"{name}:{seed}",
            tree_digest(run_dir, workload.summary()))

    if traced:
        metrics = spans.layer_metrics(recorder)
        attempt(checks.require, metrics["gbt.fit.calls"] == workload.fit_calls,
                f"gbt.fit.calls {metrics['gbt.fit.calls']} != "
                f"{workload.fit_calls} the protocol implies")
        metrics["trace.overhead_s"] = (len(recorder.names)
                                       * spans.span_cost_s())
        metrics["trace.stages_s"] = sum(b - a for reps in spells.values()
                                        for a, b in reps)
        recorder.write(OUT / f"trace-{name}-s{seed}.jsonl")
    else:
        samples = hostspeed.read_samples(Path(sys.argv[6]))
        metrics = {f"{stage}_s": statistics.median(
            hostspeed.scale(samples, a, b) for a, b in reps)
            for stage, reps in spells.items()}
        metrics.update(
            setup_s=hostspeed.scale(samples, float(sys.argv[5]), SETUP_END),
            peak_rss_mb=peak_rss_mb)
        print("wall-clock medians, s: " + json.dumps({
            "setup_s": SETUP_END - float(sys.argv[5]),
            **{f"{stage}_s": statistics.median(b - a for a, b in reps)
               for stage, reps in spells.items()}}), file=sys.stderr)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if traced else "end_to_end"]

    if failures:
        print("check failed: " + "\n".join(failures), file=sys.stderr)
    else:
        shutil.rmtree(run_dir)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
