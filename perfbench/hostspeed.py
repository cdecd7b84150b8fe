"""The host's speed over a run, sampled beside the worker.

The machine the benchmark runs on is shared, and its speed wanders: for
stretches of a few seconds, one core or the other runs the same code 1.5 to
1.8 times slower, with CPU time equal to wall time, so the slowdown is in
execution rather than in scheduling. Which stretch a rep falls into, and so
its wall time, is luck.

So while the worker runs, a sampler process (this file, run as a script by
``run.py``) times a small fixed kernel every ``INTERVAL_S`` seconds on the
core the worker last ran on, in thread CPU time, so that sharing the core
with the worker does not count as slowness. ``scale`` turns a wall time
into seconds at the reference speed, the speed at which one kernel call
takes ``REFERENCE_S``: the time multiplied by the mean of ``REFERENCE_S /
kernel time`` over the samples taken meanwhile, that is by the reference
seconds of work the host did per second.

The kernel is the benchmark's own code and never calls graphokit, so a
change to the program moves the scaled times and leaves the kernel alone. It
mixes the two kinds of work graphokit does: numpy calls on small arrays
(sorts and cumulative sums, as in split search and feature extraction) and
Python-level number formatting and parsing (as in SVC writing and reading).
Sampling takes about 2-3% of the core the worker runs on.

    python3 hostspeed.py <file that will hold the worker's pid> <samples file>
"""

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# One kernel call on the reference machine (2 cores, Python 3.11, numpy 2.4)
# in a stretch when it was not slowed: the median of 300 calls.
REFERENCE_S = 0.00228
INTERVAL_S = 0.1

_rng = np.random.default_rng(20261020)
_X = _rng.random((60, 60))
_Y = _rng.random(60)


def kernel() -> float:
    acc = 0.0
    for j in range(_X.shape[1]):
        order = np.argsort(_X[:, j], kind="stable")
        acc += float(np.cumsum(_Y[order]).max())
    lines = [f"{i} {i * 0.37:.3f} {i % 7} {i * 1.5:.1f}" for i in range(1900)]
    acc += sum(float(line.split()[1]) for line in lines)
    return acc


def worker_cpu(pid: int) -> int:
    """The core ``pid`` last ran on (field 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def sample(pid_file: Path, out: Path) -> None:
    """Warm up, create ``out``, wait for ``pid_file`` to name the worker,
    then time one kernel call every INTERVAL_S on the worker's core and
    write ``<start> <seconds>`` lines to ``out`` until the worker or the
    process that started this one is gone."""
    parent = os.getppid()
    for _ in range(20):
        kernel()
    with open(out, "w") as f:
        while not pid_file.exists():
            if os.getppid() != parent:
                return
            time.sleep(0.005)
        pid = int(pid_file.read_text())
        while os.getppid() == parent:
            try:
                os.sched_setaffinity(0, {worker_cpu(pid)})
            except (OSError, ValueError, IndexError):
                return  # the worker has ended
            t0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            f.write(f"{t0!r} {time.thread_time() - c0!r}\n")
            f.flush()
            time.sleep(INTERVAL_S)


def read_samples(path: Path) -> list:
    """The whole ``(start, seconds)`` lines of a samples file."""
    lines = path.read_text().split("\n")[:-1]  # the last may be partial
    return [(float(t), float(s)) for t, s in map(str.split, lines)]


def scale(samples, start: float, end: float, pad: float = 0.5) -> float:
    """Seconds at the reference speed for a span of work that ran from
    ``start`` to ``end``, from the samples taken then; the window is widened
    by ``pad`` on each side, so that a short span has samples too."""
    inside = [s for t, s in samples if start - pad <= t <= end + pad]
    if not inside:
        raise RuntimeError("no host-speed sample in a timed span")
    return (end - start) * statistics.fmean(REFERENCE_S / s for s in inside)


if __name__ == "__main__":
    sample(Path(sys.argv[1]), Path(sys.argv[2]))
