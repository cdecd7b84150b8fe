"""The host-speed sampler and the scaling of a rep to the reference speed."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
from hostspeed import REFERENCE_S, read_samples, scale

HERE = Path(__file__).resolve().parent


def test_scale_uses_only_the_samples_taken_during_the_rep():
    samples = [(0.0, 4 * REFERENCE_S),  # before the rep and its padding
               (10.2, REFERENCE_S), (11.0, 2 * REFERENCE_S),
               (11.6, 4 * REFERENCE_S)]  # after the padding
    # the host did 1 and 1/2 reference seconds per second: 3/4 on average
    assert scale(samples, 10.0, 11.0, pad=0.5) == pytest.approx(0.75)


def test_scale_pads_a_short_rep_and_needs_a_sample():
    samples = [(4.6, 2 * REFERENCE_S)]
    assert scale(samples, 5.0, 5.2, pad=0.5) == pytest.approx(0.1)
    with pytest.raises(RuntimeError):
        scale(samples, 5.0, 5.2, pad=0.1)


def start(pid_file, out):
    sampler = subprocess.Popen([sys.executable,
                                str(HERE.parent / "hostspeed.py"),
                                str(pid_file), str(out)])
    deadline = time.monotonic() + 60
    while not out.exists():
        assert sampler.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)
    return sampler


def test_sampler_samples_the_worker_until_it_ends(tmp_path):
    out, pid_file = tmp_path / "samples.txt", tmp_path / "worker.pid"
    sampler = start(pid_file, out)
    worker = subprocess.Popen([sys.executable, "-c",
                               "import time; time.sleep(1.5)"])
    try:
        pid_file.write_text(str(worker.pid))
        worker.wait()
        sampler.wait(timeout=60)  # it stops by itself once the worker ends
    finally:
        for proc in (worker, sampler):
            proc.kill()
            proc.wait()
    samples = read_samples(out)
    starts = [t for t, _ in samples]
    assert len(samples) >= 3
    assert all(b - a >= hostspeed.INTERVAL_S for a, b in zip(starts,
                                                            starts[1:]))
    assert all(0 < s < 1 for _, s in samples)


def test_read_samples_skips_a_partial_last_line(tmp_path):
    out = tmp_path / "samples.txt"
    out.write_text("1.5 0.0023\n1.6 0.00")
    assert read_samples(out) == [(1.5, 0.0023)]
