"""graphokit's benchmark: one run of one workload.

    python3 perfbench/run.py --workload {desk,null,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; graphokit is imported from ``src/``.
The run happens in a fresh interpreter (``worker.py``), so that set-up time
is measured cold; an untraced run samples the host's speed beside it
(``hostspeed.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one traced
rep of each stage. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    (HERE / "out").mkdir(exist_ok=True)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    # An untraced run samples the host's speed beside the worker, from just
    # before the worker starts until it has ended (hostspeed.py).
    pid_file = HERE / "out" / f"worker-{os.getpid()}.pid"
    samples = HERE / "out" / f"hostspeed-{os.getpid()}.txt"
    sampler = worker = None
    try:
        if not args.trace:
            sampler = subprocess.Popen([sys.executable,
                                        str(HERE / "hostspeed.py"),
                                        str(pid_file), str(samples)])
            while not samples.exists():
                if sampler.poll() is not None:
                    print("the host-speed sampler did not start",
                          file=sys.stderr)
                    return 1
                time.sleep(0.01)
        spawned = time.perf_counter()
        worker = subprocess.Popen(cmd + [repr(spawned), str(samples)],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True)
        pid_file.with_suffix(".tmp").write_text(str(worker.pid))
        pid_file.with_suffix(".tmp").replace(pid_file)
        out, _ = worker.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        for proc in (worker, sampler):
            if proc is not None and proc.poll() is None:
                proc.kill()
            if proc is not None:
                proc.wait()
        for path in (pid_file, samples):
            path.unlink(missing_ok=True)
    if worker.returncode != 0:
        print(f"worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
