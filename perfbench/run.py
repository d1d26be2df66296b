"""Benchmark entry point; run from the root of a checkout of the repository.

    python3 perfbench/run.py --workload plan_open|plan_gated|spm_serve
        --seed N --seconds T --trace 0|1

Each workload runs in fresh single-threaded worker processes
(perfbench/worker.py) with the cyclic collector off.  Set-up is timed in
SETUP_SAMPLES workers, from start to the worker's READY line; all but the
last stop there, the last goes on to the timed phase and the checks.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Timings are in
reference units (see refclock.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import REF_UNIT_MS, Reference  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def start_worker(cmd, ref):
    """Start a worker and time it to its READY line, in reference seconds
    (the reference unit is sampled just before the start and just after
    READY).  Returns (reference seconds, process)."""
    unit0 = ref.median_unit()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    dt = perf_counter() - t0
    unit = (unit0 + ref.median_unit()) / 2
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail("worker failed during set-up")
    return dt / unit * REF_UNIT_MS / 1e3, proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rectipath", "__init__.py")):
        fail("run from the root of a rectipath checkout (no src/rectipath here)")

    worker = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--root", root,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    ref = Reference()
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        dt, proc = start_worker(worker + ["--setup-only"], ref)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            fail("set-up-only worker failed")
        setups.append(dt)
    dt, proc = start_worker(worker, ref)
    setups.append(dt)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker did not finish within %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("worker exited with %d" % proc.returncode)

    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        fail("worker printed no result")
    result = json.loads(lines[-1])
    faults = result.pop("faults_per_round")
    if faults:
        print("faults per round: %s" % json.dumps(faults, sort_keys=True), file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["metrics"] = dict(sorted(result["metrics"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
