"""reachflow benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) with one BLAS thread, fixed here before numpy
loads, so ``setup_s`` and ``peak_rss_mb`` belong to that workload.  With
``--trace 0`` set-up is timed in several fresh processes and the median
is reported with the end-to-end metrics; with ``--trace 1`` the worker
wraps reachflow's public functions and reports per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
nonzero, with no result printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import END_TO_END, per_layer_units

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lazy-highdim", "check-mix")
SETUP_ONLY_RUNS = 3  # fresh set-up-only processes before and again after the worker
DEADLINE_S = 170.0  # the whole run, all child processes included

# one BLAS thread: on the 2-core reference box, n=200 ran 3.48/3.49/3.81 s
# at one thread and 3.19/2.86/2.34 s at two
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def start_worker(args, deadline, extra=()):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0,
                            env={**os.environ, **CHILD_ENV})
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"worker did not get ready (got {line!r})")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, deadline) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def time_setup():
        for _ in range(0 if args.trace else SETUP_ONLY_RUNS):
            proc, setup = start_worker(args, deadline, ["--setup-only"])
            finish(proc, deadline)
            setups.append(setup)

    # set-up samples on both sides of the worker, so one burst of load
    # from other tenants of the machine cannot shift all of them
    time_setup()
    proc, setup = start_worker(args, deadline)
    setups.append(setup)
    lines = finish(proc, deadline).decode().strip().splitlines()
    time_setup()
    if not lines:
        raise BenchError("worker printed no result")
    try:
        worker = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"worker result is not JSON: {lines[-1][:200]!r}") from None
    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        worker["info"].append(f"setup_s: median of {len(setups)} fresh processes")
    for line in worker["info"]:
        print(f"# {line}")
    units = per_layer_units() if args.trace else END_TO_END
    return {
        "correct": worker["failed"] == 0 and worker["attempted"] > 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-check only")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
