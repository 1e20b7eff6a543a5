"""One workload in one fresh process: set up, signal ``ready``, run timed
passes, check every output, and print one JSON line of results.

Started by ``run.py``, which fixes the BLAS thread count in this
process's environment before numpy loads.  With ``--setup-only`` the
process exits right after ``ready``, so the launcher can time set-up
several times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_PASSES = 2  # outputs of two passes are compared byte for byte

# metrics each workload reports with tracing off: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "final_width": "state_units",
}

# traced functions reported as <name>.calls and <name>.self_s
LAYERS = (
    "numkernel.lp_max", "numkernel.mat_exp",
    "setgeom.is_empty", "setgeom.intersect", "setgeom.contains_set", "setgeom.support",
    "setgeom.support_batch.box", "setgeom.support_batch.zonotope",
    "setgeom.support_batch.hpolytope", "setgeom.HPolytope",
    "linreach.reach", "linreach.LazyReachSet.advance", "linreach.LazyReachSet.concretize",
    "linreach.step_input_facets", "linreach.step_input_vertices",
    "linreach.discretize_continuous",
    "hybridreach.hybrid_reach", "hybridreach.mode_reach", "hybridreach.guard_cross",
    "hybridreach.hybrid_simulate",
    "hybridize.dynamic_hybridize_reach", "hybridize.linearize",
    "modelio.load_model", "modelio.result_doc", "modelio.save_result",
    "cli.main",
)

# further per-layer metrics: name -> unit
LAYER_EXTRAS = {
    "numkernel.pivots": "count",
    "setgeom.is_empty.empty_ratio": "ratio",
    "setgeom.contains_set.true_ratio": "ratio",
    "hybridreach.pruned_ratio": "ratio",
    "hybridreach.sim_samples": "count",
    "hybridize.rebuilds": "count",
    "hybridize.useful_step_ratio": "ratio",
    "modelio.result_bytes": "bytes",
    "bench.trace_overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


def import_reachflow():
    """Import reachflow from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import reachflow

    where = Path(reachflow.__file__).resolve().parent
    if where != (SRC / "reachflow").resolve():
        raise ImportError(f"reachflow imported from {where}, not from {SRC}")


def tail(latencies):
    """Latency at the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the maximum is
    reported instead and the info line says so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops (fewer than 11, no percentile has 10 beyond it)"
    idx = n - 11
    return ordered[idx], f"p{100.0 * (idx + 1) / n:.1f} of {n} ops, 10 beyond it"


class Runner:
    """Runs passes of one workload and tallies failures against attempts."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.pass_s = []
        self.latencies = []

    def _fail(self, op, reason):
        self.failed += 1
        if self.reported < 5:
            print(f"op {op} failed: {reason}", file=sys.stderr)
            self.reported += 1

    def run_pass(self, tracer=None, timed=True):
        """One pass, then its checks outside the timed (and traced) region.

        An untimed pass (the warm-up) is checked but adds no timings.
        """
        results, errors, lats = [], [], []
        if tracer is not None:
            tracer.reset_pass()
            tracer.active = True
        start = time.perf_counter()
        for op in self.wl.ops():
            t0 = time.perf_counter()
            try:
                results.append(op())
                errors.append(None)
            except Exception:  # a failing operation is counted, the run goes on
                results.append(None)
                errors.append(traceback.format_exc(limit=3))
            lats.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if timed:
            self.pass_s.append(elapsed)
            self.latencies.extend(lats)
        self.attempted += len(results)
        if any(errors):
            for i, err in enumerate(errors):
                if err:
                    self._fail(i, err)
            return results, elapsed
        reasons = self.wl.check(results)
        prints = self.wl.fingerprint(results)
        if self.reference is None:
            self.reference = prints
        for i, (reason, fp, ref) in enumerate(zip(reasons, prints, self.reference)):
            if reason is None and fp != ref:
                reason = "output differs from the first pass"
            if reason is not None:
                self._fail(i, reason)
        return results, elapsed


# the run length the workloads' pass counts are set for (BENCHMARK.json)
REFERENCE_SECONDS = 34


def pass_count(workload, seconds) -> int:
    """Timed passes in a run: a fixed count per ``--seconds``, so every
    run's medians and tail rank the same number of samples."""
    return max(MIN_PASSES, round(workload.passes * seconds / REFERENCE_SECONDS))


def warm_up(runner):
    """First pass: fills the library's caches, untimed but checked."""
    results, _ = runner.run_pass(timed=False)
    return results


def untraced(runner, seconds):
    results = warm_up(runner)
    width = None if None in results else runner.wl.final_width(results)
    del results  # a lazy-highdim flowpipe holds ~650 MB
    for _ in range(pass_count(runner.wl, seconds)):
        runner.run_pass()
    p50 = statistics.median(runner.latencies)
    tail_s, tail_info = tail(runner.latencies)
    metrics = {
        "run_s": statistics.median(runner.pass_s),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_width": width,
    }
    info = [f"op_tail_s: {tail_info}",
            f"timed passes: {len(runner.pass_s)} after one warm-up, "
            f"ops per pass: {len(runner.wl.ops())}"]
    return metrics, info


def traced(runner, seconds, spans_path):
    from tracer import Tracer

    warm_up(runner)
    passes = pass_count(runner.wl, seconds)
    for _ in range(max(1, passes // 2)):
        runner.run_pass()
    untraced_s = list(runner.pass_s)
    tracer = Tracer()
    tracer.install()
    snaps, facts, traced_s = [], None, []
    first_span = len(tracer.spans)
    for _ in range(max(MIN_PASSES, passes - len(untraced_s))):
        results, elapsed = runner.run_pass(tracer)
        traced_s.append(elapsed)
        snaps.append(tracer.snapshot())
        if facts is None and None not in results:
            facts = runner.wl.facts(results)
            # the first traced pass's concretizations inside the hybridizer
            attempts = tracer.calls_within("linreach.LazyReachSet.concretize",
                                           "hybridize.dynamic_hybridize_reach", first_span)
        del results
    tracer.write(spans_path)

    first = snaps[0]
    calls = first["calls"]
    facts = facts or {}
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = statistics.median(s["self_s"].get(name, 0.0) for s in snaps)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["numkernel.pivots"] = first["pivots"]
    metrics["setgeom.is_empty.empty_ratio"] = ratio(
        first["true"].get("setgeom.is_empty", 0), calls.get("setgeom.is_empty", 0))
    metrics["setgeom.contains_set.true_ratio"] = ratio(
        first["true"].get("setgeom.contains_set", 0), calls.get("setgeom.contains_set", 0))
    metrics["hybridreach.pruned_ratio"] = ratio(facts.get("pruned", 0), facts.get("jumps", 0))
    metrics["hybridreach.sim_samples"] = facts.get("sim_samples", 0)
    metrics["hybridize.rebuilds"] = facts.get("rebuilds", 0)
    metrics["hybridize.useful_step_ratio"] = ratio(facts.get("segments_kept", 0), attempts)
    metrics["modelio.result_bytes"] = facts.get("result_bytes", 0)
    metrics["bench.trace_overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s))

    repeat = all(s["calls"] == first["calls"] and s["pivots"] == first["pivots"]
                 for s in snaps)
    info = [f"traced passes: {len(traced_s)} after {len(untraced_s)} untraced; "
            f"counts repeat across traced passes: {repeat}",
            f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"]
    return metrics, info


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_reachflow()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # numpy generators take nonnegative seeds; any integer maps to one
        workload = WORKLOADS[args.workload](args.seed % 2 ** 64, args.small, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(workload)
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            metrics, info = traced(runner, args.seconds, out / f"spans-{args.workload}.csv")
        else:
            metrics, info = untraced(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics, "info": [environment()] + info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
