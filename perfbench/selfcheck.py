"""Fast self-check of the benchmark at reduced sizes (under a minute).

    python3 perfbench/selfcheck.py

Asserts that every workload emits exactly the metrics BENCHMARK.json
declares, with their units, in both modes; that corrupted outputs (a
trace shifted outside its flowpipe, a flipped expected verdict) are
counted as failed operations; and that the launcher exits nonzero,
printing no result, in a directory without the reachflow sources.
Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import worker

ROOT = worker.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def launch(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        for wl in BENCH["workloads"]:
            proc = launch(wl["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, (wl["name"], proc.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (wl["name"], set(got) ^ set(declared))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok: {wl['name']} trace={trace}: {len(got)} metrics")


def check_corruption():
    """Corrupted outputs must land in ``failed``."""
    worker.import_reachflow()
    from reachflow import cli
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / "selfcheck"
    mix = WORKLOADS["check-mix"](3, True, workdir)
    original = cli.hybrid_simulate

    def shifted(*args, **kwargs):
        trace = original(*args, **kwargs)
        trace.states[:] += 5.0  # every sample leaves the flowpipe
        return trace

    try:
        cli.hybrid_simulate = shifted
        try:
            runner = worker.Runner(mix)
            runner.run_pass()
        finally:
            cli.hybrid_simulate = original
        assert runner.failed == 1, runner.failed
        print(f"ok: shifted traces counted: {runner.failed} of {runner.attempted} ops failed")

        mix.models = [(name, doc, 2 - expected) if name == "rotation-unsafe"
                      else (name, doc, expected) for name, doc, expected in mix.models]
        runner = worker.Runner(mix)
        runner.run_pass()
        assert runner.failed == 1, runner.failed
        print(f"ok: flipped verdict counted: {runner.failed} of {runner.attempted} ops failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = launch(BENCH["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok: bare directory exits {proc.returncode} without a result")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("selfcheck passed")
