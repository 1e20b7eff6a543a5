"""Per-operation CPU time of one perfbench workload at two source trees.

Runs every operation of a workload (check-mix by default) from two trees in
alternating fresh processes: in even rounds the first tree's process runs
first, in odd rounds the second's.  Each process imports its own tree's
``src/reachflow`` and ``perfbench/workloads.py``, runs one checked warm-up
pass, then ``PASSES`` timed passes, and times every operation with
``time.process_time`` under one BLAS thread.  The report gives, per
operation, the least CPU time over every process and pass of each tree and
their ratio, and the least CPU time of those passes spent writing results
(in ``modelio.result_doc`` and ``modelio.canonical_dumps``, which also
hashes each model as it loads); beside it the simplex's work in the
warm-up pass of the first process of each tree, counted by wrapping
``numkernel``'s functions: phase ones (and how many end infeasible),
Bland walks and pivots, with any operation whose counts differ flagged;
beside those the set work of the same pass, counted by wrapping
``setgeom``: ``_RowBound`` constructions (each an equal-row match and,
for a parallelotope, an SVD and a solve) and per-set
``_Prepared.intersect`` calls; then the warm-up fingerprints of both
trees side by side.

    python3 tools/ab_ops.py PARENT_TREE CHANGE_TREE [--workload check-mix]
        [--seed 1]

A tree is a directory holding ``src/reachflow`` and ``perfbench``, such as
``git archive COMMIT | tar -x -C DIR``.  The tool only reads the trees; it
adds nothing to perfbench's result line and sets no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROUNDS = 4  # processes per tree
PASSES = 4  # timed passes per process
SOLVER = ("phase ones", "infeasible", "walks", "pivots")  # counted per operation
CHECKS = ("row bounds", "intersects")  # counted per operation
WRITER = ("result_doc", "canonical_dumps")  # timed per operation, as one sum


def op_name(op) -> str:
    """``check_model`` partials are named by their model, methods by name."""
    args = getattr(op, "args", ())
    return str(args[0]) if args else op.__name__


def count_solver(numkernel) -> tuple[dict, Callable[[], None]]:
    """Wrap the simplex's phase one, walk and pivot in ``numkernel``: the
    counters they add to, and a function that restores the originals."""
    counts = dict.fromkeys(SOLVER, 0)
    phase_one, walk, pivot = numkernel._phase_one, numkernel._walk, numkernel._pivot

    def counted_phase_one(*args):
        counts["phase ones"] += 1
        out = phase_one(*args)
        counts["infeasible"] += isinstance(out, numkernel.LpResult)
        return out

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    numkernel._phase_one = counted_phase_one
    numkernel._walk = counted("walks", walk)
    numkernel._pivot = counted("pivots", pivot)

    def restore():
        numkernel._phase_one, numkernel._walk, numkernel._pivot = phase_one, walk, pivot
    return counts, restore


def count_checks(setgeom) -> tuple[dict, Callable[[], None]]:
    """Wrap ``setgeom._RowBound`` and ``setgeom._Prepared.intersect``: the
    counters they add to, and a function that restores the originals."""
    counts = dict.fromkeys(CHECKS, 0)
    row_bound, intersect = setgeom._RowBound, setgeom._Prepared.intersect

    def counted_row_bound(*args):
        counts["row bounds"] += 1
        return row_bound(*args)

    def counted_intersect(*args):
        counts["intersects"] += 1
        return intersect(*args)

    setgeom._RowBound = counted_row_bound
    setgeom._Prepared.intersect = counted_intersect

    def restore():
        setgeom._RowBound, setgeom._Prepared.intersect = row_bound, intersect
    return counts, restore


def time_writer(modelio, cli) -> tuple[list, Callable[[], None]]:
    """Wrap ``modelio``'s result writer, and ``cli``'s name for
    ``result_doc``: a one-entry list of the CPU seconds they have taken, and
    a function that restores the originals."""
    spent = [0.0]
    originals = [getattr(modelio, name) for name in WRITER]

    def timed(fn):
        def wrapper(*args):
            t0 = time.process_time()
            out = fn(*args)
            spent[0] += time.process_time() - t0
            return out
        return wrapper

    modelio.result_doc, modelio.canonical_dumps = map(timed, originals)
    cli.result_doc = modelio.result_doc

    def restore():
        modelio.result_doc, modelio.canonical_dumps = originals
        cli.result_doc = originals[0]
    return spent, restore


def child(tree: Path, workload: str, seed: int) -> dict:
    """One process: the tree's workload, a warm-up whose solver work is
    counted per operation, and timed passes."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import reachflow
    from reachflow import cli, modelio, numkernel, setgeom
    from workloads import WORKLOADS

    where = Path(reachflow.__file__).resolve().parent
    if where != (tree / "src" / "reachflow").resolve():
        raise ImportError(f"reachflow imported from {where}, not from {tree}")
    workdir = Path(tempfile.mkdtemp(prefix="ab_ops-"))
    try:
        wl = WORKLOADS[workload](seed, False, workdir / "work")
        ops = wl.ops()
        counts, restore = count_solver(numkernel)
        checks, restore_checks = count_checks(setgeom)
        results, solver, work = [], [], []
        for op in ops:
            before, checked = dict(counts), dict(checks)
            results.append(op())
            solver.append([counts[k] - before[k] for k in SOLVER])
            work.append([checks[k] - checked[k] for k in CHECKS])
        restore()
        restore_checks()
        failed = [r for r in wl.check(results) if r is not None]
        fingerprint = wl.fingerprint(results)
        del results
        cpu = [[] for _ in ops]
        writing = [[] for _ in ops]
        spent, restore = time_writer(modelio, cli)
        for _ in range(PASSES):
            for times, written, op in zip(cpu, writing, ops):
                w0 = spent[0]
                t0 = time.process_time()
                op()
                times.append(time.process_time() - t0)
                written.append(spent[0] - w0)
        restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"names": [op_name(op) for op in ops], "cpu": cpu, "writing": writing,
            "solver": solver, "checks": work, "fingerprint": fingerprint, "failed": failed}


def run_child(tree: Path, args, env: dict) -> dict:
    cmd = [sys.executable, __file__, "--child", str(tree), "--workload", args.workload,
           "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if out.returncode:
        sys.exit(f"{tree}: the operations failed\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", type=Path, help="PARENT_TREE CHANGE_TREE")
    ap.add_argument("--workload", default="check-mix")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child.resolve(), args.workload, args.seed)))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: PARENT_TREE CHANGE_TREE")
    # the workers' BLAS and hash settings, as perfbench's launcher sets them
    sys.path.insert(0, str(REPO / "perfbench"))
    from run import CHILD_ENV

    env = {**os.environ, **CHILD_ENV}
    trees = [t.resolve() for t in args.trees]
    runs = [[], []]
    for r in range(ROUNDS):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[side].append(run_child(trees[side], args, env))
    names = runs[0][0]["names"]

    def least(key):
        return [[min(t for run in side for t in run[key][i]) for i in range(len(names))]
                for side in runs]

    print(f"{args.workload}, seed {args.seed}: {ROUNDS} processes per tree, "
          f"{PASSES} timed passes each, least CPU ms per operation "
          f"(wr: in {' and '.join(WRITER)})")
    print(f"{'operation':<22}{'parent':>10}{'change':>10}{'ratio':>8}"
          f"{'wr parent':>11}{'wr change':>11}")
    for name, a, b, wa, wb in zip(names, *least("cpu"), *least("writing")):
        print(f"{name:<22}{1e3 * a:>10.1f}{1e3 * b:>10.1f}{b / a if a else float('nan'):>8.3f}"
              f"{1e3 * wa:>11.1f}{1e3 * wb:>11.1f}")
    print(f"solver work in the warm-up pass, parent / change ({', '.join(SOLVER)}):")
    for name, a, b in zip(names, runs[0][0]["solver"], runs[1][0]["solver"]):
        cells = "".join(f"{f'{x} / {y}':>16}" for x, y in zip(a, b))
        print(f"{name:<22}{cells}{'  DIFFERENT' if a != b else ''}")
    print(f"set work in the warm-up pass, parent / change ({', '.join(CHECKS)}):")
    for name, a, b in zip(names, runs[0][0]["checks"], runs[1][0]["checks"]):
        print(f"{name:<22}" + "".join(f"{f'{x} / {y}':>16}" for x, y in zip(a, b)))
    prints = [side[0]["fingerprint"] for side in runs]
    print("fingerprints (warm-up pass of the first process):")
    for i, (a, b) in enumerate(zip(*prints)):
        print(f"  {i}: {'same' if a == b else 'DIFFERENT'}  parent {a}  change {b}")
    failed = [f for side in runs for run in side for f in run["failed"]]
    for reason in failed:
        print(f"check failed: {reason}")
    return 1 if failed or prints[0] != prints[1] else 0


if __name__ == "__main__":
    sys.exit(main())
