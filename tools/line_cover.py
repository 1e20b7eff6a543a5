"""Line coverage of the package by tier-1 and by one benchmark pass.

    python3 tools/line_cover.py

Runs tier-1 in this process through ``pytest.main``, then one pass of
every perfbench workload (``perfbench/workloads.py``, imported, not
changed), each under a ``sys.settrace`` tracer that records the lines run
in ``src/reachflow``.  The tracer is armed for every thread
(``threading.settrace``) and armed again before each test, and Hypothesis
runs without its explain phase: that phase installs its own trace function
and never restores ours.  Hypothesis keeps no example database and pytest
no cache or bytecode, and the workloads work in a temporary directory, so
the run writes nothing into the repository.

Prints, per module: its executable lines (every line a code object's
``co_lines`` names), how many of them no test runs, how many no workload
pass runs, and the numbers of the lines no test runs.  Takes a few
minutes: the tracer slows every call.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "reachflow"


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the module."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTracer:
    """The lines run in package files while armed, per file."""

    def __init__(self):
        self.hits = defaultdict(set)
        self.prefix = str(PACKAGE) + "/"

    def arm(self):
        sys.settrace(self._call)
        threading.settrace(self._call)

    def disarm(self):
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        lines = self.hits[path]

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line


class _Armed:
    """pytest plugin: Hypothesis without its explain phase, and the tracer
    armed again before each test."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_configure(self, config):
        from hypothesis import Phase, settings

        settings.register_profile("line_cover", database=None,
                                  phases=[p for p in Phase if p is not Phase.explain])
        settings.load_profile("line_cover")

    def pytest_runtest_setup(self, item):
        self.tracer.arm()


def _forget_package():
    """Drop the package's modules, so the next import runs their top level
    under the armed tracer."""
    for name in [m for m in sys.modules if m == "reachflow" or m.startswith("reachflow.")]:
        del sys.modules[name]


def tier1(tracer: LineTracer) -> int:
    import pytest

    tracer.arm()
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(REPO / "tests")], plugins=[_Armed(tracer)])
    finally:
        tracer.disarm()


def workload_pass(tracer: LineTracer) -> None:
    sys.path.insert(0, str(REPO / "perfbench"))
    tracer.arm()
    try:
        from workloads import WORKLOADS

        for make in WORKLOADS.values():
            with tempfile.TemporaryDirectory(prefix="line_cover-") as tmp:
                for op in make(1, False, Path(tmp) / "work").ops():
                    op()
    finally:
        tracer.disarm()


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "src"))
    tests, bench = LineTracer(), LineTracer()
    status = tier1(tests)
    _forget_package()
    workload_pass(bench)
    print(f"\n{'module':<14}{'lines':>7}{'no test':>9}{'no pass':>9}  lines no test runs")
    totals = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        untested = sorted(lines - tests.hits[str(path)])
        unrun = lines - bench.hits[str(path)]
        for i, count in enumerate((len(lines), len(untested), len(unrun))):
            totals[i] += count
        print(f"{path.stem:<14}{len(lines):>7}{len(untested):>9}{len(unrun):>9}  "
              f"{' '.join(map(str, untested))}")
    print(f"{'total':<14}{totals[0]:>7}{totals[1]:>9}{totals[2]:>9}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
