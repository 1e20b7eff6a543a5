"""Spans and counters around reachflow's public functions, recorded from
outside the package.

Each target function is wrapped in every ``reachflow`` module namespace
that holds it (``from .setgeom import is_empty`` binds its own name in
``linreach``, ``hybridreach`` and ``hybridize``), and methods are wrapped
on their class, so ``isinstance`` keeps working.  A span is
``(name, start, end, parent)``; spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs wrapped with a span; "Class.method" wraps a
# method on its class.  setgeom.support_batch is named per set type.
SPANNED = (
    ("numkernel", "lp_max"),
    ("numkernel", "mat_exp"),
    ("setgeom", "is_empty"),
    ("setgeom", "intersect"),
    ("setgeom", "contains_set"),
    ("setgeom", "support"),
    ("setgeom", "support_batch"),
    ("setgeom", "HPolytope.__init__"),
    ("linreach", "reach"),
    ("linreach", "LazyReachSet.advance"),
    ("linreach", "LazyReachSet.concretize"),
    ("linreach", "step_input_facets"),
    ("linreach", "step_input_vertices"),
    ("linreach", "discretize_continuous"),
    ("hybridreach", "hybrid_reach"),
    ("hybridreach", "mode_reach"),
    ("hybridreach", "guard_cross"),
    ("hybridreach", "hybrid_simulate"),
    ("hybridize", "dynamic_hybridize_reach"),
    ("hybridize", "linearize"),
    ("modelio", "load_model"),
    ("modelio", "result_doc"),
    ("modelio", "save_result"),
    ("cli", "main"),
)

# functions whose boolean result is counted, for useful-outcome ratios
OUTCOMES = {"setgeom.is_empty", "setgeom.contains_set"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '')}"


class Tracer:
    """Span recorder; spans and counts are taken only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []  # [span index, start, child time]
        self.calls = Counter()
        self.true = Counter()
        self.self_s = defaultdict(float)
        self.pivots = 0

    def reset_pass(self):
        self.calls.clear()
        self.true.clear()
        self.self_s.clear()
        self.pivots = 0

    def snapshot(self) -> dict:
        """Per-pass aggregates since the last ``reset_pass``."""
        return {
            "calls": dict(self.calls),
            "true": dict(self.true),
            "self_s": dict(self.self_s),
            "pivots": self.pivots,
        }

    def _run(self, name, fn, args, kwargs, outcome):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            total = end - frame[1]
            self.spans[idx] = (name, frame[1], end, parent)
            self.calls[name] += 1
            self.self_s[name] += total - frame[2]
            if self._stack:
                self._stack[-1][2] += total
        if outcome and result:
            self.true[name] += 1
        return result

    def _wrap(self, name, fn):
        outcome = name in OUTCOMES
        by_type = name == "setgeom.support_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = f"{name}.{type(args[0]).__name__.lower()}" if by_type else name
            return self._run(label, fn, args, kwargs, outcome)

        return traced

    def install(self):
        """Wrap every target in place; call once, after reachflow is imported."""
        pkg = "reachflow"
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == pkg or k.startswith(pkg + "."))]
        for module, attr in SPANNED:
            owner = sys.modules[f"{pkg}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(span_name(module, attr), cls.__dict__[meth]))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span_name(module, attr), fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        # pivots are counted, not spanned: there are tens of thousands
        numkernel = sys.modules[f"{pkg}.numkernel"]
        pivot = numkernel._pivot

        @functools.wraps(pivot)
        def counted(*args):
            if self.active:
                self.pivots += 1
            return pivot(*args)

        numkernel._pivot = counted

    def calls_within(self, name, ancestor, since=0) -> int:
        """Spans named ``name`` from index ``since`` on that ran inside ``ancestor``."""
        count = 0
        for name_i, _, _, parent in self.spans[since:]:
            if name_i != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
