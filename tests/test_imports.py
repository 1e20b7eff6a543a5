"""Every name a package module imports is used in that module, every
private top-level helper is referenced somewhere in the package, every
parameter of a package function is read in its body, and every function
the benchmark's tracer wraps still exists.

Refactors that delete call sites tend to leave imports behind; no linter
is a dependency, so this walks the syntax trees with the standard library.
A name counts as used when it appears as an identifier anywhere in the
module (annotations included) or is listed in the module's ``__all__``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reachflow"
TRACER = ROOT / "perfbench" / "tracer.py"


def _imported(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
        # quoted annotations such as -> "HPolytope"
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(
                    n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n\nprint(pi)\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == ["os", "tau"]


def _private_definitions(tree):
    """(name, line) of each private top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _leftovers(trees):
    """Private top-level names of ``{module: tree}`` that no module reads,
    as a name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in sorted(trees.items())
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_private_helpers_are_referenced():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in PACKAGE.glob("*.py")
    }
    left = _leftovers(trees)
    assert not left, f"private names nothing in the package reads: {', '.join(left)}"


def test_detects_a_leftover_private_helper():
    used = ast.parse("from .a import _helper\n\nprint(_helper(), _CAP)\n")
    defs = ast.parse(
        "_CAP = 3\n_STALE = 4\n\n"
        "def _helper():\n    return 1\n\n"
        "def _left_behind():\n    return _helper()\n\n"
        "class _Unused:\n    pass\n"
    )
    assert _leftovers({"a.py": defs, "b.py": used}) == [
        "a.py: _STALE (line 2)",
        "a.py: _left_behind (line 7)",
        "a.py: _Unused (line 10)",
    ]


def _unread_parameters(tree):
    """``name(parameter) (line n)`` for each parameter of a function in
    ``tree`` that its body never reads, in line order; ``self`` and ``cls``
    are exempt."""
    functions = [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for node in sorted(functions, key=lambda n: n.lineno):
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for a in params:
            if a.arg not in ("self", "cls") and a.arg not in read:
                yield f"{node.name}({a.arg}) (line {node.lineno})"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = list(_unread_parameters(tree))
    assert not unread, f"{path.name} has parameters no body reads: {', '.join(unread)}"


def test_detects_an_unread_parameter():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, x, unused=1):\n"
        "        return x\n\n"
        "def f(a, *args, flag=False, **kw):\n"
        "    def inner(b):\n"
        "        return a + b\n"
        "    return inner(*args, **kw)\n"
    )
    assert list(_unread_parameters(tree)) == ["m(unused) (line 2)", "f(flag) (line 5)"]


def _spanned():
    """The ``SPANNED`` (module, attribute) pairs of the benchmark tracer,
    read from its syntax tree so the benchmark is never imported."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANNED")


@pytest.mark.parametrize("module,attr", _spanned(), ids=lambda v: v)
def test_traced_functions_resolve(module, attr):
    obj = importlib.import_module(f"reachflow.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"reachflow.{module} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)
