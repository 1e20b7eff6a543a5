"""Every name a package module imports is used in that module, every
private top-level helper and private method is referenced somewhere in
the package, every
parameter of a package function is read in its body, every parameter with
a default is set by some call, no annotation of a public function or
method names a private type, every function the benchmark's tracer wraps
still exists, only ``setgeom`` keeps or reads a simplex start (``numkernel``
defines the start type), and every name the package exports in ``__all__``
resolves, so ``from reachflow import *`` works.

Refactors that delete call sites tend to leave imports behind; no linter
is a dependency, so this walks the syntax trees with the standard library.
A name counts as used when it appears as an identifier anywhere in the
module (annotations included) or is listed in the module's ``__all__``.
"""

import ast
import importlib
import math
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reachflow"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
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
    """(name, line) of each private top-level function, class or constant,
    and (``Class.name``, line) of each private method of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name.startswith("_") and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno
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
    """Private top-level names and private methods of ``{module: tree}``
    that no module reads: a top-level name as a name or as an attribute, a
    method only as an attribute, so a module-level function of the same
    name does not hide a stale method."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in sorted(trees.items())
        for name, line in _private_definitions(tree)
        if ("." in name and name.rpartition(".")[2] not in attrs)
        or ("." not in name and name not in names | attrs)
    ]


def test_private_helpers_are_referenced():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in PACKAGE.glob("*.py")
    }
    left = _leftovers(trees)
    assert not left, f"private names nothing in the package reads: {', '.join(left)}"


def test_detects_a_leftover_private_helper():
    used = ast.parse("from .a import _helper, _step\n\n"
                     "print(_helper(), _CAP, Start()._walk(), _step())\n")
    defs = ast.parse(
        "_CAP = 3\n_STALE = 4\n\n"
        "def _helper():\n    return 1\n\n"
        "def _left_behind():\n    return _helper()\n\n"
        "class _Unused:\n    pass\n\n"
        "class Start:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def _walk(self):\n        return 1\n\n"
        "    def _step(self):\n        return 2\n"
    )
    assert _leftovers({"a.py": defs, "b.py": used}) == [
        "a.py: _STALE (line 2)",
        "a.py: _left_behind (line 7)",
        "a.py: _Unused (line 10)",
        "a.py: Start._step (line 20)",
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


def _optional_parameters(tree):
    """``(function name, parameter, line, position)`` for each parameter
    with a default of each ``def`` in ``tree``, in line order.
    ``position`` counts the arguments of a call (``None`` for keyword-only
    ones), so the ``self`` or ``cls`` of a method takes none, and
    ``__init__`` is named after its class, as its callers name it."""
    owner = {
        id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
    }
    functions = [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for fn in sorted(functions, key=lambda n: n.lineno):
        cls = owner.get(id(fn))
        args = fn.args
        positional = args.posonlyargs + args.args
        shift = int(cls is not None and bool(positional)
                    and positional[0].arg in ("self", "cls"))
        name = cls if cls is not None and fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], start=first):
            yield name, a.arg, fn.lineno, i - shift
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, a.arg, fn.lineno, None


def _passed(trees):
    """``{callee name: [keywords, positions, first star]}`` over every call
    in ``trees``: the keywords and argument positions it is called with,
    and the earliest position of a ``*`` argument, which may fill that
    position and every later one.  A ``**`` argument may fill any keyword
    and is recorded as the keyword ``"**"``."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            seen = out.setdefault(name, [set(), set(), math.inf])
            seen[0].update(k.arg or "**" for k in node.keywords)
            for i, a in enumerate(node.args):
                seen[1].add(i)
                if isinstance(a, ast.Starred):
                    seen[2] = min(seen[2], i)
    return out


def _never_set(package, callers):
    """``module: name(parameter) (line n)`` for each parameter with a
    default of a function in ``package`` (``{module: tree}``) that no call
    in ``callers`` passes, by keyword, by position or through ``*``/``**``."""
    passed = _passed(callers)
    for module, tree in sorted(package.items()):
        for name, param, line, pos in _optional_parameters(tree):
            keywords, positions, star = passed.get(name, [set(), set(), math.inf])
            if param in keywords or "**" in keywords or (
                    pos is not None and (pos in positions or pos >= star)):
                continue
            yield f"{module}: {name}({param}) (line {line})"


def test_every_optional_parameter_has_a_caller():
    package = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in PACKAGE.glob("*.py")
    }
    callers = [
        ast.parse(path.read_text(), filename=str(path))
        for root in CALLERS for path in root.rglob("*.py")
    ]
    unset = list(_never_set(package, callers))
    assert not unset, f"parameters with a default that no call sets: {', '.join(unset)}"


def test_detects_a_never_set_parameter():
    package = ast.parse(
        "class A:\n"
        "    def __init__(self, x, scale=1):\n"
        "        self.x = x * scale\n\n"
        "    def m(self, y=0, *, knob=2):\n"
        "        return y + knob\n\n"
        "def f(a, b=1, c=2, d=3):\n"
        "    return a + b + c + d\n\n"
        "def g(a, unset=0, *, kw=None):\n"
        "    return a, unset, kw\n"
    )
    callers = ast.parse(
        "A(1, 2).m()\n"
        "A(1).m(knob=3)\n"
        "f(0, 1)\n"
        "f(0, *rest)\n"
        "g(1)\n"
    )
    assert list(_never_set({"a.py": package}, [callers])) == [
        "a.py: m(y) (line 5)",
        "a.py: g(unset) (line 11)",
        "a.py: g(kw) (line 11)",
    ]


def _annotation_names(ann):
    """Every identifier an annotation names, quoted parts included."""
    for node in ast.walk(ann):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def _private_in_signatures(tree):
    """``name: private names (line n)`` for each public top-level function,
    and each public method or ``__init__`` of a public top-level class,
    whose annotations name a private (underscore) name."""
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            functions += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body
                          if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and (fn.name == "__init__" or not fn.name.startswith("_"))]
    for name, fn in functions:
        if name.startswith("_"):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        anns = [a.annotation for a in params if a.annotation is not None]
        anns += [fn.returns] if fn.returns is not None else []
        private = sorted({n for ann in anns for n in _annotation_names(ann) if n.startswith("_")})
        if private:
            yield f"{name}: {', '.join(private)} (line {fn.lineno})"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_public_signatures_name_no_private_type(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    named = list(_private_in_signatures(tree))
    assert not named, f"{path.name} has public signatures naming private names: {', '.join(named)}"


def test_detects_a_private_type_in_a_public_signature():
    tree = ast.parse(
        "class _Wrap:\n    pass\n\n"
        "class Set:\n"
        "    def __init__(self, parts: Union[Box, _Wrap]):\n        pass\n\n"
        "    def grow(self) -> \"_Wrap\":\n        pass\n\n"
        "    def _inner(self, w: _Wrap):\n        pass\n\n"
        "def step(v: mod._Wrap, k: int = 0) -> Box:\n    pass\n\n"
        "def _helper(w: _Wrap):\n    pass\n\n"
        "def fine(v: Box) -> Optional[Box]:\n    pass\n"
    )
    assert list(_private_in_signatures(tree)) == [
        "step: _Wrap (line 14)",
        "Set.__init__: _Wrap (line 5)",
        "Set.grow: _Wrap (line 8)",
    ]


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


def _unresolved(module):
    """Names in ``module.__all__`` that the module does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_public_names_resolve():
    pkg = importlib.import_module("reachflow")
    assert _unresolved(pkg) == []
    namespace = {}
    exec("from reachflow import *", namespace)
    assert set(pkg.__all__) <= namespace.keys()


def test_detects_a_stale_public_name():
    stale = types.ModuleType("stale")
    stale.__all__ = ["Box", "Empty"]
    stale.Box = object
    assert _unresolved(stale) == ["Empty"]


# the names through which a simplex start is built, kept, read or dropped,
# and the modules that may name each: setgeom owns the rule for starts,
# numkernel defines the start type, and the stepping core in linreach alone
# lets go of a start, through setgeom._drop_start, when a run ends
_START_NAMES = {"_LpStart": {"setgeom.py", "numkernel.py"},
                "_start": {"setgeom.py"}, "_lp_start": {"setgeom.py"},
                "_drop_start": {"setgeom.py", "linreach.py"}}


def _start_uses(module, tree):
    """``module: name (line n)`` for each place ``tree`` names a start
    name it may not: as a name, an attribute, an import, a definition or a
    string (as ``getattr`` would take it)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        for name in names:
            if module not in _START_NAMES.get(name, {module}):
                yield f"{module}: {name} (line {node.lineno})"


def test_only_setgeom_keeps_and_reads_starts():
    found = sorted(
        use for path in PACKAGE.glob("*.py")
        for use in _start_uses(path.name, ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"start names outside setgeom: {', '.join(found)}"


def test_detects_a_start_read_outside_setgeom():
    tree = ast.parse(
        "from .numkernel import _LpStart\n"
        "from .setgeom import _drop_start\n\n"
        "def f(h, start):\n"
        "    _drop_start(h)\n"
        "    s = h._start or h._lp_start()\n"
        "    return getattr(h, '_start'), _LpStart(h.normals, h.offsets), start\n"
    )
    assert sorted(_start_uses("linreach.py", tree)) == [
        "linreach.py: _LpStart (line 1)",
        "linreach.py: _LpStart (line 7)",
        "linreach.py: _lp_start (line 6)",
        "linreach.py: _start (line 6)",
        "linreach.py: _start (line 7)",
    ]
    # only the stepping core in linreach lets go of a start
    assert [use for use in _start_uses("hybridize.py", tree) if "_drop_start" in use] == [
        "hybridize.py: _drop_start (line 2)",
        "hybridize.py: _drop_start (line 5)",
    ]
    assert list(_start_uses("numkernel.py", ast.parse("class _LpStart:\n    pass\n"))) == []
    assert list(_start_uses("numkernel.py", ast.parse("x._start = 1\n"))) == [
        "numkernel.py: _start (line 1)"]
