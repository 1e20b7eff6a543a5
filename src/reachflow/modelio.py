"""JSON model and result files.

Model documents (format tag ``flowpipe-model/1``) describe one system --
linear-discrete, linear-continuous, hybrid, or nonlinear -- plus an
optional analysis config.  Result documents (``flowpipe-result/1``)
record a computed flowpipe together with the SHA-256 of the canonical
model serialization, so a result can always be traced to the exact model
it came from.

Serialization is canonical: sorted keys, fixed separators, two-space
indent, floats in shortest round-trip form.  Loading a result file and
saving it again reproduces the bytes exactly.  The writer,
``canonical_dumps``, emits byte for byte what ``json.dumps(doc,
sort_keys=True, indent=2, allow_nan=False)`` does, but leaves the number
arrays to the C encoder.  A document holding anything other than plain
JSON types (dicts with str keys, lists, str, int, float, bool, None) --
a tuple, a numpy scalar, an int key -- or a value ``json.dumps`` refuses
is handed to that ``json.dumps`` call itself.

Validation errors carry the dotted path of the offending entry
(``modes[1].a: must be a matrix``) rather than a bare message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from itertools import chain
from math import inf, isfinite
from typing import Optional

import numpy as np

from .exprs import ExprError, parse_field
from .hybridize import NonlinearSystem
from .hybridreach import HybridAutomaton, HybridFlowpipe, Mode, Transition
from .linreach import CONTINUOUS, DISCRETE, LinearSystem, ReachConfig
from .setgeom import Box, HPolytope, SetRep, VPolytope, Zonotope

MODEL_FORMAT = "flowpipe-model/1"
RESULT_FORMAT = "flowpipe-result/1"

KIND_LINEAR_DISCRETE = "linear-discrete"
KIND_LINEAR_CONTINUOUS = "linear-continuous"
KIND_HYBRID = "hybrid"
KIND_NONLINEAR = "nonlinear"
KINDS = (KIND_LINEAR_DISCRETE, KIND_LINEAR_CONTINUOUS, KIND_HYBRID, KIND_NONLINEAR)


class ModelError(ValueError):
    """Malformed model or result document."""


# ---------------------------------------------------------------------------
# canonical JSON


_COMPACT = json.JSONEncoder(separators=(",", ": "), allow_nan=False).encode
_STRING = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    if not isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant")
    return float.__repr__(x)


# the exact types whose JSON text holds no comma, each with its writer
_NUMBERS = {
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _Defer(Exception):
    """A value that is not a plain JSON type: ``json.dumps`` writes it."""


def canonical_dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` plus
    a newline, byte for byte.

    Dicts and lists are walked here.  Each list of numbers, and each list
    of number rows, is written by the C encoder and indented by string
    replacement.  Text is reused by identity: a row list that one document
    holds many times, as the segments of a ``result_doc`` over one template
    hold one normals list, is written once per depth.  Anything else -- a
    tuple, a non-str key, a subclass of a JSON type, nan, a cycle -- goes
    to ``json.dumps`` itself, which writes it or raises as it always has.
    """
    out: list = []
    try:
        _write(doc, 0, out, {})
    except (_Defer, ValueError, TypeError, RecursionError):
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out.append("\n")
    return "".join(out)


def _write(o, level: int, out: list, seen: dict) -> None:
    t = type(o)
    if t is str:
        out.append(_STRING(o))
    elif t in _NUMBERS:
        out.append(_NUMBERS[t](o))
    elif t is dict:
        if set(map(type, o)) - {str}:
            raise _Defer
        _members([(_STRING(k) + ": ", o[k]) for k in sorted(o)], "{}", level, out, seen)
    elif t is list:
        # the document holds every list it is walked through, so no id is
        # reused while ``seen`` lives
        key = (id(o), level)
        if key in seen:
            out.append(seen[key])
            return
        kinds = set(map(type, o))
        if kinds == {list} and all(o) and set(map(type, chain.from_iterable(o))) <= _NUMBERS.keys():
            seen[key] = _rows(o, level)
            out.append(seen[key])
            return
        elif o and kinds <= _NUMBERS.keys():
            ind = "\n" + "  " * (level + 1)
            out.append("[" + ind + _COMPACT(o)[1:-1].replace(",", "," + ind)
                       + ind[:-2] + "]")
            return
        _members([("", v) for v in o], "[]", level, out, seen)
    else:
        raise _Defer


def _members(items: list, brackets: str, level: int, out: list, seen: dict) -> None:
    """A dict or list, one ``(prefix, value)`` member per line."""
    if not items:
        out.append(brackets)
        return
    ind = "\n" + "  " * (level + 1)
    sep = brackets[0] + ind
    for prefix, value in items:
        t = type(value)
        if t in _NUMBERS:  # written here, sparing the call for most members
            out.append(sep + prefix + _NUMBERS[t](value))
        else:
            out.append(sep + prefix)
            _write(value, level + 1, out, seen)
        sep = "," + ind
    out.append(ind[:-2] + brackets[1])


def _rows(o: list, level: int) -> str:
    """A list of non-empty rows of numbers, through the C encoder.  Its
    text depends on the list and the depth alone, so ``_write`` keeps it
    for the list object: segments over one template share one read-only
    normals list, and its text is reused by identity."""
    row = "\n" + "  " * (level + 1)
    item = row + "  "
    return ("[" + row + "[" + item
            + _COMPACT(o)[2:-2].replace(",", "," + item)
            .replace("]," + item + "[", row + "]," + row + "[" + item)
            + row + "]" + row[:-2] + "]")


def model_sha256(doc: dict) -> str:
    """Hash of the canonical serialization, not of any particular file."""
    return hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# document helpers


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ModelError(f"{path or 'document'}: must be an object")
    if key not in obj:
        raise ModelError(f"{_join(path, key)}: missing")
    return obj[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(obj: dict, key: str, path: str, decode, optional: bool = False):
    """``obj[key]`` decoded as ``decode(value, dotted path)``.  A missing
    key is an error, or None when ``optional``."""
    if optional and key not in obj:
        return None
    return decode(_require(obj, key, path), _join(path, key))


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ModelError(f"{path}: must be a string")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{path}: must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = inf
    # json.load reads Infinity and NaN as floats
    if not isfinite(x):
        raise ModelError(f"{path}: must be a finite number")
    return x


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelError(f"{path}: must be a non-empty array of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelError(f"{path}: must be a non-empty array of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if len({r.shape[0] for r in rows}) != 1:
        raise ModelError(f"{path}: rows must have equal length")
    return np.vstack(rows)


def decode_set(obj, path: str = "set") -> SetRep:
    kind = _require(obj, "type", path)
    try:
        if kind == "box":
            return Box(_field(obj, "lower", path, _vector), _field(obj, "upper", path, _vector))
        if kind == "hpolytope":
            return HPolytope(
                _field(obj, "normals", path, _matrix), _field(obj, "offsets", path, _vector)
            )
        if kind == "vpolytope":
            return VPolytope(_field(obj, "vertices", path, _matrix))
        if kind == "zonotope":
            # a point has no generators: the one matrix that may be empty
            gens = [] if obj.get("generators") == [] else _field(obj, "generators", path, _matrix)
            center = _field(obj, "center", path, _vector)
            # stored one generator per row; the constructor takes columns
            if len(gens) and gens.shape[1] != center.shape[0]:
                raise ModelError(
                    f"{_join(path, 'generators')}: generator length does not "
                    "match the center"
                )
            return Zonotope(center, np.reshape(gens, (-1, center.shape[0])).T)
    except ModelError:
        raise
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from None
    raise ModelError(f"{_join(path, 'type')}: unknown set type {kind!r}")


def encode_set(s: SetRep) -> dict:
    return _encode_set(s, {})


def _encode_set(s: SetRep, rows: dict) -> dict:
    """``encode_set(s)``, whose normals list is the one ``rows`` holds for
    the normals buffer of s, by identity, or a new one kept there."""
    if isinstance(s, Box):
        return {"type": "box", "lower": s.lower.tolist(), "upper": s.upper.tolist()}
    if isinstance(s, HPolytope):
        # the entry holds the buffer, so its id stays its own
        if id(s.normals) not in rows:
            rows[id(s.normals)] = s.normals, s.normals.tolist()
        return {
            "type": "hpolytope",
            "normals": rows[id(s.normals)][1],
            "offsets": s.offsets.tolist(),
        }
    if isinstance(s, VPolytope):
        return {"type": "vpolytope", "vertices": s.vertices.tolist()}
    if isinstance(s, Zonotope):
        return {
            "type": "zonotope",
            "center": s.center.tolist(),
            "generators": s.generators.T.tolist(),
        }
    raise ModelError(f"cannot encode set type {type(s).__name__}")


def _decode_config(obj, path: str) -> ReachConfig:
    if not isinstance(obj, dict):
        raise ModelError(f"{path}: must be an object")
    known = {f.name for f in fields(ReachConfig)}
    for key in obj:
        if key not in known:
            raise ModelError(f"{_join(path, key)}: unknown config entry")
    kw = {"horizon": _field(obj, "horizon", path, _number)}
    for key, decode in (
        ("step", _number), ("mode", _string), ("strategy", _string),
        ("bloat_policy", _string), ("bad_set", decode_set), ("template", _matrix),
        ("max_steps", _number), ("state_bound", _number),
    ):
        if key in obj:
            kw[key] = _field(obj, key, path, decode)
    try:
        return ReachConfig(**kw)
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# model documents


@dataclass(frozen=True, eq=False)
class ParsedModel:
    """A validated model document with its built system objects.

    Exactly one of ``system`` (linear kinds), ``automaton`` (hybrid) or
    ``nonlinear`` is set; hybrid and nonlinear models carry their initial
    set separately.
    """

    kind: str
    doc: dict
    sha256: str
    name: Optional[str] = None
    config: Optional[ReachConfig] = None
    system: Optional[LinearSystem] = None
    automaton: Optional[HybridAutomaton] = None
    init_mode: Optional[str] = None
    x0: Optional[SetRep] = None
    nonlinear: Optional[NonlinearSystem] = None


def _decode_linear(doc: dict, kind: str) -> LinearSystem:
    a = _field(doc, "a", "", _matrix)
    x0 = _field(doc, "x0", "", decode_set)
    b = _field(doc, "b", "", _matrix, optional=True)
    input_set = _field(doc, "input", "", decode_set, optional=True)
    time_kind = DISCRETE if kind == KIND_LINEAR_DISCRETE else CONTINUOUS
    try:
        return LinearSystem(a, x0, b=b, input_set=input_set, time_kind=time_kind)
    except ValueError as e:
        raise ModelError(str(e)) from None


def _decode_mode(obj, path: str) -> Mode:
    name = _require(obj, "name", path)
    if not isinstance(name, str) or not name:
        raise ModelError(f"{_join(path, 'name')}: must be a non-empty string")
    a = _field(obj, "a", path, _matrix)
    b = _field(obj, "b", path, _matrix, optional=True)
    input_set = _field(obj, "input", path, decode_set, optional=True)
    invariant = _field(obj, "invariant", path, decode_set, optional=True)
    try:
        return Mode(name, a, b=b, input_set=input_set, invariant=invariant)
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from None


def _decode_transition(obj, path: str) -> Transition:
    source = _require(obj, "source", path)
    target = _require(obj, "target", path)
    for key, val in (("source", source), ("target", target)):
        if not isinstance(val, str):
            raise ModelError(f"{_join(path, key)}: must be a string")
    guard = _field(obj, "guard", path, decode_set)
    reset_matrix = _field(obj, "reset_matrix", path, _matrix, optional=True)
    reset_offset = _field(obj, "reset_offset", path, _vector, optional=True)
    try:
        return Transition(
            source, target, guard,
            reset_matrix=reset_matrix, reset_offset=reset_offset,
        )
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from None


def _decode_hybrid(doc: dict):
    modes_doc = _require(doc, "modes", "")
    if not isinstance(modes_doc, list) or not modes_doc:
        raise ModelError("modes: must be a non-empty array")
    modes = tuple(
        _decode_mode(m, f"modes[{i}]") for i, m in enumerate(modes_doc)
    )
    trans_doc = doc.get("transitions", [])
    if not isinstance(trans_doc, list):
        raise ModelError("transitions: must be an array")
    transitions = tuple(
        _decode_transition(t, f"transitions[{i}]") for i, t in enumerate(trans_doc)
    )
    time = doc.get("time", "continuous")
    if time not in ("continuous", "discrete"):
        raise ModelError("time: must be 'continuous' or 'discrete'")
    init_mode = _field(doc, "init_mode", "", _string)
    x0 = _field(doc, "x0", "", decode_set)
    try:
        auto = HybridAutomaton(modes, transitions, time_kind=time)
        auto.mode(init_mode)
    except (ValueError, KeyError) as e:
        raise ModelError(str(e)) from None
    return auto, init_mode, x0


def _decode_nonlinear(doc: dict):
    variables = _require(doc, "variables", "")
    rhs = _require(doc, "rhs", "")
    if not isinstance(variables, list) or not all(
        isinstance(v, str) for v in variables
    ):
        raise ModelError("variables: must be an array of strings")
    if not isinstance(rhs, list) or not all(isinstance(s, str) for s in rhs):
        raise ModelError("rhs: must be an array of expression strings")
    try:
        f = parse_field(rhs, variables)
    except ExprError as e:
        raise ModelError(f"rhs: {e}") from None
    x0 = _field(doc, "x0", "", decode_set)

    def curvature(raw, path):
        if isinstance(raw, list):
            hb = _vector(raw, path)
            if hb.shape[0] != len(variables):
                raise ModelError(f"{path}: one entry per variable")
        else:
            hb = np.full(len(variables), _number(raw, path))
        if np.any(hb < 0):
            raise ModelError(f"{path}: must be nonnegative")
        return hb

    hb = _field(doc, "hessian_bound", "", curvature, optional=True)
    return NonlinearSystem(f=f, dim=len(variables), hessian_bound=hb), x0


def parse_model(doc: dict) -> ParsedModel:
    if not isinstance(doc, dict):
        raise ModelError("document: must be a JSON object")
    fmt = _require(doc, "format", "")
    if fmt != MODEL_FORMAT:
        raise ModelError(f"format: expected {MODEL_FORMAT!r}, got {fmt!r}")
    kind = _require(doc, "kind", "")
    if kind not in KINDS:
        raise ModelError(f"kind: unknown kind {kind!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelError("name: must be a string")
    config = _field(doc, "config", "", _decode_config, optional=True)

    if kind in (KIND_LINEAR_DISCRETE, KIND_LINEAR_CONTINUOUS):
        built = {"system": _decode_linear(doc, kind)}
    elif kind == KIND_HYBRID:
        auto, init_mode, x0 = _decode_hybrid(doc)
        if x0.dim != auto.dim:
            raise ModelError("x0: dimension does not match the automaton")
        built = {"automaton": auto, "init_mode": init_mode, "x0": x0}
    else:
        system, x0 = _decode_nonlinear(doc)
        if x0.dim != system.dim:
            raise ModelError("x0: dimension does not match the variables")
        built = {"nonlinear": system, "x0": x0}
    # hashed once every number is known to be finite, as canonical JSON needs
    return ParsedModel(kind, doc, model_sha256(doc), name=name, config=config, **built)


def load_model(path) -> ParsedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelError(f"{path}: not valid JSON ({e})") from None
    return parse_model(doc)


def save_model(doc: dict, path) -> None:
    parse_model(doc)  # refuse to write a document that cannot be read back
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))


# ---------------------------------------------------------------------------
# result documents


def _encode_segment(seg, rows: dict) -> dict:
    return {
        "k": int(seg.k),
        "t0": float(seg.t0),
        "t1": float(seg.t1),
        "set": _encode_set(seg.set_rep, rows),
        "exact": bool(seg.set_rep.exact),
    }


def result_doc(model: ParsedModel, pipe) -> dict:
    """Result document for a flowpipe computed from ``model``.

    Segments over one template share one read-only normals buffer (every
    lazy run, and the pieces one prepared set clips), and their sets share
    one normals list here, which ``canonical_dumps`` writes once: treat the
    document as read-only.
    """
    rows: dict = {}
    out = {
        "format": RESULT_FORMAT,
        "kind": model.kind,
        "model_sha256": model.sha256,
        "status": pipe.status,
        "time_step": None if pipe.time_step is None else float(pipe.time_step),
    }
    if model.name is not None:
        out["name"] = model.name
    echo = model.doc.get("config")
    if echo is not None:
        out["config"] = echo
    if isinstance(pipe, HybridFlowpipe):
        out["flows"] = [
            {
                "mode": f.mode,
                "entry_step": int(f.entry_step),
                "entry_spread": int(f.entry_spread),
                "depth": int(f.depth),
                "status": f.status,
                "status_step": None if f.status_step is None else int(f.status_step),
                "segments": [_encode_segment(s, rows) for s in f.segments],
            }
            for f in pipe.flows
        ]
        out["jumps"] = [
            {
                "source": j.transition.source,
                "target": j.transition.target,
                "from_flow": int(j.from_flow),
                "to_flow": None if j.to_flow is None else int(j.to_flow),
                "step_lo": int(j.step_lo),
                "step_hi": int(j.step_hi),
                "pruned": bool(j.pruned),
            }
            for j in pipe.jumps
        ]
        out["bad_flow"] = None if pipe.bad_flow is None else int(pipe.bad_flow)
    else:
        out["status_step"] = (
            None if pipe.status_step is None else int(pipe.status_step)
        )
        out["segments"] = [_encode_segment(s, rows) for s in pipe.segments]
        rigorous = getattr(pipe, "rigorous", None)
        if rigorous is not None:
            out["rigorous"] = bool(rigorous)
    return out


def save_result(doc: dict, path) -> None:
    if doc.get("format") != RESULT_FORMAT:
        raise ModelError(f"format: expected {RESULT_FORMAT!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))


def load_result(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
        raise ModelError(f"{path}: not a {RESULT_FORMAT} document")
    return doc


def result_segments(doc: dict):
    """All segments of a result document as ``(group, Segment-like dicts)``.

    Linear and nonlinear results yield one anonymous group; hybrid results
    one group per flow, labelled by mode name.
    """
    if "segments" in doc:
        yield None, doc["segments"]
        return
    for flow in doc.get("flows", []):
        yield flow["mode"], flow["segments"]
