"""Model and result document handling."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reachflow.cli import main
from reachflow.hybridreach import hybrid_reach
from reachflow.hybridize import dynamic_hybridize_reach
from reachflow.linreach import reach
from reachflow.modelio import (
    ModelError,
    canonical_dumps,
    decode_set,
    encode_set,
    load_model,
    load_result,
    model_sha256,
    parse_model,
    result_doc,
    result_segments,
    save_model,
    save_result,
)
from reachflow.setgeom import Box, HPolytope, VPolytope, Zonotope, axis_bounds


def linear_doc(**extra):
    doc = {
        "format": "flowpipe-model/1",
        "kind": "linear-discrete",
        "a": [[0.0, 1.0], [-0.5, 0.0]],
        "x0": {"type": "box", "lower": [1.0, 1.0], "upper": [1.1, 1.1]},
    }
    doc.update(extra)
    return doc


def thermostat_doc(**extra):
    doc = {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "init_mode": "heat",
        "x0": {"type": "box", "lower": [19.0], "upper": [20.0]},
        "modes": [
            {
                "name": "heat",
                "a": [[-1.0]],
                "b": [[1.0]],
                "input": {"type": "box", "lower": [30.0], "upper": [30.0]},
                "invariant": {"type": "hpolytope", "normals": [[1.0]], "offsets": [22.0]},
            },
            {
                "name": "cool",
                "a": [[-1.0]],
                "b": [[1.0]],
                "input": {"type": "box", "lower": [10.0], "upper": [10.0]},
                "invariant": {"type": "hpolytope", "normals": [[-1.0]], "offsets": [-18.0]},
            },
        ],
        "transitions": [
            {
                "source": "heat",
                "target": "cool",
                "guard": {"type": "hpolytope", "normals": [[-1.0]], "offsets": [-22.0]},
            },
            {
                "source": "cool",
                "target": "heat",
                "guard": {"type": "hpolytope", "normals": [[1.0]], "offsets": [18.0]},
            },
        ],
        "config": {"horizon": 1.0, "step": 0.01},
    }
    doc.update(extra)
    return doc


def nonlinear_doc(**extra):
    doc = {
        "format": "flowpipe-model/1",
        "kind": "nonlinear",
        "variables": ["x"],
        "rhs": ["-x**3"],
        "x0": {"type": "box", "lower": [1.0], "upper": [1.0]},
        "hessian_bound": 8.0,
        "config": {"horizon": 0.3, "step": 0.01},
    }
    doc.update(extra)
    return doc


class TestCanonicalForm:
    def test_key_order_is_irrelevant(self):
        a = {"b": 1, "a": [1.5, 2.0]}
        b = {"a": [1.5, 2.0], "b": 1}
        assert canonical_dumps(a) == canonical_dumps(b)
        assert model_sha256(a) == model_sha256(b)

    def test_value_changes_the_hash(self):
        assert model_sha256({"a": 1.0}) != model_sha256({"a": 1.5})

    def test_non_finite_numbers_refused(self):
        with pytest.raises(ValueError):
            canonical_dumps({"a": float("inf")})


def reference_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(dumps, doc):
    """The text written, or the type and message of the error raised."""
    try:
        return dumps(doc)
    except Exception as e:  # compared with the other writer's, not handled
        return type(e), str(e)


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308])
NUMBERS = (FLOATS | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.booleans() | st.none())
ROWS = st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
MATRICES = st.lists(st.lists(FLOATS, min_size=1, max_size=4), min_size=1, max_size=4)


@st.composite
def repeated_matrices(draw):
    """One float matrix three times, and the same numbers with the signs
    of their zeros flipped or cut into one-number rows: equal matrices
    may share one text, the others must not."""
    m = draw(MATRICES)
    flipped = [[-x if x == 0.0 else x for x in row] for row in m]
    column = [[x] for row in m for x in row]
    return [{"normals": [list(r) for r in m]}, {"normals": flipped}, {"normals": column},
            {"normals": [list(r) for r in m], "offsets": [row[0] for row in m]}]


LEAVES = st.text() | NUMBERS | ROWS | MATRICES | st.lists(NUMBERS)
DOCUMENTS = st.recursive(
    LEAVES | repeated_matrices(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


def _linear_result(strategy):
    m = parse_model(linear_doc(config={"horizon": 6, "strategy": strategy}))
    return result_doc(m, reach(m.system, m.config))


def _continuous_result():
    m = parse_model({
        "format": "flowpipe-model/1", "kind": "linear-continuous", "name": "spring",
        "a": [[0.0, 1.0], [-1.0, 0.0]], "b": [[0.0], [1.0]],
        "input": {"type": "box", "lower": [-0.1], "upper": [0.1]},
        "x0": {"type": "box", "lower": [0.9, -0.1], "upper": [1.1, 0.1]},
        "config": {"horizon": 1.0, "step": 0.05},
    })
    return result_doc(m, reach(m.system, m.config))


def _hybrid_result():
    m = parse_model(thermostat_doc())
    return result_doc(m, hybrid_reach(m.automaton, m.init_mode, m.x0, m.config))


def _nonlinear_result():
    m = parse_model(nonlinear_doc())
    return result_doc(m, dynamic_hybridize_reach(m.nonlinear, m.x0, m.config))


# one result document per kind and stepping strategy
RESULT_DOCUMENTS = {
    "linear-lazy": lambda: _linear_result("lazy"),
    "linear-facets": lambda: _linear_result("facets"),
    "linear-vertices": lambda: _linear_result("vertices"),
    "linear-continuous": _continuous_result,
    "hybrid": _hybrid_result,
    "nonlinear": _nonlinear_result,
}


class TestCanonicalWriter:
    """``canonical_dumps`` writes exactly what ``json.dumps(indent=2)`` does."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DOCUMENTS)
    def test_equals_the_indent_encoder(self, doc):
        assert canonical_dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("name", sorted(RESULT_DOCUMENTS))
    def test_equals_the_indent_encoder_on_result_documents(self, name):
        doc = RESULT_DOCUMENTS[name]()
        assert canonical_dumps(doc) == reference_dumps(doc)
        assert canonical_dumps(json.loads(canonical_dumps(doc))) == canonical_dumps(doc)

    def test_repeated_matrices_share_text_only_when_equal(self):
        doc = {"a": [[0.0, 1.0]], "b": [[-0.0, 1.0]], "c": [[0.0, 1.0]], "d": [[0, 1.0]],
               "e": [[1.0, 2.0], [3.0]], "f": [[1.0], [2.0, 3.0]], "g": [[1.0, 2.0, 3.0]],
               "h": {"e": [[1.0, 2.0], [3.0]]}}
        text = canonical_dumps(doc)
        assert text == reference_dumps(doc)
        assert text.count("-0.0") == 1

    def test_one_row_list_held_many_times_at_several_depths(self):
        rows = [[0.0, -0.0], [1, True], [2.5, 1e16]]
        doc = {"a": [rows, rows, {"b": rows}], "c": rows, "d": [[0.0, -0.0], [1, True]]}
        assert canonical_dumps(doc) == reference_dumps(doc)

    def test_lazy_segments_share_one_normals_list(self):
        doc = RESULT_DOCUMENTS["linear-lazy"]()
        normals = {id(seg["set"]["normals"]) for seg in doc["segments"]}
        assert len(doc["segments"]) > 1 and len(normals) == 1
        assert canonical_dumps(doc) == reference_dumps(doc)

    def test_hybrid_flows_share_normals_lists(self):
        doc = RESULT_DOCUMENTS["hybrid"]()
        segments = [seg for flow in doc["flows"] for seg in flow["segments"]]
        assert len({id(seg["set"]["normals"]) for seg in segments}) < len(segments)
        assert canonical_dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_refused_everywhere(self, bad):
        for doc in ({"a": bad}, {"a": [1.0, bad]}, {"a": [[1.0], [bad]]},
                    {"a": [{"b": bad}]}, [[bad, 1]], bad):
            with pytest.raises(ValueError):
                canonical_dumps(doc)

    @pytest.mark.parametrize("doc", [
        {"a": (1.0, 2.0)},
        {"a": [[1.0], (2.0,)]},
        {3: [1.0], 1: "x"},
        {3: [1.0], 2.5: "x", None: True},
        {"a": 1, 2: 3},
        {"a": np.float64(0.1), "b": [np.float64(-0.0), 1.0]},
        {"a": [[np.int64(3), 1.0]]},
        {"a": {1.0, 2.0}},
        {"a": [True, 2, -0.0, None]},
        {"a": [1e16, 10 ** 40, -(10 ** 40), 5e-324]},
        [],
        {},
        [[], {}],
        [[1.0], []],
        "\u00e9\u2603",
    ])
    def test_other_values_written_as_json_dumps_writes_them(self, doc):
        assert outcome(canonical_dumps, doc) == outcome(reference_dumps, doc)

    def test_cycles_are_refused_as_json_dumps_refuses_them(self):
        loop = {"a": []}
        loop["a"].append(loop)
        assert outcome(canonical_dumps, loop) == outcome(reference_dumps, loop)
        assert outcome(canonical_dumps, loop)[0] is ValueError


# SHA-256 of the canonical bytes as json.dumps(indent=2) wrote them: a
# writer must reproduce these, not only round-trip its own output; a change
# to a flowpipe moves the result hashes and must say so
PINNED_MODEL_SHA256 = "ca05c80a26be42b8130ceec4d0a5dd82282d9b3a08a04a55c56e367d4eaa0e0e"
PINNED_RESULT_SHA256 = {
    "linear": "bd2f3ea92146e6a01692838cceab44524710c68456927f8aee57e12befdbb6fb",
    "hybrid": "3f0de969b22c5c68a8179d6b0c398c06efccf2a503ef1145fc5f1394e89f1d3d",
    "nonlinear": "41128fb8838b4c12f70f5c8f4f0a4ea6d6529012ed4cd8b8d4f6fe9e2617f792",
}


def _pinned_models():
    far = {"type": "box", "lower": [5.0, 5.0], "upper": [6.0, 6.0]}
    cold = {"type": "hpolytope", "normals": [[1.0]], "offsets": [16.0]}
    below = {"type": "box", "lower": [-2.0], "upper": [-0.5]}
    return {
        "linear": linear_doc(config={"horizon": 5, "mode": "bad_set", "bad_set": far}),
        "hybrid": thermostat_doc(config={"horizon": 0.3, "step": 0.01,
                                         "mode": "bad_set", "bad_set": cold}),
        "nonlinear": nonlinear_doc(config={"horizon": 0.1, "step": 0.01,
                                           "mode": "bad_set", "bad_set": below}),
    }


class TestPinnedBytes:
    def test_model_hash(self):
        assert model_sha256(thermostat_doc()) == PINNED_MODEL_SHA256

    @pytest.mark.parametrize("kind", sorted(PINNED_RESULT_SHA256))
    def test_check_result_file(self, tmp_path, kind):
        model, out = tmp_path / "model.json", tmp_path / "result.json"
        model.write_text(json.dumps(_pinned_models()[kind]))
        assert main(["check", str(model), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_RESULT_SHA256[kind]


class TestSetCodec:
    @pytest.mark.parametrize(
        "s",
        [
            Box([-1.0, 0.25], [1.0, 0.75]),
            HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.5]),
            VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            Zonotope([1.0, 2.0], [[1.0, 0.5], [0.0, 0.25]]),
        ],
    )
    def test_round_trip(self, s):
        back = decode_set(encode_set(s))
        assert type(back) is type(s)
        lo1, hi1 = axis_bounds(s)
        lo2, hi2 = axis_bounds(back)
        assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)

    def test_generators_stored_one_per_row(self):
        z = decode_set(
            {"type": "zonotope", "center": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 2.0]]}
        )
        assert z.generators.shape == (2, 2)
        lo, hi = axis_bounds(z)
        assert hi == pytest.approx([1.0, 2.0])

    def test_unknown_type(self):
        with pytest.raises(ModelError, match=r"x0\.type: unknown set type 'ball'"):
            decode_set({"type": "ball", "radius": 1.0}, "x0")

    def test_bad_number_has_a_path(self):
        with pytest.raises(ModelError, match=r"x0\.lower\[1\]: must be a number"):
            decode_set({"type": "box", "lower": [0.0, "a"], "upper": [1.0, 1.0]}, "x0")

    def test_constructor_errors_are_wrapped(self):
        with pytest.raises(ModelError, match="x0:"):
            decode_set({"type": "box", "lower": [2.0], "upper": [1.0]}, "x0")

    def test_missing_field(self):
        with pytest.raises(ModelError, match=r"set\.offsets: missing"):
            decode_set({"type": "hpolytope", "normals": [[1.0]]})

    def test_encoding_a_non_set_names_its_type(self):
        with pytest.raises(ModelError, match="^cannot encode set type dict$"):
            encode_set({"type": "box"})


class TestModelParsing:
    def test_linear_discrete(self):
        m = parse_model(linear_doc())
        assert m.kind == "linear-discrete"
        assert m.system.a == pytest.approx(np.array([[0.0, 1.0], [-0.5, 0.0]]))
        assert m.config is None
        assert m.sha256 == model_sha256(linear_doc())

    def test_linear_continuous_full(self):
        doc = {
            "format": "flowpipe-model/1",
            "kind": "linear-continuous",
            "name": "spring",
            "a": [[0.0, 1.0], [-1.0, 0.0]],
            "b": [[0.0], [1.0]],
            "input": {"type": "box", "lower": [-0.1], "upper": [0.1]},
            "x0": {"type": "box", "lower": [0.9, -0.1], "upper": [1.1, 0.1]},
            "config": {
                "horizon": 1.0,
                "step": 0.05,
                "mode": "bad_set",
                "bad_set": {"type": "hpolytope", "normals": [[-1.0, 0.0]], "offsets": [-2.0]},
            },
        }
        m = parse_model(doc)
        assert m.name == "spring"
        assert m.system.has_input
        assert m.config.mode == "bad_set"
        assert m.config.bad_set.dim == 2

    def test_format_tag_checked(self):
        with pytest.raises(ModelError, match="format: expected"):
            parse_model(linear_doc(format="flowpipe-model/2"))

    def test_unknown_kind(self):
        with pytest.raises(ModelError, match="kind: unknown kind 'ode'"):
            parse_model(linear_doc(kind="ode"))

    def test_missing_matrix(self):
        doc = linear_doc()
        del doc["a"]
        with pytest.raises(ModelError, match="a: missing"):
            parse_model(doc)

    def test_ragged_matrix(self):
        with pytest.raises(ModelError, match="a: rows must have equal length"):
            parse_model(linear_doc(a=[[1.0, 0.0], [1.0]]))

    def test_system_errors_become_model_errors(self):
        with pytest.raises(ModelError, match="square"):
            parse_model(linear_doc(a=[[1.0, 0.0]]))

    def test_config_unknown_key(self):
        with pytest.raises(ModelError, match=r"config\.fidelity: unknown config entry"):
            parse_model(linear_doc(config={"horizon": 1.0, "fidelity": 3}))

    def test_config_semantic_errors_have_context(self):
        bad = {"type": "box", "lower": [5.0], "upper": [6.0]}
        with pytest.raises(ModelError, match="config: bad set given outside"):
            parse_model(linear_doc(config={"horizon": 1.0, "bad_set": bad}))

    def test_hybrid_model_runs(self):
        m = parse_model(thermostat_doc())
        assert m.automaton.dim == 1
        assert m.init_mode == "heat"
        pipe = hybrid_reach(m.automaton, m.init_mode, m.x0, m.config)
        assert len(pipe.flows) >= 2

    def test_hybrid_unknown_init_mode(self):
        with pytest.raises(ModelError, match="no mode named 'warm'"):
            parse_model(thermostat_doc(init_mode="warm"))

    def test_hybrid_mode_error_path(self):
        doc = thermostat_doc()
        doc["modes"][1]["a"] = [[1.0], [2.0]]
        with pytest.raises(ModelError, match=r"modes\[1\]"):
            parse_model(doc)

    def test_hybrid_transition_error_path(self):
        doc = thermostat_doc()
        del doc["transitions"][0]["guard"]
        with pytest.raises(ModelError, match=r"transitions\[0\]\.guard: missing"):
            parse_model(doc)

    def test_nonlinear_model_runs(self):
        m = parse_model(nonlinear_doc())
        assert m.nonlinear.dim == 1
        assert m.nonlinear.hessian_bound == pytest.approx([8.0])
        pipe = dynamic_hybridize_reach(m.nonlinear, m.x0, m.config)
        assert pipe.status == "horizon"
        assert pipe.rigorous

    def test_nonlinear_rhs_errors_have_context(self):
        with pytest.raises(ModelError, match="rhs: unknown variable 'y'"):
            parse_model(nonlinear_doc(rhs=["-y**3"]))

    def test_nonlinear_hessian_vector_length(self):
        with pytest.raises(ModelError, match="one entry per variable"):
            parse_model(nonlinear_doc(hessian_bound=[1.0, 2.0]))

    def test_nonlinear_negative_hessian(self):
        with pytest.raises(ModelError, match="hessian_bound: must be nonnegative"):
            parse_model(nonlinear_doc(hessian_bound=-1.0))


def _with(doc, path, value):
    """``doc`` with the entry at ``path`` (a tuple of keys and indices) set."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


BOX_2D = {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}

# (document, or the text of a result file; the message with its dotted path)
MALFORMED = {
    "document": ([linear_doc()], "document: must be a JSON object"),
    "name": (linear_doc(name=3), "name: must be a string"),
    "config": (linear_doc(config=[1.0]), "config: must be an object"),
    "empty rows": (linear_doc(a=[]), "a: must be a non-empty array of rows"),
    "empty numbers": (linear_doc(x0={"type": "box", "lower": [], "upper": [1.0]}),
                      "x0.lower: must be a non-empty array of numbers"),
    "number": (linear_doc(a=[[1.0, "0"], [0.0, 1.0]]), "a[0][1]: must be a number"),
    "set object": (linear_doc(x0=[1.0, 1.0]), "x0: must be an object"),
    "generators": (linear_doc(x0={"type": "zonotope", "center": [0.0, 0.0],
                                  "generators": [[1.0, 0.0, 0.0]]}),
                   "x0.generators: generator length does not match the center"),
    "modes": (thermostat_doc(modes=[]), "modes: must be a non-empty array"),
    "transitions": (thermostat_doc(transitions={}), "transitions: must be an array"),
    "time": (thermostat_doc(time="hybrid"), "time: must be 'continuous' or 'discrete'"),
    "mode name": (_with(thermostat_doc(), ("modes", 1, "name"), ""),
                  "modes[1].name: must be a non-empty string"),
    "transition endpoint": (_with(thermostat_doc(), ("transitions", 1, "target"), 3),
                            "transitions[1].target: must be a string"),
    "string": (thermostat_doc(init_mode=3), "init_mode: must be a string"),
    "guard type": (_with(thermostat_doc(), ("transitions", 0, "guard"),
                         {"type": "vpolytope", "vertices": [[22.0], [25.0]]}),
                   "transitions[0]: guard must be a Box or HPolytope"),
    "automaton x0": (thermostat_doc(x0=BOX_2D), "x0: dimension does not match the automaton"),
    "invariant type": (_with(thermostat_doc(), ("modes", 0, "invariant"),
                             {"type": "vpolytope", "vertices": [[0.0], [22.0]]}),
                       "modes[0]: mode 'heat': invariant must be a Box or HPolytope"),
    "invariant dimension": (_with(thermostat_doc(), ("modes", 1, "invariant"), BOX_2D),
                            "modes[1]: mode 'cool': invariant dimension mismatch"),
    "guard dimension": (_with(thermostat_doc(), ("transitions", 0, "guard"), BOX_2D),
                        "transition 'heat' -> 'cool': guard dimension does not match "
                        "the state space"),
    "reset matrix": (_with(thermostat_doc(), ("transitions", 1, "reset_matrix"), [[1.0, 0.0]]),
                     "transition 'cool' -> 'heat': reset matrix must map the state space "
                     "to itself"),
    "reset offset": (_with(thermostat_doc(), ("transitions", 1, "reset_offset"), [0.0, 1.0]),
                     "transition 'cool' -> 'heat': reset offset dimension mismatch"),
    "input gain rows": (linear_doc(b=[[1.0]], input={"type": "box", "lower": [0.0],
                                                     "upper": [1.0]}),
                        "input gain row count does not match dynamics"),
    "unbounded x0": (linear_doc(x0={"type": "hpolytope", "normals": [[1.0, 0.0]],
                                    "offsets": [1.0]}),
                     "initial set must be bounded"),
    "strategy": (linear_doc(config={"horizon": 1, "strategy": "greedy"}),
                 "config: unknown strategy 'greedy'"),
    "bloat policy": (linear_doc(config={"horizon": 1, "bloat_policy": "none"}),
                     "config: unknown bloat policy 'none'"),
    "box corners": (linear_doc(x0={"type": "box", "lower": [0.0, 0.0], "upper": [1.0]}),
                    "x0: box corners have different dimensions"),
    "variables": (nonlinear_doc(variables=["x", 1]), "variables: must be an array of strings"),
    "rhs": (nonlinear_doc(rhs="-x**3"), "rhs: must be an array of expression strings"),
    "variables x0": (nonlinear_doc(x0=BOX_2D), "x0: dimension does not match the variables"),
    "result json": ("{not json", "not valid JSON"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_are_refused_with_their_path(case, tmp_path):
    doc, message = MALFORMED[case]
    if isinstance(doc, str):
        path = tmp_path / "result.json"
        path.write_text(doc)
        with pytest.raises(ModelError) as err:
            load_result(path)
        message = f"{path}: {message}"
    else:
        with pytest.raises(ModelError) as err:
            parse_model(doc)
    assert str(err.value).startswith(message)


class TestModelFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(linear_doc(), path)
        m = load_model(path)
        assert m.kind == "linear-discrete"
        assert m.sha256 == model_sha256(linear_doc())

    def test_save_validates_first(self, tmp_path):
        with pytest.raises(ModelError):
            save_model({"format": "flowpipe-model/1", "kind": "ode"}, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_model(path)


class TestResultDocuments:
    def test_linear_result_round_trip(self, tmp_path):
        doc = linear_doc(config={"horizon": 5})
        m = parse_model(doc)
        pipe = reach(m.system, m.config)
        res = result_doc(m, pipe)
        assert res["kind"] == "linear-discrete"
        assert res["model_sha256"] == m.sha256
        assert res["status"] == "horizon"
        assert len(res["segments"]) == 6
        assert res["config"] == {"horizon": 5}

        path = tmp_path / "out.json"
        save_result(res, path)
        first = path.read_bytes()
        save_result(load_result(path), path)
        assert path.read_bytes() == first  # byte-identical round trip

    def test_hybrid_result_structure(self):
        m = parse_model(thermostat_doc())
        pipe = hybrid_reach(m.automaton, m.init_mode, m.x0, m.config)
        res = result_doc(m, pipe)
        assert {f["mode"] for f in res["flows"]} == {"heat", "cool"}
        assert all("entry_spread" in f for f in res["flows"])
        assert res["jumps"][0]["source"] == "heat"
        groups = dict(result_segments(res))
        assert "heat" in groups and "cool" in groups

    def test_nonlinear_result_carries_rigorous_flag(self):
        m = parse_model(nonlinear_doc())
        pipe = dynamic_hybridize_reach(m.nonlinear, m.x0, m.config)
        res = result_doc(m, pipe)
        assert res["rigorous"] is True

    def test_result_segments_linear_single_group(self):
        m = parse_model(linear_doc(config={"horizon": 2}))
        res = result_doc(m, reach(m.system, m.config))
        groups = list(result_segments(res))
        assert len(groups) == 1 and groups[0][0] is None

    def test_save_result_checks_format(self, tmp_path):
        with pytest.raises(ModelError, match="format"):
            save_result({"format": "something"}, tmp_path / "x.json")


class TestDecodeChecks:
    def test_mode_gain_error_names_path_and_mode(self):
        doc = thermostat_doc()
        doc["modes"][0]["b"] = [[1.0, 2.0]]
        with pytest.raises(ModelError, match=r"modes\[0\]: mode 'heat': input gain"):
            parse_model(doc)

    def test_every_config_field_is_a_known_key(self):
        config = {
            "horizon": 4, "mode": "bad_set", "strategy": "facets",
            "bloat_policy": "error_ball", "max_steps": 9, "state_bound": 2.0,
            "template": [[1.0, 0.0], [0.0, 1.0]],
            "bad_set": {"type": "box", "lower": [5.0, 5.0], "upper": [6.0, 6.0]},
        }
        parsed = parse_model(linear_doc(config=config)).config
        assert (parsed.horizon, parsed.mode, parsed.max_steps) == (4, "bad_set", 9)
        assert parse_model(
            thermostat_doc(config={"horizon": 1.0, "step": 0.01})).config.step == 0.01
        with pytest.raises(ModelError, match="config.steps: unknown config entry"):
            parse_model(linear_doc(config={"horizon": 4, "steps": 1}))
