"""The time lattice: one rule turns a config's horizon and step into a step
length and a step count for ``reach``, ``hybrid_reach``,
``dynamic_hybridize_reach`` and ``reachflow simulate``.

Continuous time needs a step and takes ceil(horizon / step) steps; discrete
time counts steps, so its horizon is an integer and it takes no step.
"""

import csv
import json

import numpy as np
import pytest

from reachflow import hybridize, hybridreach
from reachflow.cli import main
from reachflow.hybridize import NonlinearSystem, dynamic_hybridize_reach
from reachflow.hybridreach import HybridAutomaton, Mode, Transition, hybrid_reach
from reachflow.linreach import (
    CONTINUOUS,
    DISCRETE,
    FACETS,
    LinearSystem,
    ReachConfig,
    _lattice,
    reach,
    simulate,
)
from reachflow.setgeom import Box, HPolytope

LATTICE_MESSAGE = "time step|integer"

DISCRETE_STEP = {"horizon": 4, "step": 0.5}
FRACTIONAL_HORIZON = {"horizon": 2.5}
NO_STEP = {"horizon": 1.0}


def counter(time_kind):
    """x+ = x + 1 (dx/dt = x + 1 in continuous time) while x <= 5, then
    a frozen mode."""
    count = Mode("count", [[1.0]], input_set=Box([1.0], [1.0]),
                 invariant=HPolytope([[1.0]], [5.0]))
    frozen = Mode("frozen", [[1.0]] if time_kind == DISCRETE else [[0.0]])
    tr = Transition("count", "frozen", guard=HPolytope([[-1.0]], [-3.0]))
    return HybridAutomaton((count, frozen), (tr,), time_kind=time_kind)


def cubic():
    return NonlinearSystem(f=lambda x: -x ** 3, dim=1,
                           jac=lambda x: np.array([[-3.0 * x[0] ** 2]]),
                           hessian_bound=6.0)


def run_reach(time_kind, config):
    return reach(LinearSystem([[0.5]], Box([0.0], [1.0]), time_kind=time_kind), config)


def run_hybrid(time_kind, config):
    return hybrid_reach(counter(time_kind), "count", Box([0.0], [0.0]), config)


def run_dynamic(time_kind, config):
    assert time_kind == CONTINUOUS
    return dynamic_hybridize_reach(cubic(), Box([0.9], [1.0]), config)


def model_doc(kind, time_kind, config):
    """A one-dimensional model file of each kind, with ``config``."""
    if kind == "nonlinear":
        return {"format": "flowpipe-model/1", "kind": "nonlinear",
                "variables": ["x"], "rhs": ["-x**3"], "hessian_bound": 6.0,
                "x0": {"type": "box", "lower": [0.9], "upper": [1.0]},
                "config": config}
    if kind == "hybrid":
        return {"format": "flowpipe-model/1", "kind": "hybrid", "time": time_kind,
                "init_mode": "count",
                "x0": {"type": "box", "lower": [0.0], "upper": [0.5]},
                "modes": [
                    {"name": "count", "a": [[1.0]],
                     "input": {"type": "box", "lower": [1.0], "upper": [1.0]},
                     "invariant": {"type": "hpolytope", "normals": [[1.0]],
                                   "offsets": [5.0]}},
                    {"name": "frozen", "a": [[1.0]]},
                ],
                "transitions": [
                    {"source": "count", "target": "frozen",
                     "guard": {"type": "hpolytope", "normals": [[-1.0]],
                               "offsets": [-3.0]}},
                ],
                "config": config}
    return {"format": "flowpipe-model/1", "kind": f"linear-{time_kind}",
            "a": [[0.5]], "x0": {"type": "box", "lower": [0.0], "upper": [1.0]},
            "config": config}


def simulate_cli(tmp_path, doc, *extra):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", str(path), "--runs", "2", *extra])


# ---------------------------------------------------------------------------
# one rejection rule in every driver and the CLI


@pytest.mark.parametrize("run", [run_reach, run_hybrid], ids=["reach", "hybrid_reach"])
@pytest.mark.parametrize("config", [DISCRETE_STEP, FRACTIONAL_HORIZON],
                         ids=["step", "fractional-horizon"])
def test_drivers_reject_bad_discrete_lattice(run, config):
    with pytest.raises(ValueError, match=LATTICE_MESSAGE):
        run(DISCRETE, ReachConfig(**config))


@pytest.mark.parametrize("run", [run_reach, run_hybrid, run_dynamic],
                         ids=["reach", "hybrid_reach", "dynamic_hybridize_reach"])
def test_drivers_reject_continuous_without_step(run):
    with pytest.raises(ValueError, match=LATTICE_MESSAGE):
        run(CONTINUOUS, ReachConfig(**NO_STEP))


@pytest.mark.parametrize("kind", ["linear", "hybrid"])
@pytest.mark.parametrize("config", [DISCRETE_STEP, FRACTIONAL_HORIZON],
                         ids=["step", "fractional-horizon"])
def test_simulate_rejects_bad_discrete_lattice(tmp_path, capsys, kind, config):
    assert simulate_cli(tmp_path, model_doc(kind, DISCRETE, config)) == 1
    err = capsys.readouterr().err
    assert "time step" in err or "integer" in err


@pytest.mark.parametrize("kind", ["linear", "hybrid", "nonlinear"])
def test_simulate_rejects_continuous_without_step(tmp_path, capsys, kind):
    assert simulate_cli(tmp_path, model_doc(kind, CONTINUOUS, NO_STEP)) == 1
    assert "time step" in capsys.readouterr().err


def test_simulate_discrete_hybrid_model(tmp_path):
    out = tmp_path / "runs.csv"
    doc = model_doc("hybrid", DISCRETE, {"horizon": 8})
    assert simulate_cli(tmp_path, doc, "-o", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    times = [row["time"] for row in rows]
    assert all(t == str(int(float(t))) for t in times)
    assert max(float(t) for t in times) == 8.0
    assert {row["mode"] for row in rows} <= {"count", "frozen"}


# ---------------------------------------------------------------------------
# the library's samplers take the same rule


@pytest.mark.parametrize("horizon,step", [(2.5, 0.3), (2.0, 0.3), (2.5, None)],
                         ids=["step-and-fraction", "step", "fraction"])
def test_hybrid_simulate_rejects_bad_discrete_lattice(horizon, step):
    # it used to ignore the step and run to times 0, 1, 2, 3
    with pytest.raises(ValueError, match=LATTICE_MESSAGE):
        hybridreach.hybrid_simulate(counter(DISCRETE), "count", [0.0], horizon, step=step)


def test_hybrid_simulate_rejects_continuous_without_step():
    with pytest.raises(ValueError, match=LATTICE_MESSAGE):
        hybridreach.hybrid_simulate(counter(CONTINUOUS), "count", [0.0], 1.0)


def test_library_simulate_rejects_a_discrete_step():
    system = LinearSystem([[0.5]], Box([0.0], [1.0]), time_kind=DISCRETE)
    with pytest.raises(ValueError, match="not a time step"):
        simulate(system, [1.0], steps=3, step=0.3)
    np.testing.assert_array_equal(simulate(system, [1.0], steps=3).states.ravel(),
                                  [1.0, 0.5, 0.25, 0.125])


def test_library_simulate_rejects_continuous_without_step():
    system = LinearSystem([[0.5]], Box([0.0], [1.0]), time_kind=CONTINUOUS)
    with pytest.raises(ValueError, match=LATTICE_MESSAGE):
        simulate(system, [1.0], steps=3)


def test_discrete_hybrid_simulate_counts_integer_steps():
    trace = hybridreach.hybrid_simulate(counter(DISCRETE), "count", [0.0], 6,
                                        rng=np.random.default_rng(1))
    assert trace.times[-1] == 6.0
    assert all(t == int(t) for t in trace.times)


# ---------------------------------------------------------------------------
# dimensions are checked before the first step


def _no_step(*args, **kwargs):
    raise AssertionError("a step was computed before the config was checked")


def test_hybrid_reach_rejects_wrong_dimension_bad_set(monkeypatch):
    monkeypatch.setattr(hybridreach, "_flow_steps", _no_step)
    config = ReachConfig(horizon=1.0, step=0.1, mode="bad_set",
                         bad_set=Box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="bad set dimension"):
        run_hybrid(CONTINUOUS, config)


def test_dynamic_hybridize_reach_rejects_wrong_dimension_bad_set(monkeypatch):
    monkeypatch.setattr(hybridize, "linearize", _no_step)
    monkeypatch.setattr(hybridize, "_flow_steps", _no_step)
    config = ReachConfig(horizon=1.0, step=0.1, mode="bad_set",
                         bad_set=Box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="bad set dimension"):
        run_dynamic(CONTINUOUS, config)


@pytest.mark.parametrize("run", [run_hybrid, run_dynamic],
                         ids=["hybrid_reach", "dynamic_hybridize_reach"])
def test_wrong_dimension_template_is_rejected_under_facets(run):
    # facet pushing never reads the template, so it used to be ignored
    config = ReachConfig(horizon=1.0, step=0.1, strategy=FACETS,
                         template=np.eye(2))
    with pytest.raises(ValueError, match="template dimension"):
        run(CONTINUOUS, config)


# ---------------------------------------------------------------------------
# the lattice itself


# (horizon, step, time kind, step count at the previous release): the
# README examples, the thermostat, the benchmark's models and a few
# horizons that are not a float multiple of the step
REFERENCE_LATTICES = [
    (6.3, 0.01, CONTINUOUS, 630),   # README quick start, benchmark rotation
    (2.0, 0.05, CONTINUOUS, 40),    # README CLI model
    (2.0, 0.01, CONTINUOUS, 200),   # thermostat
    (1.0, 0.01, CONTINUOUS, 100),   # README hybridization, benchmark n=20
    (0.4, 0.01, CONTINUOUS, 40),    # benchmark vertex rotation
    (3.0, 0.01, CONTINUOUS, 300),   # benchmark Van der Pol
    (1.0, 0.05, CONTINUOUS, 20),    # acceptance continuous systems
    (0.5, 0.01, CONTINUOUS, 50),
    (0.3, 0.1, CONTINUOUS, 3),
    (0.7, 0.1, CONTINUOUS, 7),
    (1000, None, DISCRETE, 1000),   # benchmark lazy-highdim and n=4 models
    (6, None, DISCRETE, 6),
    (20, None, DISCRETE, 20),
    (0, None, DISCRETE, 0),
]


@pytest.mark.parametrize("horizon,step,time_kind,nsteps", REFERENCE_LATTICES)
def test_lattice_keeps_step_counts(horizon, step, time_kind, nsteps):
    r, n = _lattice(ReachConfig(horizon=horizon, step=step), time_kind, 1)
    assert n == nsteps
    assert r == (step if time_kind == CONTINUOUS else 1.0)
    pipe = run_reach(time_kind, ReachConfig(horizon=horizon, step=step))
    assert len(pipe.segments) == nsteps + 1


# ---------------------------------------------------------------------------
# lattice policies answer no dense-time question


# x1' = 1 from x1 = 0: the trajectory crosses x1 = 0.505 at t = 0.505,
# between the lattice points 0.50 and 0.51 of r = 0.01
def thin_bad_set_doc(policy):
    return {
        "format": "flowpipe-model/1",
        "kind": "linear-continuous",
        "a": [[0.0]],
        "b": [[1.0]],
        "input": {"type": "box", "lower": [1.0], "upper": [1.0]},
        "x0": {"type": "box", "lower": [0.0], "upper": [0.0]},
        "config": {"horizon": 1.0, "step": 0.01, "bloat_policy": policy,
                   "mode": "bad_set",
                   "bad_set": {"type": "box", "lower": [0.505], "upper": [0.505]}},
    }


# the same flow in x1 with x2 = 0; the guard x1 = 0.505 is enabled at
# t = 0.505 and its reset x2 := 1 enters the bad set x2 in [0.5, 2]
def thin_guard_doc(policy):
    still = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "init_mode": "go",
        "x0": {"type": "box", "lower": [0.0, 0.0], "upper": [0.0, 0.0]},
        "modes": [
            {"name": "go", "a": still, "b": [[1.0], [0.0]],
             "input": {"type": "box", "lower": [1.0], "upper": [1.0]}},
            {"name": "stop", "a": still},
        ],
        "transitions": [
            {"source": "go", "target": "stop",
             "guard": {"type": "box", "lower": [0.505, -10.0], "upper": [0.505, 10.0]},
             "reset_matrix": [[1.0, 0.0], [0.0, 0.0]], "reset_offset": [0.0, 1.0]},
        ],
        "config": {"horizon": 1.0, "step": 0.01, "bloat_policy": policy,
                   "mode": "bad_set",
                   "bad_set": {"type": "box", "lower": [-10.0, 0.5], "upper": [10.0, 2.0]}},
    }


@pytest.mark.parametrize("doc", [thin_bad_set_doc, thin_guard_doc])
def test_the_dense_policy_finds_the_crossing(tmp_path, capsys, doc):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc("once_hull")))
    assert main(["check", str(model)]) == 2
    assert "UNSAFE" in capsys.readouterr().out


@pytest.mark.parametrize("policy", ["small_r", "error_ball"])
@pytest.mark.parametrize("doc", [thin_bad_set_doc, thin_guard_doc])
def test_a_lattice_policy_is_refused_a_dense_question(tmp_path, capsys, doc, policy):
    # the time-point sets at k r miss both crossings, so the check would
    # print SAFE for a system that reaches its bad set
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc(policy)))
    assert main(["check", str(model)]) == 1
    assert "dense bloat policy" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["small_r", "error_ball"])
def test_lattice_policies_keep_their_time_point_questions(policy):
    system = LinearSystem([[0.0]], Box([0.0], [0.0]), b=[[1.0]], input_set=Box([1.0], [1.0]),
                          time_kind=CONTINUOUS)
    # a bounded run is the time-point sets the policy promises
    pipe = reach(system, ReachConfig(horizon=1.0, step=0.01, bloat_policy=policy))
    assert len(pipe.segments) == 101 and all(s.t0 == s.t1 for s in pipe.segments)
    # a discrete system has no time between its lattice points
    discrete = LinearSystem([[1.0]], Box([0.0], [0.0]), input_set=Box([1.0], [1.0]))
    assert reach(discrete, ReachConfig(horizon=3, mode="bad_set", bad_set=Box([5.0], [6.0]),
                                       bloat_policy=policy)).status == "horizon"
    automaton = HybridAutomaton((Mode("go", [[0.0]], b=[[1.0]], input_set=Box([1.0], [1.0])),), ())
    with pytest.raises(ValueError, match="dense bloat policy"):
        hybrid_reach(automaton, "go", Box([0.0], [0.0]),
                     ReachConfig(horizon=1.0, step=0.01, bloat_policy=policy))
