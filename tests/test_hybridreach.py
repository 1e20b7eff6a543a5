"""Hybrid automaton engine tests: mode flows, guards, jumps, simulation."""

import json
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from reachflow import hybridreach, linreach, setgeom
from reachflow.hybridreach import (
    DELAYED,
    INCOMPLETE,
    RANDOM,
    URGENT,
    HybridAutomaton,
    HybridFlowpipe,
    Jump,
    Mode,
    Transition,
    guard_cross,
    hybrid_reach,
    hybrid_simulate,
    mode_reach,
)
from reachflow.linreach import (
    BAD_REACHED,
    COMPLETED,
    DISCRETE,
    HORIZON,
    LinearSystem,
    ReachConfig,
    _flow_steps,
)
from reachflow.numkernel import _exp_integral, mat_exp
from reachflow.setgeom import (Box, HPolytope, VPolytope, Zonotope, axis_bounds,
                               intersect, member)

from oracles import euler_interval_1d


def le(bound):  # invariant/guard helper: x <= bound
    return HPolytope([[1.0]], [bound])


def ge(bound):  # x >= bound
    return HPolytope([[-1.0]], [-bound])


def thermostat(hot_limit=22.0):
    """Heater with relay switching: heat dx/dt = 30 - x, cool dx/dt = 10 - x.

    ``hot_limit`` > 22 widens the heat invariant into a band [22, hot_limit]
    where jumping is optional, which separates the jump policies.
    """
    heat = Mode(
        "heat",
        [[-1.0]],
        b=[[1.0]],
        input_set=Box([30.0], [30.0]),
        invariant=le(hot_limit),
    )
    cool = Mode(
        "cool",
        [[-1.0]],
        b=[[1.0]],
        input_set=Box([10.0], [10.0]),
        invariant=ge(18.0),
    )
    to_cool = Transition("heat", "cool", guard=ge(22.0))
    to_heat = Transition("cool", "heat", guard=le(18.0))
    return HybridAutomaton((heat, cool), (to_cool, to_heat))


def cfg(horizon, step=0.01, **kw):
    return ReachConfig(horizon=horizon, step=step, **kw)


class TestAutomatonValidation:
    def test_duplicate_mode_names(self):
        m = Mode("a", [[1.0]])
        with pytest.raises(ValueError, match="unique"):
            HybridAutomaton((m, Mode("a", [[2.0]])), ())

    def test_unknown_transition_endpoint(self):
        m = Mode("a", [[1.0]])
        tr = Transition("a", "ghost", guard=le(1.0))
        with pytest.raises(ValueError, match="^transition 'a' -> 'ghost': endpoint 'ghost' is not a mode$"):
            HybridAutomaton((m,), (tr,))

    def test_needs_a_mode_and_a_known_time_kind(self):
        with pytest.raises(ValueError, match="^automaton needs at least one mode$"):
            HybridAutomaton((), ())
        with pytest.raises(ValueError, match="^unknown time kind 'hybrid'$"):
            HybridAutomaton((Mode("a", [[1.0]]),), (), time_kind="hybrid")

    def test_dimension_mismatch_across_modes(self):
        with pytest.raises(ValueError, match="dimension"):
            HybridAutomaton((Mode("a", [[1.0]]), Mode("b", np.eye(2))), ())

    def test_guard_must_be_h_form(self):
        m = Mode("a", [[1.0]])
        from reachflow.setgeom import VPolytope

        with pytest.raises(ValueError, match="Box or HPolytope"):
            Transition("a", "a", guard=VPolytope([[0.0], [1.0]]))

    def test_mode_lookup(self):
        auto = thermostat()
        assert auto.mode("heat").name == "heat"
        with pytest.raises(KeyError):
            auto.mode("tepid")
        assert [t.target for t in auto.outgoing("heat")] == ["cool"]


class TestModeReach:
    def test_invariant_clips_segments(self):
        auto = thermostat()
        segs, hits, status, step = mode_reach(
            auto, "heat", Box([19.0], [20.0]), cfg(2.0), 200
        )
        for seg in segs:
            lo, hi = axis_bounds(seg.set_rep)
            assert hi[0] <= 22.0 + 1e-9
        # the flow escapes through the guard in finite time
        assert status == COMPLETED
        # lower end crosses 22 at t = ln((30-19)/(30-22)) ~ 0.318
        assert 25 <= step <= 40

    def test_guard_hits_start_near_crossing_time(self):
        auto = thermostat()
        _, hits, _, _ = mode_reach(auto, "heat", Box([19.0], [20.0]), cfg(2.0), 200)
        ks = [k for k, _ in hits[0]]
        assert ks == list(range(ks[0], ks[0] + len(ks)))  # one contiguous run
        # upper end crosses 22 at t = ln((30-20)/(30-22)) ~ 0.223
        assert 19 <= ks[0] <= 25
        for _, piece in hits[0]:
            lo, hi = axis_bounds(piece)
            assert lo[0] == pytest.approx(22.0, abs=1e-9)
            assert hi[0] == pytest.approx(22.0, abs=1e-9)

    def test_no_invariant_runs_to_horizon(self):
        auto = HybridAutomaton(
            (Mode("free", [[-1.0]], b=[[1.0]], input_set=Box([30.0], [30.0])),), ())
        segs, _, status, _ = mode_reach(auto, "free", Box([19.0], [20.0]), cfg(0.5), 50)
        assert status == HORIZON
        assert len(segs) == 51

    def test_heating_flow_matches_interval_recurrence(self):
        # independent oracle: exact scalar affine interval recurrence
        r = 0.01
        auto = HybridAutomaton(
            (Mode("free", [[-1.0]], b=[[1.0]], input_set=Box([30.0], [30.0])),), ())
        segs, _, _, _ = mode_reach(
            auto,
            "free",
            Box([19.0], [20.0]),
            cfg(0.5, step=r, bloat_policy="error_ball"),
            50,
        )
        alpha = math.exp(-r)
        drift = 30.0 * (1.0 - alpha)
        want = euler_interval_1d(19.0, 20.0, alpha, drift, r, 50)
        phi = math.exp(r) - 1.0 - r
        pad = phi * 20.0 + phi * 30.0  # error-ball radius bound per step
        for k, seg in enumerate(segs):
            lo, hi = axis_bounds(seg.set_rep)
            assert lo[0] <= want[k][0] + 1e-9
            assert hi[0] >= want[k][1] - 1e-9
            assert lo[0] >= want[k][0] - (k + 1) * 3 * pad - 1e-9
            assert hi[0] <= want[k][1] + (k + 1) * 3 * pad + 1e-9

    def test_bad_set_stops_the_flow(self):
        auto = HybridAutomaton((thermostat().mode("heat"),), ())
        segs, _, status, step = mode_reach(
            auto, "heat", Box([19.0], [20.0]), cfg(2.0, mode="bad_set", bad_set=ge(21.0)), 200
        )
        assert status == BAD_REACHED
        assert step == len(segs) - 1
        lo, hi = axis_bounds(segs[-1].set_rep)
        assert hi[0] >= 21.0 - 1e-9


class TestGuardCross:
    def test_contiguous_pieces_merge_into_one_cluster(self):
        tr = Transition("a", "b", guard=ge(22.0))
        hits = [
            (3, Box([22.0], [22.5])),
            (4, Box([22.3], [23.5])),
            (7, Box([24.0], [24.5])),
        ]
        out = guard_cross(hits, tr)
        assert len(out) == 2
        k_lo, k_hi, pre, post = out[0]
        assert (k_lo, k_hi) == (3, 4)
        lo, hi = axis_bounds(pre)
        assert lo[0] == pytest.approx(22.0, abs=1e-12)
        assert hi[0] == pytest.approx(23.5, abs=1e-12)
        assert (out[1][0], out[1][1]) == (7, 7)
        assert guard_cross([], tr) == []

    def test_reset_is_applied_to_the_cluster(self):
        tr = Transition(
            "a", "b", guard=ge(0.0), reset_matrix=[[0.5]], reset_offset=[1.0]
        )
        out = guard_cross([(0, Box([2.0], [4.0]))], tr)
        _, _, _, post = out[0]
        lo, hi = axis_bounds(post)
        assert lo[0] == pytest.approx(2.0, abs=1e-12)
        assert hi[0] == pytest.approx(3.0, abs=1e-12)


class TestHybridReach:
    def test_thermostat_stays_in_band(self):
        auto = thermostat()
        pipe = hybrid_reach(auto, "heat", Box([19.0], [20.0]), cfg(2.0))
        assert pipe.status == COMPLETED
        assert pipe.time_step == 0.01
        assert len(pipe.flows) >= 3  # heat, cool, heat again at least
        for mode_name, seg in pipe.all_segments():
            lo, hi = axis_bounds(seg.set_rep)
            assert lo[0] >= 17.5
            assert hi[0] <= 22.5

    def test_jump_bookkeeping_is_consistent(self):
        auto = thermostat()
        pipe = hybrid_reach(auto, "heat", Box([19.0], [20.0]), cfg(2.0))
        assert pipe.jumps
        for j in pipe.jumps:
            src = pipe.flows[j.from_flow]
            assert j.transition.source == src.mode
            if j.to_flow is not None:
                dst = pipe.flows[j.to_flow]
                assert dst.mode == j.transition.target
                assert dst.depth == src.depth + 1
                assert dst.entry_step == src.entry_step + j.step_lo
                entry_seg = dst.segments[0]
                lo_e, hi_e = axis_bounds(entry_seg.set_rep)
                lo_p, hi_p = axis_bounds(j.post)
                # the successor's first segment covers the jump target
                assert lo_e <= lo_p + 1e-9 and hi_e >= hi_p - 1e-9

    def test_longer_horizon_prunes_repeated_entries(self):
        auto = thermostat()
        pipe = hybrid_reach(auto, "heat", Box([19.0], [20.0]), cfg(4.0))
        assert pipe.status == COMPLETED
        assert any(j.pruned for j in pipe.jumps)

    def test_depth_overflow_is_incomplete(self):
        auto = thermostat()
        pipe = hybrid_reach(
            auto, "heat", Box([19.0], [20.0]), cfg(2.0), jump_depth=1
        )
        assert pipe.status == INCOMPLETE
        assert any(j.to_flow is None and not j.pruned for j in pipe.jumps)

    def test_bad_set_aborts(self):
        auto = thermostat()
        pipe = hybrid_reach(
            auto,
            "heat",
            Box([19.0], [20.0]),
            cfg(2.0, mode="bad_set", bad_set=ge(21.0)),
        )
        assert pipe.status == BAD_REACHED
        assert pipe.bad_flow == 0
        assert pipe.flows[0].status == BAD_REACHED

    def test_bad_set_unreachable_completes(self):
        auto = thermostat()
        pipe = hybrid_reach(
            auto,
            "heat",
            Box([19.0], [20.0]),
            cfg(2.0, mode="bad_set", bad_set=ge(25.0)),
        )
        assert pipe.status == COMPLETED
        assert pipe.bad_flow is None

    def test_discrete_automaton_counter(self):
        # x+ = x + 1 while x <= 5; at x >= 3 may move to a frozen mode
        count = Mode(
            "count",
            [[1.0]],
            b=[[1.0]],
            input_set=Box([1.0], [1.0]),
            invariant=le(5.0),
        )
        frozen = Mode("frozen", [[1.0]])
        tr = Transition("count", "frozen", guard=ge(3.0))
        auto = HybridAutomaton((count, frozen), (tr,), time_kind=DISCRETE)
        pipe = hybrid_reach(auto, "count", Box([0.0], [0.0]), ReachConfig(horizon=8))
        assert pipe.status == COMPLETED
        assert pipe.time_step is None
        count_flow = pipe.flows[0]
        assert count_flow.status == COMPLETED  # leaves x <= 5 after six steps
        assert len(count_flow.segments) == 6  # x = 0..5
        lo, hi = axis_bounds(count_flow.segments[5].set_rep)
        assert lo[0] == pytest.approx(5.0, abs=1e-9)
        # one cluster for the contiguous guard run x = 3, 4, 5
        (jump,) = pipe.jumps
        assert (jump.step_lo, jump.step_hi) == (3, 5)
        lo, hi = axis_bounds(jump.post)
        assert lo[0] == pytest.approx(3.0, abs=1e-9)
        assert hi[0] == pytest.approx(5.0, abs=1e-9)

    def test_requires_step_for_continuous(self):
        auto = thermostat()
        with pytest.raises(ValueError, match="time step"):
            hybrid_reach(auto, "heat", Box([19.0], [20.0]), ReachConfig(horizon=2.0))

    def test_reset_outside_the_target_invariant_records_no_jump(self):
        # the guard cluster x = 3..5 lands at 103..105, outside frozen's x <= 10
        count = Mode("count", [[1.0]], b=[[1.0]], input_set=Box([1.0], [1.0]),
                     invariant=le(5.0))
        frozen = Mode("frozen", [[1.0]], invariant=le(10.0))
        tr = Transition("count", "frozen", guard=ge(3.0), reset_offset=[100.0])
        auto = HybridAutomaton((count, frozen), (tr,), time_kind=DISCRETE)
        pipe = hybrid_reach(auto, "count", Box([0.0], [0.0]), ReachConfig(horizon=8))
        assert pipe.status == COMPLETED
        assert pipe.jumps == ()
        (flow,) = pipe.flows
        assert flow.mode == "count" and len(flow.segments) == 6


class TestHybridSimulate:
    def test_deterministic_under_seed(self):
        auto = thermostat()
        a = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01, rng=np.random.default_rng(42)
        )
        b = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01, rng=np.random.default_rng(42)
        )
        np.testing.assert_array_equal(a.states, b.states)
        assert a.modes == b.modes

    def test_trace_respects_invariants_and_band(self):
        auto = thermostat()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x0 = rng.uniform(19.0, 20.0)
            tr = hybrid_simulate(auto, "heat", [x0], 2.0, step=0.01, rng=rng)
            assert not tr.truncated
            assert tr.states.min() >= 18.0 - 1e-9
            assert tr.states.max() <= 22.0 + 1e-9
            assert tr.times[-1] == pytest.approx(2.0, abs=1e-9)

    def test_modes_switch_along_the_trace(self):
        auto = thermostat()
        tr = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01, rng=np.random.default_rng(3)
        )
        assert "cool" in tr.modes and "heat" in tr.modes

    def test_policies_order_the_switching_level(self):
        # widen the heat invariant to [.., 23]: urgent leaves near 22,
        # delayed rides the flow up to the forced crossing at 23
        auto = thermostat(hot_limit=23.0)
        urgent = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01,
            rng=np.random.default_rng(7), jump_policy=URGENT,
        )
        delayed = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01,
            rng=np.random.default_rng(7), jump_policy=DELAYED,
        )
        assert urgent.states.max() <= 22.2
        assert delayed.states.max() == pytest.approx(23.0, abs=1e-6)

    def test_boundary_clamp_lands_on_the_guard(self):
        auto = thermostat()
        tr = hybrid_simulate(
            auto, "heat", [19.5], 2.0, step=0.01,
            rng=np.random.default_rng(9), jump_policy=DELAYED,
        )
        switches = [
            i
            for i in range(1, len(tr.modes))
            if tr.modes[i] != tr.modes[i - 1]
        ]
        assert switches
        for i in switches:
            x = tr.states[i][0]
            assert x == pytest.approx(22.0, abs=1e-6) or x == pytest.approx(
                18.0, abs=1e-6
            )

    def test_truncates_when_stuck(self):
        # no way out of the invariant: the trace must clamp and stop
        stuck = Mode(
            "stuck",
            [[-1.0]],
            b=[[1.0]],
            input_set=Box([30.0], [30.0]),
            invariant=le(22.0),
        )
        auto = HybridAutomaton((stuck,), ())
        tr = hybrid_simulate(
            auto, "stuck", [19.5], 5.0, step=0.01, rng=np.random.default_rng(0)
        )
        assert tr.truncated
        assert tr.states[-1][0] == pytest.approx(22.0, abs=1e-6)

    def test_discrete_step_out_of_the_invariant_jumps_from_the_pre_step_state(self):
        # x+ = x + 1 under x <= 5: the step to 6 leaves the invariant, so the
        # trace jumps at x = 5, where the guard x >= 3 holds, without a clamp
        count = Mode("count", [[1.0]], b=[[1.0]], input_set=Box([1.0], [1.0]),
                     invariant=le(5.0))
        frozen = Mode("frozen", [[1.0]])
        auto = HybridAutomaton((count, frozen), (Transition("count", "frozen", guard=ge(3.0)),),
                               time_kind=DISCRETE)
        tr = hybrid_simulate(auto, "count", [0.0], 8.0, rng=np.random.default_rng(0),
                             jump_policy=DELAYED)
        assert not tr.truncated
        np.testing.assert_array_equal(tr.states.ravel(), [0, 1, 2, 3, 4, 5, 5, 5, 5, 5])
        np.testing.assert_array_equal(tr.times, [0, 1, 2, 3, 4, 5, 5, 6, 7, 8])
        assert tr.modes == ("count",) * 6 + ("frozen",) * 4

    def test_step_matrix_cache_clears_at_its_cap(self, monkeypatch):
        # the bisection asks many step lengths: with room for two, the cache
        # is cleared again and again, and the traces keep their bits
        def run():
            return hybrid_simulate(thermostat(), "heat", [[19.5], [19.0]], 1.0, step=0.01,
                                   rng=np.random.default_rng(3))
        monkeypatch.setattr(linreach, "_STEP_MATS", {})
        want = run()
        monkeypatch.setattr(linreach, "_STEP_MATS", {})
        monkeypatch.setattr(linreach, "_STEP_MATS_CAP", 2)
        got = run()
        assert 1 <= len(linreach._STEP_MATS) <= 2
        for g, w in zip(got, want):
            assert g.states.tobytes() == w.states.tobytes()
            assert g.times.tobytes() == w.times.tobytes()
        a, b = np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([[1.0], [0.5]])
        for tau in (0.1, 0.2, 0.3, 0.1):
            a_step, b_step = linreach._step_matrices(a, b, tau)
            assert a_step.tobytes() == mat_exp(a, tau).tobytes()
            assert b_step.tobytes() == (_exp_integral(a, tau) @ b).tobytes()
            assert len(linreach._STEP_MATS) <= 2

    def test_rejects_bad_start(self):
        auto = thermostat()
        with pytest.raises(ValueError, match="invariant"):
            hybrid_simulate(
                auto, "heat", [25.0], 1.0, step=0.01, rng=np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="^initial state has non-finite entries$"):
            hybrid_simulate(auto, "heat", [np.nan], 1.0, step=0.01)
        with pytest.raises(ValueError, match="^unknown jump policy 'eager'$"):
            hybrid_simulate(auto, "heat", [19.5], 1.0, step=0.01, jump_policy="eager")

    def test_simulation_stays_inside_the_flowpipe(self):
        # dual route: pointwise exact flows against the set recurrence
        auto = thermostat()
        pipe = hybrid_reach(auto, "heat", Box([19.0], [20.0]), cfg(2.0))
        by_mode = {}
        for mode_name, seg in pipe.all_segments():
            by_mode.setdefault(mode_name, []).append(seg.set_rep)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x0 = rng.uniform(19.0, 20.0)
            trace = hybrid_simulate(auto, "heat", [x0], 2.0, step=0.01, rng=rng)
            assert not trace.truncated
            for x, m in zip(trace.states, trace.modes):
                assert any(member(s, x) for s in by_mode[m]), (m, x)


def noisy_thermostat():
    """The thermostat with interval heater and cooler inputs and a band
    [22, 23] where leaving heat is optional."""
    heat = Mode("heat", [[-1.0]], b=[[1.0]], input_set=Box([28.0], [32.0]),
                invariant=le(23.0))
    cool = Mode("cool", [[-1.0]], b=[[1.0]], input_set=Box([9.0], [11.0]),
                invariant=ge(18.0))
    return HybridAutomaton((heat, cool), (Transition("heat", "cool", guard=ge(22.0)),
                                          Transition("cool", "heat", guard=le(18.5))))


def damped_rotation():
    """Two 2-d modes split by slanted half-planes, a gained input in one and
    a contracting reset back."""
    a = [[-0.1, 1.0], [-1.0, -0.1]]
    left = Mode("left", a, input_set=Box([-0.05, -0.05], [0.05, 0.05]),
                invariant=HPolytope([[1.0, 0.3]], [0.8]))
    right = Mode("right", a, b=[[1.0], [0.5]], input_set=Box([-0.1], [0.1]),
                 invariant=HPolytope([[-1.0, 0.2]], [0.8]))
    return HybridAutomaton((left, right), (
        Transition("left", "right", guard=HPolytope([[-1.0, -0.3]], [-0.5])),
        Transition("right", "left", guard=HPolytope([[1.0, -0.2]], [-0.5]),
                   reset_matrix=[[0.9, 0.0], [0.0, 0.9]]),
    ))


def counter_with_reset():
    """Discrete: count up by a random 1..2 while x <= 9, optionally jump at
    x >= 4 to a halving mode, shifted by one."""
    count = Mode("count", [[1.0]], input_set=Box([1.0], [2.0]),
                 invariant=HPolytope([[1.0]], [9.0]))
    halve = Mode("halve", [[0.5]])
    return HybridAutomaton((count, halve), (
        Transition("count", "halve", guard=HPolytope([[-1.0]], [-4.0]), reset_offset=[1.0]),
    ), time_kind=DISCRETE)


def stuck_heater():
    return HybridAutomaton((Mode("stuck", [[-1.0]], b=[[1.0]], input_set=Box([30.0], [30.0]),
                                 invariant=le(22.0)),), ())


def sampler_cases():
    """Single-start sampler runs, each a zero-argument call."""
    cases = {}
    for policy in (URGENT, DELAYED, RANDOM):
        cases[f"thermostat-{policy}"] = lambda policy=policy: hybrid_simulate(
            thermostat(hot_limit=23.0), "heat", [19.5], 1.0, step=0.05,
            rng=np.random.default_rng(7), jump_policy=policy)
        cases[f"rotation-{policy}"] = lambda policy=policy: hybrid_simulate(
            damped_rotation(), "left", [0.0, 1.0], 8.0, step=0.2,
            rng=np.random.default_rng(3), jump_policy=policy)
    cases["noisy-thermostat"] = lambda: hybrid_simulate(
        noisy_thermostat(), "heat", [19.5], 1.5, step=0.05, rng=np.random.default_rng(11))
    cases["stuck"] = lambda: hybrid_simulate(
        stuck_heater(), "stuck", [19.5], 5.0, step=0.05, rng=np.random.default_rng(0))
    cases["max-samples"] = lambda: hybrid_simulate(
        thermostat(), "heat", [19.5], 2.0, step=0.05, rng=np.random.default_rng(1),
        max_samples=12)
    cases["discrete"] = lambda: hybrid_simulate(
        counter_with_reset(), "count", [0.0], 12, rng=np.random.default_rng(5))
    return cases


# traces of sampler_cases() recorded with the one-trace-at-a-time sampler
# that the batched one replaced (commit bc4659c)
PINNED_TRACES = Path(__file__).with_name("sampler_traces.json")


def trace_record(trace):
    return {"modes": list(trace.modes), "times": trace.times.tolist(),
            "states": trace.states.tolist(), "truncated": trace.truncated}


def interval_union_holds(intervals, xs):
    """Whether each value lies in one of the closed intervals, within TOL."""
    lo, hi = np.array(intervals).T
    return ((xs[:, None] >= lo - setgeom.TOL) & (xs[:, None] <= hi + setgeom.TOL)).any(axis=1)


class TestBatchedSampler:
    @pytest.mark.parametrize("name", sorted(sampler_cases()))
    def test_single_start_matches_the_pinned_trace(self, name):
        want = json.loads(PINNED_TRACES.read_text())[name]
        got = sampler_cases()[name]()
        assert list(got.modes) == want["modes"]
        assert got.truncated == want["truncated"]
        np.testing.assert_allclose(got.times, want["times"], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got.states, want["states"], rtol=0.0, atol=1e-12)

    def test_stack_returns_one_trace_per_row(self):
        traces = hybrid_simulate(thermostat(), "heat", [[19.5], [19.9], [19.1]], 0.5,
                                 step=0.05, rng=np.random.default_rng(0))
        assert isinstance(traces, tuple) and len(traces) == 3
        for trace, x0 in zip(traces, (19.5, 19.9, 19.1)):
            assert trace.states[0, 0] == x0 and trace.times[-1] == pytest.approx(0.5)

    def test_batch_equals_single_starts_without_draws(self):
        # the delayed policy with point inputs draws nothing, so every
        # trace of a batch must equal its own single-start run
        auto = thermostat(hot_limit=23.0)
        starts = np.linspace(18.5, 22.5, 9)[:, None]
        batch = hybrid_simulate(auto, "heat", starts, 2.0, step=0.01,
                                rng=np.random.default_rng(0), jump_policy=DELAYED)
        for x0, trace in zip(starts, batch):
            alone = hybrid_simulate(auto, "heat", x0, 2.0, step=0.01,
                                    rng=np.random.default_rng(0), jump_policy=DELAYED)
            assert trace.modes == alone.modes
            np.testing.assert_array_equal(trace.times, alone.times)
            np.testing.assert_array_equal(trace.states, alone.states)

    def test_batch_stays_inside_the_flowpipe(self):
        auto = noisy_thermostat()
        pipe = hybrid_reach(auto, "heat", Box([19.0], [20.0]), cfg(2.0))
        assert pipe.status == COMPLETED
        by_mode = {}
        for mode_name, seg in pipe.all_segments():
            lo, hi = axis_bounds(seg.set_rep)
            by_mode.setdefault(mode_name, []).append((lo[0], hi[0]))
        rng = np.random.default_rng(12)
        starts = rng.uniform(19.0, 20.0, size=(200, 1))
        traces = hybrid_simulate(auto, "heat", starts, 2.0, step=0.01, rng=rng)
        assert len(traces) == 200
        assert {m for trace in traces for m in trace.modes} == {"heat", "cool"}
        for trace in traces:
            assert not trace.truncated
            assert trace.times[-1] == pytest.approx(2.0, abs=1e-9)
            modes = np.array(trace.modes)
            for name, intervals in by_mode.items():
                xs = trace.states[modes == name, 0]
                assert np.all(interval_union_holds(intervals, xs)), name

    def test_one_truncated_trace_does_not_stop_the_others(self):
        # the heater's way out needs the flag x1 >= 0.5: flagless traces get
        # stuck on the invariant's ceiling, the others switch and go on
        heat = Mode("heat", [[-1.0, 0.0], [0.0, 0.0]], b=[[1.0], [0.0]],
                    input_set=Box([30.0], [30.0]), invariant=HPolytope([[1.0, 0.0]], [22.0]))
        cool = Mode("cool", [[-1.0, 0.0], [0.0, 0.0]], b=[[1.0], [0.0]],
                    input_set=Box([10.0], [10.0]))
        out = Transition("heat", "cool", guard=HPolytope([[-1.0, 0.0], [0.0, -1.0]],
                                                         [-22.0, -0.5]))
        auto = HybridAutomaton((heat, cool), (out,))
        starts = np.array([[19.5, 0.0], [19.5, 1.0], [20.5, 0.0], [20.5, 1.0]])
        traces = hybrid_simulate(auto, "heat", starts, 1.0, step=0.01,
                                 rng=np.random.default_rng(0))
        assert [t.truncated for t in traces] == [True, False, True, False]
        for trace in traces[0::2]:
            assert trace.states[-1, 0] == pytest.approx(22.0, abs=1e-6)
            assert set(trace.modes) == {"heat"} and trace.times[-1] < 1.0
        for trace in traces[1::2]:
            assert trace.modes[-1] == "cool"
            assert trace.times[-1] == pytest.approx(1.0, abs=1e-9)

    def test_max_samples_truncates_per_trace(self):
        # a start on the guard urgently jumps back and forth in place and
        # spends its samples without time passing; the other one flows
        ping = Mode("ping", [[0.0]], invariant=le(1.0))
        pong = Mode("pong", [[0.0]], invariant=le(1.0))
        auto = HybridAutomaton((ping, pong), (Transition("ping", "pong", guard=ge(0.5)),
                                              Transition("pong", "ping", guard=ge(0.5))))
        traces = hybrid_simulate(auto, "ping", [[0.0], [0.7]], 0.5, step=0.1,
                                 rng=np.random.default_rng(0), jump_policy=URGENT,
                                 max_samples=20)
        assert not traces[0].truncated and traces[0].times[-1] == pytest.approx(0.5)
        assert traces[1].truncated and len(traces[1].times) == 20

    def test_rejects_a_bad_stack(self):
        auto = thermostat()
        with pytest.raises(ValueError, match="shape"):
            hybrid_simulate(auto, "heat", np.zeros((2, 2)), 1.0, step=0.01)
        with pytest.raises(ValueError, match="invariant"):
            hybrid_simulate(auto, "heat", [[19.5], [25.0]], 1.0, step=0.01)


class TestPruningSoundness:
    def test_no_pruning_against_an_enclosure(self):
        # a thin diagonal zonotope has no exact facet form in 3-d; its
        # bounding box holds the jump's successor, the zonotope does not
        x0 = Zonotope(np.zeros(3), np.hstack([0.5 * np.ones((3, 1)), 0.01 * np.eye(3)]))
        loop = Transition("A", "A", guard=Box(0.3 * np.ones(3), 0.6 * np.ones(3)),
                          reset_offset=[-0.8, 0.0, 0.0])
        auto = HybridAutomaton((Mode("A", np.eye(3)),), (loop,), time_kind=DISCRETE)
        bad = Box([-0.6, 0.2, 0.2], [-0.2, 0.6, 0.6])
        # a real trajectory: it sits in the guard, and its jump lands in bad
        x = np.full(3, 0.45)
        assert member(x0, x) and member(loop.guard, x)
        assert member(bad, loop.apply_reset_point(x))
        pipe = hybrid_reach(auto, "A", x0, ReachConfig(horizon=3, mode="bad_set", bad_set=bad))
        assert pipe.status == BAD_REACHED
        assert not any(j.pruned for j in pipe.jumps)


class TestJumpResolution:
    def test_each_explored_flow_is_entered_by_one_jump(self):
        pipe = hybrid_reach(thermostat(), "heat", Box([19.0], [20.0]), cfg(4.0))
        targets = [j.to_flow for j in pipe.jumps if j.to_flow is not None]
        assert sorted(targets) == list(range(1, len(pipe.flows)))
        assert any(j.pruned for j in pipe.jumps)
        assert all(j.to_flow is None for j in pipe.jumps if j.pruned)
        # jumps are listed in the order their crossings were found
        froms = [j.from_flow for j in pipe.jumps]
        assert froms == sorted(froms)

    def test_successors_left_in_the_worklist_stay_unresolved(self):
        pipe = hybrid_reach(thermostat(), "heat", Box([19.0], [20.0]), cfg(4.0), max_flows=2)
        assert pipe.status == INCOMPLETE and len(pipe.flows) == 2
        last = pipe.jumps[-1]
        assert last.from_flow == 1 and last.to_flow is None and not last.pruned


class TestSetsAsTheyAre:
    def test_mode_without_invariant_records_the_core_sets(self):
        a = 0.9 * np.array([[0.8, -0.6], [0.6, 0.8]])
        x0 = Box([0.9, -0.1], [1.1, 0.1])
        guard = Box([0.0, 0.0], [2.0, 2.0])
        auto = HybridAutomaton(
            (Mode("free", a),), (Transition("free", "free", guard=guard),), DISCRETE)
        config = ReachConfig(horizon=5, strategy="vertices")
        segments, hits, status, _ = mode_reach(auto, "free", x0, config, 5)
        core = list(islice(_flow_steps(LinearSystem(a, x0), config), 6))
        assert status == HORIZON and len(segments) == 6
        for got, want in zip(segments, core):
            assert isinstance(got.set_rep, VPolytope)
            np.testing.assert_array_equal(got.set_rep.vertices, want.set_rep.vertices)
        for k, piece in hits[0]:
            want = intersect(core[k].set_rep, guard)
            np.testing.assert_array_equal(piece.normals, want.normals)
            np.testing.assert_array_equal(piece.offsets, want.offsets)
        assert hits[0]


class TestEmptinessChecks:
    def test_no_emptiness_lp_without_an_invariant(self, monkeypatch):
        # a segment of the stepping core is never empty: only an invariant
        # can end a flow early
        calls = []

        def counting(s, *args, **kwargs):
            calls.append(s)
            return real(s, *args, **kwargs)

        real = setgeom.is_empty
        monkeypatch.setattr(setgeom, "is_empty", counting)
        auto = HybridAutomaton((Mode("free", [[-1.0]], input_set=Box([0.9], [1.1])),), ())
        pipe = hybrid_reach(auto, "free", Box([0.0], [1.0]), cfg(1.0))
        assert [len(flow.segments) for flow in pipe.flows] == [101]
        assert pipe.flows[0].status == HORIZON
        assert len(calls) == 0

    def test_no_emptiness_lp_for_a_jump_without_a_target_invariant(self, monkeypatch):
        # the reset of guard pieces that intersect() found non-empty is never
        # empty: only a target invariant can block the jump
        real = setgeom.is_empty
        calls = []

        def counting(s, *args, **kwargs):
            calls.append(s)
            return real(s, *args, **kwargs)

        # every reachflow module that holds it by name
        for module in (setgeom, hybridreach):
            if getattr(module, "is_empty", None) is real:
                monkeypatch.setattr(module, "is_empty", counting)
        auto = HybridAutomaton(
            (Mode("go", [[0.0]], input_set=Box([1.0], [1.0])), Mode("stop", [[0.0]])),
            (Transition("go", "stop", Box([0.5], [0.6]), reset_offset=[1.0]),),
        )
        pipe = hybrid_reach(auto, "go", Box([0.0], [0.1]), cfg(1.0))
        assert [f.mode for f in pipe.flows] == ["go", "stop"]
        (jump,) = pipe.jumps
        assert not any(s is jump.post for s in calls)


class TestModeDynamics:
    def test_gain_shape_checked_with_the_mode_name(self):
        with pytest.raises(ValueError, match="mode 'm': input gain column count"):
            Mode("m", [[0.5]], b=[[1.0, 2.0]], input_set=Box([0.0], [1.0]))

    def test_unbounded_input_rejected(self):
        with pytest.raises(ValueError, match="mode 'm': input set must be bounded"):
            Mode("m", [[0.5]], input_set=HPolytope([[1.0]], [1.0]))

    def test_gain_without_input_rejected(self):
        with pytest.raises(ValueError, match="mode 'm': input gain given without"):
            Mode("m", [[0.5]], b=[[1.0]])

    def test_default_gain_is_identity(self):
        mode = Mode("m", -np.eye(2), input_set=Box([0.0, 0.0], [1.0, 1.0]))
        assert np.array_equal(mode.b, np.eye(2))
        assert Mode("free", [[0.5]]).b is None

    def test_simulation_uses_the_default_gain(self):
        # the identity gain and an explicit one give the same discrete trace
        implicit = Mode("count", [[1.0]], input_set=Box([2.0], [2.0]))
        explicit = Mode("count", [[1.0]], b=[[1.0]], input_set=Box([2.0], [2.0]))
        traces = [
            hybrid_simulate(HybridAutomaton((m,), (), time_kind=DISCRETE), "count",
                            [0.0], 4.0, rng=np.random.default_rng(0)).states
            for m in (implicit, explicit)
        ]
        np.testing.assert_array_equal(traces[0], traces[1])
        np.testing.assert_array_equal(traces[0].ravel(), [0.0, 2.0, 4.0, 6.0, 8.0])


class TestHybridFixpoint:
    def test_fixpoint_mode_rejected(self):
        # a contracting discrete mode used to run every step and report completed
        shrink = Mode("shrink", [[0.5]])
        auto = HybridAutomaton((shrink,), (), time_kind=DISCRETE)
        with pytest.raises(ValueError, match="fixpoint"):
            hybrid_reach(auto, "shrink", Box([0.0], [1.0]),
                         ReachConfig(horizon=50, mode="fixpoint"))
