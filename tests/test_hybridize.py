"""Linearization enclosures and hybridized reachability for nonlinear flows."""

import logging
import math

import numpy as np
import pytest

from reachflow import hybridize
from reachflow.hybridize import (
    STALLED,
    NonlinearSystem,
    dynamic_hybridize_reach,
    linearize,
    static_hybridize,
)
from reachflow.hybridreach import hybrid_reach
from reachflow.linreach import (
    BAD_REACHED,
    COMPLETED,
    HORIZON,
    LinearSystem,
    ReachConfig,
    reach,
)
from reachflow.setgeom import Box, HPolytope, VPolytope, axis_bounds, default_template, member

from oracles import rk4


def square_1d():
    return NonlinearSystem(
        f=lambda x: np.array([x[0] ** 2]),
        dim=1,
        jac=lambda x: np.array([[2.0 * x[0]]]),
        hessian_bound=2.0,
    )


def cubic_decay():
    """dx/dt = -x^3, closed form x(t) = x0 / sqrt(1 + 2 x0^2 t)."""
    return NonlinearSystem(
        f=lambda x: np.array([-x[0] ** 3]),
        dim=1,
        jac=lambda x: np.array([[-3.0 * x[0] ** 2]]),
        # |f''| = 6|x|, bounded per box by its farthest point from 0
        hessian_bound=lambda lo, hi: 6.0 * np.maximum(np.abs(lo), np.abs(hi)),
    )


def cubic_true(x0, t):
    return x0 / math.sqrt(1.0 + 2.0 * x0 * x0 * t)


def cfg(horizon, step, **kw):
    return ReachConfig(horizon=horizon, step=step, **kw)


class TestNonlinearSystem:
    def test_field_output_dim_checked(self):
        sys = NonlinearSystem(f=lambda x: np.array([x[0], x[0]]), dim=1)
        with pytest.raises(ValueError):
            sys.field([1.0])

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            NonlinearSystem(f=lambda x: x, dim=0)

    def test_analytic_jacobian_used(self):
        sys = square_1d()
        assert sys.jacobian([3.0]) == pytest.approx(np.array([[6.0]]))

    def test_jacobian_shape_checked(self):
        sys = NonlinearSystem(
            f=lambda x: np.array([x[0]]), dim=1, jac=lambda x: np.eye(2)
        )
        with pytest.raises(ValueError):
            sys.jacobian([1.0])

    def test_fd_jacobian_matches_analytic(self):
        def f(x):
            return np.array([x[0] ** 2 * x[1], math.sin(x[0]) + x[1] ** 3])

        sys = NonlinearSystem(f=f, dim=2)
        x = np.array([0.7, -0.3])
        expected = np.array(
            [
                [2.0 * x[0] * x[1], x[0] ** 2],
                [math.cos(x[0]), 3.0 * x[1] ** 2],
            ]
        )
        assert np.allclose(sys.jacobian(x), expected, atol=1e-6)

    def test_curvature_scalar_vector_callable(self):
        f = lambda x: np.array([x[0], x[1]])
        lo, hi = np.array([-1.0, 0.0]), np.array([2.0, 1.0])
        assert NonlinearSystem(f, 2, hessian_bound=3.0).curvature(lo, hi) == (
            pytest.approx([3.0, 3.0])
        )
        assert NonlinearSystem(f, 2, hessian_bound=[1.0, 2.0]).curvature(
            lo, hi
        ) == pytest.approx([1.0, 2.0])
        by_box = NonlinearSystem(
            f, 2, hessian_bound=lambda lo, hi: np.maximum(np.abs(lo), np.abs(hi))
        )
        assert by_box.curvature(lo, hi) == pytest.approx([2.0, 1.0])
        assert NonlinearSystem(f, 2).curvature(lo, hi) is None

    def test_negative_curvature_rejected(self):
        sys = NonlinearSystem(lambda x: x, 1, hessian_bound=-1.0)
        with pytest.raises(ValueError):
            sys.curvature([0.0], [1.0])


class TestLinearize:
    def test_square_on_unit_interval(self):
        # expansion of x^2 at 0.5: x - 0.25, remainder (x - 0.5)^2 <= 0.25
        lin = linearize(square_1d(), Box([0.0], [1.0]))
        assert lin.rigorous
        assert lin.a == pytest.approx(np.array([[1.0]]))
        assert lin.b == pytest.approx(np.array([-0.25]))
        assert lin.err == pytest.approx(np.array([0.25]))

    def test_sine_near_origin(self):
        sys = NonlinearSystem(
            f=lambda x: np.array([math.sin(x[0])]),
            dim=1,
            jac=lambda x: np.array([[math.cos(x[0])]]),
            hessian_bound=1.0,
        )
        lin = linearize(sys, Box([-0.1], [0.1]))
        assert lin.a == pytest.approx(np.array([[1.0]]))
        assert lin.b == pytest.approx(np.array([0.0]), abs=1e-15)
        assert lin.err == pytest.approx(np.array([0.005]))

    def test_halving_the_domain_quarters_the_error(self):
        lin = linearize(square_1d(), Box([0.25], [0.75]))
        assert lin.err == pytest.approx(np.array([0.0625]))

    def test_residual_is_enclosed_everywhere(self):
        sys = square_1d()
        lin = linearize(sys, Box([0.0], [1.0]))
        rng = np.random.default_rng(5)
        for x in rng.uniform(0.0, 1.0, size=200):
            resid = abs(sys.field([x])[0] - (lin.a[0, 0] * x + lin.b[0]))
            assert resid <= lin.err[0] + 1e-12

    def test_sampled_fallback_is_flagged(self, caplog):
        sys = NonlinearSystem(
            f=lambda x: np.array([x[0] ** 2]),
            dim=1,
            jac=lambda x: np.array([[2.0 * x[0]]]),
        )
        with caplog.at_level(logging.WARNING, logger="reachflow.hybridize"):
            lin = linearize(sys, Box([0.0], [1.0]))
        assert not lin.rigorous
        assert "not guaranteed" in caplog.text
        # corners realize the true residual max 0.25; the estimate doubles it
        assert lin.err == pytest.approx(np.array([0.5]))
        rng = np.random.default_rng(9)
        for x in rng.uniform(0.0, 1.0, size=100):
            resid = abs(x * x - (lin.a[0, 0] * x + lin.b[0]))
            assert resid <= lin.err[0]

    def test_disturbance_set_is_offset_box(self):
        lin = linearize(square_1d(), Box([0.0], [1.0]))
        dist = lin.disturbance_set()
        assert axis_bounds(dist)[0] == pytest.approx([-0.5])
        assert axis_bounds(dist)[1] == pytest.approx([0.0])

    def test_domain_dimension_checked(self):
        with pytest.raises(ValueError):
            linearize(square_1d(), Box([0.0, 0.0], [1.0, 1.0]))


class TestStaticHybridize:
    def test_grid_structure_1d(self):
        h = static_hybridize(square_1d(), Box([0.0], [1.0]), grid=4)
        assert h.shape == (4,)
        assert h.rigorous
        assert sorted(h.cells) == ["cell_0", "cell_1", "cell_2", "cell_3"]
        cell1 = h.cells["cell_1"]
        assert axis_bounds(cell1)[0] == pytest.approx([0.25])
        assert axis_bounds(cell1)[1] == pytest.approx([0.5])
        mode1 = h.automaton.mode("cell_1")
        assert mode1.a == pytest.approx(np.array([[0.75]]))  # 2c at c = 0.375
        lo, hi = axis_bounds(mode1.input_set)
        c, err = 0.375, 0.015625  # half-diagonal 0.125, curvature 2
        assert lo == pytest.approx([-c * c - err])
        assert hi == pytest.approx([-c * c + err])
        assert mode1.invariant is cell1

    def test_transitions_connect_neighbours_both_ways(self):
        h = static_hybridize(square_1d(), Box([0.0], [1.0]), grid=4)
        trs = h.automaton.transitions
        assert len(trs) == 6
        pairs = {(t.source, t.target) for t in trs}
        assert ("cell_0", "cell_1") in pairs and ("cell_1", "cell_0") in pairs
        face = next(t.guard for t in trs if t.source == "cell_0")
        lo, hi = axis_bounds(face)
        assert lo == pytest.approx([0.25]) and hi == pytest.approx([0.25])

    def test_grid_shape_2d(self):
        sys = NonlinearSystem(
            f=lambda x: np.array([x[1], -x[0]]), dim=2, hessian_bound=0.0
        )
        h = static_hybridize(sys, Box([-1.0, -1.0], [1.0, 1.0]), grid=(2, 3))
        assert h.shape == (2, 3)
        assert len(h.automaton.modes) == 6
        # 3 interior faces along axis 0, 4 along axis 1, two directions each
        assert len(h.automaton.transitions) == 14
        # cells in grid order, each linked both ways across its upper faces
        assert [(t.source, t.target) for t in h.automaton.transitions] == [
            ("cell_0_0", "cell_1_0"), ("cell_1_0", "cell_0_0"),
            ("cell_0_0", "cell_0_1"), ("cell_0_1", "cell_0_0"),
            ("cell_0_1", "cell_1_1"), ("cell_1_1", "cell_0_1"),
            ("cell_0_1", "cell_0_2"), ("cell_0_2", "cell_0_1"),
            ("cell_0_2", "cell_1_2"), ("cell_1_2", "cell_0_2"),
            ("cell_1_0", "cell_1_1"), ("cell_1_1", "cell_1_0"),
            ("cell_1_1", "cell_1_2"), ("cell_1_2", "cell_1_1"),
        ]

    def test_cell_cap_refusal(self):
        sys = NonlinearSystem(lambda x: x, 2, hessian_bound=0.0)
        with pytest.raises(ValueError, match="cap"):
            static_hybridize(sys, Box([0.0, 0.0], [1.0, 1.0]), grid=40)

    def test_domain_and_grid_checked(self):
        sys = NonlinearSystem(lambda x: x, 2, hessian_bound=0.0)
        with pytest.raises(ValueError, match="^domain dimension does not match the system$"):
            static_hybridize(sys, Box([0.0], [1.0]), grid=2)
        with pytest.raises(ValueError, match="^grid must have at least one cell per axis$"):
            static_hybridize(sys, Box([0.0, 0.0], [1.0, 1.0]), grid=(2, 0))

    def test_raised_cell_cap(self):
        # the cap is a safety limit the caller may raise, and it is inclusive
        sys = NonlinearSystem(lambda x: x, 2, hessian_bound=0.0)
        domain = Box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"9 cells \(cap 8\)"):
            static_hybridize(sys, domain, grid=3, max_cells=8)
        h = static_hybridize(sys, domain, grid=3, max_cells=9)
        assert len(h.automaton.modes) == 9

    def test_initial_picks_center_cell(self):
        h = static_hybridize(square_1d(), Box([0.0], [1.0]), grid=4)
        name, entry = h.initial(Box([0.3], [0.35]))
        assert name == "cell_1"
        assert axis_bounds(entry)[0] == pytest.approx([0.3])
        assert axis_bounds(entry)[1] == pytest.approx([0.35])

    def test_initial_overhang_is_refused(self):
        # a flow from cell_0 alone would miss the states of x0 in cell_1
        h = static_hybridize(square_1d(), Box([0.0], [1.0]), grid=4)
        with pytest.raises(ValueError, match="^initial set is not inside its center cell cell_0$"):
            h.initial(Box([0.2], [0.3]))

    def test_initial_outside_domain_raises(self):
        h = static_hybridize(square_1d(), Box([0.0], [1.0]), grid=4)
        with pytest.raises(ValueError):
            h.initial(Box([1.4], [1.5]))

    def test_initial_missing_its_center_cell_raises(self):
        # the triangle's bounding box is centred in cell_0_0_0, which the
        # plane x + y + z = 2 it lies in passes by
        sys = NonlinearSystem(lambda x: x, 3, hessian_bound=0.0)
        h = static_hybridize(sys, Box([0.0] * 3, [1.0] * 3), grid=2)
        triangle = VPolytope([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="^initial set is not inside its center cell cell_0_0_0$"):
            h.initial(triangle)

    def test_reach_covers_true_cubic_decay(self):
        h = static_hybridize(cubic_decay(), Box([0.2], [1.2]), grid=4)
        name, entry = h.initial(Box([1.0], [1.05]))
        assert name == "cell_3"
        r = 0.01
        pipe = hybrid_reach(h.automaton, name, entry, cfg(1.0, r))
        assert pipe.status == COMPLETED
        visited = {f.mode for f in pipe.flows}
        assert {"cell_3", "cell_2"} <= visited

        def covered(t, x):
            pt = np.array([x])
            for flow in pipe.flows:
                for seg in flow.segments:
                    t0 = (flow.entry_step + seg.k) * r
                    t1 = t0 + (1 + flow.entry_spread) * r
                    if t0 - 1e-9 <= t <= t1 + 1e-9 and member(seg.set_rep, pt):
                        return True
            return False

        for x0 in (1.0, 1.02, 1.05):
            for t in np.linspace(0.0, 1.0, 21):
                assert covered(t, cubic_true(x0, t)), (x0, t)


class TestDynamicHybridize:
    def test_linear_degeneration_matches_linear_engine(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = NonlinearSystem(
            f=lambda x: a @ x, dim=2, jac=lambda x: a, hessian_bound=0.0
        )
        x0 = Box([0.9, -0.05], [1.1, 0.05])
        c = cfg(1.0, 0.05)
        dyn = dynamic_hybridize_reach(sys, x0, c, min_pad=5.0)
        ref = reach(LinearSystem(a, x0, time_kind="continuous"), c)
        assert dyn.status == HORIZON
        assert dyn.rigorous
        assert len(dyn.domains) == 1  # domain wide enough: no rebuild
        assert len(dyn.segments) == len(ref.segments)
        for got, want in zip(dyn.segments, ref.segments):
            assert got.k == want.k
            assert got.t0 == pytest.approx(want.t0)
            assert got.t1 == pytest.approx(want.t1)
            glo, ghi = axis_bounds(got.set_rep)
            wlo, whi = axis_bounds(want.set_rep)
            assert np.allclose(glo, wlo, atol=1e-9)
            assert np.allclose(ghi, whi, atol=1e-9)

    def test_cubic_decay_covers_closed_form(self):
        r = 0.01
        pipe = dynamic_hybridize_reach(cubic_decay(), Box([1.0], [1.0]), cfg(1.0, r))
        assert pipe.status == HORIZON
        assert pipe.rigorous
        assert len(pipe.segments) == 101
        for k, seg in enumerate(pipe.segments):
            assert seg.k == k
            # the dense segment covers the snapshot at its left edge
            x = cubic_true(1.0, k * r)
            assert member(seg.set_rep, np.array([x])), k
        lo, hi = axis_bounds(pipe.segments[-1].set_rep)
        assert hi[0] - lo[0] < 0.2  # no blowup

    def test_rebuilds_follow_fast_decay(self):
        r = 0.005
        pipe = dynamic_hybridize_reach(
            cubic_decay(), Box([1.45], [1.5]), cfg(0.5, r), min_pad=0.15
        )
        assert pipe.status == HORIZON
        assert len(pipe.domains) >= 2  # the flow outran the first domain
        for x0 in (1.45, 1.5):
            for t in np.linspace(0.0, 0.5, 11):
                k = min(int(t / r + 1e-9), len(pipe.segments) - 1)
                x = np.array([cubic_true(x0, t)])
                assert member(pipe.segments[k].set_rep, x) or member(
                    pipe.segments[max(k - 1, 0)].set_rep, x
                ), (x0, t)

    @staticmethod
    def _oscillator_pipe_holds_rk4(**kw):
        # damped oscillator with a nonlinear velocity term
        def f(x):
            return np.array([x[1], -x[0] + 0.2 * (1.0 - x[0] ** 2) * x[1]])

        def curvature(lo, hi):
            far = np.maximum(np.abs(lo), np.abs(hi))
            # Hessian of f2 has entries -0.4 x2, -0.4 x1; spectral norm bound
            return np.array([0.0, 0.4 * float(np.linalg.norm(far)) + 0.2])

        sys = NonlinearSystem(f=f, dim=2, hessian_bound=curvature)
        r = 0.005
        pipe = dynamic_hybridize_reach(sys, Box([1.0, 0.0], [1.0, 0.0]), cfg(0.5, r, **kw))
        assert pipe.status == HORIZON
        path = rk4(f, np.array([1.0, 0.0]), 0.5, 500)
        for i, x in enumerate(path):
            t = i * 0.001
            k = min(int(t / r + 1e-9), len(pipe.segments) - 1)
            assert member(pipe.segments[k].set_rep, x) or member(
                pipe.segments[max(k - 1, 0)].set_rep, x
            ), t
        return pipe

    def test_rk4_paths_stay_inside_pipe(self):
        self._oscillator_pipe_holds_rk4()

    def test_rk4_paths_stay_inside_facet_pipe(self):
        pipe = self._oscillator_pipe_holds_rk4(strategy="facets")
        # facet pushing turns the normals away from the lazy engine's template
        template = HPolytope(default_template(2), np.ones(8)).normals
        assert any(
            s.set_rep.normals.shape != template.shape
            or not np.allclose(s.set_rep.normals, template)
            for s in pipe.segments
        )

    def test_bad_set_mode_aborts(self):
        r = 0.01
        pipe = dynamic_hybridize_reach(
            cubic_decay(),
            Box([1.0], [1.0]),
            cfg(1.0, r, mode="bad_set", bad_set=Box([-10.0], [0.8])),
        )
        assert pipe.status == BAD_REACHED
        # x(t) truly hits 0.8 at t = (1/0.64 - 1)/2 ~ 0.28; over-approximation
        # may flag contact earlier, never later
        assert 0 < pipe.status_step <= 29
        lo, _ = axis_bounds(pipe.segments[-1].set_rep)
        assert lo[0] <= 0.8 + 1e-9
        # the contact ends the third epoch on its last segment
        assert (pipe.status_step, len(pipe.segments), len(pipe.domains)) == (17, 18, 3)

    def test_stalls_when_error_explodes(self):
        sys = NonlinearSystem(
            f=lambda x: np.array([-x[0] ** 3]),
            dim=1,
            jac=lambda x: np.array([[-3.0 * x[0] ** 2]]),
            hessian_bound=1e9,
        )
        pipe = dynamic_hybridize_reach(sys, Box([1.0], [1.0]), cfg(1.0, 0.01))
        assert pipe.status == STALLED
        assert len(pipe.segments) <= 2
        # the first epoch and its one retry keep nothing
        assert (pipe.status_step, len(pipe.segments), len(pipe.domains)) == (0, 0, 2)

    def test_stalls_at_the_rebuild_cap(self, monkeypatch):
        # the fast decay outruns its first domain; with room for two domains
        # the run stops where the third would be built
        r = 0.005
        args = (cubic_decay(), Box([1.45], [1.5]), cfg(0.5, r))
        full = dynamic_hybridize_reach(*args, min_pad=0.15)
        assert len(full.domains) > 2
        monkeypatch.setattr(hybridize, "_MAX_REBUILDS", 2)
        pipe = dynamic_hybridize_reach(*args, min_pad=0.15)
        assert pipe.status == STALLED
        assert len(pipe.domains) == 2
        for got, want in zip(pipe.domains, full.domains):
            assert np.array_equal(got.lower, want.lower) and np.array_equal(got.upper, want.upper)
        assert pipe.status_step == len(pipe.segments)
        for seg, want in zip(pipe.segments, full.segments):
            assert seg.set_rep.offsets.tobytes() == want.set_rep.offsets.tobytes()

    def test_sampled_linearization_marks_result(self):
        sys = NonlinearSystem(
            f=lambda x: np.array([-x[0] ** 3]),
            dim=1,
            jac=lambda x: np.array([[-3.0 * x[0] ** 2]]),
        )
        pipe = dynamic_hybridize_reach(sys, Box([1.0], [1.0]), cfg(0.1, 0.01))
        assert not pipe.rigorous

    def test_config_validation(self):
        sys = cubic_decay()
        with pytest.raises(ValueError, match="time step"):
            dynamic_hybridize_reach(sys, Box([1.0], [1.0]), ReachConfig(horizon=5))
        with pytest.raises(ValueError, match="dense"):
            dynamic_hybridize_reach(
                sys, Box([1.0], [1.0]), cfg(1.0, 0.01, bloat_policy="error_ball")
            )
        with pytest.raises(ValueError, match="fixpoint"):
            dynamic_hybridize_reach(
                sys, Box([1.0], [1.0]), cfg(1.0, 0.01, mode="fixpoint")
            )
