import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reachflow import numkernel
from reachflow.numkernel import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, _LpStart, _phase_one,
                                 lp_max, mat_exp)

from oracles import cold_phase_one, cold_phase_two, lp_vertex_enum, taylor_exp


class TestMatExp:
    def test_zero_matrix_is_exact_identity(self):
        out = mat_exp(np.zeros((3, 3)), 0.7)
        assert np.array_equal(out, np.eye(3))

    def test_zero_step_is_exact_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(mat_exp(a, 0.0), np.eye(2))

    def test_planar_rotation_quarter_turn(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = mat_exp(a, math.pi / 2)
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out, taylor_exp(a, math.pi / 2, terms=40), atol=1e-12)

    def test_diagonal_matches_scalar_exp(self):
        a = np.diag([0.3, -1.2, 2.0])
        out = mat_exp(a, 0.5)
        assert np.allclose(np.diag(out), np.exp(np.diag(a) * 0.5), atol=1e-13)

    def test_matches_taylor_oracle_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            a /= max(1.0, np.linalg.norm(a, np.inf))
            r = rng.uniform(-1.0, 1.0)
            assert np.allclose(mat_exp(a, r), taylor_exp(a, r, terms=40), atol=1e-9)

    def test_semigroup_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            a /= max(1.0, 2.0 * np.linalg.norm(a, np.inf))  # keep it stable
            r1, r2 = rng.uniform(-1.0, 1.0, size=2)
            lhs = mat_exp(a, r1 + r2)
            rhs = mat_exp(a, r1) @ mat_exp(a, r2)
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="^time step must be finite$"):
            mat_exp(np.eye(2), np.inf)


def unit_box_constraints(n):
    eye = np.eye(n)
    a = np.vstack([eye, -eye])
    b = np.concatenate([np.ones(n), np.zeros(n)])
    return a, b


class TestLpMax:
    def test_unit_box_corner(self):
        a, b = unit_box_constraints(2)
        res = lp_max([1.0, 1.0], a, b)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_infeasible_pair(self):
        # x <= -1 and x >= 0
        res = lp_max([1.0], [[1.0], [-1.0]], [-1.0, 0.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = lp_max([1.0], [[-1.0]], [0.0])
        assert res.status == UNBOUNDED

    def test_degenerate_tie_returns_blands_vertex(self):
        a, b = unit_box_constraints(2)
        res = lp_max([1.0, 0.0], a, b)  # whole edge x=1 optimal
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)

    def test_zero_objective_returns_the_start_vertex(self):
        a, b = unit_box_constraints(3)
        res = lp_max([0.0, 0.0, 0.0], a, b)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.x, [0.0, 0.0, 0.0], atol=1e-8)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            for _ in range(25):
                # a box plus random cuts, offsets chosen around an interior point
                eye = np.eye(n)
                extra = rng.normal(size=(5, n))
                extra /= np.linalg.norm(extra, axis=1, keepdims=True)
                a = np.vstack([eye, -eye, extra])
                p = rng.uniform(-1.0, 1.0, size=n)
                b = a @ p + rng.uniform(0.2, 2.0, size=a.shape[0])
                c = rng.normal(size=n)
                res = lp_max(c, a, b)
                oracle = lp_vertex_enum(c, a, b)
                assert res.status == OPTIMAL and oracle is not None
                assert res.value == pytest.approx(oracle[0], abs=1e-9)
                assert np.allclose(res.x, oracle[1], atol=1e-7)

    def test_value_dominates_random_feasible_points(self):
        rng = np.random.default_rng(23)
        eye = np.eye(4)
        a = np.vstack([eye, -eye, rng.normal(size=(6, 4))])
        p = rng.uniform(-0.5, 0.5, size=4)
        b = a @ p + rng.uniform(0.5, 1.5, size=a.shape[0])
        c = rng.normal(size=4)
        res = lp_max(c, a, b)
        assert res.status == OPTIMAL
        assert np.all(a @ res.x <= b + 1e-9)
        count = 0
        while count < 1000:
            x = rng.uniform(-3.0, 3.0, size=4)
            if np.all(a @ x <= b):
                assert c @ x <= res.value + 1e-9
                count += 1

    def test_phase_one_ends_on_a_column_no_row_bounds(self):
        # x1 <= -1, 1e-12 x1 + c3 x3 <= -1 and x3 <= x1 / 2 (two zero rows):
        # phase one's tableau prices a slack column above the tolerance
        # with no entry above it once both artificials are out of the basis
        c3 = 1.1920929e-07
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                      [1e-12, 0.0, c3], [-0.5, 0.0, 1.0]])
        b = np.array([0.0, -1.0, 0.0, -1.0, 0.0])
        assert lp_max([0.0, 1.0, 0.0], a, b).status == UNBOUNDED
        # max x1 is -1; max x3 is where the last two rows cross
        x1 = -1.0 / (0.5 * c3 + 1e-12)
        for c, value in (([1.0, 0.0, 0.0], -1.0), ([0.0, 0.0, 1.0], 0.5 * x1)):
            res = lp_max(c, a, b)
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(value, rel=1e-9)
            assert np.all(a @ res.x <= b + 1e-9 * (1.0 + np.abs(a) @ np.abs(res.x)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_max([1.0, 2.0], np.eye(3), np.ones(3))
        with pytest.raises(ValueError):
            lp_max([1.0, 2.0, 3.0], np.eye(3), np.ones(4))

    @pytest.mark.parametrize("c, a, b, message", [
        ([1.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], np.ones(2), "matrix has non-finite entries"),
        ([1.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], np.ones(2), "matrix has non-finite entries"),
        ([1.0, 0.0], np.eye(2), [1.0, np.nan], "vector has non-finite entries"),
        ([1.0, 0.0], np.ones(2), np.ones(2), "expected a matrix"),
        ([1.0, 0.0], np.eye(2), np.ones((2, 1)), "expected a vector"),
        ([1.0, 0.0, 0.0], np.eye(2), np.ones(2), "objective length 3"),
        ([1.0, 0.0], np.eye(2), np.ones(3), "right-hand side length 3"),
        ([np.nan, 0.0], np.eye(2), np.ones(2), "vector has non-finite entries"),
    ])
    def test_batch_entry_checks_its_arrays(self, c, a, b, message):
        # lp_max is the one checked entry, in front of every batch of solves
        with pytest.raises(ValueError, match=message):
            lp_max(c, a, b)

    def test_checked_solve_is_the_batch_entry(self):
        # a checked solve equals the unchecked batch over one start
        rng = np.random.default_rng(7)
        a = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))])
        b = np.concatenate([np.ones(6), np.ones(4) * 2.0])
        objs = rng.normal(size=(5, 3))
        for got, c in zip(_LpStart(a, b).solve(objs), objs):
            want = lp_max(c, a, b)
            assert got.status == want.status and got.value == want.value
            np.testing.assert_array_equal(got.x, want.x)

    def test_no_constraints(self):
        res = lp_max([0.0, 0.0], np.zeros((0, 2)), np.zeros(0))
        assert res.status == OPTIMAL and res.value == 0.0
        res = lp_max([1.0, 0.0], np.zeros((0, 2)), np.zeros(0))
        assert res.status == UNBOUNDED


@st.composite
def lp_batches(draw):
    """Constraints {a x <= b} with 1-8 rows and 1-12 objectives over them,
    and an order to solve them in.  Integer data makes degenerate ties;
    few rows leave objectives unbounded, negative offsets sets empty."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 12))
    num = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-3.0, 3.0)]))

    def matrix(rows):
        return np.array(draw(st.lists(num, min_size=rows * n, max_size=rows * n))).reshape(rows, n)

    a, objs = matrix(m), matrix(k)
    b = np.array(draw(st.lists(num, min_size=m, max_size=m)))
    return a, b, objs, draw(st.permutations(range(k)))


def cold_solve(c, a, b):
    """One objective alone: the reference phase one, then the reference
    phase two on a full copy of its tableau."""
    t, basis, lam = cold_phase_one(a, b)
    if t is None:
        return INFEASIBLE, None, None, lam
    return (*cold_phase_two(c, t, basis), None)


def bits(value):
    return None if value is None else np.float64(value).tobytes()


def same_array(got, want):
    return (got is None and want is None) or got.tobytes() == want.tobytes()


def same_result(got, want):
    status, value, x, farkas = want
    assert got.status == status and bits(got.value) == bits(value)
    assert same_array(got.x, x) and same_array(got.farkas, farkas)


class TestSharedPaths:
    @pytest.mark.parametrize("budget", ["default", "one tableau"])
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lp_batches())
    @example((np.array([[-1.0]]), np.array([0.0]), np.array([[1.0], [-1.0]]), [1, 0]))
    @example((np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]), np.array([[1.0]]), [0]))
    @example((np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]),
              np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), [3, 1, 0, 2]))
    @example((np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                        [1e-12, 0.0, 1.1920929e-07], [-0.5, 0.0, 1.0]]),
              np.array([0.0, -1.0, 0.0, -1.0, 0.0]), np.eye(3), [2, 0, 1]))
    def test_every_result_is_the_cold_solve_bit_for_bit(self, budget, case):
        a, b, objs, order = case
        want = [cold_solve(c, a, b) for c in objs]
        start = _LpStart(a, b)
        with pytest.MonkeyPatch.context() as mp:
            if budget == "one tableau":
                mp.setattr(numkernel, "_START_BYTES_CAP", start.nbytes)
            # shuffled, then the same order again over the kept paths, then
            # the given order with each objective twice in a row
            twice = [i for i in range(len(objs)) for _ in range(2)]
            for idx in (order, order, twice):
                for got, i in zip(start.solve(objs[idx]), idx):
                    same_result(got, want[i])
            assert start.within_budget or start.nbytes == start.root.t.nbytes


@st.composite
def phase_one_systems(draw):
    """{a x <= b} with 1-8 rows: integer or float data, negative offsets
    that put artificials in the start basis (and can make the system
    infeasible), and repeated rows, which leave an artificial basic at
    zero and so a redundant row for phase one to drop."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    num = draw(st.sampled_from([st.integers(-3, 3).map(float), st.floats(-3.0, 3.0)]))
    a = np.array(draw(st.lists(num, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(num, min_size=m, max_size=m)))
    repeats = draw(st.lists(st.integers(0, m - 1), max_size=2))
    return np.vstack([a, a[repeats]]), np.concatenate([b, b[repeats]])


class TestPhaseOne:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(phase_one_systems())
    # x <= -1 and x >= 0: infeasible
    @example((np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0])))
    # x + y >= 1 twice: the second artificial stays basic at zero, its row
    # is redundant
    @example((np.array([[-1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]]), np.array([-1.0, -1.0, 2.0])))
    # a slack column prices above the tolerance once both artificials have
    # left the basis, with no entry above it: phase one ends there
    @example((np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                        [1e-12, 0.0, 1.1920929e-07], [-0.5, 0.0, 1.0]]),
              np.array([0.0, -1.0, 0.0, -1.0, 0.0])))
    # every offset nonnegative: no phase one pivots at all
    @example((np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0])))
    def test_is_the_reference_phase_one_bit_for_bit(self, system):
        a, b = system
        t, basis, lam = cold_phase_one(a, b)
        got = _phase_one(a, b)
        if t is None:
            assert isinstance(got, LpResult) and got.status == INFEASIBLE
            assert got.x is None and got.farkas.tobytes() == lam.tobytes()
            return
        got_t, got_basis = got
        assert got_basis == basis
        assert got_t.shape == t.shape and got_t.tobytes() == t.tobytes()
