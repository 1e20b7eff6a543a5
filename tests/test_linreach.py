"""Flowpipe engine tests: stepping strategies, discretization, modes."""

import hashlib
import itertools
import logging
import math
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from reachflow.linreach import (
    BAD_REACHED,
    CONTINUOUS,
    ERROR_BALL,
    FIXPOINT,
    FIXPOINT_REACHED,
    HORIZON,
    ONCE_HULL,
    SMALL_R,
    Flowpipe,
    LazyReachSet,
    LinearSystem,
    ReachConfig,
    _flow_steps,
    _template_dominates,
    discretize_continuous,
    reach,
    simulate,
    step_input_facets,
    step_input_vertices,
)
from reachflow import linreach
from reachflow.numkernel import mat_exp
from reachflow.setgeom import (
    Box,
    HPolytope,
    VPolytope,
    Zonotope,
    _Prepared,
    _pullback,
    axis_bounds,
    bounding_box,
    contains_set,
    default_template,
    linear_map,
    member,
    sample_points,
    support,
    support_batch,
)

from oracles import eager_zonotope_support, extremal_trace, matvec_loops

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def unit_box(n):
    return Box(-np.ones(n), np.ones(n))


def h_axis_bounds(pipe, k):
    return axis_bounds(pipe.segments[k].set_rep)


# ---------------------------------------------------------------------------
# single-step operators


class TestStepOperators:
    def test_autonomous_step_box(self):
        out = linear_map(2.0 * np.eye(2), unit_box(2))
        lo, hi = axis_bounds(out)
        np.testing.assert_allclose(lo, [-2, -2])
        np.testing.assert_allclose(hi, [2, 2])

    def test_vertex_step_box_box(self):
        # identity map: P + V on boxes, exact corner arithmetic
        p = unit_box(2)
        v = Box([0.0, 0.0], [1.0, 1.0])
        out = step_input_vertices(p, v, np.eye(2))
        assert isinstance(out, VPolytope)
        lo, hi = axis_bounds(out)
        np.testing.assert_allclose(lo, [-1, -1])
        np.testing.assert_allclose(hi, [2, 2])

    def test_vertex_step_box_diamond(self):
        p = unit_box(2)
        v = VPolytope([[0.5, 0], [-0.5, 0], [0, 0.5], [0, -0.5]])
        out = step_input_vertices(p, v, np.eye(2))
        # square + diamond: an octagon with support 1.5 on axes, 2/sqrt2 diagonally
        val, _ = support(out, [1.0, 0.0])
        assert val == pytest.approx(1.5, abs=1e-12)
        d = np.array([1.0, 1.0]) / math.sqrt(2)
        val, _ = support(out, d)
        assert val == pytest.approx((2 + 0.5) / math.sqrt(2), abs=1e-12)

    def test_facet_step_box_box_exact(self):
        # axis-aligned throughout: the pushed facets ARE the exact sum
        p = unit_box(2).to_hpolytope()
        v = Box([0.0, 0.0], [1.0, 1.0])
        out = step_input_facets(p, v, np.eye(2))
        want = Box([-1.0, -1.0], [2.0, 2.0])
        assert contains_set(out, want)
        assert contains_set(want, out)

    def test_facet_step_covers_and_touches_vertex_step(self):
        # dual route: H-form pushing is a superset of the exact V-form sum
        # and is tight in every one of its facet directions
        a = rot(0.3) @ np.diag([1.5, 0.5])
        p_h = unit_box(2).to_hpolytope()
        p_v = unit_box(2).to_vpolytope()
        v = Box([-0.2, -0.1], [0.2, 0.1])
        out_h = step_input_facets(p_h, v, a)
        out_v = step_input_vertices(p_v, v, a)
        assert not out_h.exact
        assert contains_set(out_h, out_v)
        for row, off in zip(out_h.normals, out_h.offsets):
            val, _ = support(out_v, row)
            assert off == pytest.approx(val, abs=1e-9)

    def test_facet_step_gain_matrix(self):
        p = unit_box(2).to_hpolytope()
        v = Box([-1.0], [1.0])
        b = np.array([[0.0], [1.0]])
        out = step_input_facets(p, linear_map(b, v), np.eye(2))
        lo, hi = axis_bounds(out)
        np.testing.assert_allclose(lo, [-1, -2], atol=1e-12)
        np.testing.assert_allclose(hi, [1, 2], atol=1e-12)

    def test_facet_step_singular_map_warns_and_is_superset(self, caplog):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = unit_box(2).to_hpolytope()
        v = Box([-0.1, -0.1], [0.1, 0.1])
        with caplog.at_level(logging.WARNING, logger="reachflow.linreach"):
            out = step_input_facets(p, v, a)
        assert any("singular" in rec.message for rec in caplog.records)
        assert not out.exact
        rng = np.random.default_rng(5)
        for x in sample_points(unit_box(2), 50, rng):
            for w in sample_points(v, 3, rng):
                assert member(out, a @ x + w)


    @pytest.mark.parametrize("a", [
        rot(0.3) @ np.diag([1.5, 0.5]),
        np.diag([2.0, -0.5]),  # keeps the -0.0 entries of [I; -I] in its rows
        np.array([[0.0, 3.0], [-0.25, 0.0]]),
        1e15 * np.eye(2),  # degenerate rows: the constructor drops them
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # singular: no image
    ])
    def test_facet_image_is_the_public_constructors(self, a):
        # the pullback divides the solve's rows once by their norms, as
        # HPolytope(rows, offsets) does, bit for bit; and the step raises
        # those offsets by the input's supports summed from zero
        p = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.1, 0.3, -0.0, 2.7], exact=True)
        assert np.signbit(p.normals).any() and np.signbit(p.offsets).any()
        img = _pullback(a, p)
        if np.linalg.matrix_rank(a) < 2:
            assert img is None
            return
        want = HPolytope(np.linalg.solve(a.T, p.normals.T).T, p.offsets, exact=p.exact)
        assert img.exact == want.exact
        assert img.normals.tobytes() == want.normals.tobytes()
        assert img.offsets.tobytes() == want.offsets.tobytes()
        v = Box([-0.1, 0.0], [0.3, 0.2])
        out = step_input_facets(p, (v, Zonotope([0.0, -0.0], [[0.1], [-0.2]])), a)
        raised = np.zeros(want.nrows)
        raised += support_batch(v, want.normals.T)
        raised += support_batch(Zonotope([0.0, -0.0], [[0.1], [-0.2]]), want.normals.T)
        want = HPolytope(want.normals, want.offsets + raised, exact=False)
        assert out.normals.tobytes() == want.normals.tobytes()
        assert out.offsets.tobytes() == want.offsets.tobytes()
        assert not out.exact


# ---------------------------------------------------------------------------
# lazy reach sets


class TestLazyReachSet:
    def test_scalar_recurrence_supports(self):
        # x+ = 0.5 x + v, v in [0,1], x0 = 0: sup x_k = 0, 1, 1.5, 1.75
        s = LazyReachSet(Box([0.0], [0.0]), [[0.5]], Box([0.0], [1.0]))
        seen = []
        for _ in range(4):
            seen.append(s.support([1.0]))
            s = s.advance()
        assert seen == pytest.approx([0.0, 1.0, 1.5, 1.75], abs=1e-12)

    def test_concretize_template_box(self):
        s = LazyReachSet(Box([0.0, 0.0], [0.0, 0.0]), 0.5 * np.eye(2), unit_box(2))
        for _ in range(3):
            s = s.advance()
        h = s.concretize()
        assert isinstance(h, HPolytope)
        lo, hi = axis_bounds(h)
        np.testing.assert_allclose(lo, [-1.75, -1.75], atol=1e-12)
        np.testing.assert_allclose(hi, [1.75, 1.75], atol=1e-12)

    def test_fresh_direction_matches_registered(self):
        a = rot(0.7) * 0.9
        s = LazyReachSet(unit_box(2), a, Box([-0.3, -0.2], [0.3, 0.2]))
        for _ in range(6):
            s = s.advance()
        for d in default_template(2):
            # the registered template and a from-scratch query must agree
            h = s.concretize()
            row = np.flatnonzero([np.allclose(d, r) for r in h.normals])[0]
            assert s.support(d) == pytest.approx(h.offsets[row], abs=1e-9)

    def test_matches_eager_materialisation(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(10):
                a = rng.normal(size=(n, n)) * 0.6
                x0c = rng.normal(size=n)
                x0g = rng.normal(size=(n, 2)) * 0.5
                vc = rng.normal(size=n) * 0.1
                vg = rng.normal(size=(n, 2)) * 0.2
                s = LazyReachSet(
                    Zonotope(x0c, x0g), a, Zonotope(vc, vg)
                )
                k = int(rng.integers(1, 8))
                for _ in range(k):
                    s = s.advance()
                for _ in range(4):
                    d = rng.normal(size=n)
                    want = eager_zonotope_support(x0c, x0g, vc, vg, a, k, d)
                    assert s.support(d) == pytest.approx(want, abs=1e-9)

    def test_advance_is_persistent(self):
        s0 = LazyReachSet(unit_box(2), 2.0 * np.eye(2))
        s1 = s0.advance()
        assert s0.k == 0 and s1.k == 1
        assert s0.support([1.0, 0.0]) == pytest.approx(1.0)
        assert s1.support([1.0, 0.0]) == pytest.approx(2.0)

    def test_autonomous_rotation_does_not_wrap(self):
        # 90 one-degree turns of the unit box: lazy evaluation stays exact
        a = rot(math.pi / 180)
        s = LazyReachSet(unit_box(2), a)
        for _ in range(90):
            s = s.advance()
        # after a quarter turn the box maps onto itself
        assert s.support([1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty_base_and_mismatch(self):
        # x <= 0 and x >= 1: the base has no support to pull back
        empty = HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
        with pytest.raises(ValueError, match="empty polytope"):
            LazyReachSet(empty, np.eye(2)).concretize()
        with pytest.raises(ValueError):
            LazyReachSet(unit_box(2), np.eye(3))
        with pytest.raises(ValueError):
            LazyReachSet(unit_box(2), np.eye(2), Box([-1.0], [1.0]))

    def test_rejects_directions_of_another_dimension(self):
        with pytest.raises(ValueError, match="^template direction dimension mismatch$"):
            LazyReachSet(unit_box(2), np.eye(2), directions=np.eye(3))
        s = LazyReachSet(unit_box(2), np.eye(2))
        with pytest.raises(ValueError, match="^direction dimension mismatch$"):
            s.support([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^direction dimension mismatch$"):
            s.concretize(np.eye(3))

    def test_rejects_zero_template_row(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="template rows must be nonzero"):
            LazyReachSet(unit_box(2), np.eye(2), directions=t)
        with pytest.raises(ValueError, match="template rows must be nonzero"):
            ReachConfig(horizon=1, template=t)

    def test_autonomous_support_matches_oracle(self):
        rng = np.random.default_rng(23)
        n = 4
        a = rng.normal(size=(n, n))
        a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
        x0c = rng.normal(size=n)
        x0g = rng.normal(size=(n, 3)) * 0.4
        s = LazyReachSet(Zonotope(x0c, x0g), a)
        for k in range(13):
            for d in rng.normal(size=(3, n)):
                want = eager_zonotope_support(
                    x0c, x0g, np.zeros(n), np.zeros((n, 0)), a, k, d
                )
                assert s.support(d) == pytest.approx(want, abs=1e-9), k
            s = s.advance()

    def test_explicit_directions_match_support(self):
        a = rot(0.3) * 0.95
        s = LazyReachSet(unit_box(2), a, Box([-0.1, -0.2], [0.1, 0.2]))
        for _ in range(7):
            s = s.advance()
        dirs = np.array([[2.0, 1.0], [-1.0, 3.0], [0.0, -0.5]])
        h = s.concretize(dirs)
        for row, off, d in zip(h.normals, h.offsets, dirs):
            np.testing.assert_allclose(row, d / np.linalg.norm(d))
            assert off == pytest.approx(s.support(d) / np.linalg.norm(d), abs=1e-12)

    def test_non_unit_template_rows_give_unit_normals(self):
        rng = np.random.default_rng(31)
        n = 20
        a = rng.normal(size=(n, n))
        a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
        x0c = rng.normal(size=n)
        x0g = rng.normal(size=(n, 3)) * 0.3
        vc = rng.normal(size=n) * 0.05
        vg = rng.normal(size=(n, 2)) * 0.1
        t = rng.normal(size=(2 * n, n))
        t /= np.linalg.norm(t, axis=1)[:, None]
        t[0::2] *= 3.0
        t[1::2] *= 0.5
        s = LazyReachSet(Zonotope(x0c, x0g), a, Zonotope(vc, vg), directions=t)
        unit = t / np.linalg.norm(t, axis=1)[:, None]
        for k in range(51):
            h = s.concretize()
            np.testing.assert_allclose(np.linalg.norm(h.normals, axis=1), 1.0,
                                       atol=1e-14)
            if k in (0, 1, 10, 25, 50):
                want = [eager_zonotope_support(x0c, x0g, vc, vg, a, k, d)
                        for d in unit]
                np.testing.assert_allclose(h.offsets, want, rtol=0, atol=1e-9)
            s = s.advance()


# ---------------------------------------------------------------------------
# the lazy recurrence on a template folded up to sign


def unfolded_offsets(base, a, parts, dirs, steps):
    """Template offsets at steps 0..steps by the recurrence on every
    template column: supports of the base along ``(A^T)^k D^T`` plus the
    accumulated input supports."""
    cur = dirs.T
    acc = np.zeros(dirs.shape[0])
    out = []
    for _ in range(steps + 1):
        out.append(support_batch(base, cur) + acc)
        total = np.zeros(dirs.shape[0])
        for p in parts:
            total += support_batch(p, cur)
        acc = acc + total
        cur = a.T @ cur
    return out


def from_scratch(base, a, parts, dmat, k):
    """Supports along the columns of ``dmat`` after k steps, each pulled
    back through the map one step at a time."""
    acc = np.zeros(dmat.shape[1])
    for _ in range(k):
        total = np.zeros(dmat.shape[1])
        for p in parts:
            total += support_batch(p, dmat)
        acc += total
        dmat = a.T @ dmat
    return support_batch(base, dmat) + acc


# no magnitudes so small that a template row's norm underflows
ENTRY = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
         | st.floats(-2.0, 2.0).filter(lambda x: abs(x) >= 1e-3))


@st.composite
def folded_cases(draw):
    n = draw(st.integers(1, 5))

    def matrix(rows, cols, scale=1.0):
        vals = draw(st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols))
        return scale * np.array(vals).reshape(rows, cols)

    rows = matrix(draw(st.integers(1, 4)), n)
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0  # template rows are nonzero
    # the negations, written with +0.0 where a row has a zero of either sign
    neg = np.where(rows == 0.0, 0.0, -rows)
    kind = draw(st.sampled_from(["paired", "unpaired", "mixed", "duplicates", "signed zeros"]))
    if kind == "paired":
        t = np.vstack([rows, -rows])
    elif kind == "unpaired":
        t = rows
    elif kind == "mixed":
        t = np.vstack([rows, matrix(2, n) + 3.0, -rows[::-1][:2]])
    elif kind == "duplicates":
        t = np.vstack([rows, rows, -rows[:1], rows[:1]])
    else:
        t = np.vstack([neg, rows, np.where(rows == 0.0, -0.0, rows)])
    c = matrix(1, n)[0]
    w = np.abs(matrix(1, n)[0])
    base = draw(st.sampled_from(["box", "zonotope", "hpolytope", "vpolytope"]))
    if base == "box":
        x0 = Box(c - w, c + w)
    elif base == "zonotope":
        x0 = Zonotope(c, matrix(n, 2))
    elif base == "hpolytope":
        extra = matrix(2, n)
        eye = np.eye(n)
        # box rows and two more rows that keep the center, so the set is never empty
        x0 = HPolytope(np.vstack([eye, -eye, extra]),
                       np.concatenate([c + w, w - c, extra @ c + np.abs(extra) @ w * 0.5]))
    else:
        x0 = VPolytope(c + matrix(3, n))
    parts = [Box(c * 0.1 - 0.2 * w, c * 0.1 + 0.1 * w), Zonotope(0.1 * c, matrix(n, 2, 0.1))]
    parts = draw(st.sampled_from([[], parts[:1], parts[1:], parts]))
    return matrix(n, n, 0.6), x0, parts, t


class TestFoldedTemplate:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(folded_cases(), st.integers(0, 20))
    def test_offsets_match_the_unfolded_recurrence_bit_for_bit(self, case, k):
        a, x0, parts, t = case
        dirs = t / np.linalg.norm(t, axis=1)[:, None]
        want = unfolded_offsets(x0, a, parts, dirs, 20)
        s = LazyReachSet(x0, a, parts, t)
        for step in range(21):
            assert s.concretize().offsets.tobytes() == want[step].tobytes(), step
            if step == k:
                d = t[0] + 0.5
                assert s.support(d) == from_scratch(x0, a, parts, d[:, None], k)[0]
                got = s.concretize(t[::-1])
                vals = from_scratch(x0, a, parts, t[::-1].T, k)
                assert got.offsets.tobytes() == HPolytope(t[::-1], vals).offsets.tobytes()
            s = s.advance()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 20])
    def test_box_template_advances_n_columns(self, n):
        s = LazyReachSet(unit_box(n), 0.9 * np.eye(n), directions=np.vstack([np.eye(n), -np.eye(n)]))
        want = n if n % 4 == 0 else 2 * n  # folded only when n and 2n are multiples of 4
        assert s.advance()._basis.shape == (n, want)

    def test_which_templates_fold(self):
        # only [P; -P] folds, onto the columns of P, when 8 divides its rows
        u = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        v = np.array([[3.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        p = np.vstack([u, v])
        pairs = np.vstack([r for row in p for r in (row, -row)])
        # zeros of either sign compare as values
        cases = [(u, 2), (np.vstack([p, -p]), 4), (np.vstack([p, np.where(p == 0.0, 0.0, -p)]), 4),
                 (np.vstack([u, -u]), 4), (np.vstack([p, p]), 8), (np.vstack([p, -p[::-1]]), 8),
                 (pairs, 8), (default_template(2), 8), (default_template(3), 18),
                 (default_template(4), 32)]
        for t, cols in cases:
            s = LazyReachSet(unit_box(t.shape[1]), np.eye(t.shape[1]), directions=t)
            assert s._basis.shape == (t.shape[1], cols)
            assert s._folded == (cols < len(t))

    @pytest.mark.parametrize("seed", range(20))
    def test_maps_rebuild_every_template_row(self, seed):
        # over random P, [P; -P] folds exactly when 4 divides |P|, and its
        # stacked columns [P; -P]^T rebuild every template column bit for
        # bit; [P; P], [P; -P reversed] and interleaved pairs never fold.
        # Every case gives the unfolded recurrence's offsets bit for bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = int(rng.choice([4, 8] if seed % 2 == 0 else [2, 3, 5, 6, 7]))
        p = rng.normal(size=(h, n))
        p[rng.random(p.shape) < 0.2] = 0.0
        p[np.all(p == 0.0, axis=1), 0] = 1.0
        a = self._stable(rng, n, 0.95)
        c = rng.uniform(-1.0, 1.0, size=n)
        base = [Box(c - 0.5, c + 0.4), Zonotope(c, rng.normal(size=(n, 3))),
                Box(c - 0.5, c + 0.4).to_hpolytope(), VPolytope(c + rng.normal(size=(n + 2, n)))][seed % 4]
        parts = [Box(0.1 * c - 0.05, 0.1 * c + 0.02), Zonotope(0.1 * c, 0.1 * rng.normal(size=(n, 2)))]
        interleaved = np.vstack([r for row in p for r in (row, -row)])
        for t, folds in ((np.vstack([p, -p]), h % 4 == 0), (np.vstack([p, p]), False),
                         (np.vstack([p, -p[::-1]]), False), (interleaved, False)):
            dirs = t / np.linalg.norm(t, axis=1)[:, None]
            want = unfolded_offsets(base, a, parts, dirs, 6)
            s = LazyReachSet(base, a, parts, t)
            assert s._folded == folds
            cur = dirs.T
            for step in range(7):
                assert s.concretize().offsets.tobytes() == want[step].tobytes(), step
                assert s._cur.tobytes() == cur.tobytes(), step
                s, cur = s.advance(), a.T @ cur

    def test_default_templates_fold_on_aligned_dimensions(self):
        # the octagons of two to four dimensions never fold: their pairs are
        # interleaved; the box template [I; -I] of five dimensions on folds
        # when 4 divides n
        for n in range(1, 9):
            s = LazyReachSet(unit_box(n), np.eye(n))
            if n == 8:
                assert s._folded and s._basis.shape == (n, n)
            else:
                assert not s._folded and s._basis.shape == (n, len(default_template(n))), n

    @staticmethod
    def _stable(rng, n, radius):
        a = rng.normal(size=(n, n)) / math.sqrt(n)
        return a * (radius / float(np.max(np.abs(np.linalg.eigvals(a)))))

    @staticmethod
    def _digest(pipe):
        h = hashlib.sha256()
        for seg in pipe.segments:
            h.update(seg.set_rep.offsets.tobytes())
        return h.hexdigest()

    def test_box_template_offsets_are_pinned(self):
        # digest of the offsets the unfolded recurrence gave for this run
        n = 20
        rng = np.random.default_rng(20)
        c = rng.uniform(-1.0, 1.0, size=n)
        system = LinearSystem(self._stable(rng, n, 0.98), Box(c - 0.5, c + 0.5),
                              input_set=Box(-0.05 * np.ones(n), 0.05 * np.ones(n)))
        pipe = reach(system, ReachConfig(horizon=100, template=np.vstack([np.eye(n), -np.eye(n)])))
        assert self._digest(pipe) == (
            "7ac79af66a877bf9a4395b564d6c54737c7ab21a489ae927cdce845276078b3c")

    def test_octagon_offsets_over_a_zonotope_are_pinned(self):
        # digest of the offsets the unfolded recurrence gave for this run
        n = 4
        rng = np.random.default_rng(4)
        x0 = Zonotope(rng.uniform(-1.0, 1.0, size=n), 0.3 * rng.normal(size=(n, 3)))
        system = LinearSystem(self._stable(rng, n, 0.99), x0,
                              input_set=Box([-0.02, -0.01, 0.0, -0.03], [0.02, 0.03, 0.01, 0.0]))
        pipe = reach(system, ReachConfig(horizon=200))
        assert self._digest(pipe) == (
            "1f4e4b142f7a9fabf283656bb9ba99fe2b8589999cd87c812869f6e89e405a25")

    @pytest.mark.parametrize("cols", range(1, 41))
    def test_every_row_count_matches_the_unfolded_recurrence(self, cols):
        # box and zonotope supports are read from the folded columns only on
        # 4-aligned row counts; on any other count a row of the shorter
        # matrix-vector product can round differently, so every count of
        # folded columns m' and of template rows m is checked here
        rng = np.random.default_rng(cols)
        rows = rng.normal(size=(cols, 5))
        templates = [np.vstack([np.eye(cols), -np.eye(cols)]), np.vstack([rows, -rows]),
                     np.vstack([rows, -rows[:(cols + 1) // 2]])]
        for t in templates:
            n, m = t.shape[1], t.shape[0]
            dirs = t / np.linalg.norm(t, axis=1)[:, None]
            a = self._stable(rng, n, 0.95)
            c = rng.uniform(-1.0, 1.0, size=n)
            inputs = [Box(0.1 * c - 0.05, 0.1 * c + 0.02), Zonotope(0.1 * c, 0.1 * rng.normal(size=(n, 2)))]
            for base in (Box(c - 0.5, c + 0.4), Zonotope(c, rng.normal(size=(n, 3))),
                         Zonotope(c, rng.normal(size=(n, 1)))):
                for parts in ([], inputs[:1], inputs[1:], inputs):
                    want = unfolded_offsets(base, a, parts, dirs, 8)
                    s = LazyReachSet(base, a, parts, t)
                    layout = np.array_equal(t[m // 2:], -t[:m // 2])
                    assert s._folded == (layout and m % 8 == 0)
                    for step in range(9):
                        got = s.concretize().offsets
                        assert got.tobytes() == want[step].tobytes(), (m, type(base), len(parts), step)
                        s = s.advance()

    @classmethod
    def _n200_pipe(cls):
        # the lazy-highdim shape: n = 200, box template, box X0, box input
        n = 200
        rng = np.random.default_rng(200)
        c = rng.uniform(-1.0, 1.0, size=n)
        system = LinearSystem(cls._stable(rng, n, 0.98), Box(c - 0.5, c + 0.5),
                              input_set=Box(-0.05 * np.ones(n), 0.05 * np.ones(n)))
        return reach(system, ReachConfig(horizon=50, template=np.vstack([np.eye(n), -np.eye(n)])))

    def test_n200_box_template_offsets_are_pinned(self):
        # digest of the offsets the unfolded recurrence gave for this run
        assert self._digest(self._n200_pipe()) == (
            "aeb5d03037dbfbb14d27ad085b71b02755478d7dc5800ca9bb5bf836376d3b08")

    def test_n200_box_template_copies_no_columns_back(self, monkeypatch):
        # steps whose full n x m matrix is gathered from the folded columns
        gathers = []
        cur = LazyReachSet._cur
        monkeypatch.setattr(LazyReachSet, "_cur", property(
            lambda s: (s._full is None and gathers.append(s.k)) or cur.fget(s)))
        assert len(self._n200_pipe()) == 51
        assert gathers == []

    @pytest.mark.parametrize("n", [64, 96, 100, 128, 200])
    def test_wide_box_templates_match_the_unfolded_recurrence(self, n):
        # aligned box templates fold; these sizes keep the unfolded bits
        rng = np.random.default_rng(n)
        a = self._stable(rng, n, 0.98)
        c = rng.uniform(-1.0, 1.0, size=n)
        t = np.vstack([np.eye(n), -np.eye(n)])
        cases = [(Box(c - 0.5, c + 0.5), [Box(-0.05 * np.ones(n), 0.05 * np.ones(n))]),
                 (Zonotope(c, rng.normal(size=(n, 3))),
                  [Zonotope(0.1 * c, 0.1 * rng.normal(size=(n, 2)))])]
        for base, parts in cases:
            want = unfolded_offsets(base, a, parts, t, 12)
            s = LazyReachSet(base, a, parts, t)
            assert s._folded
            for step in range(13):
                assert s.concretize().offsets.tobytes() == want[step].tobytes(), (type(base), step)
                s = s.advance()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_box_and_zonotope_operands_gather_no_columns(self, n, monkeypatch):
        # steps whose full n x m matrix is gathered from the folded columns
        gathers = []
        cur = LazyReachSet._cur
        monkeypatch.setattr(LazyReachSet, "_cur", property(
            lambda s: (s._full is None and gathers.append(s.k)) or cur.fget(s)))
        rng = np.random.default_rng(n)
        a = self._stable(rng, n, 0.95)
        c = rng.uniform(-1.0, 1.0, size=n)
        parts = [Box(0.1 * c - 0.05, 0.1 * c + 0.02), Zonotope(0.1 * c, 0.1 * rng.normal(size=(n, 2)))]
        for t in (None, np.vstack([np.eye(n), -np.eye(n)])):
            for base in (Box(c - 0.5, c + 0.4), Zonotope(c, rng.normal(size=(n, 3)))):
                s = LazyReachSet(base, a, parts, t)
                for _ in range(4):
                    s = s.advance()
                    s.concretize()
        assert gathers == []
        # an H-polytope operand does gather on a folded template
        s = LazyReachSet(unit_box(4).to_hpolytope(), 0.9 * np.eye(4),
                         directions=np.vstack([np.eye(4), -np.eye(4)])).advance()
        s.concretize()
        assert gathers == [1]

    @pytest.mark.parametrize("template", [True, False])
    def test_overflowing_offsets_are_rejected(self, template):
        n = 3
        system = LinearSystem(1e200 * np.eye(n), Box(np.ones(n), 2.0 * np.ones(n)),
                              input_set=Box(-np.ones(n), np.ones(n)))
        config = ReachConfig(horizon=5, template=np.vstack([np.eye(n), -np.eye(n)]) if template else None)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="vector has non-finite entries"):
            reach(system, config)

    def test_a_huge_template_gives_the_unit_offsets(self):
        # rows of 1e200, whose squares overflow, normalise to the unit rows
        system = LinearSystem(np.array([[0.5, 0.1], [0.0, 0.9]]), Box([0.0, 0.0], [1.0, 1.0]),
                              input_set=Box([-0.1, -0.1], [0.1, 0.1]))
        t = np.vstack([np.eye(2), -np.eye(2)])
        unit, huge = (reach(system, ReachConfig(horizon=5, template=s * t)) for s in (1.0, 1e200))
        for a, b in zip(unit.segments, huge.segments, strict=True):
            assert a.set_rep.offsets.tobytes() == b.set_rep.offsets.tobytes()

    def test_writable_template_is_not_aliased(self):
        t = np.vstack([np.eye(2), -np.eye(2)])
        s = LazyReachSet(unit_box(2), rot(0.3), directions=t)
        segs = [s.concretize(), s.advance().concretize()]
        t[:] = 5.0
        for h in segs:
            assert not np.shares_memory(h.normals, t) and not h.normals.flags.writeable
            np.testing.assert_array_equal(h.normals, [[1, 0], [0, 1], [-1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# H- and V-polytope inputs through the stepping core


def polytope_input(kind, n, rng):
    """A per-step input set in H- or V-form, and points of it that include
    its vertices: the cross-polytope ``sum |x_i| <= 0.05`` for ``h``, a
    cloud of n + 2 points for ``v``."""
    if kind == "h":
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        return (HPolytope(signs, np.full(len(signs), 0.05)),
                np.vstack([0.05 * np.eye(n), -0.05 * np.eye(n)]))
    pts = 0.05 * rng.normal(size=(n + 2, n))
    return VPolytope(pts), pts


class TestPolytopeInputs:
    @pytest.mark.parametrize("kind", ["h", "v"])
    @pytest.mark.parametrize("strategy, n", [("lazy", 4), ("lazy", 3), ("lazy", 5),
                                             ("facets", 3), ("vertices", 2)])
    def test_flowpipe_covers_trajectories_at_input_vertices(self, strategy, n, kind):
        rng = np.random.default_rng(10 * n + len(strategy))
        a = 0.95 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        x0 = Box(-0.5 * np.ones(n), 0.5 * np.ones(n))
        v, points = polytope_input(kind, n, rng)
        system = LinearSystem(a, x0, input_set=v)
        pipe = reach(system, ReachConfig(horizon=20, strategy=strategy))
        assert len(pipe) == 21
        for _ in range(10):
            corner = np.where(rng.random(n) < 0.5, x0.lower, x0.upper)
            trace = simulate(system, corner, inputs=points[rng.integers(len(points), size=20)])
            for seg, x in zip(pipe.segments, trace.states):
                assert member(seg.set_rep, x), (seg.k, x)
        if strategy == "lazy":
            t = default_template(n)
            # none of the 3-d and 4-d octagons and the 5-d box template folds
            assert not LazyReachSet(x0, a, [v], t)._folded
            dirs = t / np.linalg.norm(t, axis=1)[:, None]
            want = unfolded_offsets(x0, a, [linear_map(np.eye(n), v)], dirs, 20)
            for seg, w in zip(pipe.segments, want):
                assert seg.set_rep.offsets.tobytes() == w.tobytes(), seg.k


# ---------------------------------------------------------------------------
# discretization


class TestDiscretize:
    def test_zero_dynamics_is_identity(self):
        sys = LinearSystem(np.zeros((2, 2)), unit_box(2), time_kind=CONTINUOUS)
        cfg = ReachConfig(horizon=1.0, step=0.25, bloat_policy=SMALL_R)
        a_step, omega0, err = discretize_continuous(sys, cfg)
        assert np.array_equal(a_step, np.eye(2))
        assert omega0 is sys.x0
        lo, hi = axis_bounds(err)
        assert np.all(lo == 0.0) and np.all(hi == 0.0)

    def test_scalar_decay_once_hull(self):
        x0 = Box([1.0], [2.0])
        sys = LinearSystem([[-1.0]], x0, time_kind=CONTINUOUS)
        cfg = ReachConfig(horizon=1.0, step=0.1, bloat_policy=ONCE_HULL)
        a_step, omega0, _ = discretize_continuous(sys, cfg)
        assert a_step[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-12)
        lo, hi = axis_bounds(omega0)
        phi = math.exp(0.1) - 1.0 - 0.1
        # covers [e^-r, 2] and is no looser than the chord bound allows
        assert lo[0] <= math.exp(-0.1) + 1e-12 and hi[0] >= 2.0 - 1e-12
        assert lo[0] >= math.exp(-0.1) - 2 * phi - 1e-12
        assert hi[0] <= 2.0 + 2 * phi + 1e-12

    def test_error_ball_radius_formula(self):
        x0 = Box([-2.0], [2.0])
        v = Box([-0.5], [0.5])
        sys = LinearSystem([[-1.0]], x0, input_set=v, time_kind=CONTINUOUS)
        phi = math.exp(0.1) - 1.0 - 0.1
        # the state radius is x0's sup norm, or the configured state bound
        for state_bound, r_x in ((None, 2.0), (5.0, 5.0)):
            cfg = ReachConfig(horizon=1.0, step=0.1, bloat_policy=ERROR_BALL,
                              state_bound=state_bound)
            _, omega0, err = discretize_continuous(sys, cfg)
            assert omega0 is sys.x0
            want = phi * r_x + phi * 0.5  # state curvature + input residual
            lo, hi = axis_bounds(err)
            assert hi[0] == pytest.approx(want, abs=1e-12), state_bound
            assert lo[0] == pytest.approx(-want, abs=1e-12), state_bound

    def test_quarter_turn_oscillator(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = LinearSystem(a, unit_box(2), time_kind=CONTINUOUS)
        cfg = ReachConfig(horizon=math.pi, step=math.pi / 2, bloat_policy=SMALL_R)
        a_step, _, _ = discretize_continuous(sys, cfg)
        np.testing.assert_allclose(
            a_step, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12
        )

    def test_requires_step(self):
        sys = LinearSystem(np.zeros((2, 2)), unit_box(2), time_kind=CONTINUOUS)
        with pytest.raises(ValueError, match="time step"):
            discretize_continuous(sys, ReachConfig(horizon=1.0))


# ---------------------------------------------------------------------------
# the driver: modes, strategies, statuses


class TestReachModes:
    def doubling(self):
        return LinearSystem(2.0 * np.eye(2), Box([1.0, 1.0], [1.1, 1.1]))

    def test_bounded_discrete_segments(self):
        pipe = reach(self.doubling(), ReachConfig(horizon=3, strategy="lazy"))
        assert pipe.status == HORIZON
        assert len(pipe.segments) == 4
        assert [seg.k for seg in pipe.segments] == [0, 1, 2, 3]
        lo, hi = h_axis_bounds(pipe, 3)
        np.testing.assert_allclose(hi, [8.8, 8.8], atol=1e-9)
        np.testing.assert_allclose(lo, [8.0, 8.0], atol=1e-9)

    def test_bad_set_hit_at_step_two(self):
        bad = HPolytope([[-1.0, 0.0]], [-4.0])  # x1 >= 4
        cfg = ReachConfig(horizon=10, mode="bad_set", bad_set=bad)
        pipe = reach(self.doubling(), cfg)
        assert pipe.status == BAD_REACHED
        assert pipe.status_step == 2
        assert len(pipe.segments) == 3

    def test_bad_set_hit_at_start(self):
        bad = HPolytope([[-1.0, 0.0]], [-1.0])  # x1 >= 1
        cfg = ReachConfig(horizon=10, mode="bad_set", bad_set=bad)
        pipe = reach(self.doubling(), cfg)
        assert pipe.status == BAD_REACHED
        assert pipe.status_step == 0
        assert len(pipe.segments) == 1

    def test_bad_set_never_reached_reports_horizon(self):
        bad = HPolytope([[1.0, 0.0]], [-99.0])  # x1 <= -99
        cfg = ReachConfig(horizon=4, mode="bad_set", bad_set=bad)
        pipe = reach(self.doubling(), cfg)
        assert pipe.status == HORIZON
        assert pipe.status_step is None
        assert len(pipe.segments) == 5

    def test_fixpoint_identity_first_step(self):
        sys = LinearSystem(np.eye(2), unit_box(2))
        pipe = reach(sys, ReachConfig(horizon=5, mode="fixpoint"))
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 1
        assert len(pipe.segments) == 2

    def test_fixpoint_contraction(self):
        sys = LinearSystem(0.5 * np.eye(2), unit_box(2))
        pipe = reach(sys, ReachConfig(horizon=5, mode="fixpoint"))
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 1

    def test_fixpoint_on_period_two_rotation(self):
        # quarter-turn permutation of an asymmetric rectangle: P2 == P0
        sys = LinearSystem(ROT90, Box([-2.0, -1.0], [2.0, 1.0]))
        pipe = reach(sys, ReachConfig(horizon=5, mode="fixpoint"))
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 2
        assert len(pipe.segments) == 3

    def test_fixpoint_guard_gives_horizon(self):
        # strictly growing chain: no segment is ever included in an earlier one
        sys = LinearSystem(
            0.5 * np.eye(2), Box([-0.1, -0.1], [0.1, 0.1]), input_set=unit_box(2)
        )
        cfg = ReachConfig(horizon=5, mode="fixpoint", max_steps=20)
        pipe = reach(sys, cfg)
        assert pipe.status == HORIZON
        assert len(pipe.segments) == 21

    def test_fixpoint_default_guard_is_ten_horizons(self):
        sys = LinearSystem(
            0.5 * np.eye(2), Box([-0.1, -0.1], [0.1, 0.1]), input_set=unit_box(2)
        )
        pipe = reach(sys, ReachConfig(horizon=3, mode="fixpoint"))
        assert pipe.status == HORIZON
        assert len(pipe.segments) == 31

    def test_vertex_fixpoint_above_3d_proves_nothing(self):
        # a 4-d vertex segment has no exact facet form, so no earlier one
        # dominates a later one and the run meets its step guard; a 3-d
        # one has its hull's facets and stops at the first repeat
        config = ReachConfig(horizon=5, mode="fixpoint", strategy="vertices")
        pipe = reach(LinearSystem(0.5 * np.eye(4), Box(np.zeros(4), np.ones(4))), config)
        assert (pipe.status, pipe.status_step, len(pipe.segments)) == (HORIZON, None, 51)
        pipe = reach(LinearSystem(0.5 * np.eye(3), Box(np.zeros(3), np.ones(3))), config)
        assert (pipe.status, pipe.status_step) == (FIXPOINT_REACHED, 1)

    @staticmethod
    def pairwise_fixpoint(system, config):
        """``(status, status_step, segment count)`` of a fixpoint run that
        asks ``_template_dominates`` of every earlier segment in turn, each
        wrapped fresh in a ``_Prepared`` operand: the question
        ``contains_set`` asks."""
        limit = config.max_steps
        segments = []
        for seg in _flow_steps(system, config):
            segments.append(seg)
            if any(_template_dominates(_Prepared(old.set_rep), seg.set_rep)
                   for old in segments[:-1]):
                return FIXPOINT_REACHED, seg.k, len(segments)
            if seg.k >= limit:
                return HORIZON, None, len(segments)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 3), st.sampled_from([0.0, 0.3, math.pi / 2, math.pi / 3]),
           st.sampled_from([0.5, 0.9, 1.0]), st.booleans(),
           st.sampled_from(["lazy", "facets", "vertices"]), st.sampled_from(["default", "box", "skew"]),
           st.integers(0, 30))
    def test_fixpoint_agrees_with_the_pairwise_loop(self, n, theta, scale, with_input,
                                                    strategy, template, max_steps):
        assume(strategy != "vertices" or n < 3)  # 3-d vertex clouds are not thinned
        a = np.eye(n)
        if n >= 2:
            a[:2, :2] = rot(theta)
        elif theta:
            a = -a
        system = LinearSystem(scale * a, Box(np.full(n, 0.5), np.full(n, 1.0)),
                              input_set=Box(np.full(n, -0.01), np.full(n, 0.02)) if with_input else None)
        t = {"default": None, "box": np.vstack([np.eye(n), -np.eye(n)]),
             "skew": np.vstack([np.eye(n), -np.eye(n), np.ones((1, n))])}[template]
        config = ReachConfig(horizon=1, mode="fixpoint", strategy=strategy, template=t,
                             max_steps=max_steps)
        pipe = reach(system, config)
        assert (pipe.status, pipe.status_step, len(pipe)) == self.pairwise_fixpoint(system, config)

    def test_vertex_fixpoint_prepares_each_segment_once(self, monkeypatch):
        # each earlier segment is one prepared operand, not one per later step
        made = []

        class Counted(_Prepared):
            __slots__ = ()

            def __init__(self, s):
                made.append(s)
                super().__init__(s)

        monkeypatch.setattr(linreach, "_Prepared", Counted)
        system = LinearSystem(rot(0.3), Box([0.9, -0.1], [1.1, 0.1]),
                              input_set=Box([-0.01, -0.01], [0.01, 0.01]))
        pipe = reach(system, ReachConfig(horizon=30, mode="fixpoint", strategy="vertices",
                                         max_steps=30))
        assert (pipe.status, len(pipe)) == (HORIZON, 31)
        assert len(made) in (30, 31)

    def test_lazy_fixpoint_answers_in_one_comparison_per_step(self, monkeypatch):
        # a 2-d rotation with an input box never converges; at 4000 steps
        # the pairwise loop took 53 s on a 2-core x86 box, this takes 0.5 s
        def pairwise(q, p):
            raise AssertionError("a lazy run's segments share one template")

        monkeypatch.setattr(linreach, "_template_dominates", pairwise)
        system = LinearSystem(rot(0.3), Box([0.9, -0.1], [1.1, 0.1]),
                              input_set=Box([-0.01, -0.01], [0.01, 0.01]))
        start = time.perf_counter()
        pipe = reach(system, ReachConfig(horizon=10, mode="fixpoint", max_steps=4000))
        assert time.perf_counter() - start < 10.0
        assert (pipe.status, pipe.status_step, len(pipe)) == (HORIZON, None, 4001)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ReachConfig(horizon=1, mode="weird")
        with pytest.raises(ValueError, match="bad_set"):
            ReachConfig(horizon=1, mode="bad_set")
        with pytest.raises(ValueError, match="outside"):
            ReachConfig(horizon=1, bad_set=unit_box(2))
        with pytest.raises(ValueError, match="integer"):
            reach(LinearSystem(np.eye(2), unit_box(2)), ReachConfig(horizon=2.5))
        with pytest.raises(ValueError, match="step"):
            reach(
                LinearSystem(np.eye(2), unit_box(2)),
                ReachConfig(horizon=2, step=0.1),
            )
        with pytest.raises(ValueError, match="nonzero"):
            ReachConfig(horizon=1, template=[[0.0, 0.0]])

    @pytest.mark.parametrize("field, value", [
        ("max_steps", 2.7), ("max_steps", -3), ("max_steps", math.inf),
        ("max_steps", math.nan), ("state_bound", -0.2), ("state_bound", -5),
        ("state_bound", math.inf), ("state_bound", math.nan),
        ("horizon", math.inf), ("horizon", math.nan), ("horizon", -1.0),
        ("step", math.inf), ("step", math.nan), ("step", 0.0),
    ])
    def test_config_rejects_bad_numbers(self, field, value):
        kw = {"horizon": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ReachConfig(**kw)

    def test_whole_max_steps_is_kept_as_an_int(self):
        cfg = ReachConfig(horizon=3, mode="fixpoint", max_steps=4.0)
        assert type(cfg.max_steps) is int and cfg.max_steps == 4
        sys = LinearSystem(0.5 * np.eye(2), unit_box(2), input_set=unit_box(2))
        assert len(reach(sys, cfg).segments) == 5


@st.composite
def bad_set_runs(draw):
    """``(system, config)``: a small_discrete_runs() system, discrete or
    continuous under the dense policy, for up to 40 steps, with a bad box
    around or beside a point its centre trajectory reaches at some step, so
    that hits fall anywhere in a block, touching ones included."""
    system, strategy, _, _ = draw(small_discrete_runs())
    assume(strategy != "vertices" or system.dim < 3)  # 3-d clouds grow fast
    steps = draw(st.integers(0, 40))
    continuous = draw(st.booleans())
    if continuous:
        system = LinearSystem(system.a, system.x0, input_set=system.input_set,
                              time_kind=CONTINUOUS)
        step_map = mat_exp(system.a, 0.125)
    else:
        step_map = system.a
    lo, hi = axis_bounds(system.x0)
    x = np.linalg.matrix_power(step_map, draw(st.integers(0, steps))) @ (0.5 * (lo + hi))
    x = x + draw(st.sampled_from([0.0, 0.5, 3.0])) * np.eye(system.dim)[0]
    radius = draw(st.sampled_from([0.0, 0.05, 0.5]))
    bad = Box(x - radius, x + radius)
    config = ReachConfig(horizon=steps * 0.125 if continuous else steps,
                         step=0.125 if continuous else None, mode="bad_set", bad_set=bad,
                         strategy=strategy)
    return system, config


def one_at_a_time(system, config):
    """``(status, status_step, segments)`` of asking the bad set about each
    segment as the stepping core yields it."""
    _, nsteps = linreach._lattice(config, system.time_kind, system.dim)
    bad = _Prepared(config.bad_set)
    segments = []
    for seg in _flow_steps(system, config):
        segments.append(seg)
        if bad.meets(seg.set_rep):
            return BAD_REACHED, seg.k, segments
        if seg.k >= nsteps:
            return HORIZON, None, segments


def segment_bytes(seg):
    s = seg.set_rep
    arrays = (s.vertices,) if isinstance(s, VPolytope) else (s.normals, s.offsets)
    return (seg.k, seg.t0, seg.t1, type(s), s.exact, *(a.tobytes() for a in arrays))


class TestBadSetBlocks:
    """``reach`` asks its bad set about blocks of segments: the pipe, its
    status and step are those of asking one segment at a time."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bad_set_runs())
    @example((LinearSystem(np.eye(1), Box([0.0], [0.0]), input_set=Box([1.0], [1.0])),
              ReachConfig(horizon=40, mode="bad_set", bad_set=Box([3.0], [3.0]))))
    def test_blocks_of_one_and_of_64_give_the_same_pipe(self, case):
        system, config = case
        status, step, segments = one_at_a_time(system, config)
        for block_max in (1, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linreach, "_BLOCK_MAX", block_max)
                pipe = reach(system, config)
            assert (pipe.status, pipe.status_step, len(pipe)) == (status, step, len(segments))
            assert list(map(segment_bytes, pipe)) == list(map(segment_bytes, segments))

    def test_looks_ahead_no_further_than_it_kept(self, monkeypatch):
        # x' = x + 1 from 0 meets the point k at step k; the core computes
        # no more steps past k than the k + 1 segments kept
        computed = [0]

        def counted(*args):
            computed[0] += 1
            return step_input_facets(*args)

        monkeypatch.setattr(linreach, "step_input_facets", counted)
        system = LinearSystem(np.eye(1), Box([0.0], [0.0]), input_set=Box([1.0], [1.0]))
        for k in range(300):
            computed[0] = 0
            pipe = reach(system, ReachConfig(horizon=400, mode="bad_set", strategy="facets",
                                             bad_set=Box([float(k)], [float(k)])))
            assert (pipe.status, pipe.status_step, len(pipe)) == (BAD_REACHED, k, k + 1)
            assert k <= computed[0] <= k + min(k + 1, linreach._BLOCK_MAX)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("strategy", ["lazy", "vertices"])
    def test_an_error_past_the_hit_does_not_fail_the_run(self, strategy):
        # the step after the hit overflows: asking ahead computes it, and
        # the run still ends at the hit, as it does one segment at a time
        system = LinearSystem(1e100 * np.eye(1), Box([1.0], [2.0]))
        pipe = reach(system, ReachConfig(horizon=10, mode="bad_set", strategy=strategy,
                                         bad_set=Box([1e250], [1e308])))
        assert (pipe.status, pipe.status_step, len(pipe)) == (BAD_REACHED, 3, 4)
        with pytest.raises((ValueError, FloatingPointError)):
            reach(system, ReachConfig(horizon=10, mode="bad_set", strategy=strategy,
                                      bad_set=Box([-2.0], [-1.0])))


class TestReachStrategies:
    def system(self):
        return LinearSystem(
            rot(0.4) @ np.diag([0.9, 1.1]),
            unit_box(2),
            input_set=Box([-0.1, -0.05], [0.1, 0.05]),
        )

    def test_facets_cover_vertices_along_the_pipe(self):
        cfgv = ReachConfig(horizon=6, strategy="vertices")
        cfgf = ReachConfig(horizon=6, strategy="facets")
        pv = reach(self.system(), cfgv)
        pf = reach(self.system(), cfgf)
        for sv, sf in zip(pv.segments, pf.segments):
            assert contains_set(sf.set_rep, sv.set_rep)

    def test_facets_and_vertices_agree_when_axis_aligned(self):
        # diagonal dynamics with a box input keep every step a box, where
        # both exact strategies must produce the same set
        sys = LinearSystem(
            np.diag([0.8, 1.2]), unit_box(2), input_set=Box([-0.2, -0.2], [0.2, 0.2])
        )
        pv = reach(sys, ReachConfig(horizon=6, strategy="vertices"))
        pf = reach(sys, ReachConfig(horizon=6, strategy="facets"))
        for sv, sf in zip(pv.segments, pf.segments):
            assert contains_set(sf.set_rep, sv.set_rep)
            assert contains_set(sv.set_rep, sf.set_rep)

    def test_lazy_covers_exact_strategies(self):
        pl = reach(self.system(), ReachConfig(horizon=6, strategy="lazy"))
        pv = reach(self.system(), ReachConfig(horizon=6, strategy="vertices"))
        for sl, sv in zip(pl.segments, pv.segments):
            assert contains_set(sl.set_rep, sv.set_rep)

    def test_lazy_template_supports_are_tight(self):
        # template directions: the lazy hull touches the exact set
        pl = reach(self.system(), ReachConfig(horizon=5, strategy="lazy"))
        pv = reach(self.system(), ReachConfig(horizon=5, strategy="vertices"))
        h = pl.segments[5].set_rep
        exact = pv.segments[5].set_rep
        for row, off in zip(h.normals, h.offsets):
            val, _ = support(exact, row)
            assert off == pytest.approx(val, abs=1e-9)

    def test_discrete_soundness_random_traces(self):
        rng = np.random.default_rng(23)
        sys = self.system()
        for strat in ("lazy", "facets", "vertices"):
            pipe = reach(sys, ReachConfig(horizon=8, strategy=strat))
            for _ in range(40):
                x = sample_points(sys.x0, 1, rng)[0]
                for k in range(9):
                    assert member(pipe.segments[k].set_rep, x), (strat, k)
                    z = sample_points(sys.input_set, 1, rng)[0]
                    x = sys.a @ x + z

    def test_custom_template(self):
        t = np.vstack([np.eye(2), -np.eye(2)])
        pipe = reach(self.system(), ReachConfig(horizon=2, template=t))
        h = pipe.segments[2].set_rep
        assert h.normals.shape == (4, 2)

    def test_lazy_segments_share_one_read_only_template(self):
        pipe = reach(self.system(), ReachConfig(horizon=5, strategy="lazy"))
        first = pipe.segments[0].set_rep.normals
        assert not first.flags.writeable
        for seg in pipe.segments[1:]:
            assert np.shares_memory(seg.set_rep.normals, first)
        with pytest.raises(ValueError):
            first[0, 0] = 2.0

    def test_caller_template_neither_aliased_nor_frozen(self):
        t = np.vstack([np.eye(2), -np.eye(2)]) * 2.0
        kept = t.copy()
        cfg = ReachConfig(horizon=3, template=t)
        pipe = reach(self.system(), cfg)
        assert t.flags.writeable
        np.testing.assert_array_equal(t, kept)
        for seg in pipe.segments:
            assert not np.shares_memory(seg.set_rep.normals, t)
        t[0] = 0.0  # the caller may still edit its own array
        np.testing.assert_array_equal(cfg.template, kept)
        np.testing.assert_allclose(pipe.segments[2].set_rep.normals[0], [1.0, 0.0])

    def test_anti_wrapping_rotation(self):
        # 360 one-degree rotations: lazy stays at the true box, a naive
        # rectangular hull iteration inflates exponentially
        a = rot(math.pi / 180)
        sys = LinearSystem(a, unit_box(2))
        pipe = reach(sys, ReachConfig(horizon=360, strategy="lazy"))
        lo, hi = h_axis_bounds(pipe, 360)
        np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(lo, [-1.0, -1.0], atol=1e-9)

        box = unit_box(2)
        for _ in range(360):
            box = bounding_box(linear_map(a, box))
        assert np.all(box.upper > 10.0)  # the naive loop has blown up


@st.composite
def small_discrete_runs(draw):
    """A discrete system of dimension 1 to 4, its map on a 1/16 grid, with
    a box or zonotope X0 and a box input; a strategy; a horizon, 2 steps
    for 4-d vertex clouds, which nothing thins; and one direction to check
    beside the default template."""
    n = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    entry = st.integers(-16, 16).map(lambda i: i / 16.0)
    a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    c = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = Box(c, c + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
    else:
        p = draw(st.integers(1, 3))
        x0 = Zonotope(c, np.array(draw(st.lists(unit, min_size=n * p, max_size=n * p))).reshape(n, p))
    r = np.array(draw(st.lists(st.floats(0.0, 0.2), min_size=n, max_size=n)))
    strategy = draw(st.sampled_from(["lazy", "facets", "vertices"]))
    horizon = draw(st.integers(1, 2 if strategy == "vertices" and n == 4 else 6))
    d = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    assume(np.linalg.norm(d) > 0.1)
    system = LinearSystem(a, x0, input_set=Box(-r, r))
    return system, strategy, horizon, np.vstack([default_template(n), d / np.linalg.norm(d)])


@st.composite
def small_continuous_runs(draw):
    """A continuous system of dimension 1 to 4, its matrix on a 1/16 grid,
    with a box or zonotope X0 and a box input; a step r, a step count, a
    bloat policy that keeps the state at each k r in segment k (the time
    point under small_r, the dense segment under once_hull); and one
    direction to check beside the default template."""
    system, _, _, dirs = draw(small_discrete_runs())
    system = LinearSystem(system.a, system.x0, input_set=system.input_set, time_kind=CONTINUOUS)
    r = draw(st.sampled_from([0.05, 0.125, 0.25]))
    steps = draw(st.integers(1, 6))
    return system, r, steps, draw(st.sampled_from([SMALL_R, ONCE_HULL])), dirs


class TestExtremalTraces:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_discrete_runs())
    def test_every_segment_holds_the_extremal_states(self, case):
        # the trace that maximises d . x at step k reaches the true support
        # of the reach set there, which each segment must bound
        system, strategy, horizon, dirs = case
        pipe = reach(system, ReachConfig(horizon=horizon, strategy=strategy))
        for k, seg in enumerate(pipe.segments):
            got = support_batch(seg.set_rep, dirs.T)
            for d, value in zip(dirs, got):
                reached = float(d @ extremal_trace(system, d, k)[k])
                assert value >= reached - 1e-9 * (1.0 + abs(reached)), (strategy, k, d)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2(b): facet pushing keeps each row's "
                       "offset through a rounded pullback, which can leave A X outside")
    def test_facets_hold_an_extremal_state_of_a_rare_draw(self):
        # a draw on which the test above fails: along (0, -1) the extremal
        # trace reaches 0.3112049102783203 at step 5, as the lazy and vertex
        # pipes read, while the facets pipe reads 0.31120490585211585
        system = LinearSystem([[-0.0625, 0.125], [0.3125, -0.75]], Box([0.0, 0.0], [0.0, 1.0]))
        pipe = reach(system, ReachConfig(horizon=5, strategy="facets"))
        value = support_batch(pipe.segments[5].set_rep, np.array([[0.0], [-1.0]]))[0]
        assert value >= 0.3112049102783203

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_continuous_runs())
    # a rotation with a +-0.01 input: small_r's offsets are tight enough
    # here that 1% of the input's accumulated supports shows
    @example((LinearSystem([[0.0, 1.0], [-1.0, 0.0]], Box([0.9, -0.1], [1.1, 0.1]),
                           input_set=Box([-0.01, -0.01], [0.01, 0.01]), time_kind=CONTINUOUS),
              0.125, 6, SMALL_R, np.vstack([default_template(2), [[0.6, 0.8]]])))
    def test_every_continuous_segment_holds_the_extremal_states(self, case):
        # the inputs the maximum principle picks, held on 4 sub-steps of
        # each step, give a true state at k r that segment k must bound
        system, r, steps, policy, dirs = case
        pipe = reach(system, ReachConfig(horizon=steps * r, step=r, bloat_policy=policy))
        for k, seg in enumerate(pipe.segments[:steps + 1]):
            got = support_batch(seg.set_rep, dirs.T)
            for d, value in zip(dirs, got):
                reached = float(d @ extremal_trace(system, d, k, step=r, substeps=4)[k])
                assert value >= reached - 1e-9 * (1.0 + abs(reached)), (policy, k, d)


class TestReachContinuous:
    def test_pure_drift_is_exact_on_lattice(self):
        # dx/dt = v, v = 1: x(kr) = 0.25 k exactly, no curvature terms
        sys = LinearSystem(
            np.zeros((1, 1)),
            Box([0.0], [0.0]),
            input_set=Box([1.0], [1.0]),
            time_kind=CONTINUOUS,
        )
        cfg = ReachConfig(horizon=1.0, step=0.25, bloat_policy=ERROR_BALL)
        pipe = reach(sys, cfg)
        assert len(pipe.segments) == 5
        assert pipe.time_step == 0.25
        for k, seg in enumerate(pipe.segments):
            lo, hi = axis_bounds(seg.set_rep)
            assert lo[0] == pytest.approx(0.25 * k, abs=1e-12)
            assert hi[0] == pytest.approx(0.25 * k, abs=1e-12)
            assert seg.t0 == pytest.approx(0.25 * k)
            assert seg.t1 == pytest.approx(0.25 * k)

    def test_once_hull_segments_cover_dense_time(self):
        # autonomous rotation: e^{At} x0 must lie in the segment covering t
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        x0 = Box([0.9, -0.1], [1.1, 0.1])
        sys = LinearSystem(a, x0, time_kind=CONTINUOUS)
        r = 0.1
        cfg = ReachConfig(horizon=2.0, step=r, bloat_policy=ONCE_HULL)
        pipe = reach(sys, cfg)
        assert pipe.segments[0].t0 == 0.0
        assert pipe.segments[0].t1 == pytest.approx(r)
        rng = np.random.default_rng(7)
        for _ in range(150):
            x = sample_points(x0, 1, rng)[0]
            t = rng.uniform(0.0, 2.0)
            k = min(int(t / r), len(pipe.segments) - 1)
            xt = mat_exp(a, t) @ x
            assert member(pipe.segments[k].set_rep, xt)

    def test_once_hull_with_input_lattice_soundness(self):
        # scalar heat-style flow dx/dt = -x + v, v in [27, 33]
        sys = LinearSystem(
            [[-1.0]],
            Box([19.0], [20.0]),
            input_set=Box([27.0], [33.0]),
            time_kind=CONTINUOUS,
        )
        r = 0.05
        cfg = ReachConfig(horizon=1.0, step=r, bloat_policy=ONCE_HULL)
        pipe = reach(sys, cfg)
        rng = np.random.default_rng(3)
        for _ in range(40):
            x0 = rng.uniform(19.0, 20.0)
            zs = rng.uniform(27.0, 33.0, size=20).reshape(-1, 1)
            tr = simulate(sys, [x0], zs, step=r)
            for k, x in enumerate(tr.states):
                # a lattice point belongs to both adjacent dense segments
                assert member(pipe.segments[min(k, 20)].set_rep, x)
                if 0 < k:
                    assert member(pipe.segments[k - 1].set_rep, x)

    def test_small_r_matches_exact_lattice_tightly(self):
        sys = LinearSystem([[-1.0]], Box([1.0], [2.0]), time_kind=CONTINUOUS)
        cfg = ReachConfig(horizon=0.5, step=0.1, bloat_policy=SMALL_R)
        pipe = reach(sys, cfg)
        for k, seg in enumerate(pipe.segments):
            lo, hi = axis_bounds(seg.set_rep)
            assert hi[0] == pytest.approx(2.0 * math.exp(-0.1 * k), abs=1e-9)
            assert lo[0] == pytest.approx(1.0 * math.exp(-0.1 * k), abs=1e-9)

    def test_horizon_step_count_rounds_up(self):
        sys = LinearSystem([[0.0]], Box([0.0], [0.0]), time_kind=CONTINUOUS)
        pipe = reach(sys, ReachConfig(horizon=1.0, step=0.3, bloat_policy=SMALL_R))
        assert len(pipe.segments) == 5  # ceil(1/0.3) = 4 steps


# ---------------------------------------------------------------------------
# stepping core


def _set_arrays(s):
    if isinstance(s, HPolytope):
        return s.normals, s.offsets
    if isinstance(s, VPolytope):
        return (s.vertices,)
    raise TypeError(type(s).__name__)


CORE_SYSTEMS = {
    "discrete": (
        LinearSystem(0.9 * rot(0.3), Box([0.9, -0.1], [1.1, 0.1]),
                     input_set=Box([-0.01, -0.01], [0.01, 0.01])),
        {"horizon": 12},
    ),
    "continuous": (
        LinearSystem(ROT90.T, Box([0.9, -0.1], [1.1, 0.1]),
                     input_set=Box([-0.01, -0.01], [0.01, 0.01]), time_kind=CONTINUOUS),
        {"horizon": 0.12, "step": 0.01},
    ),
}


class TestSteppingCore:
    @pytest.mark.parametrize("kind", sorted(CORE_SYSTEMS))
    @pytest.mark.parametrize("strategy", ["lazy", "vertices", "facets"])
    def test_first_segments_equal_reach(self, kind, strategy):
        system, kw = CORE_SYSTEMS[kind]
        config = ReachConfig(strategy=strategy, **kw)
        pipe = reach(system, config)
        assert pipe.status == HORIZON and len(pipe) == 13
        core = list(islice(_flow_steps(system, config), len(pipe)))
        for got, want in zip(core, pipe, strict=True):
            assert (got.k, got.t0, got.t1) == (want.k, want.t0, want.t1)
            assert type(got.set_rep) is type(want.set_rep)
            assert got.set_rep.exact == want.set_rep.exact
            for a, b in zip(_set_arrays(got.set_rep), _set_arrays(want.set_rep)):
                np.testing.assert_array_equal(a, b)

    def test_steps_only_on_demand(self, monkeypatch):
        calls = []
        advance = LazyReachSet.advance

        def counted(self):
            calls.append(self.k)
            return advance(self)

        monkeypatch.setattr(LazyReachSet, "advance", counted)
        system, kw = CORE_SYSTEMS["discrete"]
        pipe = reach(system, ReachConfig(**kw))
        assert len(pipe) == 13 and len(calls) == 12
        # an early stop leaves the later steps uncomputed
        calls.clear()
        pipe = reach(system, ReachConfig(horizon=12, mode="bad_set",
                                         bad_set=Box([-2.0, -2.0], [2.0, 2.0])))
        assert pipe.status == BAD_REACHED and len(pipe) == 1 and calls == []


# ---------------------------------------------------------------------------
# simulation


class TestSimulate:
    def test_discrete_matches_hand_loop(self):
        a = np.array([[0.9, 0.2], [-0.1, 0.8]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = Box([-1.0, -1.0], [1.0, 1.0])
        sys = LinearSystem(a, unit_box(2), b=b, input_set=v)
        rng = np.random.default_rng(17)
        zs = rng.uniform(-1, 1, size=(6, 2))
        tr = simulate(sys, [0.5, -0.5], zs)
        x = np.array([0.5, -0.5])
        for k in range(6):
            x = matvec_loops(a, x) + matvec_loops(b, zs[k])
            np.testing.assert_allclose(tr.states[k + 1], x, atol=1e-12)

    def test_continuous_autonomous_rotation(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = LinearSystem(a, unit_box(2), time_kind=CONTINUOUS)
        tr = simulate(sys, [1.0, 0.0], steps=4, step=math.pi / 8)
        # after 4 eighth-turns: a quarter turn of the plane
        np.testing.assert_allclose(tr.states[4], [0.0, -1.0], atol=1e-9)

    def test_continuous_constant_input_closed_form(self):
        # dx/dt = -x + v with v = 1: x(t) = e^-t x0 + (1 - e^-t)
        sys = LinearSystem(
            [[-1.0]], Box([0.0], [5.0]), input_set=Box([0.0], [2.0]),
            time_kind=CONTINUOUS,
        )
        r = 0.2
        tr = simulate(sys, [3.0], [[1.0]] * 10, step=r)
        for k in range(11):
            t = r * k
            want = math.exp(-t) * 3.0 + (1.0 - math.exp(-t))
            assert tr.states[k][0] == pytest.approx(want, abs=1e-9)

    def test_rejects_input_outside_the_set(self):
        sys = LinearSystem(np.eye(2), unit_box(2), input_set=unit_box(2))
        with pytest.raises(ValueError, match="outside"):
            simulate(sys, [0.0, 0.0], [[2.0, 0.0]])

    def test_autonomous_needs_step_count(self):
        sys = LinearSystem(np.eye(2), unit_box(2))
        with pytest.raises(ValueError, match="step count"):
            simulate(sys, [0.0, 0.0])

    def test_input_values_are_required_and_counted(self):
        sys = LinearSystem(np.eye(2), unit_box(2), input_set=unit_box(2))
        with pytest.raises(ValueError, match="^system has an input: per-step values are required$"):
            simulate(sys, [0.0, 0.0], steps=3)
        with pytest.raises(ValueError, match="^steps and input sequence length disagree$"):
            simulate(sys, [0.0, 0.0], [[0.0, 0.0], [0.5, 0.5]], steps=3)

    def test_rejects_wrong_shapes(self):
        sys = LinearSystem(np.eye(2), unit_box(2), input_set=unit_box(2))
        with pytest.raises(ValueError, match="initial state dimension"):
            simulate(sys, [0.0, 0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension 3 does not match"):
            simulate(sys, [0.0, 0.0], [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("steps", [1, 3])
    def test_overflow_fails_loudly(self, steps):
        # x+ = 1e200 x overflows on the first step: no trajectory ends on,
        # or runs on from, a non-finite state
        sys = LinearSystem([[1e200]], Box([0.0], [1e200]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            simulate(sys, [1e200], steps=steps)


# ---------------------------------------------------------------------------
# system validation


class TestLinearSystem:
    def test_rejects_unbounded_input_set(self):
        h = HPolytope([[1.0, 0.0]], [1.0])  # a halfplane
        with pytest.raises(ValueError, match="bounded"):
            LinearSystem(np.eye(2), unit_box(2), input_set=h)

    def test_rejects_gain_without_input(self):
        with pytest.raises(ValueError, match="gain"):
            LinearSystem(np.eye(2), unit_box(2), b=np.eye(2))

    def test_rejects_unknown_time_kind(self):
        with pytest.raises(ValueError, match="^unknown time kind 'hybrid'$"):
            LinearSystem(np.eye(2), unit_box(2), time_kind="hybrid")

    def test_default_gain_is_identity(self):
        sys = LinearSystem(np.eye(2), unit_box(2), input_set=unit_box(2))
        assert np.array_equal(sys.b, np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(3), unit_box(2))
        with pytest.raises(ValueError, match="square"):
            LinearSystem(np.ones((2, 3)), unit_box(2))


# ---------------------------------------------------------------------------
# one discretization per run; vertex forms


class TestDiscretizeOnce:
    @pytest.mark.parametrize("policy", [SMALL_R, ONCE_HULL, ERROR_BALL])
    def test_one_matrix_exponential_per_run(self, monkeypatch, policy):
        calls = []

        def counted(a, r=1.0):
            calls.append(r)
            return mat_exp(a, r)

        monkeypatch.setattr("reachflow.linreach.mat_exp", counted)
        system, kw = CORE_SYSTEMS["continuous"]
        pipe = reach(system, ReachConfig(bloat_policy=policy, **kw))
        assert pipe.status == HORIZON
        assert calls == [0.01]

    @pytest.mark.parametrize("policy", [SMALL_R, ONCE_HULL])
    def test_error_set_is_the_input_residual(self, policy):
        sys = LinearSystem([[-1.0]], Box([-2.0], [2.0]), input_set=Box([-0.5], [0.5]),
                           time_kind=CONTINUOUS)
        cfg = ReachConfig(horizon=1.0, step=0.1, bloat_policy=policy)
        _, _, err = discretize_continuous(sys, cfg)
        beta = (math.exp(0.1) - 1.0 - 0.1) * 0.5
        lo, hi = axis_bounds(err)
        assert hi[0] == pytest.approx(beta, abs=1e-12)
        assert lo[0] == pytest.approx(-beta, abs=1e-12)


def rot3(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
        [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


class TestVertexStrategyForms:
    def test_zonotope_above_the_plane_is_enumerated(self):
        a = 0.95 * rot3(0.3)
        x0 = Zonotope([1.0, 0.0, 0.5], [[0.3, 0.1, 0.0], [0.1, 0.3, 0.1], [0.0, -0.1, 0.2]])
        cfg = ReachConfig(horizon=10, strategy="vertices")
        pipe = reach(LinearSystem(a, x0), cfg)
        # the bounding box's corners: what the strategy used to start from
        boxed = reach(LinearSystem(a, bounding_box(x0)), cfg)
        assert len(pipe) == len(boxed) == 11
        for seg, outer in zip(pipe.segments, boxed.segments):
            v = seg.set_rep
            assert isinstance(v, VPolytope) and v.exact and v.vertices.shape[0] == 8
            assert all(member(outer.set_rep, x) for x in v.vertices)
        # and strictly tighter
        first = pipe.segments[0].set_rep
        assert not all(member(first, x) for x in boxed.segments[0].set_rep.vertices)
        for x in sample_points(x0, 40, np.random.default_rng(5)):
            trace = simulate(LinearSystem(a, x0), x, steps=10)
            for state, seg in zip(trace.states, pipe.segments):
                assert member(seg.set_rep, state)

    def test_hpolytope_above_three_dimensions_takes_box_corners(self):
        cross = HPolytope(np.array([[s1, s2, s3, s4] for s1 in (1, -1) for s2 in (1, -1)
                                    for s3 in (1, -1) for s4 in (1, -1)], dtype=float),
                          np.ones(16))
        a = np.diag([0.9, 0.8, -0.7, 0.95])
        pipe = reach(LinearSystem(a, cross), ReachConfig(horizon=5, strategy="vertices"))
        first = pipe.segments[0].set_rep
        assert not first.exact
        np.testing.assert_array_equal(first.vertices, bounding_box(cross).corners())
        for x in sample_points(cross, 40, np.random.default_rng(6)):
            trace = simulate(LinearSystem(a, cross), x, steps=5)
            for state, seg in zip(trace.states, pipe.segments):
                assert member(seg.set_rep, state)


    def test_a_vertex_an_ulp_band_apart_stays_in_the_flowpipe(self):
        x0 = HPolytope([[0.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [0.0, -1.0]],
                       [1.0, 1.0 + 5e-9, 1.0 + 5e-9, 0.0])
        pipe = reach(LinearSystem(np.eye(2), x0), ReachConfig(horizon=2, strategy="vertices"))
        assert len(pipe) == 3
        d = np.array([[1e-3, -1e-3], [1.0, 1.0]])
        for seg in pipe.segments:
            assert np.all(support_batch(seg.set_rep, d) >= 1.0 + 5e-12)


def thinning_systems():
    """3-d discrete systems x+ = A x + u with a box X0 and a box input: the
    cyclic shift 0.9 I + 0.1 P and three seeded random maps of spectral
    radius 0.95."""
    yield (0.9 * np.eye(3) + 0.1 * np.roll(np.eye(3), 1, axis=1),
           Box(-np.ones(3), np.ones(3)), Box(np.full(3, -0.1), np.full(3, 0.1)))
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        a *= 0.95 / np.abs(np.linalg.eigvals(a)).max()
        c0, h0 = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.1, 0.5, 3)
        cv, hv = rng.uniform(-0.1, 0.1, 3), rng.uniform(0.02, 0.1, 3)
        yield a, Box(c0 - h0, c0 + h0), Box(cv - hv, cv + hv)


class TestVertexThinningIn3d:
    """Each 3-d vertex step keeps only the hull vertices of its candidate
    points A v + u: the cloud stays the exact reach set, which is the
    zonotope A^k X0 + sum A^i U."""

    @pytest.mark.parametrize("a, x0, u", list(thinning_systems()))
    def test_thinned_clouds_are_the_exact_reach_sets(self, a, x0, u):
        pipe = reach(LinearSystem(a, x0, input_set=u), ReachConfig(horizon=6, strategy="vertices"))
        dirs = np.random.default_rng(0).normal(size=(3, 256))
        prev = None
        for seg in pipe.segments:
            v = seg.set_rep.vertices
            got = (v @ dirs).max(axis=0)
            want = np.array([eager_zonotope_support(x0.center, np.diag(x0.radii), u.center,
                                                    np.diag(u.radii), a, seg.k, d)
                             for d in dirs.T])
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
            if prev is not None:
                candidates = ((prev @ a.T)[:, None, :] + u.corners()[None]).reshape(-1, 3)
                # every kept vertex is a candidate, and no support is lost
                assert set(map(tuple, v.tolist())) <= set(map(tuple, candidates.tolist()))
                np.testing.assert_array_equal(got, (candidates @ dirs).max(axis=0))
            # a 3-d zonotope with p generators has at most p (p - 1) + 2
            # vertices; the unthinned cloud held 8^(k+1) candidates
            p = 3 * (seg.k + 1)
            assert v.shape[0] <= p * (p - 1) + 2
            prev = v


class TestOneDimensionalVertexCloud:
    def test_interval_keeps_two_vertices(self):
        # x+ = 0.9 x + v, v in [-0.1, 0.1]: the cloud used to double each step
        sys = LinearSystem([[0.9]], Box([0.0], [1.0]), input_set=Box([-0.1], [0.1]))
        pipe = reach(sys, ReachConfig(horizon=12, strategy="vertices"))
        lo, hi = 0.0, 1.0
        for seg in pipe.segments:
            v = seg.set_rep
            assert isinstance(v, VPolytope) and v.vertices.shape[0] <= 2
            assert v.vertices.min() == pytest.approx(lo, abs=1e-12)
            assert v.vertices.max() == pytest.approx(hi, abs=1e-12)
            lo, hi = 0.9 * lo - 0.1, 0.9 * hi + 0.1
        assert len(pipe) == 13


class TestFacetPushingConditioning:
    def test_small_invertible_map_keeps_its_facets(self, caplog):
        # det(0.1 I) = 1e-10 in 10-D, yet the map is perfectly conditioned
        n = 10
        diag = np.zeros(n)
        diag[:2] = 1.0 / math.sqrt(2.0)
        box = unit_box(n).to_hpolytope()
        p = HPolytope(np.vstack([box.normals, diag]), np.append(box.offsets, 1.0))
        v = Box(-0.1 * np.ones(n), 0.1 * np.ones(n))
        with caplog.at_level(logging.WARNING, logger="reachflow.linreach"):
            out = step_input_facets(p, v, 0.1 * np.eye(n))
        assert not any("singular" in rec.message for rec in caplog.records)
        # one facet per facet of P, the diagonal one included
        np.testing.assert_allclose(out.normals, p.normals, atol=1e-15)
        want = np.append(0.2 * np.ones(2 * n), 0.1 + 0.1 * math.sqrt(2.0))
        np.testing.assert_allclose(out.offsets, want, atol=1e-12)

    def test_pushing_matches_linear_map(self):
        a = rot(0.4) @ np.diag([1.3, 0.6])
        p = HPolytope(default_template(2), np.arange(1.0, 9.0))
        out = step_input_facets(p, None, a)
        img = linear_map(a, p)
        np.testing.assert_array_equal(out.normals, img.normals)
        np.testing.assert_array_equal(out.offsets, img.offsets)
