"""Yes/no geometry without the simplex: the separation precheck of
``intersect`` (and so of ``meets``), the containment precheck of
``contains_set``, and the simplex start an H-polytope keeps: one phase
one, and the pivot paths every LP over its rows shares.

Every shortcut must give the answer of the exact LP path: ``intersect``
says "disjoint" only when ``is_empty`` of the two operands' stacked facet
rows does (two boxes only when their corners are apart), the containment
precheck settles a row only when the LP row test passes it, and a batch of
supports equals one cold solve per direction, bit for bit.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from reachflow import hybridreach, numkernel
from reachflow import setgeom as sg
from reachflow.hybridize import NonlinearSystem, dynamic_hybridize_reach
from reachflow.hybridreach import HybridAutomaton, Mode, Transition, hybrid_reach
from reachflow.linreach import LinearSystem, ReachConfig, _flow_steps, reach
from reachflow.numkernel import INFEASIBLE, OPTIMAL, UNBOUNDED, _LpStart, lp_max
from reachflow.setgeom import Box, HPolytope, VPolytope, Zonotope

from oracles import box_support, farkas_certifies, lp_vertex_enum, meets_relaxed

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
width = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]) | st.floats(0.0, 4.0)


@st.composite
def boxes(draw, n):
    lo = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    return Box(lo, lo + np.array(draw(st.lists(width, min_size=n, max_size=n))))


@st.composite
def zonotopes(draw, n):
    p = draw(st.integers(0, 4))
    c = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * p, max_size=n * p)))
    return Zonotope(c, g.reshape(n, p))


@st.composite
def vpolytopes(draw, n):
    k = draw(st.integers(1, 6))
    v = draw(st.lists(coord, min_size=n * k, max_size=n * k))
    return VPolytope(np.array(v).reshape(k, n))


@st.composite
def parallelotopes(draw, n):
    """{lo <= M x <= hi} for a well-conditioned M: rows [M; -M]."""
    m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n) + 3.0 * np.eye(n)
    b = draw(boxes(n))
    return HPolytope(np.vstack([m, -m]), np.concatenate([b.upper, -b.lower]))


@st.composite
def template_hpolytopes(draw, n):
    """Default-template rows with random offsets: possibly empty, always
    bounded."""
    dirs = sg.default_template(n)
    offs = draw(st.lists(st.floats(-3.0, 6.0), min_size=dirs.shape[0], max_size=dirs.shape[0]))
    return HPolytope(dirs, np.array(offs))


@st.composite
def flat_parallelotopes(draw, n):
    """{y - w <= R x <= y + w} with some widths w zero and couplings in R
    down to 1e-7: flat sets whose phase one the simplex's rounding can
    call infeasible."""
    entries = draw(st.lists(st.sampled_from([0.0, 1e-7, -1e-7, 1e-4, 1.0, -1.0])
                            | st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
    r = np.array(entries).reshape(n, n) + 3.0 * np.eye(n)
    y = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=n, max_size=n)))
    return HPolytope(np.vstack([r, -r]), np.concatenate([y + w, w - y]))


def sets(n):
    return st.one_of(boxes(n), zonotopes(n), vpolytopes(n), parallelotopes(n),
                     template_hpolytopes(n))


@st.composite
def set_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(sets(n)), draw(sets(n))


def boxes_apart(b1, b2):
    """The exact corner test: some axis separates the two boxes."""
    return bool(np.any(np.maximum(b1.lower, b2.lower) > np.minimum(b1.upper, b2.upper)))


def stacked(s1, s2):
    """Both operands' own facet rows, stacked in order: a box by its axis
    rows, any other set by its H-form enclosure, flagged exact when both
    are."""
    hs = [s.to_hpolytope() if isinstance(s, Box) else sg._hform_enclosure(s) for s in (s1, s2)]
    return HPolytope(np.vstack([h.normals for h in hs]), np.concatenate([h.offsets for h in hs]),
                     exact=hs[0].exact and hs[1].exact)


def lp_empty(s1, s2):
    # two boxes are decided from their corners, before any LP
    if isinstance(s1, Box) and isinstance(s2, Box):
        return boxes_apart(s1, s2)
    return sg.is_empty(stacked(s1, s2))


# where the second box of a pair starts past the first's upper face along
# one axis: inside it, on it, and apart by gaps below, near and above the
# simplex's FEAS_TOL (1e-9)
GAPS = (-0.5, 0.0, 1e-12, 1e-10, 1e-6)


@st.composite
def box_pairs(draw, max_dim=3):
    """``(b1, b2, gap)``: two boxes that share the lower corner of the first
    on every axis but one, where the second starts ``gap`` past the
    first's upper face; either box may come first."""
    n = draw(st.integers(1, max_dim))
    a = draw(boxes(n))
    axis = draw(st.integers(0, n - 1))
    gap = draw(st.sampled_from(GAPS))
    ext = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=2 * n, max_size=2 * n)))
    lo, hi = a.lower - ext[:n], a.lower + ext[n:]
    lo[axis] = a.upper[axis] + gap
    hi[axis] = a.upper[axis] + 0.5 + ext[n + axis]
    pair = (a, Box(lo, hi))
    return (*(pair[::-1] if draw(st.booleans()) else pair), gap)


class TestMeetsAgreesWithTheLp:
    @PROPERTY
    @given(set_pairs())
    def test_meets_is_the_lp_verdict(self, pair):
        # each order against its own LP: on a touching pair the simplex may
        # answer differently for the two row orders
        s1, s2 = pair
        assert sg.meets(s1, s2) == (not lp_empty(s1, s2))
        assert sg.meets(s2, s1) == (not lp_empty(s2, s1))

    @PROPERTY
    @given(set_pairs())
    def test_intersect_is_none_or_the_stacked_rows(self, pair):
        # None exactly when the LP on the stacked rows finds them empty;
        # otherwise those rows bit for bit, with no simplex start kept
        s1, s2 = pair
        c = sg.intersect(s1, s2)
        assert (c is None) == lp_empty(s1, s2)
        if not isinstance(c, HPolytope):
            return
        want = stacked(s1, s2)
        assert c.normals.tobytes() == want.normals.tobytes()
        assert c.offsets.tobytes() == want.offsets.tobytes()
        assert c.exact == want.exact and c._start is None

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(set_pairs())
    def test_disjoint_only_without_a_feasible_vertex(self, pair):
        # the vertex-enumeration oracle finds no point of the stacked facet
        # form whenever meets says "disjoint"; two boxes are told apart
        # exactly, so their axis rows are checked without a tolerance
        s1, s2 = pair
        if sg.meets(s1, s2):
            return
        h = stacked(s1, s2)
        tol = 0.0 if isinstance(s1, Box) and isinstance(s2, Box) else 1e-9
        assert lp_vertex_enum(np.zeros(h.dim), h.normals, h.offsets, tol) is None

    @PROPERTY
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.one_of(boxes(n), parallelotopes(n), template_hpolytopes(n)),
                            st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                                     min_size=1, max_size=5))))
    def test_support_bound_holds_the_lp_support(self, case):
        s, dirs = case
        d = np.array(dirs, dtype=float)
        d = d[np.linalg.norm(d, axis=1) > 1e-3]
        if d.shape[0] == 0 or (isinstance(s, HPolytope) and sg.is_empty(s)):
            return
        d = (d / np.linalg.norm(d, axis=1)[:, None]).T
        bound, mag = sg._support_bound(s, d)
        # the simplex is accurate to a few FEAS_TOL on flat sets; a tenth
        # of the precheck margin is the slack the precheck can afford
        assert np.all(bound >= sg.support_batch(s, d) - 0.1 * sg._PRECHECK_MARGIN * mag)

    def test_a_sliver_gets_the_lp_verdict(self):
        # this parallelogram ends at x = +-2; its long sides differ in slope
        # by 1.1e-10, below the pivot tolerance, so its facet form is the
        # flat one, whose rows the LP tells apart: (3, 0) lies outside, and
        # meets must agree
        z = Zonotope([0.0, 0.0], [[1.0, 1.0], [0.0, 1.1053934228198483e-10]])
        point = Box([3.0, 0.0], [3.0, 0.0])
        assert lp_empty(point, z) and lp_empty(z, point)
        assert not sg.meets(point, z) and not sg.meets(z, point)

    def test_parallelotope_bound_is_exact(self):
        m = np.array([[1.0, 0.4], [-0.3, 1.0]])
        p = HPolytope(np.vstack([m, -m]), [1.0, 2.0, 0.5, 1.0])
        d = sg.default_template(2).T
        bound, _ = sg._support_bound(p, d)
        np.testing.assert_allclose(bound, sg.support_batch(p, d), rtol=1e-12, atol=1e-12)

    def test_box_bound_matches_the_oracle(self):
        b = Box([-1.0, 2.0, 0.5], [3.0, 2.0, 4.0])
        d = sg.default_template(3).T
        bound, _ = sg._support_bound(b, d)
        want = [box_support(b.lower, b.upper, col) for col in d.T]
        np.testing.assert_allclose(bound, want, rtol=1e-12)

    def test_no_bound_for_a_row_free_direction(self):
        h = HPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0])
        bound, _ = sg._support_bound(h, np.array([[1.0, 0.0], [0.0, -1.0]]).T)
        assert bound[0] == 1.0 and bound[1] == np.inf

    def test_ill_conditioned_parallelotope_gets_no_pairs(self):
        m = np.array([[1.0, 0.0], [1.0, 1e-10]])
        p = HPolytope(np.vstack([m, -m]), np.ones(4))
        assert not sg._parallelotopes(p.normals[None])[0]

    def test_touching_sets_meet_by_corners_or_by_the_lp(self, monkeypatch):
        # a shared face is no separation.  Axis rows alone stack to a box
        # whose corners meet on the face, so no LP runs; a slanted shared
        # facet leaves the answer to the LP, which says "meets" as well
        calls = count_calls(monkeypatch, sg, "is_empty")
        assert sg.meets(Box([0.0, 0.0], [1.0, 1.0]).to_hpolytope(), Box([1.0, 0.0], [2.0, 1.0]))
        assert calls == [0]
        below = HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        above = HPolytope([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0, 1.0])
        assert sg.meets(below, above)
        assert calls == [1]

    def test_dimension_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            sg.meets(Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0]))
        # x <= 0 and x >= 1: an empty H-polytope meets nothing
        empty = HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
        assert not sg.meets(empty, Box([0.0, 0.0], [1.0, 1.0]))


class TestBoxPairs:
    @PROPERTY
    @given(box_pairs())
    def test_meets_is_the_corner_test(self, case):
        b1, b2, gap = case
        apart = boxes_apart(b1, b2)
        assert apart == (gap > 0.0)
        assert sg.meets(b1, b2) == sg.meets(b2, b1) == (not apart)

    @PROPERTY
    @given(box_pairs())
    def test_intersect_is_a_box_or_the_stacked_rows(self, case):
        # two boxes share a box, or intersect says None; their stacked rows
        # are the proof of emptiness
        b1, b2, gap = case
        c = sg.intersect(b1, b2)
        if not boxes_apart(b1, b2):
            assert isinstance(c, Box) and not sg.is_empty(c)
            np.testing.assert_array_equal(c.lower, np.maximum(b1.lower, b2.lower))
            np.testing.assert_array_equal(c.upper, np.minimum(b1.upper, b2.upper))
            return
        assert c is None
        # a gap below FEAS_TOL is within the simplex's rounding: there the
        # corners, not the LP on the stacked rows, tell the boxes apart
        if gap >= 1e-6:
            assert sg.is_empty(stacked(b1, b2))


class TestCertifiedEmptiness:
    """``is_empty`` says "empty", and ``_hpolytope_solves`` gives no
    results, only with rows that ``farkas_certifies`` accepts on its own:
    Fraction arithmetic on the rows with their offsets relaxed by TOL."""

    @staticmethod
    def check(h):
        start = _LpStart(h.normals, h.offsets)
        rows = sg._empty(h, start)
        assert sg.is_empty(h) == (rows is not None)
        assert (sg._hpolytope_solves(h, np.eye(h.dim), start)[1] is None) == (rows is not None)
        if rows is not None:
            rows = list(rows)
            assert farkas_certifies(h.normals[rows], h.offsets[rows], sg.TOL)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(set_pairs())
    def test_stacked_rows_are_empty_only_with_a_certificate(self, pair):
        s1, s2 = pair
        self.check(stacked(s1, s2))
        self.check(stacked(s2, s1))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 4).flatmap(lambda n: st.one_of(
        template_hpolytopes(n), parallelotopes(n), flat_parallelotopes(n))))
    def test_a_set_is_empty_only_with_a_certificate(self, h):
        self.check(h)

    def test_contradictory_rows_are_certified(self):
        # x <= 0 and x >= 1: the two rows are the certificate
        h = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, -1.0, 1.0])
        assert sorted(sg._empty(h, _LpStart(h.normals, h.offsets))) == [0, 1]
        # each row relaxed by TOL: 3e-9 apart stays empty; 2e-9 apart
        # phase one calls infeasible, but the relaxed rows meet at 1e-9
        assert sg.is_empty(HPolytope([[1.0], [-1.0]], [0.0, -3e-9]))
        tight = HPolytope([[1.0], [-1.0]], [0.0, -2e-9])
        assert _LpStart(tight.normals, tight.offsets).infeasible is not None
        assert meets_relaxed(tight.normals, tight.offsets, [1e-9], sg.TOL)
        assert not sg.is_empty(tight)

    def test_a_sliver_meets_a_point_in_both_orders(self):
        # 3e-8 thick: phase one ends infeasible on one row order only, but
        # the relaxed rows of both orders hold a point, so neither order
        # has a certificate and meets answers alike
        sliver = VPolytope([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, -4.0, 1.192092896e-07]])
        point = Box([0.0, 0.03125, 0.0], [0.0, 0.03125, 0.0])
        assert sg.meets(sliver, point) and sg.meets(point, sliver)
        for h in (stacked(sliver, point), stacked(point, sliver)):
            assert meets_relaxed(h.normals, h.offsets, [0.0, 0.03125, -2.0 ** -30], sg.TOL)
            assert not sg.is_empty(h)


def parallelotope(coupling, lower, upper):
    """A parallelotopes() draw: {lower <= M x <= upper} for M = 3 I +
    coupling."""
    m = 3.0 * np.eye(len(lower)) + np.array(coupling)
    return HPolytope(np.vstack([m, -m]), np.concatenate([upper, -np.array(lower)]))


def point_parallelotope(coupling, point):
    """A parallelotopes() draw with every width 0."""
    return parallelotope(coupling, point, point)


# a segment and a point on which phase one's rounding says "infeasible" and
# the solve on offsets relaxed by TOL went wrong: the segment got no start
# at all, the point a witness 0.9 from it along e1
RELAXED_SLIVERS = [
    parallelotope([[-0.5, 2.0, 2.0 ** -23], [0.0, 0.0, -1.0], [2.0, 0.0, 1.0]],
                  [0.0, 1.0, 2.0], [0.0, 1.0, 2.2]),
    point_parallelotope([[0.0, 2.0, 2.0 ** -23], [0.0, 0.0, -2.0], [1.0, 0.0, 1.0]],
                        [0.0, 1.0, 1.0]),
]


class TestContainmentPrecheck:
    @PROPERTY
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.one_of(boxes(n), template_hpolytopes(n), parallelotopes(n)),
                            st.one_of(template_hpolytopes(n), parallelotopes(n)))))
    # phase one on this flat point calls its rows infeasible; the row test
    # contains_set runs solves again on relaxed offsets and passes them
    @example((Box([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
              point_parallelotope([[0.0, 0.0, 1.5], [-0.5, 0.0, 0.0], [1.5, 3.2e-8, -1.0]],
                                  [3.0, 2.0, 0.0])))
    @example((Box([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), RELAXED_SLIVERS[0]))
    @example((Box([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), RELAXED_SLIVERS[1]))
    def test_settled_rows_pass_the_lp_row_test(self, pair):
        q, p = pair
        if sg.is_empty(p):
            return
        h = sg._exact_hform(q)
        bound, mag = sg._support_bound(p, h.normals.T)
        settled = sg._clears(bound - h.offsets - sg.TOL, h.offsets, mag)
        for a_row, b_row in zip(h.normals[settled], h.offsets[settled]):
            assert sg.support_batch(p, a_row[:, None])[0] <= b_row + sg.TOL
        lp_rows = all(sg.support_batch(p, a[:, None])[0] <= b + sg.TOL
                      for a, b in zip(h.normals, h.offsets))
        assert sg.contains_set(q, p) == lp_rows

    @pytest.mark.parametrize("p", RELAXED_SLIVERS, ids=["segment", "point"])
    def test_a_relaxed_sliver_keeps_sound_supports(self, p):
        # the segment used to read as empty, so the origin "contained" it
        assert not sg.is_empty(p)
        assert not sg.contains_set(Box(np.zeros(3), np.zeros(3)), p)
        # one row pair has width, so the ends solve the upper and the lower rows
        ends = np.linalg.solve(p.normals[:3], np.array([p.offsets[:3], -p.offsets[3:]]).T).T
        dirs = np.hstack([np.eye(3), -np.eye(3)])
        exact = (ends @ dirs).max(axis=0)
        values = sg.support_batch(p, dirs)
        assert np.all(exact - 1e-9 <= values) and np.all(values <= exact + 1e-5)

    @pytest.mark.parametrize("p", RELAXED_SLIVERS, ids=["segment", "point"])
    def test_a_sliver_no_width_answers_reads_unbounded(self, p, monkeypatch):
        # with the TOL width alone, the segment's relaxed solve has no start
        # and the point's e1 witness misses its rows: those directions read
        # +inf, never "empty" or a value below the set
        monkeypatch.setattr(sg, "_RELAX_WIDTHS", (sg.TOL,))
        dirs = np.hstack([np.eye(3), -np.eye(3)])
        values = sg.support_batch(p, dirs)
        assert np.isinf(values).any()
        ends = np.linalg.solve(p.normals[:3], np.array([p.offsets[:3], -p.offsets[3:]]).T).T
        assert np.all((ends @ dirs).max(axis=0) - 1e-9 <= values)
        assert sg.support(p, dirs[:, np.argmax(values)]) == (np.inf, None)
        assert not sg.contains_set(Box(np.zeros(3), np.zeros(3)), p)

    def test_template_segment_inside_a_box_needs_no_lp(self, monkeypatch):
        dirs = sg.default_template(2)
        seg = HPolytope(dirs, np.abs(dirs) @ np.array([1.0, 1.0]))
        solves = count_calls(monkeypatch, numkernel, "_phase_one")
        assert sg.contains_set(Box([-2.0, -2.0], [2.0, 2.0]), seg)
        assert solves == [0]
        # a row the template does not settle still goes to the LP
        assert not sg.contains_set(Box([-2.0, -2.0], [2.0, 0.5]), seg)
        assert solves[0] >= 1


@st.composite
def template_runs(draw):
    """``(s1, s2, segments)``: a set_pairs() draw and a run of segments,
    each over one of two shared read-only templates in a drawn order, with
    s1 among them: the questions a driver asks of one prepared s2."""
    s1, s2 = draw(set_pairs())
    n = s1.dim
    m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n) + 3.0 * np.eye(n)
    templates = [HPolytope(t, np.ones(t.shape[0])).normals
                 for t in (sg.default_template(n), np.vstack([m, -m]))]
    segments = []
    for i in draw(st.lists(st.integers(0, 1), min_size=2, max_size=6)):
        t = templates[i]
        offsets = draw(st.lists(st.floats(-3.0, 6.0), min_size=t.shape[0], max_size=t.shape[0]))
        segments.append(HPolytope(t, np.array(offsets)))
    segments.insert(draw(st.integers(0, len(segments))), s1)
    return s1, s2, segments


def assert_same_set(got, want):
    """None, or the same set bit for bit, keeping no simplex start."""
    assert type(got) is type(want)
    if isinstance(want, Box):
        assert got.lower.tobytes() == want.lower.tobytes()
        assert got.upper.tobytes() == want.upper.tobytes()
        assert got.exact == want.exact
    elif want is not None:
        assert got.normals.tobytes() == want.normals.tobytes()
        assert got.offsets.tobytes() == want.offsets.tobytes()
        assert got.exact == want.exact and got._start is None


class TestPreparedOperand:
    """A prepared set answers every question as a one-off call does, bit
    for bit, while it keeps what the other operand's normals alone decide
    for the last read-only normals buffer it saw."""

    @PROPERTY
    @given(template_runs())
    def test_reused_operand_answers_as_one_off_calls(self, run):
        s1, s2, segments = run
        fixed, later = sg._Prepared(s2), sg._Prepared(s1)
        for seg in segments:
            piece = fixed.intersect(seg)
            assert_same_set(piece, sg.intersect(seg, s2))
            assert fixed.meets(seg) == sg.meets(seg, s2)
            assert fixed.contains(seg) == sg.contains_set(s2, seg)
            # the row LPs of a containment question leave no start behind
            assert not isinstance(seg, HPolytope) or seg._start is None
            # the pieces of one prepared set share its stacked rows: a
            # second prepared set asked about them keeps its own memo
            if piece is not None:
                assert_same_set(later.intersect(piece), sg.intersect(piece, s1))

    def test_a_shared_template_is_matched_once(self, monkeypatch):
        fixed = sg._Prepared(HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [3.0, 2.0, 2.0]))
        t = HPolytope(sg.default_template(2), np.ones(8)).normals
        first, second = (HPolytope(t, np.abs(t) @ np.array([1.0, 1.0]) + shift * t[:, 0])
                         for shift in (0.0, 0.25))
        assert first.normals is second.normals
        matched = count_calls(monkeypatch, sg, "_equal_rows")
        assert fixed.intersect(first) is not None and fixed.contains(first)
        once = matched[0]
        assert once > 0
        assert fixed.intersect(second) is not None and fixed.contains(second)
        assert matched == [once]

    def test_writable_normals_get_no_memo(self):
        fixed = sg._Prepared(HPolytope(sg.default_template(2), np.ones(8)))
        rows = np.vstack([np.eye(2), -np.eye(2)])
        view = rows[:]
        view.flags.writeable = False  # read-only, but its buffer is not
        for normals in (rows, view):
            assert fixed._memo_for(normals) is not fixed._memo_for(normals)
            assert fixed._memo is None
        seg = HPolytope(sg.default_template(2), np.full(8, 0.5))
        memo = fixed._memo_for(seg.normals)
        assert fixed._memo_for(seg.normals) is memo is fixed._memo
        # a box enters by facet rows built on each call: no memo
        assert fixed.intersect(Box([0.0, 0.0], [0.5, 0.5])) is not None
        assert fixed._memo is memo

    @PROPERTY
    @given(box_pairs(max_dim=4))
    def test_corners_meet_only_on_a_feasible_stack(self, case):
        # two boxes in H-form, flat and touching ones included: the corners
        # say "not disjoint" exactly when no axis separates them, and the
        # LP on the same rows then finds them feasible too
        b1, b2, _ = case
        h1, h2 = b1.to_hpolytope(), b2.to_hpolytope()
        stack = sg._Stack(h1.normals, h2.normals)
        offsets = np.concatenate([h1.offsets, h2.offsets]) / stack.norms
        meet = stack.corners_meet(offsets)
        assert meet == (not boxes_apart(b1, b2))
        if meet:
            assert not sg.is_empty(HPolytope(stack.normals, offsets))

    def test_slanted_rows_get_no_corner_rule(self):
        h = HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        stack = sg._Stack(h.normals, sg._box_rows(Box([0.0, 0.0], [1.0, 1.0]))[0])
        assert stack.upper is None and not stack.corners_meet(np.zeros(7))


GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def grid_boxes(draw, n, widths=(0.0, 0.5, 1.0)):
    lo = np.array(draw(st.lists(GRID, min_size=n, max_size=n)))
    return Box(lo, lo + np.array(draw(st.lists(st.sampled_from(widths), min_size=n, max_size=n))))


def first_steps(a, x0, u, strategy, count):
    """The first ``count`` segments of the stepping core's pipe."""
    system = LinearSystem(a, x0, input_set=u)
    config = ReachConfig(horizon=count, strategy=strategy)
    return [seg.set_rep for seg in itertools.islice(_flow_steps(system, config), count)]


@st.composite
def block_questions(draw):
    """``(s2, sets)``: a set to prepare and a block of segments to ask it
    about: the first steps of a lazy, facet or vertex pipe, or of two of
    them interleaved.  A signed permutation keeps every segment on the
    half-integer grid of s2's corners, so many touch s2; a random map near
    the identity gives facet segments [P; -P] of every slant."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        a = draw(st.sampled_from([0.5, 1.0])) * np.eye(n)[draw(st.permutations(range(n)))] * signs
    else:
        m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
        a = 0.5 * m.reshape(n, n) + np.eye(n)
    x0 = draw(grid_boxes(n))
    u = draw(st.none() | grid_boxes(n, widths=(0.0, 0.5)))
    s2 = draw(st.one_of(grid_boxes(n), parallelotopes(n), template_hpolytopes(n), sets(n)))
    kinds = draw(st.lists(st.sampled_from(["lazy", "facets", "vertices"]), min_size=1, max_size=2,
                          unique=True))
    # 3-d vertex clouds grow fast
    count = draw(st.integers(0, 4 if n == 3 and "vertices" in kinds else 10))
    pipes = [first_steps(a, x0, u, kind, count) for kind in kinds]
    return s2, [s for step in zip(*pipes) for s in step]


class TestFirstMeeting:
    """A block of segments asked at once gives the index of the first that
    ``meets`` the prepared set, as asking them one by one does; its
    prechecks clear a set only on the floats ``intersect`` computes for
    that set alone."""

    @PROPERTY
    @given(block_questions())
    @example((Box([0.0, 0.0], [1.0, 1.0]),
              first_steps(np.eye(2), Box([1.0, 1.0], [2.0, 2.0]), None, "facets", 3)))
    @example((Box([2.0, -1.0], [3.0, 1.0]),
              first_steps(np.eye(2), Box([0.0, 0.0], [1.0, 0.5]),
                          Box([0.5, -0.5], [0.5, 0.0]), "lazy", 6)))
    def test_is_the_first_set_that_meets(self, question):
        s2, segments = question
        want = next((i for i, s in enumerate(segments) if sg.meets(s, s2)), None)
        assert sg._Prepared(s2).first_meeting(segments) == want

    def test_first_and_touching_hits(self):
        bad = sg._Prepared(Box([2.0, -1.0], [3.0, 1.0]))
        # x0 itself inside, and a pipe sliding right by 0.5 a step: it
        # touches the bad box at step 2 and crosses it after
        for strategy in ("lazy", "facets", "vertices"):
            inside = first_steps(np.eye(2), Box([2.5, 0.0], [2.5, 0.5]), None, strategy, 4)
            assert bad.first_meeting(inside) == 0
            sliding = first_steps(np.eye(2), Box([0.0, 0.0], [1.0, 0.5]),
                                  Box([0.5, 0.0], [0.5, 0.0]), strategy, 8)
            assert bad.first_meeting(sliding) == 2
            assert bad.first_meeting(sliding[:2]) is None
        assert bad.first_meeting([]) is None

    def test_far_segments_need_no_exact_test(self, monkeypatch):
        # a facet pipe and a lazy pipe far from the bad box are cleared by
        # the batched prechecks: no per-segment intersect, and no row bound
        # built per facet segment
        a = 0.9 * np.array([[0.6, -0.8], [0.8, 0.6]])
        x0, u = Box([0.9, -0.1], [1.1, 0.1]), Box([-0.01, -0.01], [0.01, 0.01])
        bad = sg._Prepared(Box([20.0, -30.0], [30.0, 30.0]))
        calls = count_calls(monkeypatch, sg._Prepared, "intersect")
        built = count_calls(monkeypatch, sg, "_RowBound")
        for strategy in ("facets", "lazy"):
            assert bad.first_meeting(first_steps(a, x0, u, strategy, 64)) is None
        assert calls == [0]
        assert built == [1]  # the lazy template's, kept in the memo

    @PROPERTY
    @given(block_questions())
    def test_stacked_row_bounds_are_each_sets_bit_for_bit(self, question):
        s2, segments = question
        op = sg._Prepared(s2)
        dmat = -op.rows[0].T
        own = [s for s in segments if isinstance(s, HPolytope)]
        for shape in {s.normals.shape for s in own}:
            same = [s for s in own if s.normals.shape == shape]
            bound, mag = sg._stacked_row_bounds(np.stack([s.normals for s in same]),
                                                np.stack([s.offsets for s in same]), dmat)
            for i, s in enumerate(same):
                want_bound, want_mag = sg._RowBound(s.normals, dmat)(s.offsets)
                assert bound[i].tobytes() == want_bound.tobytes()
                assert mag[i].tobytes() == want_mag.tobytes()
            # one normals buffer with a stack of offsets: row by row
            rb = sg._RowBound(same[0].normals, dmat)
            bound, mag = rb(np.stack([s.offsets for s in same]))
            for i, s in enumerate(same):
                want_bound, want_mag = rb(s.offsets)
                assert bound[i].tobytes() == want_bound.tobytes()
                assert mag[i].tobytes() == want_mag.tobytes()


class TestSharedPhaseOne:
    def cold(self, h, d):
        """A cold solve of what ``support_batch`` solves: h's own rows, and,
        where the simplex calls them infeasible, the relaxed offsets it
        solves again with."""
        res = lp_max(d, h.normals, h.offsets)
        if res.status == INFEASIBLE and not sg.is_empty(h):
            res = lp_max(d, h.normals, sg._relaxed_offsets(h.offsets))
        return res

    @PROPERTY
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.one_of(template_hpolytopes(n), parallelotopes(n)),
                            st.lists(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                                     min_size=1, max_size=6))))
    # phase one on this flat point calls its rows infeasible, and
    # support_batch answers from the relaxed re-solve
    @example((point_parallelotope([[0.0, 0.5, 1e-6, 0.0], [-1.0, 0.0, -2.0, -1.5],
                                   [0.0, -2.0625, 0.0, 0.0], [0.0, -3.0, -0.75, 0.0]],
                                  [0.0, 0.0, 1.5, 1.5]),
              [[0.0, 0.0, 0.0, 1.0]]))
    def test_batch_equals_cold_solves_exactly(self, case):
        h, dirs = case
        dmat = np.array(dirs, dtype=float).T
        cold = [self.cold(h, d) for d in dmat.T if np.any(d != 0.0)]
        if any(r.status == INFEASIBLE for r in cold):
            with pytest.raises(ValueError):
                sg.support_batch(h, dmat)
            return
        got = sg.support_batch(h, dmat)
        want = [0.0 if not np.any(d != 0.0) else self.cold(h, d).value for d in dmat.T]
        assert got.tolist() == want

    @PROPERTY
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.one_of(template_hpolytopes(n), parallelotopes(n), flat_parallelotopes(n)),
            st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))))
    # a coupling can cancel the diagonal: R = [[2, -1], [-2, 1]] is
    # singular, so this flat set is the line 2x = y, unbounded along e2
    @example((point_parallelotope([[-1.0, -1.0], [-2.0, -2.0]], [0.0, 0.0]), [0.0, 1.0]))
    def test_support_is_its_batch_value_with_a_witness(self, case):
        h, d = case
        d = np.array(d)
        assume(np.any(d != 0.0))
        try:
            value, witness = sg.support(h, d)
        except ValueError:
            with pytest.raises(ValueError, match="empty polytope"):
                sg.support_batch(h, d[:, None])
            return
        assert value == sg.support_batch(h, d[:, None])[0]
        if witness is None:
            assert value == np.inf
            return
        assert abs(d @ witness - value) <= 1e-9

    def test_results_match_field_by_field(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 3))
        b = rng.uniform(-0.5, 1.0, size=9)
        objs = rng.normal(size=(5, 3))
        objs[2] = 0.0
        for got, c in zip(_LpStart(a, b).solve(objs), objs):
            want = lp_max(c, a, b)
            assert got.status == want.status and got.value == want.value
            assert (got.x is None and want.x is None) or np.array_equal(got.x, want.x)

    def test_infeasible_unbounded_and_zero_columns(self):
        empty = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            sg.support_batch(empty, np.eye(2))
        # zero columns need no solve, so an all-zero batch is 0 even here
        assert sg.support_batch(empty, np.zeros((2, 3))).tolist() == [0.0, 0.0, 0.0]
        assert all(r.status == INFEASIBLE for r in
                   _LpStart(empty.normals, empty.offsets).solve(np.eye(2)))
        half = HPolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
        dmat = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        got = sg.support_batch(half, dmat)
        assert got.tolist() == [1.0, np.inf, 0.0, 1.0]
        assert self.cold(half, np.array([-1.0, 0.0])).status == UNBOUNDED

    def test_no_rows(self):
        res = _LpStart(np.zeros((0, 2)), np.zeros(0)).solve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert [r.status for r in res] == [OPTIMAL, UNBOUNDED]
        assert res[0].value == 0.0

    def test_phase_one_runs_once_per_batch(self, monkeypatch):
        dirs = sg.default_template(3)
        # negative offsets put artificials in the start basis: phase one pivots
        h = HPolytope(dirs, np.abs(dirs) @ np.array([1.0, 2.0, 0.5]) - 0.2 * dirs[:, 0])
        h = sg.translate(h, [5.0, -4.0, 3.0])
        k = dirs.shape[0]
        calls = count_calls(monkeypatch, numkernel, "_phase_one")
        pivots = count_calls(monkeypatch, numkernel, "_pivot")
        vals = sg.support_batch(h, dirs.T)
        assert calls == [1]
        batch_pivots = pivots[0]
        cold = [self.cold(h, d).value for d in dirs]
        assert calls == [1 + k]
        assert vals.tolist() == cold
        # the cold solves repeat phase one's pivots k times
        assert pivots[0] - batch_pivots > batch_pivots


def offsets_digest(segments):
    h = hashlib.sha256()
    for seg in segments:
        h.update(seg.set_rep.offsets.tobytes())
    return h.hexdigest()


class TestKeptStart:
    """An H-polytope runs phase one once and keeps the pivot paths taken
    from it.  The digests were recorded before the start was kept, when
    every batch ran its own phase one and pivoted a copy of its tableau."""

    @staticmethod
    def octagon_segment():
        dirs = sg.default_template(2)
        return HPolytope(dirs, np.abs(dirs) @ np.array([1.0, 2.0]) - 0.3 * dirs[:, 0])

    def test_two_batches_run_one_phase_one(self, monkeypatch):
        h = self.octagon_segment()
        calls = count_calls(monkeypatch, numkernel, "_phase_one")
        first = sg.support_batch(h, h.normals.T)
        second = sg.support_batch(h, np.array([[1.0, 0.5], [-2.0, 1.0]]))
        assert calls == [1]
        # a yes/no question solves from a start of its own
        assert not sg.is_empty(h)
        assert calls == [2]
        assert first.tolist() == [lp_max(d, h.normals, h.offsets).value for d in h.normals]
        assert second.tolist() == [lp_max(d, h.normals, h.offsets).value
                                   for d in ([1.0, -2.0], [0.5, 1.0])]

    def test_repeated_objective_pivots_once(self, monkeypatch):
        h = self.octagon_segment()
        d = np.array([0.3, 1.0])
        once = count_calls(monkeypatch, numkernel, "_pivot")
        sg.support_batch(h, d[:, None])
        alone = once[0]
        assert alone > 0
        h = self.octagon_segment()
        once[0] = 0
        vals = sg.support_batch(h, np.column_stack([d, d, d]))
        assert once == [alone] and vals[0] == vals[1] == vals[2]

    @pytest.mark.parametrize("budget", ["default", "root only"])
    def test_kept_paths_are_not_pivoted_again(self, monkeypatch, budget):
        a = np.vstack([np.eye(3), -np.eye(3)])
        b = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        objs = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
        start = numkernel._LpStart(a, b)
        root = start.nbytes
        if budget == "root only":
            monkeypatch.setattr(numkernel, "_START_BYTES_CAP", root)
        pivots = count_calls(monkeypatch, numkernel, "_pivot")
        first = start.solve(objs)
        per_round = pivots[0]
        again = start.solve(objs)
        assert per_round > 0
        if budget == "default":
            assert pivots[0] == per_round and start.nbytes > root
        else:
            # nothing past the root is kept: every round pivots again
            assert pivots[0] == 2 * per_round and start.nbytes == root
        for got, want in zip(again, first):
            assert got.status == want.status and got.value == want.value
            assert got.x.tobytes() == want.x.tobytes()

    def test_equal_sets_do_not_share_a_start(self, monkeypatch):
        p, q = self.octagon_segment(), self.octagon_segment()
        calls = count_calls(monkeypatch, numkernel, "_phase_one")
        sg.support_batch(p, np.eye(2))
        sg.support_batch(q, np.eye(2))
        assert calls == [2] and p._start is not q._start

    def test_start_over_the_budget_is_not_kept(self, monkeypatch):
        h = self.octagon_segment()
        monkeypatch.setattr(numkernel, "_START_BYTES_CAP", 64)
        calls = count_calls(monkeypatch, numkernel, "_phase_one")
        first = sg.support_batch(h, h.normals.T)
        second = sg.support_batch(h, h.normals.T)
        assert calls == [2] and h._start is None
        assert first.tolist() == second.tolist() == [
            lp_max(d, h.normals, h.offsets).value for d in h.normals]

    def test_start_stays_within_its_budget(self):
        # a 10-d base with 30 random facets: the directions of 20 lazy
        # steps reach more tableaux than the budget holds
        n = 10
        rng = np.random.default_rng(10)
        normals = rng.normal(size=(3 * n, n))
        x0 = HPolytope(normals, np.linalg.norm(normals, axis=1) * rng.uniform(0.5, 1.0, size=3 * n))
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        system = LinearSystem(0.95 * q * np.sign(np.diag(r)), x0,
                              input_set=Box(-0.01 * np.ones(n), 0.01 * np.ones(n)))
        # the run keeps x0's start while it is live, and lets go of it when
        # its driver stops
        run = _flow_steps(system, ReachConfig(horizon=20))
        segments = list(itertools.islice(run, 21))
        assert numkernel._START_BYTES_CAP // 2 < x0._start.nbytes <= numkernel._START_BYTES_CAP
        run.close()
        assert x0._start is None
        assert offsets_digest(segments) == (
            "8ba3baac030c02eae8e6ca0a1ebf9e73d384e8e63ba7e7f2efb41bdea6c8ba97")

    def test_lazy_octagon_base_offsets_are_pinned(self):
        t = sg.default_template(2)
        x0 = HPolytope(t, np.abs(t) @ np.array([0.3, 0.2]) + t @ np.array([1.0, -0.5])
                       + np.array([0.0, 0.05, 0.1, 0.0, 0.02, 0.0, 0.0, 0.07]))
        c, s = math.cos(0.05), math.sin(0.05)
        system = LinearSystem(0.995 * np.array([[c, -s], [s, c]]), x0,
                              input_set=Box([-0.01, 0.0], [0.01, 0.02]))
        pipe = reach(system, ReachConfig(horizon=300))
        assert len(pipe.segments) == 301
        assert offsets_digest(pipe.segments) == (
            "3a92511d4c418e6420fec15d24f5ab03f75fa73b7666dd3c584045895bc9fa1a")

    def test_van_der_pol_offsets_are_pinned(self):
        mu = 0.2
        system = NonlinearSystem(
            f=lambda x: np.array([x[1], -x[0] + mu * (1.0 - x[0] ** 2) * x[1]]), dim=2,
            jac=lambda x: np.array([[0.0, 1.0],
                                    [-1.0 - 2.0 * mu * x[0] * x[1], mu * (1.0 - x[0] ** 2)]]),
            hessian_bound=lambda lo, hi: np.array([0.0, 2.0 * mu * (np.abs(lo) + np.abs(hi)).sum()]))
        pipe = dynamic_hybridize_reach(system, Box([0.98, -0.02], [1.02, 0.02]),
                                       ReachConfig(horizon=0.5, step=0.01))
        assert pipe.status == "horizon" and len(pipe.segments) == 51
        assert offsets_digest(pipe.segments) == (
            "55fbf8375781d35b00fbe6c3ce2856c8f01f569e9e108241482096e3a9d96f37")
        # each of the 6 epochs starts from a returned segment, whose
        # supports set the epoch up; the run lets go of their starts
        assert len(pipe.domains) == 6
        assert all(seg.set_rep._start is None for seg in pipe.segments)

    def test_van_der_pol_solve_counts_are_pinned(self, monkeypatch):
        # the run above solves from the starts its entries' supports keep:
        # with no start kept it takes 76 phase ones and 766 pivots
        phase_ones = count_calls(monkeypatch, numkernel, "_phase_one")
        pivots = count_calls(monkeypatch, numkernel, "_pivot")
        self.test_van_der_pol_offsets_are_pinned()
        assert phase_ones == [20] and pivots == [185]

    def test_post_jump_flow_offsets_are_pinned(self):
        # a spiral bouncing between two walls; every entry after a jump is
        # an H-polytope, so each of its flow's steps is an LP batch
        a = np.array([[-0.1, 1.0], [-1.0, -0.1]])
        noise = Box([0.0, -0.02], [0.0, 0.02])
        flip = [[-1.0, 0.0], [0.0, 0.9]]
        right = Mode("right", a, input_set=noise, invariant=HPolytope([[1.0, 0.0]], [0.6]))
        left = Mode("left", a, input_set=noise, invariant=HPolytope([[-1.0, 0.0]], [0.6]))
        automaton = HybridAutomaton((right, left), (
            Transition("right", "left", guard=HPolytope([[-1.0, 0.0]], [-0.55]), reset_matrix=flip),
            Transition("left", "right", guard=HPolytope([[1.0, 0.0]], [-0.55]), reset_matrix=flip)))
        pipe = hybrid_reach(automaton, "right", Box([0.0, 0.8], [0.1, 0.9]),
                            ReachConfig(horizon=2.5, step=0.02), jump_depth=3)
        assert len(pipe.flows) == 4
        assert all(isinstance(j.post, HPolytope) for j in pipe.jumps)
        assert offsets_digest([seg for flow in pipe.flows for seg in flow.segments]) == (
            "3899a0282d2744dc46626ec618997df54c0138999eff403e6d1f32e3cdc61cf6")


class TestNoStartOnIntersections:
    """``intersect`` decides emptiness by an LP on the stacked rows, but the
    set it returns keeps no simplex start: a clipped segment outlives the
    run, and a start holds up to its byte budget of tableaux."""

    def test_intersection_holds_no_start(self, monkeypatch):
        seg = TestKeptStart.octagon_segment()
        calls = count_calls(monkeypatch, numkernel, "_phase_one")
        c = sg.intersect(seg, Box([0.0, -1.0], [3.0, 1.0]))
        assert isinstance(c, HPolytope) and calls == [1] and c._start is None

    def test_hybrid_segments_hold_no_start(self):
        n = 6
        rng = np.random.default_rng(6)
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        ones = np.ones(n)
        mode = Mode("m", 0.3 * q * np.sign(np.diag(r)) - 0.2 * np.eye(n),
                    input_set=Box(-0.01 * ones, 0.01 * ones), invariant=Box(-2.0 * ones, 2.0 * ones))
        pipe = hybrid_reach(HybridAutomaton((mode,), ()), "m", Box(0.9 * ones, 1.1 * ones),
                            ReachConfig(horizon=1.0, step=0.01))
        (flow,) = pipe.flows
        assert len(flow.segments) == 101
        assert all(isinstance(seg.set_rep, HPolytope) for seg in flow.segments)
        assert all(seg.set_rep._start is None for seg in flow.segments)

    def test_drivers_hand_back_no_start(self, monkeypatch):
        # the pinned spiral and Van der Pol runs, with the pipes they return
        pipes = []
        for name in ("hybrid_reach", "dynamic_hybridize_reach"):
            run = globals()[name]
            monkeypatch.setitem(globals(), name,
                                lambda *args, run=run, **kw: pipes.append(run(*args, **kw)) or pipes[-1])
        TestKeptStart().test_post_jump_flow_offsets_are_pinned()
        TestKeptStart().test_van_der_pol_offsets_are_pinned()
        spiral, vdp = pipes
        sets = [seg.set_rep for flow in spiral.flows for seg in flow.segments]
        sets += [s for jump in spiral.jumps for s in (jump.pre, jump.post)]
        sets += [seg.set_rep for seg in vdp.segments]
        # and reach under every strategy from an octagon, whose segment 0
        # is the octagon itself under facet pushing
        t = sg.default_template(2)
        for strategy in ("lazy", "facets", "vertices"):
            x0 = HPolytope(t, np.abs(t) @ np.array([0.3, 0.2]))
            pipe = reach(LinearSystem(0.9 * np.eye(2), x0),
                         ReachConfig(horizon=3, strategy=strategy))
            sets += [x0] + [seg.set_rep for seg in pipe.segments]
        assert sum(isinstance(s, HPolytope) for s in sets) > 100
        assert all(s._start is None for s in sets if isinstance(s, HPolytope))


@st.composite
def question_pairs(draw):
    """Two H-polytopes or boxes of one dimension, flat, touching and empty
    ones included; each box may enter in H-form, and each H-polytope may
    hold the simplex start its supports keep."""
    pair = draw(st.one_of(
        box_pairs().map(lambda case: case[:2]),
        st.integers(1, 3).flatmap(lambda n: st.tuples(
            *[st.one_of(boxes(n), template_hpolytopes(n), parallelotopes(n),
                        flat_parallelotopes(n))] * 2))))
    out = []
    for s in pair:
        if isinstance(s, Box) and draw(st.booleans()):
            s = s.to_hpolytope()
        if isinstance(s, HPolytope) and draw(st.booleans()):
            s._lp_start()
        out.append(s)
    return out


class TestQuestionsKeepNoStart:
    """Only ``support`` and ``support_batch`` keep an H-polytope's simplex
    start; ``intersect``, ``meets``, ``contains_set`` and ``is_empty`` leave
    a kept start as it is and none of their own, one-off or through a
    reused prepared operand."""

    @PROPERTY
    @given(question_pairs())
    def test_operands_are_left_as_they_were_found(self, pair):
        starts = [s._start if isinstance(s, HPolytope) else None for s in pair]
        for p, q in (pair, pair[::-1]):
            fixed = sg._Prepared(q)
            want = sg.intersect(p, q), sg.meets(p, q), sg.contains_set(q, p)
            for _ in range(2):
                assert_same_set(fixed.intersect(p), want[0])
                assert fixed.meets(p) == want[1]
                assert fixed.contains(p) == want[2]
        for s, start in zip(pair, starts):
            if isinstance(s, HPolytope):
                # a kept start answers as a fresh one does
                assert sg.is_empty(s) == sg.is_empty(HPolytope(s.normals, s.offsets))
                assert s._start is start


def unit(draw, n):
    d = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    assume(np.linalg.norm(d) > 0.1)
    return d / np.linalg.norm(d)


@st.composite
def clouds(draw, n):
    """Vertex sets in dimension n: scattered points, repeated vertices,
    flat ones (squeezed to nothing along one to n directions) and slivers
    (squeezed to a width down to 1e-10 along them)."""
    k = draw(st.integers(1, 8))
    v = np.array(draw(st.lists(coord, min_size=n * k, max_size=n * k))).reshape(k, n)
    kind = draw(st.sampled_from(["scattered", "repeated", "flat", "sliver"]))
    if kind == "repeated":
        v = np.vstack([v, v[draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))]])
    elif kind != "scattered":
        keep = 0.0 if kind == "flat" else draw(st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4]))
        for _ in range(draw(st.integers(1, n))):
            u = unit(draw, n)
            v = v - np.outer(((v - v.mean(axis=0)) @ u) * (1.0 - keep), u)
    return VPolytope(v)


@st.composite
def sets_beside(draw, v):
    """A box or a parallelotope past the support of the cloud v along an
    axis or a slanted direction, by a gap from overlap through touching
    and gaps near the precheck margin to clear separation."""
    n = v.shape[1]
    gap = draw(st.sampled_from([-0.5, 0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.5]))
    if draw(st.booleans()):
        d = np.zeros(n)
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0]))
    else:
        d = unit(draw, n)
    m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n) + 3.0 * np.eye(n)
    m[0] = d
    assume(np.linalg.svd(m, compute_uv=False)[-1] > 1e-3)
    lo = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(width, min_size=n, max_size=n)))
    lo[0] = (v @ d).max() + gap
    hi[0] = lo[0] + draw(st.floats(0.0, 3.0))
    if np.count_nonzero(d) == 1 and not np.any(m[1:] @ d):
        # axis-aligned and the other rows square to it: a box
        axis = int(np.flatnonzero(d)[0])
        b_lo, b_hi = np.full(n, -6.0), np.full(n, 6.0)
        b_lo[axis], b_hi[axis] = (lo[0], hi[0]) if d[axis] > 0 else (-hi[0], -lo[0])
        return Box(b_lo, b_hi)
    return HPolytope(np.vstack([m, -m]), np.concatenate([hi, -lo]))


@st.composite
def cloud_questions(draw):
    """``(v, q)``: a 1-d to 3-d vertex set and the set a driver prepares: a
    set beside it, or a box, an H-polytope or a vertex set drawn freely."""
    n = draw(st.integers(1, 3))
    v = draw(clouds(n))
    q = draw(st.one_of(sets_beside(v.vertices), boxes(n), parallelotopes(n),
                       template_hpolytopes(n), vpolytopes(n)))
    return v, q


@st.composite
def sliver_questions(draw):
    """``(v, q)``: a 2-d or 3-d cloud up to 6 long along a drawn direction
    and 1e-10 to 1e-4 thick across it, and a point or a small box just
    past its tip along that direction, where the LP's tolerance on the
    sliver's long facets reaches."""
    n = draw(st.integers(2, 3))
    u = unit(draw, n)
    k = draw(st.integers(n + 1, 6))
    along = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    across = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * n, max_size=k * n)))
    across = across.reshape(k, n) * draw(st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4]))
    center = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    v = center + np.outer(along, u) + across - np.outer(across @ u, u)
    tip = v[np.argmax(v @ u)]
    p = tip + draw(st.sampled_from([1e-7, 1e-5, 1e-3, 1e-1, 1.0])) * u
    r = draw(st.sampled_from([0.0, 0.0, 1e-3]))
    return VPolytope(v), Box(p - r, p + r)


class TestVertexPrecheck:
    """A vertex set up to 3-d enters a question by its facet form, read
    from the hull it keeps, whatever its shape: the precheck and the LP
    read that form's rows, and a sliver gets the LP's verdict on them."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(cloud_questions(), sliver_questions()))
    # a needle: the exact 3-d hull keeps its 1e-8 cap as a facet, so the
    # point 1e-5 over the cap is disjoint from the facet form
    @example((VPolytope([[0.0, 0.0, 0.0], [1e-8, 0.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, -1.0]]),
              Box([0.0, 0.0, 1e-5], [0.0, 0.0, 1e-5])))
    # the exact cycle keeps an edge 4e-247 long, whose scaled normal's norm
    # rounds to zero: the edge gives no row
    @example((VPolytope([[0.0, 0.0], [3.754011243503388e-247, 0.0], [0.0, 1.0]]),
              Box([1.0, 1.0], [1.0, 1.0])))
    def test_verdict_is_the_facet_form_verdict(self, case):
        v, q = case
        fixed = sg._Prepared(q)
        h = sg._hform_enclosure(v)
        disjoint = fixed.intersect(v) is None
        assert disjoint == (fixed.intersect(h) is None)
        if disjoint and isinstance(q, (Box, HPolytope)):
            # the facet form holds the cloud: no vertex lies in q
            assert not any(sg.member(q, x, tol=0.0) for x in v.vertices)

    @pytest.mark.parametrize("height, x, meets", [
        # every vertex of this triangle, 1e-6 high and 2 long, lies 1e-3
        # short of the point's row x >= 2.001, yet the LP's tolerance on
        # its two long, nearly parallel facets admits the point
        (1e-6, 2.001, True),
        (1e-6, 2.01, False),
        (1e-6, 1e4, False),
        (1e-2, 2.001, False),
        (1e-2, 3.0, False),
    ])
    def test_a_sliver_gets_the_lp_verdict(self, height, x, meets):
        sliver = VPolytope([[0.0, 0.0], [2.0, 0.0], [1.0, height]])
        fixed = sg._Prepared(Box([x, 0.0], [x, 0.0]))
        assert fixed.meets(sliver) == fixed.meets(sg._hform_enclosure(sliver)) == meets

    def test_a_flat_cloud_decides_nothing(self):
        # by itself: its facet form, +- the normal across its plane and
        # the triangle's edges inside it, answers
        flat = VPolytope([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        bad = sg._Prepared(Box(np.full(3, 5.0), np.full(3, 6.0)))
        assert not bad.meets(flat)
        assert bad.meets(VPolytope(flat.vertices + 5.0))


class TestVertexCloudsIn3d:
    """x+ = (0.9 I + 0.1 P) x + u, P the cyclic shift, X0 = [-1, 1]^3 and
    u in [-0.1, 0.1]^3, propagated by vertices: each step keeps the hull
    vertices of its candidates, 8, 26, 62 at steps 0-2 (the unthinned
    clouds held 8, 64, 504), and each bad-set question reads the segment's
    facet form from the triangles its step kept."""

    @staticmethod
    def run(bad, horizon):
        a = 0.9 * np.eye(3) + 0.1 * np.roll(np.eye(3), 1, axis=1)
        system = LinearSystem(a, Box(-np.ones(3), np.ones(3)),
                              input_set=Box(np.full(3, -0.1), np.full(3, 0.1)))
        question = {} if bad is None else {"mode": "bad_set", "bad_set": bad}
        return reach(system, ReachConfig(horizon=horizon, strategy="vertices", **question))

    def test_a_far_bad_set_is_answered_in_under_a_second(self, monkeypatch):
        converted = count_calls(monkeypatch, sg, "_hform_enclosure")
        start = time.process_time()
        pipe = self.run(Box(np.full(3, 5.0), np.full(3, 6.0)), 2)
        assert time.process_time() - start < 1.0
        assert pipe.status == "horizon"
        assert [s.set_rep.vertices.shape[0] for s in pipe.segments] == [8, 26, 62]
        assert converted == [3]

    @pytest.mark.parametrize("bad", [Box(np.full(3, 5.0), np.full(3, 6.0)), None],
                             ids=["far-bad-set", "no-bad-set"])
    def test_each_step_runs_one_hull(self, monkeypatch, bad):
        # X0's corners, the input's corners, then one hull per step: the
        # bad-set questions run none of their own
        hulls = count_calls(monkeypatch, sg, "_hull_3d")
        pipe = self.run(bad, 8)
        assert pipe.status == "horizon"
        assert [s.set_rep.vertices.shape[0] for s in pipe.segments] == [
            8, 26, 62, 116, 186, 274, 382, 502, 644]
        assert hulls == [10]

    def test_a_near_bad_set_gets_the_facet_form_verdict(self, monkeypatch):
        # 1e-7 past the cloud's corner (1.1, 1.1, 1.1) at step 1
        converted = count_calls(monkeypatch, sg, "_hform_enclosure")
        pipe = self.run(Box(np.full(3, 1.1 + 1e-7), np.full(3, 6.0)), 1)
        assert pipe.status == "horizon"
        assert [s.set_rep.vertices.shape[0] for s in pipe.segments] == [8, 26]
        assert converted == [2]
        # and the corner itself is reached
        assert self.run(Box(np.full(3, 1.1), np.full(3, 6.0)), 1).status == "bad_reached"


class TestCounters:
    def test_far_bad_set_needs_no_lp(self, monkeypatch):
        rng = np.random.default_rng(404)
        q, r = np.linalg.qr(rng.normal(size=(4, 4)))
        a = 0.9 * q * np.sign(np.diag(r))
        lo, hi = np.full(4, -30.0), np.full(4, 30.0)
        lo[0] = 20.0
        system = LinearSystem(a, Box(np.full(4, -0.1), np.full(4, 0.1)),
                              input_set=Box(np.full(4, -0.05), np.full(4, 0.05)))
        solves = count_calls(monkeypatch, numkernel, "_phase_one")
        # the names setgeom solves through: no solve of any kind runs
        lp_calls = count_calls(monkeypatch, sg, "lp_max")
        starts = count_calls(monkeypatch, sg, "_LpStart")
        pipe = reach(system, ReachConfig(horizon=1000, mode="bad_set", bad_set=Box(lo, hi)))
        assert pipe.status == "horizon" and len(pipe.segments) == 1001
        assert solves == [0] and lp_calls == [0] and starts == [0]


    def test_thermostat_solves_no_lp(self, monkeypatch):
        # a 1-d automaton: every set question stacks axis rows, so the
        # corners decide each one, and hull_union reads the guard pieces it
        # merges from their axis rows
        heat = Mode("heat", [[-0.4]], b=[[0.4]], input_set=Box([30.0], [30.0]),
                    invariant=Box([0.0], [22.0]))
        cool = Mode("cool", [[-0.4]], b=[[0.4]], input_set=Box([10.0], [10.0]),
                    invariant=Box([18.0], [40.0]))
        automaton = HybridAutomaton((heat, cool), (
            Transition("heat", "cool", guard=Box([21.5], [40.0])),
            Transition("cool", "heat", guard=Box([0.0], [18.5]))))
        solves = count_calls(monkeypatch, numkernel, "_phase_one")
        empties = count_calls(monkeypatch, sg, "is_empty")
        hulls = count_calls(monkeypatch, hybridreach, "hull_union")
        pipe = hybrid_reach(automaton, "heat", Box([19.5], [20.5]),
                            ReachConfig(horizon=2.0, step=0.01, mode="bad_set",
                                        bad_set=Box([25.0], [30.0])))
        assert pipe.status == "completed" and len(pipe.flows) == 3
        assert hulls[0] > 0
        assert solves == [0]
        assert empties == [0]


class TestDistinctCorners:
    def test_flat_axes_add_no_corners(self):
        b = Box(np.zeros(12), np.r_[np.zeros(11), 1.0])
        v = b.to_vpolytope()
        assert v.vertices.tolist() == [[0.0] * 12, [0.0] * 11 + [1.0]]
        assert sg._exact_vform(Box(np.zeros(13), np.r_[np.zeros(12), 1.0])).vertices.shape == (2, 13)
        assert Box([1.0, 2.0], [1.0, 2.0]).corners().tolist() == [[1.0, 2.0]]

    def test_corner_order_of_a_full_box_unchanged(self):
        lo, hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0])
        want = [np.where(np.array(bits, dtype=bool), hi, lo)
                for bits in itertools.product((0, 1), repeat=3)]
        np.testing.assert_array_equal(Box(lo, hi).corners(), want)

    def test_vertex_reach_of_a_flat_box_keeps_two_rows(self):
        x0 = Box(np.zeros(12), np.r_[np.zeros(11), 1.0])
        pipe = reach(LinearSystem(0.5 * np.eye(12), x0),
                     ReachConfig(horizon=2, strategy="vertices"))
        assert [s.set_rep.vertices.shape[0] for s in pipe.segments] == [2, 2, 2]


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` and return a one-element list holding its call
    count."""
    count = [0]
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count
