import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from reachflow import setgeom as sg
from reachflow.setgeom import Box, HPolytope, VPolytope, Zonotope

from oracles import (box_support, exact_chain, fraction_orientation, fraction_turn, gift_wrap_hull,
                     lp_vertex_enum, positively_spans_plane)


def unit_box(n=2):
    return Box(np.zeros(n), np.ones(n))


def diamond():
    return VPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def diamond_h():
    s = 1.0 / np.sqrt(2.0)
    return HPolytope([[s, s], [s, -s], [-s, s], [-s, -s]], [s, s, s, s])


def same_set(a, b, tol=1e-9):
    return sg.contains_set(a, b, tol) and sg.contains_set(b, a, tol)


@st.composite
def dyadic_boxes(draw, n):
    """Boxes whose corners are multiples of 1/8, flat axes included."""
    lo = np.array(draw(st.lists(st.integers(-32, 32), min_size=n, max_size=n))) / 8.0
    wide = np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 8.0
    return Box(lo, lo + wide)


@st.composite
def dyadic_box_pairs(draw):
    """``(q, p)``: dyadic boxes where p's corners lie within 1/2 of q's."""
    n = draw(st.integers(1, 3))
    q = draw(dyadic_boxes(n))
    lo, hi = (corner + np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) / 8.0
              for corner in (q.lower, q.upper))
    return q, Box(lo, np.maximum(lo, hi))


class TestMember:
    def test_box_interior_and_near_boundary(self):
        b = unit_box()
        assert sg.member(b, [0.5, 0.5])
        assert sg.member(b, [1.0, 1.0])
        assert not sg.member(b, [1.0 + 1e-6, 0.0])
        assert sg.member(b, [1.0 + 1e-10, 0.0])  # inside the 1e-9 band

    def test_hpolytope(self):
        h = unit_box().to_hpolytope()
        assert sg.member(h, [0.2, 0.9])
        assert not sg.member(h, [-0.1, 0.5])

    def test_vpolytope_by_lambda_feasibility(self):
        tri = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert sg.member(tri, [0.3, 0.3])
        assert sg.member(tri, [0.5, 0.5])  # on the hypotenuse
        assert not sg.member(tri, [0.6, 0.6])

    def test_zonotope(self):
        z = Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]])  # diamond, radius 2
        assert sg.member(z, [2.0, 0.0])
        assert sg.member(z, [0.0, 2.0])
        assert not sg.member(z, [1.5, 1.5])
        point = Zonotope([1.0, 2.0], [])
        assert sg.member(point, [1.0, 2.0 + 1e-10])
        assert not sg.member(point, [1.0, 2.0 + 1e-6])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sg.member(unit_box(), [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("kind", ["box", "zonotope", "vpolytope", "hpolytope"])
    @pytest.mark.parametrize("offset", [1e-8, 1e-3])
    @pytest.mark.parametrize("tol", [1e-6, 0.1])
    def test_types_agree_on_an_axis_aligned_segment(self, kind, offset, tol):
        # the segment [0, 1] x {0} in each representation, and a point
        # above its middle: inside the band exactly when offset <= tol
        segment = {
            "box": Box([0.0, 0.0], [1.0, 0.0]),
            "zonotope": Zonotope([0.5, 0.0], [[0.5], [0.0]]),
            "vpolytope": VPolytope([[0.0, 0.0], [1.0, 0.0]]),
            "hpolytope": Box([0.0, 0.0], [1.0, 0.0]).to_hpolytope(),
        }[kind]
        assert sg.member(segment, [0.5, offset], tol=tol) == (offset <= tol)
        # at an end the band reaches past it along the segment too
        assert sg.member(segment, [1.0 + 0.5 * tol, 0.0], tol=tol)
        assert not sg.member(segment, [1.0 + 2.0 * tol, 0.0], tol=tol)

    @pytest.mark.parametrize("tol", [1e-6, 0.1])
    def test_band_is_per_facet_or_per_axis_on_a_slanted_facet(self, tol):
        # the diamond |x| + |y| <= 1: its H-form relaxes the unit normal
        # (1, 1)/sqrt(2) by tol, so x + y may reach 1 + sqrt(2) tol; a
        # vertex set or a zonotope takes tol on each axis, up to 1 + 2 tol
        hform = HPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
                          np.ones(4))
        per_axis = [VPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                    Zonotope([0.0, 0.0], [[0.5, 0.5], [0.5, -0.5]])]
        for excess, in_hform, in_per_axis in ((1.2, True, True), (1.8, False, True),
                                              (2.2, False, False)):
            p = [0.5 + 0.5 * excess * tol] * 2  # x + y = 1 + excess tol
            assert sg.member(hform, p, tol=tol) == in_hform
            for s in per_axis:
                assert sg.member(s, p, tol=tol) == in_per_axis


class TestLinearMap:
    def test_rotation_of_square_permutes_corners(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sq = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        img = sg.linear_map(rot, sq)
        assert same_set(img, sq)  # the square is rotation invariant

    def test_doubling_a_box(self):
        img = sg.linear_map(2.0 * np.eye(2), Box([-1.0, -1.0], [1.0, 1.0]))
        assert isinstance(img, Box)
        assert np.allclose(img.lower, [-2.0, -2.0]) and np.allclose(img.upper, [2.0, 2.0])

    def test_vertices_map_pointwise(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        v = VPolytope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        img = sg.linear_map(a, v)
        # each corner's image is a corner of the image, in the image's cycle
        np.testing.assert_array_equal(img.vertices, VPolytope(v.vertices @ a.T).vertices)
        images = (v.vertices @ a.T).tolist()
        assert set(map(tuple, img.vertices.tolist())) == set(map(tuple, images))

    def test_translate_moves_vertices_and_centres(self):
        v = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], exact=False)
        moved = sg.translate(v, [1.0, 2.0])
        assert isinstance(moved, VPolytope) and not moved.exact
        np.testing.assert_array_equal(moved.vertices, v.vertices + [1.0, 2.0])
        z = Zonotope([0.5, 0.5], [[1.0, 0.5], [0.0, 0.25]])
        moved = sg.translate(z, [1.0, 2.0])
        assert isinstance(moved, Zonotope) and moved.exact
        np.testing.assert_array_equal(moved.center, [1.5, 2.5])
        np.testing.assert_array_equal(moved.generators, z.generators)

    def test_singular_map_of_vertices_keeps_distinct_images(self):
        cube = Box([0.0] * 3, [1.0] * 3).to_vpolytope()
        img = sg.linear_map(np.diag([1.0, 0.0, 0.0]), cube)
        assert np.array_equal(img.vertices, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert img.exact
        # images are kept in the order of their first preimage
        swap = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        img = sg.linear_map(swap, VPolytope([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]))
        assert np.array_equal(img.vertices, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_hpolytope_invertible_map_is_exact(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        h = unit_box().to_hpolytope()
        img = sg.linear_map(a, h)
        assert img.exact
        pts = sg.sample_points(unit_box(), 200, rng)
        for p in pts:
            assert sg.member(img, a @ p)
        # support duality: rho_{AS}(d) = rho_S(A^T d)
        for d in sg.default_template(2):
            assert sg.support(img, d)[0] == pytest.approx(
                sg.support(h, a.T @ d)[0], abs=1e-9)

    def test_singular_map_of_hpolytope_is_flagged_superset(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        h = unit_box().to_hpolytope()
        img = sg.linear_map(a, h)
        assert not img.exact
        rng = np.random.default_rng(9)
        for p in sg.sample_points(unit_box(), 200, rng):
            assert sg.member(img, a @ p)

    def test_nonsquare_map_of_box_is_exact_zonotope(self):
        a = np.array([[1.0, 1.0, 0.0]])
        img = sg.linear_map(a, Box([0.0] * 3, [1.0] * 3))
        assert isinstance(img, Zonotope)
        assert sg.support(img, [1.0])[0] == pytest.approx(2.0, abs=1e-12)
        assert -sg.support(img, [-1.0])[0] == pytest.approx(0.0, abs=1e-12)


class TestMinkowskiSum:
    def test_box_box_corner_sums(self):
        s = sg.minkowski_sum(Box([0.0, 0.0], [1.0, 2.0]), Box([-1.0, 1.0], [0.0, 3.0]))
        assert isinstance(s, Box)
        assert np.allclose(s.lower, [-1.0, 1.0]) and np.allclose(s.upper, [1.0, 5.0])

    def test_zonotope_generator_concatenation(self):
        z1 = Zonotope([0.0, 0.0], [[1.0], [0.0]])
        z2 = Zonotope([1.0, 1.0], [[0.0], [1.0]])
        s = sg.minkowski_sum(z1, z2)
        assert isinstance(s, Zonotope)
        assert np.allclose(s.center, [1.0, 1.0])
        assert s.order == 2
        assert repr(s) == "Zonotope(dim=2, order=2)"

    def test_square_plus_diamond_is_octagon(self):
        sq = VPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        s = sg.minkowski_sum(sq, diamond())
        # oracle: all 16 pairwise sums, gift-wrapped
        sums = (sq.vertices[:, None, :] + diamond().vertices[None, :, :]).reshape(-1, 2)
        oracle = gift_wrap_hull(sums)
        assert s.vertices.shape[0] == 8 == oracle.shape[0]
        got = set(map(tuple, np.round(s.vertices, 9)))
        want = set(map(tuple, np.round(oracle, 9)))
        assert got == want

    def test_support_additivity_across_representations(self):
        rng = np.random.default_rng(21)
        z = Zonotope([0.5, -0.5], rng.normal(size=(2, 3)))
        b = Box([-1.0, 0.0], [2.0, 1.0])
        v = VPolytope(rng.normal(size=(5, 2)))
        for s1, s2 in [(z, b), (v, b), (v, z), (b, b), (z, z), (v, v)]:
            s = sg.minkowski_sum(s1, s2)
            if not s.exact:
                continue
            for d in sg.default_template(2):
                lhs = sg.support(s, d)[0]
                rhs = sg.support(s1, d)[0] + sg.support(s2, d)[0]
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_hform_operand_converted_exactly_in_low_dim(self):
        h = unit_box().to_hpolytope()
        s = sg.minkowski_sum(h, Box([0.0, 0.0], [1.0, 1.0]))
        for d in sg.default_template(2):
            assert sg.support(s, d)[0] == pytest.approx(
                box_support([0, 0], [2, 2], d), abs=1e-9)

    def test_flagged_fallback_is_superset(self):
        # 5-d H-polytope cannot be converted exactly: template fallback
        h = Box([0.0] * 5, [1.0] * 5).to_hpolytope()
        z = Zonotope(np.zeros(5), np.eye(5) * 0.1)
        s = sg.minkowski_sum(h, z)
        assert not s.exact
        rng = np.random.default_rng(2)
        pts = sg.sample_points(Box([0.0] * 5, [1.0] * 5), 100, rng)
        dev = sg.sample_points(z, 100, rng)
        for p, q in zip(pts, dev):
            assert sg.member(s, p + q)


class TestIntersect:
    def test_rectangle_overlap_componentwise(self):
        # componentwise max of lower corners, min of upper corners
        a = Box([0.0, 0.0], [2.0, 2.0])
        b = Box([1.0, 1.0], [3.0, 3.0])
        c = sg.intersect(a, b)
        assert isinstance(c, Box)
        assert np.allclose(c.lower, [1.0, 1.0]) and np.allclose(c.upper, [2.0, 2.0])

    def test_disjoint_boxes_give_empty(self):
        # the corners tell them apart: there is no common set
        a, b = Box([0.0], [1.0]), Box([2.0], [3.0])
        assert sg.intersect(a, b) is None and sg.intersect(b, a) is None
        assert not sg.meets(a, b)

    def test_touching_boxes_give_degenerate_box(self):
        c = sg.intersect(Box([0.0], [1.0]), Box([1.0], [2.0]))
        assert isinstance(c, Box)
        assert c.lower[0] == c.upper[0] == 1.0

    def test_hform_concatenation_and_idempotence(self):
        h = diamond_h()
        c = sg.intersect(h, h)
        assert same_set(c, h)

    def test_box_with_halfspace(self):
        halfplane = HPolytope([[1.0, 0.0]], [0.5])
        c = sg.intersect(unit_box(), halfplane)
        assert sg.member(c, [0.4, 0.9])
        assert not sg.member(c, [0.6, 0.5])

    def test_empty_result_detected_by_is_empty(self, monkeypatch):
        # no row bound separates the triangle from the half-plane 2x + y >= 3
        # (a lone row has no equal normal, and neither set is a
        # parallelotope): the LP on the stacked rows finds them disjoint
        tri = HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        half = HPolytope([[-2.0, -1.0]], [-3.0])
        real, verdicts = sg.is_empty, []

        def recorded(s):
            verdicts.append(real(s))
            return verdicts[-1]

        monkeypatch.setattr(sg, "is_empty", recorded)
        assert sg.intersect(tri, half) is None
        assert verdicts == [True]


class TestSupport:
    def test_box_closed_form(self):
        b = Box([-1.0, 2.0], [3.0, 5.0])
        val, wit = sg.support(b, [1.0, 1.0])
        assert val == pytest.approx(8.0, abs=1e-12)
        assert np.allclose(wit, [3.0, 5.0])
        assert val == pytest.approx(box_support(b.lower, b.upper, [1, 1]), abs=1e-12)

    def test_zonotope_closed_form_matches_vertex_scan(self):
        rng = np.random.default_rng(31)
        point = Zonotope([0.3, -0.2], [])
        assert sg.zonotope_vertices_2d(point).tolist() == [[0.3, -0.2]]
        for z in (Zonotope([0.3, -0.2], rng.normal(size=(2, 4))), point):
            verts = sg.zonotope_vertices_2d(z)
            for _ in range(50):
                d = rng.normal(size=2)
                val, wit = sg.support(z, d)
                assert val == pytest.approx(float((verts @ d).max()), abs=1e-9)
                assert val == pytest.approx(float(d @ wit), abs=1e-9)

    def test_hpolytope_by_lp_matches_oracle(self):
        h = diamond_h()
        for d in [[1.0, 0.0], [1.0, 1.0], [-0.3, 0.7]]:
            val, wit = sg.support(h, d)
            oracle = lp_vertex_enum(d, h.normals, h.offsets)
            assert val == pytest.approx(oracle[0], abs=1e-9)
            assert np.all(h.normals @ wit <= h.offsets + 1e-9)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(41)
        sets = [unit_box(), diamond(), diamond_h(),
                Zonotope([0.0, 0.0], rng.normal(size=(2, 3)))]
        for s in sets:
            for _ in range(20):
                d = rng.normal(size=2)
                val, wit = sg.support(s, d)
                assert float(d @ wit) == pytest.approx(val, abs=1e-9)
                assert sg.member(s, wit, tol=1e-7)

    def test_closed_forms_equal_the_batch_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            c, d = rng.normal(size=n), rng.normal(size=n)
            r = rng.uniform(0.0, 2.0, size=n)
            for s in (Box(c - r, c + r),
                      Zonotope(c, rng.normal(size=(n, n + 1))),
                      VPolytope(c + rng.normal(size=(n + 2, n)))):
                val, wit = sg.support(s, d)
                assert val == sg.support_batch(s, d[:, None])[0], (type(s).__name__, n)
                assert float(d @ wit) == pytest.approx(val, abs=1e-9)

    def test_unbounded_direction_reports_infinity(self):
        h = HPolytope([[1.0, 0.0]], [1.0])  # half plane
        val, wit = sg.support(h, [-1.0, 0.0])
        assert val == np.inf and wit is None

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            sg.support(unit_box(), [0.0, 0.0])


class TestContainsSet:
    def test_diamond_inside_box(self):
        assert sg.contains_set(Box([-1.0, -1.0], [1.0, 1.0]), diamond())
        assert not sg.contains_set(diamond_h(), Box([-1.0, -1.0], [1.0, 1.0]))

    def test_box_union_sifting(self):
        q = [Box([0.0, 0.0], [1.0, 2.0]), Box([1.0, 0.0], [2.0, 2.0])]
        assert sg.contains_set(q, Box([0.0, 0.0], [2.0, 2.0]))
        assert not sg.contains_set(q, Box([0.0, 0.0], [2.0, 2.0 + 1e-6]))
        # a gap in the cover is found
        q_gap = [Box([0.0, 0.0], [0.9, 2.0]), Box([1.0, 0.0], [2.0, 2.0])]
        assert not sg.contains_set(q_gap, Box([0.0, 0.0], [2.0, 2.0]))

    def test_box_union_honours_tol(self):
        # the members widened by 0.1 cover p; a single member is decided
        # with the same band
        q = [Box([0.0], [1.0]), Box([1.05], [2.0])]
        p = Box([0.0], [2.0])
        assert sg.contains_set(q, p, tol=0.1)
        assert not sg.contains_set(q, p)
        assert sg.contains_set(Box([0.0], [1.95]), p, tol=0.1)

    def test_box_union_widens_a_member_that_does_not_overlap(self):
        assert sg.contains_set([Box([0.0], [1.0])], Box([1.05], [1.06]), tol=0.1)
        assert not sg.contains_set([Box([0.0], [1.0])], Box([1.05], [1.06]))

    @settings(max_examples=300, deadline=None)
    @given(dyadic_box_pairs(), st.integers(0, 8).map(lambda k: k / 16.0))
    def test_one_member_union_answers_as_the_single_set(self, pair, tol):
        # dyadic corners and tolerances: both paths compute exactly
        q, p = pair
        assert sg.contains_set([q], p, tol=tol) == sg.contains_set(q, p, tol=tol)

    def test_union_one_sided_fallback(self):
        q = [diamond_h(), Box([-2.0, -2.0], [2.0, 2.0])]
        assert sg.contains_set(q, Box([-1.0, -1.0], [1.0, 1.0]))  # second member suffices

    def test_vpolytope_target_low_dim(self):
        assert sg.contains_set(diamond(), Box([-0.4, -0.4], [0.4, 0.4]))

    def test_unprovable_target_answers_false(self):
        # a 4-d cross polytope has no exact facet form: a containment it
        # cannot prove is not a containment, alone or in a union
        q = VPolytope(np.vstack([np.eye(4), -np.eye(4)]))
        p = Box([0.0] * 4, [0.1] * 4)
        assert not sg.contains_set(q, p)
        assert sg.contains_set([q, Box([-1.0] * 4, [1.0] * 4)], p)

    def test_empty_hpolytope_is_contained_on_both_paths(self):
        # x <= 0 and x >= 1: the precheck settles every row of the large
        # box, while a row of the unit box goes to the LP
        p = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -1.0, 1.0, 0.0])
        assert sg.is_empty(p)
        assert sg.contains_set(Box([-5.0, -5.0], [5.0, 5.0]), p)
        assert sg.contains_set(Box([0.0, 0.0], [1.0, 1.0]), p)


class TestExactHform:
    def test_exact_forms_keep_the_flag_and_the_set(self):
        cases = [
            unit_box(),
            diamond(),
            Zonotope([0.5, 0.0], [[1.0, 0.5], [0.0, 1.0]], exact=False),
            Zonotope([0.5], [[1.0, 0.5]]),  # an interval
            Zonotope([1.0, 2.0, 3.0], np.zeros((3, 0))),  # a point
        ]
        for s in cases:
            h = sg._exact_hform(s)
            assert isinstance(h, HPolytope)
            assert h.exact == s.exact
            assert same_set(h, s)
        h = diamond_h()
        assert sg._exact_hform(h) is h

    def test_a_planar_zonotope_keeps_a_tiny_generator(self):
        z = Zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 5e-15]])
        assert sg.support_batch(sg._exact_vform(z), np.array([[0.0], [1.0]]))[0] == 5e-15
        assert sg.member(sg._exact_hform(z), [0.0, 5e-15], tol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1e-300, -2.0, 0.5, 3.0])] * 2)
                    | st.tuples(*[st.floats(-4.0, 4.0)] * 2), min_size=1, max_size=8))
    def test_the_walk_steps_as_a_loop_would(self, gens):
        # the reference: one generator step at a time, up one side and down
        # the other; the accumulated walk gives the same points bit for bit
        z = Zonotope([0.3, -0.2], np.array(gens).T)
        g = z.generators.T.copy()
        g[(g[:, 1] < 0) | ((g[:, 1] == 0) & (g[:, 0] < 0))] *= -1.0
        g = g[np.argsort(np.arctan2(g[:, 1], g[:, 0]), kind="stable")]
        pts = [z.center - g.sum(axis=0)]
        for gen in g:
            pts.append(pts[-1] + 2.0 * gen)
        for gen in g:
            pts.append(pts[-1] - 2.0 * gen)
        assert sg.zonotope_vertices_2d(z).tobytes() == VPolytope(pts[:-1]).vertices.tobytes()

    def test_none_without_an_exact_facet_form(self):
        thin = Zonotope(np.zeros(3), np.hstack([0.5 * np.ones((3, 1)), 0.01 * np.eye(3)]))
        assert sg._exact_hform(thin) is None
        assert sg._exact_hform(VPolytope(np.vstack([np.eye(4), -np.eye(4)]))) is None


@st.composite
def hull_clouds(draw, grid):
    """Planar clouds with repeated points and points on the segment
    between two others, 1e-3 off it, or (off the grid) within 1e-14 of it.
    ``grid`` puts the drawn points on a 0.1 grid, where many are exactly
    collinear."""
    k = draw(st.integers(1, 12))
    coords = (st.integers(-60, 60).map(lambda i: i / 10.0) if grid
              else st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False))
    pts = [draw(st.tuples(coords, coords)) for _ in range(k)]
    for _ in range(draw(st.integers(0, 6))):
        a, b = (np.array(pts[draw(st.integers(0, k - 1))]) for _ in range(2))
        off = draw(st.sampled_from([None, 0.0, 1e-3, -1e-3] + ([] if grid else [1e-14, -1e-14])))
        if off is None:
            pts.append(tuple(a))
            continue
        u = b - a
        norm = np.linalg.norm(u)
        perp = np.array([-u[1], u[0]]) / norm if norm > 0.0 else np.zeros(2)
        pts.append(tuple(a + draw(st.sampled_from([0.25, 0.5])) * u + off * perp))
    return np.array(pts)


# a nearly vertical collinear cloud: the point 1e-14 right of the segment
# sorts last, and a 1e-12 pop bound dropped the true end (0, 0)
NEAR_VERTICAL = np.array([[0.0, 0.0], [0.0, -0.1], [1e-14, -0.025]])


def any_hull_clouds():
    return st.booleans().flatmap(lambda grid: hull_clouds(grid=grid))


@st.composite
def repeated_clouds(draw):
    """Point clouds of 1-4 columns on a coarse grid, with repeated rows and
    with 0.0 and -0.0 mixed, so that many rows compare equal."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    grid = st.sampled_from([-1.5, -1.0, 0.0, -0.0, 0.5, 1.0])
    v = np.array(draw(st.lists(grid, min_size=m * n, max_size=m * n))).reshape(m, n)
    return v[draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))]


class TestFirstCopies:
    @settings(max_examples=300, deadline=None)
    @given(repeated_clouds())
    @example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [-0.0, 1.0]]))
    def test_is_numpy_unique_return_index(self, v):
        # the same first copies in the same order as the dedup it replaces
        want = np.unique(v, axis=0, return_index=True)[1]
        got = sg._first_copies(v)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestConvexHull2d:
    """``VPolytope`` thins a planar cloud by the monotone chain on the
    exact orientation test, checked against chains and gift wrapping in
    Fraction arithmetic."""

    def test_collinear_input_keeps_its_two_ends(self):
        hull = VPolytope([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert hull.vertices.tolist() == [[0.0, 0.0], [3.0, 3.0]]

    @settings(max_examples=300, deadline=None)
    @given(hull_clouds(grid=False))
    @example(NEAR_VERTICAL)
    @example(np.array([[0.0, 0.0], [1.0, 1e-13], [2.0, 0.0]]))
    def test_float_chain_is_the_exact_chain_bit_for_bit(self, pts):
        got = VPolytope(pts).vertices
        want = exact_chain(pts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(any_hull_clouds())
    def test_matches_gift_wrap_as_sets(self, pts):
        got = VPolytope(pts).vertices
        assert set(map(tuple, got.tolist())) == set(map(tuple, gift_wrap_hull(pts).tolist()))

    @settings(max_examples=200, deadline=None)
    @given(any_hull_clouds())
    @example(NEAR_VERTICAL)
    def test_every_point_lies_in_the_cycle(self, pts):
        p = VPolytope(pts)
        cycle = p.vertices.tolist()
        assert set(map(tuple, cycle)) <= set(map(tuple, pts.tolist()))
        m = len(cycle)
        if m >= 3:
            # every turn of the cycle is strictly left, and no point lies
            # right of an edge
            assert all(fraction_turn(cycle[i - 2], cycle[i - 1], cycle[i]) > 0 for i in range(m))
            edges = [(cycle[i - 1], cycle[i]) for i in range(m)]
            assert all(fraction_turn(a, b, x) >= 0 for a, b in edges for x in pts.tolist())
        else:
            lo, hi = np.min(p.vertices, axis=0), np.max(p.vertices, axis=0)
            assert all(fraction_turn(cycle[0], cycle[-1], x) == 0 for x in pts.tolist())
            assert np.all((pts >= lo) & (pts <= hi))
        h = sg.vrep_to_hrep(p)
        assert np.all(p.vertices @ h.normals.T <= h.offsets)

    def test_a_near_vertical_collinear_cloud_keeps_its_ends(self):
        total = sg.minkowski_sum(VPolytope(NEAR_VERTICAL), VPolytope([[0.0, 0.0]]))
        assert total.exact
        assert set(map(tuple, total.vertices.tolist())) == set(map(tuple, NEAR_VERTICAL.tolist()))

    def test_interior_and_collinear_points_removed(self):
        pts = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0],
               [1.0, 1.0], [1.0, 0.0], [2.0, 1.0]]
        hull = VPolytope(pts)
        assert hull.vertices.shape[0] == 4
        got = set(map(tuple, hull.vertices))
        assert got == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}

    def test_ccw_orientation(self):
        hull = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]).vertices
        area2 = 0.0
        m = hull.shape[0]
        for i in range(m):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % m]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0  # counterclockwise

    def test_degenerate_inputs(self):
        assert VPolytope([[1.0, 1.0]]).vertices.shape[0] == 1
        assert VPolytope([[1.0, 1.0], [1.0, 1.0]]).vertices.shape[0] == 1
        seg = VPolytope([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        assert seg.vertices.shape[0] == 2

    def test_a_small_triangle_keeps_its_apex(self):
        # exact turns know no scale: a 1e-6 triangle keeps all three
        # corners, also through a Minkowski sum with a point
        tri = [[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-6]]
        assert VPolytope(tri).vertices.shape[0] == 3
        total = sg.minkowski_sum(VPolytope(tri), VPolytope([[0.0, 0.0]]))
        assert total.exact and total.vertices.shape[0] == 3
        assert set(map(tuple, total.vertices)) == set(map(tuple, tri))

    def test_matches_gift_wrap_oracle_on_random_clouds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pts = rng.normal(size=(30, 2))
            mine = VPolytope(pts).vertices
            oracle = gift_wrap_hull(pts)
            assert set(map(tuple, mine.tolist())) == set(map(tuple, oracle.tolist()))


@st.composite
def vertex_clouds(draw):
    """Clouds in 1-3 d: scattered, with repeated vertices, flat (rounding
    thick) or near-flat (1e-12 to 1e-4 thick across a random subspace),
    scaled by 1e-6, 1 or 1e3 and shifted by up to 1e3."""
    n = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    v = np.array(draw(st.lists(st.tuples(*[unit] * n), min_size=1, max_size=10)))
    kind = draw(st.sampled_from(["scattered", "repeated", "flat", "near-flat"]))
    if kind == "repeated":
        v = v[draw(st.lists(st.integers(0, len(v) - 1), min_size=len(v), max_size=3 * len(v)))]
    elif kind != "scattered" and n > 1:
        basis, _ = np.linalg.qr(np.array(draw(st.tuples(*[st.tuples(*[unit] * n)] * n))))
        kept = draw(st.integers(0, n - 1))
        coords = v @ basis
        coords[:, kept:] *= 0.0 if kind == "flat" else draw(st.sampled_from(
            [1e-12, 1e-10, 1e-8, 1e-6, 1e-4]))
        v = coords @ basis.T
    shift = np.array(draw(st.tuples(*[st.floats(-1e3, 1e3)] * n)))
    return draw(st.sampled_from([1e-6, 1.0, 1e3])) * v + shift


@st.composite
def thin_planar_clouds(draw):
    """Planar clouds of 3 to 12 points squeezed to 1e-20 to 1e-6 across a
    direction, or repeating three points but for 1e-20 to 1e-6 of their
    size; scaled by 1e-200, 1 or 1e200."""
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    v = np.array(draw(st.lists(st.tuples(unit, unit), min_size=3, max_size=12)))
    thin = draw(st.sampled_from([1e-20, 1e-16, 1e-13, 1e-11, 1e-9, 1e-6]))
    if draw(st.booleans()):
        angle = draw(st.floats(0.0, np.pi))
        u = np.array([np.cos(angle), np.sin(angle)])
        v = v - np.outer((v @ u) * (1.0 - thin), u)
    else:
        v = v[np.arange(len(v)) % 3] + thin * v
    return draw(st.sampled_from([1e-200, 1.0, 1e200])) * v


class TestConversions:
    def test_square_round_trip(self):
        sq = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        h = sg.vrep_to_hrep(sq)
        back = sg.hrep_to_vrep(h)
        assert same_set(sq, back)
        assert back.vertices.shape[0] == 4
        # a row all but parallel to x <= 1 meets it at no finite point,
        # which the enumeration skips: the square's corners stay
        h = HPolytope(np.vstack([h.normals, [1.0, 1e-310]]), np.append(h.offsets, 2.0))
        assert same_set(sq, sg.hrep_to_vrep(h))

    def test_triangle_has_three_facets(self):
        tri = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        h = sg.vrep_to_hrep(tri)
        assert h.nrows == 3
        rng = np.random.default_rng(8)
        for p in sg.sample_points(tri, 100, rng):
            assert sg.member(h, p, tol=1e-7)

    def test_cube_hrep_to_vrep_has_eight_vertices(self):
        cube = Box([0.0] * 3, [1.0] * 3).to_hpolytope()
        v = sg.hrep_to_vrep(cube)
        assert v.vertices.shape[0] == 8
        got = set(map(tuple, np.round(v.vertices, 9)))
        import itertools
        want = set(itertools.product((0.0, 1.0), repeat=3))
        assert got == want

    def test_tetrahedron_round_trip(self):
        tet = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        h = sg.vrep_to_hrep(tet)
        assert h.nrows == 4
        back = sg.hrep_to_vrep(h)
        assert same_set(tet, back)

    def test_interior_vertices_tolerated(self):
        v = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        h = sg.vrep_to_hrep(v)
        assert h.nrows == 4

    def test_flat_3d_polytope(self):
        flat = VPolytope([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        h = sg.vrep_to_hrep(flat)
        assert sg.member(h, [0.2, 0.2, 0.5])
        assert not sg.member(h, [0.2, 0.2, 0.6])

    def test_1d_interval(self):
        h = sg.vrep_to_hrep(VPolytope([[2.0], [-1.0], [0.5]]))
        v = sg.hrep_to_vrep(h)
        assert set(np.round(v.vertices.ravel(), 9)) == {-1.0, 2.0}

    def test_large_3d_cube_facets_without_overflow(self):
        # offsets of 1e10 on the 1e-9 duplicate grid lie beyond int64
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sg.vrep_to_hrep(VPolytope(1e10 * corners))
        eye = np.eye(3)
        want = {(*row, off) for row, off in zip(np.vstack([eye, -eye]), [1e10] * 3 + [0.0] * 3)}
        assert h.nrows == 6
        assert {(*row, off) for row, off in zip(h.normals, h.offsets)} == want

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(vertex_clouds(), st.integers(0, 2 ** 32 - 1))
    def test_facet_form_holds_its_cloud(self, v, seed):
        p = VPolytope(v)
        h = sg.vrep_to_hrep(p)
        # offsets are maxima over the cloud, taken on the rows the set keeps
        assert np.all(p.vertices @ h.normals.T <= h.offsets)
        assert np.all(np.abs(np.linalg.norm(h.normals, axis=1) - 1.0) <= sg._UNIT_TOL)
        n = v.shape[1]
        sv = np.linalg.svd(v - v.mean(axis=0), compute_uv=False)
        if sv.shape[0] < n or sv[-1] < 1e-3 * sv[0]:
            return
        # a round cloud's form is tight: no direction reaches past the cloud
        size = float(np.abs(v).max())
        dirs = np.random.default_rng(seed).normal(size=(8, n))
        for d in dirs / np.linalg.norm(dirs, axis=1)[:, None]:
            best = lp_vertex_enum(d, h.normals, h.offsets, tol=1e-12 * size)
            assert best is not None
            assert best[0] <= (v @ d).max() + 1e-9 * size

    @pytest.mark.parametrize("v", [
        # the corner 1e-7 off the plane used to miss a row by 2.5e-8
        [[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0], [1000.0, 1000.0, 1e-7]],
        [[0.0, 0.0, 0.0], [1.0, 1e-10, 0.0], [2.0, 0.0, 1e-10]],
        [[0.0, 0.0], [1.0, 1e-13], [2.0, 0.0]],
    ], ids=["flat-square", "near-collinear-3d", "near-collinear-2d"])
    def test_a_flat_cloud_meets_every_row(self, v):
        v = np.array(v)
        h = sg.vrep_to_hrep(VPolytope(v))
        assert np.all(v @ h.normals.T <= h.offsets)

    @pytest.mark.parametrize("v, far", [
        ([[0.0, 0.0], [1e-20, 0.0], [3.0, 3.0]], [100.0, 100.0]),
        ([[0.0, 0.0], [3.75e-247, 0.0], [0.0, 1.0]], [0.0, 100.0]),
        ([[0.0, 0.0, 0.0], [1e-20, 0.0, 0.0], [3.0, 3.0, 0.0], [0.0, 0.0, 1e-20]],
         [100.0, 100.0, 0.0]),
    ], ids=["coinciding-copies-2d", "underflowing-edge-2d", "coinciding-copies-3d"])
    def test_a_sliver_has_a_bounded_form(self, v, far):
        # the hull keeps every corner, but the copy centred and scaled to
        # extent 1 folds two corners into one, or an edge's normal
        # underflows: the form read from it would be a strip along the
        # sliver
        p = VPolytope(v)
        assert p.vertices.shape[0] == len(v)
        h = sg.vrep_to_hrep(p)
        n = p.dim
        assert np.all(np.isfinite(sg.support_batch(h, np.hstack([np.eye(n), -np.eye(n)]))))
        assert not sg.contains_set(p, Box(far, far))

    @settings(max_examples=300, deadline=None)
    @given(thin_planar_clouds())
    def test_a_thin_planar_cloud_has_a_bounded_form(self, v):
        h = sg.vrep_to_hrep(VPolytope(v))
        assert np.all(VPolytope(v).vertices @ h.normals.T <= h.offsets)
        assert positively_spans_plane(h.normals)

    @pytest.mark.parametrize("base, facets", [
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 6),
        ([[2.0, 0.0], [1.0, 2.0], [-1.0, 2.0], [-2.0, 0.0], [-1.0, -2.0], [1.0, -2.0]], 8),
    ], ids=["unit-cube", "hexagonal-prism"])
    def test_one_row_per_facet(self, base, facets):
        # the triangles of one facet lie exactly in one plane: two for a
        # square, four for a hexagon
        v = np.array([[*xy, z] for xy in base for z in (0.0, 1.0)])
        h = sg.vrep_to_hrep(VPolytope(v))
        assert h.nrows == facets
        assert np.all(v @ h.normals.T <= h.offsets)
        assert {(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)} <= set(map(tuple, h.normals.tolist()))

    def test_a_sliver_triangle_gets_finite_supports(self):
        # its edge normals differ in slope by about 1e-11, which the simplex
        # cannot tell apart: the set is flat, and its form bounds it
        h = sg.vrep_to_hrep(VPolytope([[0.2, 0.0], [2.0, 8e-12], [-11.0, 2e-10]]))
        assert all(np.all(np.isfinite(b)) for b in sg.axis_bounds(h))
        assert sg.contains_set(Box([-20.0, -1.0], [20.0, 1.0]), h)

    def test_a_degenerate_octahedron_has_six_vertices(self):
        # four facets meet at each vertex: each of their 3-subsets solves
        # to its own point, a few ulps from the others
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        v = sg.hrep_to_vrep(HPolytope(signs @ q.T, np.ones(8)))
        assert v.vertices.shape == (6, 3)
        # the corners +-e_i of |y|_1 <= 1, mapped by q
        np.testing.assert_allclose(np.abs(v.vertices @ q).max(axis=1), np.ones(6))

    @pytest.mark.parametrize("shift", [0.0, 100.0])
    def test_a_thin_triangle_keeps_its_far_corners(self, shift):
        # (0,0), (1,0), (0.5, 2e-8): every corner meets all three rows
        # within the enumeration band, yet they lie a unit apart
        o = np.array([shift, shift])
        a = np.array([[0.0, -1.0], [-4e-8, 1.0], [4e-8, 1.0]])
        v = sg.hrep_to_vrep(HPolytope(a, a @ o + np.array([0.0, 0.0, 4e-8])))
        np.testing.assert_allclose(sg.support_batch(v, np.array([[1.0, -1.0], [0.0, 0.0]])),
                                   [1.0 + shift, -shift], atol=1e-6)

    def test_a_vertex_an_ulp_band_apart_is_kept(self):
        # the top vertices (+-5e-9, 1) lie 1e-8 apart, inside the row band:
        # the hull must hold both, and the kept point above y <= 1 makes
        # it a superset
        h = HPolytope([[0.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [0.0, -1.0]],
                      [1.0, 1.0 + 5e-9, 1.0 + 5e-9, 0.0])
        v = sg.hrep_to_vrep(h)
        assert not v.exact
        d = np.array([[1e-3, -1e-3], [1.0, 1.0]])
        assert np.all(sg.support_batch(v, d) >= 1.0 + 5e-12)

    def test_a_tiny_cube_converts(self):
        corners = 1e-6 * np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        h = sg.vrep_to_hrep(VPolytope(corners))
        assert h.nrows == 6
        assert np.all(corners @ h.normals.T <= h.offsets)
        assert not sg.member(h, [2e-6, 0.0, 0.0], tol=0.0)

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            sg.hrep_to_vrep(HPolytope([[1.0, 0.0]], [1.0]))

    def test_a_tiny_4d_box_keeps_its_corners(self):
        # above 3-d only exactly repeated rows go: no grid merges corners
        # 1e-10 apart
        box = Box([0.0] * 4, [1e-10] * 4)
        assert box.to_vpolytope().vertices.tobytes() == box.corners().tobytes()

    def test_high_dim_rejected(self):
        with pytest.raises(ValueError):
            sg.hrep_to_vrep(Box([0.0] * 4, [1.0] * 4).to_hpolytope())
        with pytest.raises(ValueError):
            sg.vrep_to_hrep(VPolytope(np.eye(4)))

    def test_random_round_trips_dim2(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = VPolytope(rng.normal(size=(8, 2)))
            h = sg.vrep_to_hrep(v)
            back = sg.hrep_to_vrep(h)
            assert same_set(v, back, tol=1e-7)


@st.composite
def hull3d_clouds(draw):
    """3-d clouds of 4 to 16 points: scattered, on a coarse grid (exact
    coplanar and collinear points, repeats), sums of a mapped cube's
    corners and a small box's (coplanar but for rounding), squeezed to
    1e-12 to 1e-4 across a direction, or flat; scaled by 1e-150 (products
    underflow), 1 or 1e150 (products overflow)."""
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["scattered", "grid", "sums", "squeezed", "flat"]))
    if kind == "grid":
        v = 0.1 * np.array(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                                         min_size=4, max_size=16)), dtype=float)
    elif kind == "sums":
        a = np.array(draw(st.tuples(*[st.tuples(*[unit] * 3)] * 3)))
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        v = ((corners @ a.T)[:, None] + 0.1 * corners[None, :2]).reshape(-1, 3)
    else:
        v = np.array(draw(st.lists(st.tuples(*[unit] * 3), min_size=4, max_size=16)))
        if kind != "scattered":
            u = np.array(draw(st.tuples(*[unit] * 3)))
            assume(np.linalg.norm(u) > 0.1)
            u /= np.linalg.norm(u)
            keep = 0.0 if kind == "flat" else draw(st.sampled_from([1e-12, 1e-8, 1e-4]))
            v = v - np.outer((v @ u) * (1.0 - keep), u)
    return draw(st.sampled_from([1e-150, 1.0, 1e150])) * v


@st.composite
def grid_clouds_3d(draw):
    """3-d clouds of 5 to 16 points on the integer grid [-2, 2]^3, where
    many lie exactly in one plane or on one line; a third of them rotated,
    which leaves them coplanar but for rounding."""
    v = np.array(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=5, max_size=16)),
                 dtype=float)
    if draw(st.integers(0, 2)) == 0:
        q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 99))).normal(size=(3, 3)))
        v = v @ q.T
    return v


class TestHull3d:
    """``VPolytope`` thins a 3-d cloud by ``_hull_3d`` on the exact
    orientation test, checked in Fraction arithmetic: the triangles it
    keeps close up into one consistently oriented surface, no input point
    lies above any of them, its vertices are input points, and each
    vertex meets every row of its facet form with zero tolerance."""

    @staticmethod
    def check(v):
        p = VPolytope(v)
        kept, faces = p.vertices, p.faces
        assert set(map(tuple, kept.tolist())) <= set(map(tuple, v.tolist()))
        h = sg.vrep_to_hrep(p)
        assert np.all(kept @ h.normals.T <= h.offsets)
        if faces is None:
            # a flat cloud, or one that rounding cannot tell from a line
            centered = v - v.mean(axis=0)
            extent = np.abs(centered).max()
            sv = np.linalg.svd(centered / extent, compute_uv=False) if extent else np.zeros(3)
            assert sv[-1] <= 1e-9 * sv[0]
            return
        # the triangles' corners, each kept once, in the order given
        np.testing.assert_array_equal(np.unique(faces), np.arange(kept.shape[0]))
        rows = iter(v.tolist())
        assert all(any(x == y for y in rows) for x in kept.tolist())
        edges = [(t[i], t[(i + 1) % 3]) for t in faces.tolist() for i in range(3)]
        assert len(set(edges)) == len(edges)
        assert all((w, u) in set(edges) for u, w in edges)
        for t in faces:
            assert all(fraction_orientation(*kept[t], x) <= 0 for x in v)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hull3d_clouds())
    def test_no_point_lies_above_the_hull(self, v):
        self.check(v)

    @settings(max_examples=100, deadline=None)
    @given(grid_clouds_3d())
    def test_every_corner_is_a_vertex(self, v):
        # a corner is a vertex when it lies outside the hull of the other
        # corners: strictly above one of its triangles, in Fraction
        # arithmetic
        p = VPolytope(v)
        assume(p.faces is not None)
        for i, x in enumerate(p.vertices):
            rest = np.delete(p.vertices, i, axis=0)
            self.check(rest)
            faces = sg._hull_3d(rest)
            if faces is not None:
                assert any(fraction_orientation(*rest[t], x) > 0 for t in faces)

    def test_a_grid_keeps_its_corners(self):
        grid = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=3)))
        self.check(grid)
        corners = set(itertools.product((0.0, 1.0), repeat=3))
        # no point on the cube's faces or edges, nor its center
        assert set(map(tuple, VPolytope(grid).vertices.tolist())) == corners

    @pytest.mark.parametrize("v", [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.2, 1.0]],
    ], ids=["three-points", "collinear", "coplanar"])
    def test_a_flat_cloud_has_no_hull(self, v):
        v = np.array(v)
        assert sg._hull_3d(v) is None
        p = VPolytope(v)
        assert p.faces is None
        np.testing.assert_array_equal(p.vertices, v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=3, max_size=3),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.sampled_from([0.0, 1e-300, 1e-17, 1e-9, 1.0]),
           st.sampled_from([1e-160, 1.0, 1e150]))
    def test_orientation_is_exact(self, abc, s, t, lift, scale):
        # d in the plane of a, b, c but for rounding, then lifted off it
        abc = np.array(abc)
        normal = np.cross(abc[1] - abc[0], abc[2] - abc[0])
        size = np.linalg.norm(normal)
        a, b, c = scale * abc
        d = a + s * (b - a) + t * (c - a) + (lift * scale / size * normal if size else 0.0)
        want = fraction_orientation(a, b, c, d)
        assert sg._orientation([a, b, c], d) == want
        # the same sign inside a batch, and in its rotations
        batch = np.stack([[a, b, c], [b, c, a], [c, a, b]])
        np.testing.assert_array_equal(sg._orientation(batch, d), [want] * 3)
        np.testing.assert_array_equal(sg._orientation([a, b, c], np.stack([d, a])), [want, 0])

    def test_the_needle_keeps_its_cap(self):
        # the cap's triangle is 1e-8 wide: a cross product rounds it to
        # 1e-16 of the cloud's extent, yet its plane is a facet
        needle = VPolytope([[0.0, 0.0, 0.0], [1e-8, 0.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, -1.0]])
        h = sg.vrep_to_hrep(needle)
        assert np.all(needle.vertices @ h.normals.T <= h.offsets)
        cap = np.flatnonzero(np.all(h.normals == [0.0, 0.0, 1.0], axis=1))
        assert cap.shape == (1,) and h.offsets[cap[0]] == 0.0
        assert not sg.meets(needle, Box([0.0, 0.0, 1e-5], [0.0, 0.0, 1e-5]))


class TestTemplateHull:
    def test_box_with_axis_template_is_tight(self):
        axes = np.vstack([np.eye(2), -np.eye(2)])
        t = sg.template_hull(unit_box(), axes)
        assert same_set(t, unit_box())

    def test_diamond_axis_template_is_strict_superset(self):
        axes = np.vstack([np.eye(2), -np.eye(2)])
        t = sg.template_hull(diamond(), axes)
        assert sg.contains_set(t, diamond())
        assert not sg.contains_set(diamond(), sg.hrep_to_vrep(t))
        assert not t.exact

    def test_diamond_octagonal_template_is_exact(self):
        t = sg.template_hull(diamond(), sg.default_template(2))
        assert same_set(t, diamond())

    def test_unbounded_directions_dropped_zero_directions_rejected(self):
        half_plane = HPolytope([[1.0, 0.0]], [1.0])
        t = sg.template_hull(half_plane, np.vstack([np.eye(2), -np.eye(2)]))
        np.testing.assert_array_equal(t.normals, [[1.0, 0.0]])
        np.testing.assert_array_equal(t.offsets, [1.0])
        with pytest.raises(ValueError, match="nonzero"):
            sg.template_hull(unit_box(), [[1.0, 0.0], [0.0, 0.0]])

    def test_superset_for_random_sets_and_points(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            z = Zonotope(rng.normal(size=2), rng.normal(size=(2, 4)))
            t = sg.template_hull(z, sg.default_template(2))
            for p in sg.sample_points(z, 100, rng):
                assert sg.member(t, p)


class TestBloat:
    def test_zero_bloat_is_identity(self):
        b = unit_box()
        assert sg.bloat(b, 0.0) is b

    def test_box_bloat_exact(self):
        out = sg.bloat(unit_box(), 0.25)
        assert np.allclose(out.lower, [-0.25, -0.25]) and np.allclose(out.upper, [1.25, 1.25])

    def test_zonotope_bloat_appends_axis_generators(self):
        z = Zonotope([0.0, 0.0], [[1.0], [0.0]])
        out = sg.bloat(z, 0.5)
        assert out.order == 3
        assert sg.support(out, [0.0, 1.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_hform_bloat_is_sound_superset(self):
        h = diamond_h()
        out = sg.bloat(h, 0.1)
        assert not out.exact
        rng = np.random.default_rng(37)
        pts = sg.sample_points(diamond(), 1000, rng)
        shift = rng.uniform(-0.1, 0.1, size=pts.shape)
        for p in pts + shift:
            assert sg.member(out, p)

    def test_vpolytope_bloat_exact_in_2d(self):
        out = sg.bloat(diamond(), 0.1)
        for d in sg.default_template(2):
            want = sg.support(diamond(), d)[0] + 0.1 * np.abs(d).sum()
            assert sg.support(out, d)[0] == pytest.approx(want, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sg.bloat(unit_box(), -0.1)


class TestIsEmpty:
    def test_contradictory_halfspaces(self):
        h = HPolytope([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
        assert sg.is_empty(h)

    def test_nonempty(self):
        assert not sg.is_empty(unit_box())
        assert not sg.is_empty(unit_box().to_hpolytope())

    def test_single_point_hform_is_nonempty(self):
        h = HPolytope([[1.0], [-1.0]], [0.5, -0.5])
        assert not sg.is_empty(h)

    def test_flat_parallelotope_with_a_weak_coupling_is_nonempty(self):
        # {x : R x = (1, 2, 0)} holds R^-1 (1, 2, 0) on every row to 1e-17,
        # but phase one ends with an artificial residue above its tolerance
        r = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 1.0], [1e-7, 1.0, 3.0]])
        y = np.array([1.0, 2.0, 0.0])
        h = HPolytope(np.vstack([r, -r]), np.concatenate([y, -y]))
        assert np.all(h.normals @ np.linalg.solve(r, y) <= h.offsets + 1e-15)
        assert not sg.is_empty(h)

    def test_flat_parallelotope_has_supports(self):
        # the set above, once meets has said it touches a box: support,
        # support_batch and bounding_box bound the one point from above
        r = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 1.0], [1e-7, 1.0, 3.0]])
        y = np.array([1.0, 2.0, 0.0])
        h = HPolytope(np.vstack([r, -r]), np.concatenate([y, -y]))
        assert sg.meets(h, Box([0.0, 0.0, -1.0], [1.0, 1.0, 0.0]))
        dirs = np.hstack([np.eye(3), -np.eye(3)])
        values = sg.support_batch(h, dirs)
        for j, d in enumerate(dirs.T):
            with np.errstate(divide="ignore", invalid="ignore"):
                exact = lp_vertex_enum(d, h.normals, h.offsets)[0]
            assert exact - 1e-12 <= values[j] <= exact + 1e-7
            value, witness = sg.support(h, d)
            assert value == values[j]
            assert sg.member(h, witness, tol=1e-8)
        box = sg.bounding_box(h)
        assert np.array_equal(box.upper, values[:3])
        assert np.array_equal(box.lower, -values[3:])

    def test_relaxed_flat_parallelotope_witnesses_lie_inside(self):
        # the set above with its offsets relaxed: phase one calls it
        # feasible, and each witness is the vertex of the solve that gives
        # the value
        r = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 1.0], [1e-7, 1.0, 3.0]])
        y = np.array([1.0, 2.0, 0.0])
        h = HPolytope(np.vstack([r, -r]), np.concatenate([y, -y]))
        relaxed = HPolytope(h.normals, sg._relaxed_offsets(h.offsets))
        for d in np.hstack([np.eye(3), -np.eye(3)]).T:
            value, witness = sg.support(relaxed, d)
            assert sg.member(relaxed, witness, tol=1e-8)
            assert d @ witness == value

    def test_empty_polytope_still_has_no_support(self):
        h = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(ValueError, match="empty polytope"):
            sg.support(h, [1.0])
        with pytest.raises(ValueError, match="empty polytope"):
            sg.support_batch(h, np.eye(1))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 1e-7, -1e-7, 1e-4, 1.0, -1.0]) | st.floats(-2.0, 2.0),
                 min_size=n * n, max_size=n * n),
        st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0]) | st.floats(-3.0, 3.0),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=n, max_size=n))))
    def test_zero_width_parallelotopes_are_nonempty(self, case):
        # {y - w <= R x <= y + w} with some widths w zero holds R^-1 y
        entries, y, w = (np.array(v) for v in case)
        n = y.shape[0]
        r = entries.reshape(n, n) + 3.0 * np.eye(n)
        assume(np.linalg.cond(r) < 1e4)
        h = HPolytope(np.vstack([r, -r]), np.concatenate([y + w, w - y]))
        # the vertex-enumeration oracle finds a point of the facet form
        # (its determinant test meets singular row subsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert lp_vertex_enum(np.zeros(n), h.normals, h.offsets) is not None
        assert not sg.is_empty(h)


class TestDefaultTemplate:
    def test_counts(self):
        assert sg.default_template(2).shape[0] == 2 * 2 + 2 * 2 * 1  # 8 directions
        assert sg.default_template(4).shape[0] == 8 + 2 * 4 * 3      # 32 directions
        assert sg.default_template(5).shape[0] == 10                 # axes only

    def test_unit_norm(self):
        for n in (1, 2, 3, 4, 5):
            d = sg.default_template(n)
            assert np.allclose(np.linalg.norm(d, axis=1), 1.0)


class TestHullUnion:
    def test_vertex_union_exact(self):
        a = VPolytope([[0.0, 0.0], [1.0, 0.0]])
        b = VPolytope([[0.0, 1.0]])
        u = sg.hull_union(a, b)
        assert same_set(u, VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_zonotope_union_covers_both(self):
        rng = np.random.default_rng(43)
        z1 = Zonotope([0.0, 0.0], rng.normal(size=(2, 2)))
        z2 = Zonotope([1.0, 1.0], rng.normal(size=(2, 3)))
        u = sg.hull_union(z1, z2)
        for s in (z1, z2):
            for p in sg.sample_points(s, 200, rng):
                assert sg.member(u, p, tol=1e-7)


class TestHPolytopeArrays:
    def test_empty_rows_leave_caller_arrays_writable(self):
        a, b = np.zeros((0, 2)), np.zeros(0)
        h = HPolytope(a, b)
        assert a.flags.writeable and b.flags.writeable
        assert not h.normals.flags.writeable and not h.offsets.flags.writeable

    def test_writable_unit_rows_are_copied(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        b = np.ones(4)
        h = HPolytope(a, b)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(h.normals, a)
        assert not np.shares_memory(h.offsets, b)

    def test_read_only_unit_rows_are_kept(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        a.flags.writeable = False
        b = np.ones(4)
        h = HPolytope(a, b)
        assert h.normals is a
        assert b.flags.writeable and not np.shares_memory(h.offsets, b)

    def test_rows_whose_squares_overflow_keep_their_bounds(self):
        h = HPolytope([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0], [0.0, -1.0]], [1e200, 1e200, 1.0, 1.0])
        lo, hi = sg.axis_bounds(h)
        assert lo.tolist() == [-1.0, -1.0] and hi.tolist() == [1.0, 1.0]

    def test_read_only_non_unit_rows_are_normalised(self):
        a = np.array([[2.0, 0.0], [0.0, -0.5]])
        a.flags.writeable = False
        h = HPolytope(a, [4.0, 1.0])
        np.testing.assert_allclose(h.normals, [[1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(h.offsets, [2.0, 2.0])
        np.testing.assert_array_equal(a, [[2.0, 0.0], [0.0, -0.5]])

    @pytest.mark.parametrize("normals, offsets, message", [
        ([[1.0, np.nan]], [1.0], "matrix has non-finite entries"),
        ([[1.0, 0.0]], [np.inf], "vector has non-finite entries"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0], "normal count does not match offset count"),
        ([[0.0, 0.0]], [-1.0], "zero normal with negative offset"),
    ])
    def test_public_constructor_rejects(self, normals, offsets, message):
        with pytest.raises(ValueError, match=message):
            HPolytope(normals, offsets)
        # the same with rows that are read-only and unit, which it shares
        a = np.array(normals, dtype=float)
        a.flags.writeable = False
        with pytest.raises(ValueError, match=message):
            HPolytope(a, offsets)

    def test_engine_constructor_rejects_non_finite_offsets(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        a.flags.writeable = False
        h = HPolytope._trusted(a, np.ones(4), exact=False)
        assert h.normals is a and not h.offsets.flags.writeable and not h.exact
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="vector has non-finite entries"):
                HPolytope._trusted(a, np.array([1.0, bad, 1.0, 1.0]), exact=False)

    def test_read_only_view_of_writable_array_is_copied(self):
        base = np.vstack([np.eye(2), -np.eye(2)])
        view = base[:]
        view.flags.writeable = False
        h = HPolytope(view, np.ones(4))
        base[0, 0] = 7.0
        np.testing.assert_array_equal(h.normals[0], [1.0, 0.0])


def _rows(s):
    """Facet rows (normals, offsets) an operand of intersect enters with."""
    h = s.to_hpolytope() if isinstance(s, Box) else s
    return h.normals, h.offsets


def _assert_stacked(c, *parts):
    """c has exactly the rows of the (normals, offsets) parts, in order."""
    want = HPolytope(np.vstack([n for n, _ in parts]), np.concatenate([b for _, b in parts]))
    np.testing.assert_array_equal(c.normals, want.normals)
    np.testing.assert_array_equal(c.offsets, want.offsets)


class TestIntersectAnySet:
    """intersect takes any set: a box by its own facet rows, another set by
    its exact facet form, or else by its bounding box's rows, flagged."""

    others = (Box([0.0, -0.5], [1.0, 0.5]), diamond_h())

    def test_exact_operands_enter_by_their_facet_form(self):
        zono = Zonotope([0.5, 0.0], [[1.0, 0.5], [0.0, 1.0]])
        for s in (zono, diamond()):
            h = sg._exact_hform(s)
            for other in self.others:
                normals, offsets = _rows(other)
                c = sg.intersect(s, other)
                assert isinstance(c, HPolytope) and c.exact
                _assert_stacked(c, (h.normals, h.offsets), (normals, offsets))
                _assert_stacked(sg.intersect(other, s), (normals, offsets), (h.normals, h.offsets))

    def test_flags_carry_over(self):
        zono = Zonotope([0.5, 0.0], [[1.0, 0.5], [0.0, 1.0]], exact=False)
        assert not sg.intersect(zono, unit_box()).exact
        assert not sg.intersect(diamond(), Box([0.0, 0.0], [1.0, 1.0], exact=False)).exact

    def test_no_exact_form_enters_as_bounding_box_rows(self):
        thin = Zonotope(np.zeros(3), np.hstack([0.5 * np.ones((3, 1)), 0.01 * np.eye(3)]))
        lo, hi = sg.axis_bounds(thin)
        eye = np.eye(3)
        box = Box(0.2 * np.ones(3), np.ones(3))
        for other in (box, box.to_hpolytope()):
            c = sg.intersect(thin, other)
            assert isinstance(c, HPolytope) and not c.exact
            _assert_stacked(c, (np.vstack([eye, -eye]), np.concatenate([hi, -lo])), _rows(other))
        # an enclosure of the true intersection
        pts = sg.sample_points(thin, 200, np.random.default_rng(3))
        c = sg.intersect(thin, box)
        for x in pts:
            if sg.member(box, x):
                assert sg.member(c, x)

    def test_two_converted_operands(self):
        zono = Zonotope([0.5, 0.0], [[1.0, 0.5], [0.0, 1.0]])
        c = sg.intersect(zono, diamond())
        a, b = sg._exact_hform(zono), sg._exact_hform(diamond())
        _assert_stacked(c, _rows(a), _rows(b))


class TestExactVform:
    def test_vertex_sets_pass_through(self):
        v = diamond()
        assert sg._exact_vform(v) is v

    def test_box_corners(self):
        b = Box([0.0, 1.0], [2.0, 3.0], exact=False)
        v = sg._exact_vform(b)
        assert not v.exact
        assert set(map(tuple, v.vertices)) == {(0.0, 1.0), (2.0, 1.0), (0.0, 3.0), (2.0, 3.0)}

    def test_planar_zonotope_walk(self):
        z = Zonotope([0.5, 0.0], [[1.0, 0.5, 0.2], [0.0, 1.0, -0.3]])
        v = sg._exact_vform(z)
        assert v.exact and v.vertices.shape[0] == 6
        assert same_set(v, z)

    def test_zonotope_above_the_plane_is_enumerated(self):
        g = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.4], [0.0, -0.5, 1.0]])
        for exact in (True, False):
            v = sg._exact_vform(Zonotope([1.0, 2.0, 3.0], g, exact=exact))
            assert v.exact == exact
            # a parallelepiped: each of the 8 sign patterns is a vertex
            want = np.array([1.0, 2.0, 3.0]) + np.array(
                [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]) @ g.T
            assert sorted(map(tuple, np.round(v.vertices, 12))) == \
                sorted(map(tuple, np.round(want, 12)))

    def test_hpolytope_up_to_three_dimensions(self):
        v = sg._exact_vform(diamond_h())
        assert v.exact and same_set(v, diamond_h())
        cube = Box(-np.ones(3), np.ones(3)).to_hpolytope()
        assert sg._exact_vform(cube).vertices.shape[0] == 8

    def test_none_cases(self):
        assert sg._exact_vform(Box(np.zeros(13), np.ones(13))) is None  # 8192 corners
        many = Zonotope(np.zeros(3), np.random.default_rng(0).normal(size=(3, 13)))
        assert sg._exact_vform(many) is None  # 8192 sign patterns
        assert sg._exact_vform(Box(np.zeros(4), np.ones(4)).to_hpolytope()) is None
        assert sg._exact_vform(HPolytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])) is None

    def test_enclosure_takes_bounding_box_corners(self):
        many = Zonotope(np.zeros(3), np.random.default_rng(0).normal(size=(3, 13)))
        v = sg._vform_enclosure(many)
        assert not v.exact
        np.testing.assert_array_equal(v.vertices, sg.bounding_box(many).corners())
        v = diamond()
        assert sg._vform_enclosure(v) is v


class TestBoundingBoxFlag:
    def test_strict_enclosures_are_inexact(self):
        z = Zonotope([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]])
        for box in (sg.bounding_box(z), z.bounding_box()):
            np.testing.assert_array_equal(box.lower, [-2.0, -2.0])
            np.testing.assert_array_equal(box.upper, [2.0, 2.0])
            assert not box.exact
            assert not sg.contains_set(z, box)
        for s in (diamond_h(), diamond()):
            assert not sg.bounding_box(s).exact

    def test_boxes_equal_to_the_set_keep_its_flag(self):
        assert sg.bounding_box(unit_box()).exact
        assert not sg.bounding_box(Box([0.0], [1.0], exact=False)).exact
        aligned = Zonotope([1.0, 2.0], [[0.5, 0.0, 0.25], [0.0, 1.0, 0.0]])
        box = sg.bounding_box(aligned)
        assert box.exact and same_set(box, aligned)
        assert Zonotope([1.0, 2.0, 3.0], np.zeros((3, 0))).bounding_box().exact
        assert Zonotope([0.5], [[1.0, 0.5]]).bounding_box().exact
        assert not Zonotope([0.5], [[1.0, 0.5]], exact=False).bounding_box().exact


HALF_PLANE = HPolytope([[1.0, 0.0]], [1.0])

# (call, the whole message it raises)
REJECTED = {
    "no vertex": (lambda: VPolytope(np.zeros((0, 2))), "a V-polytope needs at least one vertex"),
    "generator rows": (lambda: Zonotope([0.0, 0.0], [[1.0, 0.0, 0.0]]),
                       "generator rows do not match the center dimension"),
    "direction rows": (lambda: sg.support_batch(unit_box(), np.ones((3, 1))),
                       "direction matrix rows do not match the set dimension"),
    "map columns": (lambda: sg.linear_map(np.eye(3), unit_box()),
                    "map with 3 columns applied to set of dimension 2"),
    "sum dimensions": (lambda: sg.minkowski_sum(unit_box(), unit_box(3)),
                       "minkowski sum of sets with dimensions 2 and 3"),
    "planar walk": (lambda: sg.zonotope_vertices_2d(unit_box(3).to_zonotope()),
                    "zonotope vertex walk is planar only"),
    "template dimension": (lambda: sg.default_template(0), "template needs a positive dimension"),
    "template directions": (lambda: sg.template_hull(unit_box(), np.eye(3)),
                            "template directions do not match the set dimension"),
    "unbounded box": (lambda: sg.bounding_box(HALF_PLANE), "set is unbounded, no bounding box"),
    "hull dimensions": (lambda: sg.hull_union(unit_box(1), unit_box()),
                        "hull of sets with different dimensions"),
    "unbounded interval hull": (lambda: sg.hull_union(HPolytope([[1.0]], [1.0]), unit_box(1)),
                                "hull of unbounded operands is not supported"),
    "unbounded template hull": (lambda: sg.hull_union(HALF_PLANE, unit_box()),
                                "hull of unbounded operands is not supported"),
    "unbounded sum": (lambda: sg.minkowski_sum(HALF_PLANE, HPolytope([[0.0, 1.0]], [1.0])),
                      "minkowski sum of unbounded operands is not supported"),
    # the segment y = x, 0 <= x <= 1: uniform draws from its bounding box
    # land within TOL of it with odds of a few in 1e9
    "sliver samples": (lambda: sg.sample_points(
        HPolytope([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0, 1.0, 0.0]),
        3, np.random.default_rng(0)), "rejection sampling failed (thin polytope)"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_malformed_operands_are_rejected_with_their_message(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class _NotASet:
    dim = 2


UNKNOWN = "unknown set representation _NotASet"

# every operation that dispatches on the set type, and each conversion,
# which takes one type, given an object of none: the message it raises
UNKNOWN_TYPE = {
    "member": (lambda s: sg.member(s, [0.0, 0.0]), UNKNOWN),
    "support_batch": (lambda s: sg.support_batch(s, np.eye(2)), UNKNOWN),
    "translate": (lambda s: sg.translate(s, [0.0, 0.0]), UNKNOWN),
    "linear_map": (lambda s: sg.linear_map(np.eye(2), s), UNKNOWN),
    "is_empty": (sg.is_empty, UNKNOWN),
    "bloat": (lambda s: sg.bloat(s, 0.1), UNKNOWN),
    "sample_points": (lambda s: sg.sample_points(s, 3, np.random.default_rng(0)), UNKNOWN),
    "vrep_to_hrep": (sg.vrep_to_hrep, "vrep_to_hrep expects a VPolytope"),
    "hrep_to_vrep": (sg.hrep_to_vrep, "hrep_to_vrep expects an HPolytope"),
}


@pytest.mark.parametrize("op", UNKNOWN_TYPE)
def test_an_unknown_set_type_is_rejected_by_name(op):
    call, message = UNKNOWN_TYPE[op]
    with pytest.raises(TypeError) as err:
        call(_NotASet())
    assert str(err.value) == message
