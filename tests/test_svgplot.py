"""Exact 2-d projections and SVG rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reachflow.setgeom import (
    Box,
    HPolytope,
    VPolytope,
    Zonotope,
    support,
    zonotope_vertices_2d,
)
from reachflow.svgplot import plot_segments, projection_polygon


def shoelace(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def poly_support(poly: np.ndarray, g: np.ndarray) -> float:
    return float((poly @ g).max())


class TestProjectionPolygon:
    def test_box_projection_corners(self):
        b = Box([0.0, -1.0, 2.0], [1.0, 1.0, 5.0])
        poly = projection_polygon(b, (0, 2))
        assert {tuple(p) for p in poly} == {(0, 2), (1, 2), (1, 5), (0, 5)}

    def test_zonotope_projection_matches_planar_vertices(self):
        z = Zonotope([0.0, 0.0, 1.0], [[1.0, 0.0], [0.5, 1.0], [0.0, 3.0]])
        poly = projection_polygon(z, (0, 1))
        flat = Zonotope([0.0, 0.0], [[1.0, 0.0], [0.5, 1.0]])
        assert np.allclose(poly, zonotope_vertices_2d(flat))

    def test_vpolytope_projection_is_hull(self):
        v = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0],
                       [0.4, 0.4, 3.0]])  # last point projects inside
        poly = projection_polygon(v, (0, 1))
        assert poly.shape[0] == 3
        assert shoelace(poly) == pytest.approx(0.5)

    def test_hpolytope_2d_exact(self):
        h = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [2.0, 0.0, 1.0, 0.0])
        poly = projection_polygon(h, (0, 1))
        assert shoelace(poly) == pytest.approx(2.0)

    def test_hpolytope_3d_projection_exact(self):
        # unit cube cut by x + y + z <= 1.5, projected onto (x, y): even at
        # z = 0 the plane trims the corner triangle x + y > 1.5 (area 1/8)
        normals = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
        offsets = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.5])
        poly = projection_polygon(HPolytope(normals, offsets), (0, 1))
        assert shoelace(poly) == pytest.approx(0.875)

    def test_high_dimensional_fan_is_outer(self):
        rng = np.random.default_rng(3)
        normals = np.vstack([np.eye(5), -np.eye(5), rng.normal(size=(6, 5))])
        radii = np.full(5, 1.0)
        offsets = np.concatenate(
            [radii, radii, 0.8 * np.abs(normals[10:]) @ radii]
        )
        s = HPolytope(normals, offsets)
        poly = projection_polygon(s, (1, 3))
        for _ in range(100):
            g = rng.normal(size=2)
            g /= np.linalg.norm(g)
            lifted = np.zeros(5)
            lifted[1], lifted[3] = g
            true_val = support(s, lifted)[0]
            assert poly_support(poly, g) >= true_val - 1e-7

    def test_fan_touches_its_support_lines(self):
        normals = np.vstack([np.eye(4), -np.eye(4)])
        s = HPolytope(normals, np.ones(8))
        poly = projection_polygon(s, (0, 1))
        for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            g = np.array([np.cos(theta), np.sin(theta)])
            lifted = np.zeros(4)
            lifted[:2] = g
            assert poly_support(poly, g) <= support(s, lifted)[0] + 1e-9

    def test_dims_validation(self):
        b = Box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="differ"):
            projection_polygon(b, (1, 1))
        with pytest.raises(ValueError, match="out of range"):
            projection_polygon(b, (0, 2))
        with pytest.raises(ValueError, match="exactly two"):
            projection_polygon(b, (0, 1, 1))

    def test_unbounded_fan_rejected(self):
        half = HPolytope([[1.0, 0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="^cannot plot an unbounded projection$"):
            projection_polygon(half, (0, 1))

    def test_non_set_rejected_by_type(self):
        class Blob:
            dim = 2

        with pytest.raises(TypeError, match="^cannot plot set type Blob$"):
            projection_polygon(Blob(), (0, 1))


class TestRendering:
    def test_svg_document(self, tmp_path):
        boxes = [Box([float(k), 0.0], [k + 1.0, 1.0]) for k in range(3)]
        path = tmp_path / "pipe.svg"
        text = plot_segments([(None, boxes)], (0, 1), path=path, title="demo")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == 3
        assert "demo" in text
        assert path.read_text().startswith("<svg")

    def test_mode_groups_get_legend_entries(self):
        text = plot_segments(
            [
                ("heat", [Box([0.0, 0.0], [1.0, 1.0])]),
                ("cool", [Box([1.0, 0.0], [2.0, 1.0])]),
            ],
            (0, 1),
        )
        assert "heat" in text and "cool" in text
        root = ET.fromstring(text)
        fills = {
            el.get("fill")
            for el in root.iter()
            if el.tag.endswith("polygon")
        }
        assert len(fills) == 2  # one colour per mode

    def test_nothing_to_plot(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            plot_segments([(None, [])], (0, 1))

    def test_degenerate_extent_is_padded(self):
        # a single point still renders without a zero-size viewport
        text = plot_segments([(None, [Box([1.0, 2.0], [1.0, 2.0])])], (0, 1))
        ET.fromstring(text)
