"""Two-dimensional flowpipe pictures as standalone SVG files.

Segments are projected onto a chosen pair of state dimensions and drawn
as filled polygons, one colour per group (mode).  Boxes, zonotopes,
V-polytopes and H-polytopes of dimension <= 3 project exactly; an
H-polytope in higher dimension is projected through a 64-direction
support fan, which yields an outer polygon of the true shadow -- plots
never understate a flowpipe.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .setgeom import (
    Box,
    HPolytope,
    SetRep,
    VPolytope,
    Zonotope,
    hrep_to_vrep,
    support_batch,
    zonotope_vertices_2d,
)

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#17becf", "#8c564b", "#e377c2",
)
FAN_DIRECTIONS = 64


def _check_dims(dims, n: int) -> Tuple[int, int]:
    if len(dims) != 2:
        raise ValueError("exactly two projection dimensions are required")
    i, j = int(dims[0]), int(dims[1])
    if i == j:
        raise ValueError("projection dimensions must differ")
    for d in (i, j):
        if not 0 <= d < n:
            raise ValueError(f"projection dimension {d} out of range for n={n}")
    return i, j


def _fan_polygon(s: HPolytope, i: int, j: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, FAN_DIRECTIONS, endpoint=False)
    dmat = np.zeros((s.dim, FAN_DIRECTIONS))
    dmat[i] = np.cos(theta)
    dmat[j] = np.sin(theta)
    vals = support_batch(s, dmat)
    if not np.all(np.isfinite(vals)):
        raise ValueError("cannot plot an unbounded projection")
    # vertex between consecutive support lines d_k . x = h_k
    pts = np.empty((FAN_DIRECTIONS, 2))
    for k in range(FAN_DIRECTIONS):
        m = (k + 1) % FAN_DIRECTIONS
        rows = np.array(
            [[np.cos(theta[k]), np.sin(theta[k])],
             [np.cos(theta[m]), np.sin(theta[m])]]
        )
        pts[k] = np.linalg.solve(rows, np.array([vals[k], vals[m]]))
    return pts


def projection_polygon(s: SetRep, dims: Sequence[int]) -> np.ndarray:
    """Ordered vertices (rows) of the projection of ``s`` onto two axes."""
    i, j = _check_dims(dims, s.dim)
    if isinstance(s, Box):
        lo = np.array([s.lower[i], s.lower[j]])
        hi = np.array([s.upper[i], s.upper[j]])
        return np.array(
            [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        )
    if isinstance(s, Zonotope):
        flat = Zonotope(s.center[[i, j]], s.generators[[i, j], :], exact=s.exact)
        return zonotope_vertices_2d(flat)
    if isinstance(s, VPolytope):
        return VPolytope(s.vertices[:, [i, j]]).vertices
    if isinstance(s, HPolytope):
        if s.dim <= 3:
            verts = hrep_to_vrep(s).vertices
            return VPolytope(verts[:, [i, j]]).vertices
        return _fan_polygon(s, i, j)
    raise TypeError(f"cannot plot set type {type(s).__name__}")


# canvas size in pixels
WIDTH, HEIGHT = 900, 620


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def plot_segments(
    groups: Iterable[Tuple[Optional[str], Iterable[SetRep]]],
    dims: Sequence[int],
    path=None,
    title: Optional[str] = None,
) -> str:
    """Render groups of sets to an SVG document (returned, and written
    to ``path`` when given).  Each group is (label, sets); labelled
    groups get a legend entry and their own colour.
    """
    groups = [(label, list(sets)) for label, sets in groups]
    polys = [
        [projection_polygon(s, dims) for s in sets] for _, sets in groups
    ]
    all_pts = np.vstack([p for ps in polys for p in ps]) if any(polys) else None
    if all_pts is None or all_pts.size == 0:
        raise ValueError("nothing to plot")
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    margin = 40.0
    scale = min((WIDTH - 2 * margin) / span[0], (HEIGHT - 2 * margin) / span[1])

    def to_px(p):
        x = margin + (p[0] - lo[0]) * scale
        y = HEIGHT - margin - (p[1] - lo[1]) * scale
        return x, y

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
        },
    )
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": str(WIDTH), "height": str(HEIGHT),
        "fill": "white",
    })
    ET.SubElement(svg, "rect", {
        "x": _fmt(margin), "y": _fmt(margin),
        "width": _fmt(WIDTH - 2 * margin), "height": _fmt(HEIGHT - 2 * margin),
        "fill": "none", "stroke": "#888888", "stroke-width": "1",
    })

    for gi, ((label, _), ps) in enumerate(zip(groups, polys)):
        color = PALETTE[gi % len(PALETTE)]
        for poly in ps:
            pts = " ".join(
                f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(p) for p in poly)
            )
            ET.SubElement(svg, "polygon", {
                "points": pts,
                "fill": color,
                "fill-opacity": "0.35",
                "stroke": color,
                "stroke-width": "0.8",
            })

    legend_y = margin + 14.0
    for gi, (label, _) in enumerate(groups):
        if label is None:
            continue
        color = PALETTE[gi % len(PALETTE)]
        ET.SubElement(svg, "rect", {
            "x": _fmt(margin + 8), "y": _fmt(legend_y - 9),
            "width": "11", "height": "11",
            "fill": color, "fill-opacity": "0.6",
        })
        text = ET.SubElement(svg, "text", {
            "x": _fmt(margin + 24), "y": _fmt(legend_y + 1),
            "font-family": "sans-serif", "font-size": "12",
            "fill": "#222222",
        })
        text.text = label
        legend_y += 17.0

    if title:
        t = ET.SubElement(svg, "text", {
            "x": _fmt(WIDTH / 2), "y": _fmt(margin - 12),
            "text-anchor": "middle",
            "font-family": "sans-serif", "font-size": "14",
            "fill": "#222222",
        })
        t.text = title
    for caption, x, y, anchor in (
        (f"x[{int(dims[0])}]", WIDTH / 2, HEIGHT - 10.0, "middle"),
        (f"x[{int(dims[1])}]", 14.0, HEIGHT / 2, "middle"),
    ):
        t = ET.SubElement(svg, "text", {
            "x": _fmt(x), "y": _fmt(y),
            "text-anchor": anchor,
            "font-family": "sans-serif", "font-size": "12",
            "fill": "#555555",
        })
        t.text = caption

    text = ET.tostring(svg, encoding="unicode")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
