"""Set arithmetic the checks need, computed from a set's arrays alone.

Works on set objects and on the set documents of result files, so the
checks read flowpipes without calling back into reachflow's LP-based
geometry (``axis_bounds`` would run lexicographic tie-break LPs).
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-8  # containment slack for exactly computed trajectories


def as_arrays(s):
    """``("h", normals, offsets)`` or ``("v", vertices)`` for a set object or document."""
    if isinstance(s, dict):
        kind = s["type"]
        if kind == "hpolytope":
            return "h", np.asarray(s["normals"], float), np.asarray(s["offsets"], float)
        if kind == "vpolytope":
            return "v", np.asarray(s["vertices"], float)
        if kind == "box":
            return _box_rows(np.asarray(s["lower"], float), np.asarray(s["upper"], float))
        raise ValueError(f"unexpected set type {kind!r} in a result")
    if hasattr(s, "normals"):
        return "h", s.normals, s.offsets
    if hasattr(s, "vertices"):
        return "v", s.vertices
    if hasattr(s, "lower"):
        return _box_rows(s.lower, s.upper)
    raise TypeError(f"unexpected set {type(s).__name__}")


def _box_rows(lo, hi):
    eye = np.eye(lo.shape[0])
    return "h", np.vstack([eye, -eye]), np.concatenate([hi, -lo])


def _vertices(normals, offsets):
    """Vertices of a small bounded H-polytope by enumeration of facet bases."""
    m, n = normals.shape
    pts = []
    for rows in itertools.combinations(range(m), n):
        sub = normals[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, offsets[list(rows)])
        if np.all(normals @ x <= offsets + 1e-9):
            pts.append(x)
    if not pts:
        raise ValueError("H-polytope has no vertex (empty or unbounded)")
    return np.asarray(pts)


def axis_bounds(arrs):
    """Componentwise bounds: from the +-axis rows when every axis has both,
    else from the vertices (only done for the small facet-strategy sets)."""
    if arrs[0] == "v":
        return arrs[1].min(axis=0), arrs[1].max(axis=0)
    _, normals, offsets = arrs
    n = normals.shape[1]
    axis = np.argmax(np.abs(normals), axis=1)
    lead = normals[np.arange(normals.shape[0]), axis]
    on_axis = np.abs(np.abs(lead) - 1.0) < 1e-12
    hi = np.full(n, np.inf)
    lo = np.full(n, np.inf)
    up = on_axis & (lead > 0)
    down = on_axis & (lead < 0)
    np.minimum.at(hi, axis[up], offsets[up])
    np.minimum.at(lo, axis[down], offsets[down])
    if np.all(np.isfinite(hi)) and np.all(np.isfinite(lo)):
        return -lo, hi
    verts = _vertices(normals, offsets)
    return verts.min(axis=0), verts.max(axis=0)


def width(s) -> float:
    """Sum of the bounding-box widths of a set."""
    lo, hi = axis_bounds(as_arrays(s))
    return float(np.sum(hi - lo))


def _hull_2d(points):
    """Counter-clockwise hull vertices (monotone chain)."""
    pts = sorted(map(tuple, np.unique(points, axis=0)))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.asarray(half(pts) + half(pts[::-1]))


def contains(s, pts, tol: float = TOL) -> np.ndarray:
    """Per row of ``pts``: is the point inside the set (within tol)?"""
    arrs = as_arrays(s)
    pts = np.atleast_2d(pts)
    if arrs[0] == "h":
        _, normals, offsets = arrs
        return np.all(normals @ pts.T <= offsets[:, None] + tol, axis=0)
    verts = arrs[1]
    if verts.shape[1] != 2:
        raise ValueError("vertex-form containment is implemented for the plane only")
    hull = _hull_2d(verts)
    edge = np.roll(hull, -1, axis=0) - hull
    rel = pts[:, None, :] - hull[None]
    cross = edge[None, :, 0] * rel[..., 1] - edge[None, :, 1] * rel[..., 0]
    scale = np.linalg.norm(edge, axis=1)[None]
    return np.all(cross >= -tol * scale, axis=1)
