"""Convex set representations and the geometric operations on them.

Four representations: Box, HPolytope, VPolytope and Zonotope.  All values
are immutable after construction.  Operations that cannot produce an exact
result return a set with ``exact=False``; such results are always
supersets of the true set, never subsets.  No type stands for the empty
set: ``intersect`` returns None for two sets that share no point, and
``meets`` is that test.

Yes/no queries try a closed form before the simplex.  ``intersect(s1,
s2)`` decides two boxes exactly from their corners.  Any other pair
enters as stacked facet rows, and ``intersect`` first says "disjoint"
when a row (n, b) of either lies beyond the other: b < -U(-n), where U
bounds the other's support from its own rows (a box exactly, an H-polytope
by a row with the same normal or, for a parallelotope, by one n x n
solve).  Stacked rows that are all axis rows bound a box, and its corners
say "not disjoint" when they meet on every axis; otherwise the LP of
``is_empty`` on the stacked rows decides, and it says "empty" only with a
Farkas certificate, checked in exact arithmetic, that the rows relaxed by
TOL have no point.  ``contains_set`` skips the LP
for a row of the outer set that such a bound of an inner H-polytope
already satisfies.  Both prechecks demand a margin of ``_PRECHECK_MARGIN``
relative to the magnitudes involved, a thousand times the simplex's
FEAS_TOL, so rounding cannot flip an answer.  The supports of an
H-polytope share one phase one of the simplex: ``support`` and
``support_batch`` keep its start on the set, nothing else reads it, and
each yes/no question solves from a start of its own.

A vertex set is its exact hull: ``VPolytope`` thins every point list it
is given, once, to the vertices of its hull, on orientation tests that
are exact on the floats as given (a monotone chain in 2-d, Quickhull in
3-d, which also keeps its triangles).  It converts to facets one way,
``vrep_to_hrep``: the normals are read from that hull, one per edge in
2-d and one per facet in 3-d, the facets told apart by the same exact
test, and each offset is the cloud's maximum along its unit normal, so the
facet form holds every vertex by construction.  Of the facts about a
vertex set only flatness rests on a bound: a set is flat when a singular
value of its scaled copy is at most the simplex's FEAS_TOL, which could
not tell the facet rows of a thinner set apart.

A run asks these questions of a few fixed sets (a bad set, guards,
invariants, a domain) at every step.  The drivers hold each as a
``_Prepared`` operand, which builds its facet rows once and keeps what
the other operand's normals alone decide, so a step over a shared
template costs arithmetic on the segment's offsets.  Asked about a block
of segments at once (``first_meeting``), it takes the prechecks of the
whole block in a few stacked array operations.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .numkernel import (FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, _LpStart, as_matrix,
                        as_vector, lp_max)

TOL = 1e-9
# a row whose norm is this close to 1 counts as unit: rounding after a
# normalisation leaves a few ulps, far below TOL
_UNIT_TOL = 1e-12
# a row of norm at most this is degenerate: the constructor drops it
_DEGENERATE_NORM = 1e-14
# entries below this in magnitude square, and sum in any row of fewer than
# 1e8 entries, without overflow
_SQUARES_FIT = 1e150


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a.  A row whose squares overflow
    (entries above about 1e154) is divided by its largest entry first;
    every other row's norm is ``np.linalg.norm``'s, bit for bit."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
    big = np.isinf(norms)
    if big.any():
        scale = np.abs(a[big]).max(axis=1)
        norms[big] = scale * np.linalg.norm(a[big] / scale[:, None], axis=1)
    return norms


def _is_frozen(a: np.ndarray) -> bool:
    """True when neither ``a`` nor the array it views can be written."""
    base = a.base
    return not a.flags.writeable and not (
        isinstance(base, np.ndarray) and base.flags.writeable
    )


class Box:
    """Axis-aligned box given by its lower and upper corner."""

    __slots__ = ("lower", "upper", "exact", "_halves")

    def __init__(self, lower, upper, exact: bool = True):
        self.lower = _freeze(as_vector(lower).copy())
        self.upper = _freeze(as_vector(upper).copy())
        if self.lower.shape != self.upper.shape:
            raise ValueError("box corners have different dimensions")
        if np.any(self.lower > self.upper):
            raise ValueError("box lower corner exceeds upper corner; "
                             "use intersect for possibly-empty results")
        self.exact = exact
        self._halves = None

    def _center_radii(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The centre, None for a box centred at the origin, and the radii,
        read-only and computed once: what every closed-form support of the
        box reads."""
        if self._halves is None:
            center = _freeze(self.center)
            self._halves = (center if center.any() else None, _freeze(self.radii))
        return self._halves

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radii(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    def corners(self) -> np.ndarray:
        """The 2^w distinct corner points, one per row, for w axes of
        nonzero width; in 2^n order when no axis is flat."""
        wide = np.flatnonzero(self.lower < self.upper)
        out = np.tile(self.lower, (2 ** wide.shape[0], 1))
        for i, bits in enumerate(itertools.product((0, 1), repeat=wide.shape[0])):
            out[i, wide] = np.where(np.asarray(bits, dtype=bool), self.upper[wide], self.lower[wide])
        return out

    def to_hpolytope(self) -> "HPolytope":
        return HPolytope(*_box_rows(self), exact=self.exact)

    def to_zonotope(self) -> "Zonotope":
        return Zonotope(self.center, np.diag(self.radii), exact=self.exact)

    def to_vpolytope(self) -> "VPolytope":
        """The corners as a vertex set, thinned as ``VPolytope`` thins: a
        counterclockwise cycle in 2-d, 2^n order in 3-d."""
        return VPolytope(self.corners(), exact=self.exact)

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class HPolytope:
    """Intersection of half-spaces a_i . x <= b_i with unit normals.

    Normals that are already read-only with unit rows are kept as given,
    so sets built over one shared template share one normals buffer.
    The caller's arrays are never frozen: writable input is copied.  The
    set's own arrays are read-only, so ``support`` and ``support_batch``
    keep the simplex start their first LP builds: phase one and the pivot
    paths taken from it, within the start budget.  Nothing else reads it:
    the yes/no questions (``is_empty``, ``intersect``, ``contains_set``)
    each solve from a start of their own that they do not keep.
    """

    __slots__ = ("normals", "offsets", "exact", "_start")

    def __init__(self, normals, offsets, exact: bool = True):
        a = as_matrix(normals)
        b = as_vector(offsets)
        if a.shape[0] != b.shape[0]:
            raise ValueError("normal count does not match offset count")
        norms = _row_norms(a)
        if _is_frozen(a) and np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
            self.normals = a
            self.offsets = b if _is_frozen(b) else _freeze(b.copy())
        else:
            degenerate = norms <= _DEGENERATE_NORM
            if np.any(degenerate):
                if np.any(b[degenerate] < -TOL):
                    raise ValueError("zero normal with negative offset (trivially empty)")
                a, b, norms = a[~degenerate], b[~degenerate], norms[~degenerate]
            self.normals = _freeze(a / norms[:, None])
            self.offsets = _freeze(b / norms)
        self.exact = exact
        self._start = None

    @classmethod
    def _trusted(cls, normals: np.ndarray, offsets: np.ndarray, exact: bool) -> "HPolytope":
        """An H-polytope over rows the engine built: ``normals`` read-only
        with unit rows, shared as given, and ``offsets`` a fresh vector of
        matching length that the set takes over.  Only the offsets are
        checked, for finiteness, so an overflow raises what the public
        constructor raises."""
        h = object.__new__(cls)
        h.normals = normals
        h.offsets = _freeze(as_vector(offsets))
        h.exact = exact
        h._start = None
        return h

    def _lp_start(self) -> _LpStart:
        """The simplex start the supports of this set solve from, kept
        until ``_drop_start`` lets go of it.  A start whose phase-one
        tableau alone is over the start budget is not kept: each call builds
        its own, so no set holds more than that."""
        if self._start is not None:
            return self._start
        start = _LpStart(self.normals, self.offsets)
        if start.within_budget:
            self._start = start
        return start

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def nrows(self) -> int:
        return self.normals.shape[0]

    def __repr__(self):
        return f"HPolytope({self.nrows} halfspaces, dim={self.dim})"


def _drop_start(s: SetRep) -> None:
    """Drop the simplex start an H-polytope's supports kept, for a set that
    outlives the LPs the start served: a start holds up to its byte budget
    of tableaux.  The stepping core calls it on its initial set when a run
    ends."""
    if isinstance(s, HPolytope):
        s._start = None


class VPolytope:
    """Convex hull of a finite point list, thinned to the hull once, here.

    ``vertices`` keeps the points the hull needs (``_hull``): an interval's
    ends in 1-d, the counterclockwise cycle from the lexicographically
    least corner in 2-d, and a full 3-d cloud's hull corners in the order
    given, with the hull's triangles as rows of indices into them in
    ``faces`` (None for any other cloud).  A flat 3-d cloud, and any cloud
    above 3-d, only loses exactly repeated rows, keeping the order given.
    """

    __slots__ = ("vertices", "faces", "exact")

    def __init__(self, vertices, exact: bool = True):
        v = as_matrix(vertices)
        if v.shape[0] < 1:
            raise ValueError("a V-polytope needs at least one vertex")
        v, faces = _hull(v)
        self.vertices = _freeze(v)
        self.faces = faces if faces is None else _freeze(faces)
        self.exact = exact

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __repr__(self):
        return f"VPolytope({self.vertices.shape[0]} vertices, dim={self.dim})"


class Zonotope:
    """Centrally symmetric set c + G [-1,1]^p, generators as columns of G."""

    __slots__ = ("center", "generators", "exact")

    def __init__(self, center, generators, exact: bool = True):
        c = as_vector(center)
        g = as_matrix(generators) if np.size(generators) else np.zeros((c.shape[0], 0))
        if g.shape[0] != c.shape[0]:
            raise ValueError("generator rows do not match the center dimension")
        self.center = _freeze(c.copy())
        self.generators = _freeze(g.copy())
        self.exact = exact

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return self.generators.shape[1]

    def bounding_box(self) -> Box:
        """Tight enclosing box, flagged exact only when it is the zonotope
        itself: every generator lies along an axis (points and intervals
        included)."""
        r = np.abs(self.generators).sum(axis=1)
        aligned = bool(np.all(np.count_nonzero(self.generators, axis=0) <= 1))
        return Box(self.center - r, self.center + r, exact=self.exact and aligned)

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, order={self.order})"


SetRep = Box | HPolytope | VPolytope | Zonotope


def _check_dim(s: SetRep, x: np.ndarray, what: str) -> None:
    if s.dim != x.shape[0]:
        raise ValueError(f"{what}: dimension {x.shape[0]} does not match set dimension {s.dim}")


def member(s: SetRep, x, tol: float = TOL) -> bool:
    """Membership test, boundary-inclusive within tol.  A box or an
    H-polytope relaxes each facet row by tol, so along each unit normal.
    A vertex set or a zonotope counts a point within tol of it on each
    axis: it solves an LP whose rows pin the point, each relaxed by tol.
    The two bands agree on axis-aligned facets only; along a slanted unit
    normal the per-axis band reaches further (up to sqrt(dim) tol)."""
    x = as_vector(x)
    _check_dim(s, x, "member")
    if isinstance(s, (Box, HPolytope)):
        return bool(_member_rows(s, tol)(x[None])[0])
    if isinstance(s, VPolytope):
        # feasibility of |sum(l_i v_i) - x| <= tol, sum(l_i) = 1, l >= 0
        v = s.vertices
        m = v.shape[0]
        rows = [v.T, -v.T, np.ones((1, m)), -np.ones((1, m)), -np.eye(m)]
        rhs = np.concatenate([x + tol, tol - x, [1.0], [-1.0], np.zeros(m)])
        res = lp_max(np.zeros(m), np.vstack(rows), rhs)
        return res.status == OPTIMAL
    if isinstance(s, Zonotope):
        g = s.generators
        p = g.shape[1]
        if p == 0:
            return bool(np.all(np.abs(x - s.center) <= tol))
        # feasibility of |c + G xi - x| <= tol, |xi| <= 1
        rows = [g, -g, np.eye(p), -np.eye(p)]
        rhs = np.concatenate([x - s.center + tol, s.center - x + tol, np.ones(p), np.ones(p)])
        res = lp_max(np.zeros(p), np.vstack(rows), rhs)
        return res.status == OPTIMAL
    raise TypeError(f"unknown set representation {type(s).__name__}")


def _member_rows(s: Box | HPolytope | None, tol: float = TOL):
    """Row-wise membership test of a point stack, boundary-inclusive within
    tol; without a set (a mode without an invariant) every row passes."""
    if s is None:
        return lambda xs: np.ones(xs.shape[0], dtype=bool)
    if isinstance(s, Box):
        lo, hi = s.lower - tol, s.upper + tol
        return lambda xs: np.all((xs >= lo) & (xs <= hi), axis=1)
    normals, offsets = s.normals, s.offsets
    return lambda xs: np.all(xs @ normals.T <= offsets + tol, axis=1)


def support(s: SetRep, d) -> tuple[float, np.ndarray | None]:
    """Support value max{d.x : x in s} and a witness point attaining it.

    Returns (inf, None) when s is unbounded in direction d.  The value is
    ``support_batch``'s for the one column d, bit for bit: a closed form
    for boxes, zonotopes and vertex lists, and for H-polytopes the same
    LP.  A vertex list's witness is its first maximizing vertex; an
    H-polytope's is that solve's optimal vertex.
    """
    d = as_vector(d)
    if np.all(d == 0.0):
        raise ValueError("support direction must be nonzero")
    _check_dim(s, d, "support")
    if isinstance(s, HPolytope):
        results = _hpolytope_solves(s, d[:, None], s._lp_start())[1]
        if results is None:
            raise ValueError("support of an empty polytope is undefined")
        (res,) = results
        if res.status == UNBOUNDED:
            return float("inf"), None
        return res.value, res.x
    value = float(support_batch(s, d[:, None])[0])
    if isinstance(s, Box):
        return value, np.where(d > 0.0, s.upper, s.lower)
    if isinstance(s, Zonotope):
        return value, s.center + s.generators @ np.where(d @ s.generators >= 0.0, 1.0, -1.0)
    return value, s.vertices[int(np.argmax(s.vertices @ d))].copy()


def support_batch(s: SetRep, dmat: np.ndarray) -> np.ndarray:
    """Support values for many directions at once (columns of dmat).

    Values only, no witnesses; zero columns yield 0 (the supremum of the
    zero functional over a nonempty set).  An H-polytope keeps the simplex
    start its LPs solve from, as ``support`` does.
    """
    dmat = np.asarray(dmat, dtype=float)
    if dmat.shape[0] != s.dim:
        raise ValueError("direction matrix rows do not match the set dimension")
    if isinstance(s, (Box, Zonotope)):
        even, odd = _even_odd(s, dmat)
        return even if odd is None else odd + even
    if isinstance(s, VPolytope):
        return (s.vertices @ dmat).max(axis=0)
    if isinstance(s, HPolytope):
        out = _hpolytope_supports(s, dmat, s._lp_start())
        if out is None:
            raise ValueError("support of an empty polytope is undefined")
        return out
    raise TypeError(f"unknown set representation {type(s).__name__}")


def _even_odd(s: Box | Zonotope, dmat: np.ndarray, abs_t: np.ndarray | None = None):
    """A box's or zonotope's supports along the columns of ``dmat`` in two
    parts: ``(even, odd)``.

    The even part, ``|d| . r`` for a box and ``sum |G^T d|`` for a
    zonotope, is the same for d and -d; the odd part ``d . c`` only changes
    sign, and is None for a set centered at the origin.  ``abs_t`` is
    ``np.abs(dmat.T)`` when the caller already has it (boxes only).
    """
    if isinstance(s, Box):
        center, radii = s._center_radii()
        even = (np.abs(dmat.T) if abs_t is None else abs_t) @ radii
    else:
        even = np.abs(s.generators.T @ dmat).sum(axis=0)
        center = s.center if s.center.any() else None
    return even, (None if center is None else dmat.T @ center)


def _hpolytope_solves(h: HPolytope, dmat: np.ndarray,
                      start: _LpStart) -> tuple[np.ndarray, list[LpResult] | None]:
    """The nonzero columns of ``dmat`` and the simplex's result for each
    over ``h``, from one phase one: the directions share the constraints.

    Solves from ``start``, a start over ``h``'s rows; the results are None
    only when ``_empty`` proves ``h`` empty by a checked certificate.  On
    a flat set phase one's rounding can say "infeasible" with no such
    proof; then the offsets are relaxed by each of ``_RELAX_WIDTHS`` in
    turn, a superset whose supports still bound those of ``h`` from above,
    until every witness meets the relaxed rows.  A direction that no width
    answers so gets an unbounded result: an upper bound that cannot be
    wrong.  ``h`` was checked when it was built, so only the directions
    are checked here.
    """
    live = np.flatnonzero(np.any(dmat != 0.0, axis=0))
    if live.size == 0:
        return live, []
    objectives = as_matrix(dmat[:, live].T)
    results = start.solve(objectives)
    if results[0].status != INFEASIBLE:
        return live, results
    if _empty(h, start) is not None:
        return live, None
    for width in _RELAX_WIDTHS:
        relaxed = _relaxed_offsets(h.offsets, width)
        slack = relaxed + TOL * (1.0 + np.abs(relaxed))
        results = [res if res.status != INFEASIBLE and (
                       res.x is None or np.all(h.normals @ res.x <= slack)) else None
                   for res in _LpStart(h.normals, relaxed).solve(objectives)]
        if all(res is not None for res in results):
            break
    return live, [LpResult(UNBOUNDED) if res is None else res for res in results]


def _hpolytope_supports(h: HPolytope, dmat: np.ndarray, start: _LpStart) -> np.ndarray | None:
    """Support values of ``h`` along the columns of ``dmat`` (0 on a zero
    column, inf where ``h`` is unbounded), solved from ``start``, or None
    when ``h`` is empty."""
    live, results = _hpolytope_solves(h, dmat, start)
    if results is None:
        return None
    out = np.zeros(dmat.shape[1])
    out[live] = [np.inf if res.status == UNBOUNDED else res.value for res in results]
    return out


# widths, relative to 1 + |b|, that _hpolytope_solves relaxes the offsets
# of a nonempty set by when phase one calls it infeasible, tried in turn: on
# a sliver only TOL wide the simplex's own absolute tolerances can end the
# TOL-wide solve with no start, or at a witness that misses a relaxed row by
# far (a point set read 0.53 along an axis where its point lies at -0.375)
_RELAX_WIDTHS = (TOL, 1e-6)


def _relaxed_offsets(offsets: np.ndarray, width: float = TOL) -> np.ndarray:
    """``offsets`` each relaxed by ``width`` (1 + |b|): the rows of a
    superset, whose witnesses miss the original rows by at most that
    much."""
    return as_vector(offsets + width * (1.0 + np.abs(offsets)))


def translate(s: SetRep, v) -> SetRep:
    """Exact translate s + {v}."""
    v = as_vector(v)
    _check_dim(s, v, "translate")
    if isinstance(s, Box):
        return Box(s.lower + v, s.upper + v, exact=s.exact)
    if isinstance(s, HPolytope):
        return HPolytope(s.normals, s.offsets + s.normals @ v, exact=s.exact)
    if isinstance(s, VPolytope):
        return VPolytope(s.vertices + v, exact=s.exact)
    if isinstance(s, Zonotope):
        return Zonotope(s.center + v, s.generators, exact=s.exact)
    raise TypeError(f"unknown set representation {type(s).__name__}")


def _is_diagonal(a: np.ndarray) -> bool:
    return a.shape[0] == a.shape[1] and np.all(a == np.diag(np.diag(a)))


def linear_map(a, s: SetRep) -> SetRep:
    """Image {A x : x in s}.

    Exact for boxes (as zonotopes), zonotopes, vertex lists, and
    H-polytopes under invertible square maps.  Singular or non-square maps
    of H-polytopes fall back to a template over-approximation.
    """
    a = as_matrix(a)
    if a.shape[1] != s.dim:
        raise ValueError(f"map with {a.shape[1]} columns applied to set of dimension {s.dim}")
    if isinstance(s, Box):
        if _is_diagonal(a):
            lo, hi = a @ s.lower, a @ s.upper
            return Box(np.minimum(lo, hi), np.maximum(lo, hi), exact=s.exact)
        z = s.to_zonotope()
        return Zonotope(a @ z.center, a @ z.generators, exact=s.exact)
    if isinstance(s, Zonotope):
        return Zonotope(a @ s.center, a @ s.generators, exact=s.exact)
    if isinstance(s, VPolytope):
        return VPolytope(s.vertices @ a.T, exact=s.exact)
    if isinstance(s, HPolytope):
        img = _pullback(a, s) if a.shape[0] == a.shape[1] else None
        if img is not None:
            return img
        # singular or non-square: template over-approximation of the image,
        # using rho_{AS}(d) = rho_S(A^T d); a zero pullback direction means
        # the image is flat there, and support_batch gives it support 0
        return _support_template(a.shape[0], lambda dmat: support_batch(s, a.T @ dmat))
    raise TypeError(f"unknown set representation {type(s).__name__}")


def _pullback(a: np.ndarray, h: HPolytope) -> HPolytope | None:
    """Exact image of h under the square map a, or None when a is singular.

    Row a_i of the image is a_i A^{-1} and the offsets carry over; the map
    counts as singular when the solve fails or gives non-finite rows.  The
    rows and offsets are divided once by the rows' norms, the arithmetic of
    the public constructor, bit for bit, and only the offsets are checked
    after; rows it would treat otherwise (a degenerate row, or squares that
    could overflow) go through it.
    """
    try:
        rows = np.linalg.solve(a.T, h.normals.T).T
    except np.linalg.LinAlgError:
        return None
    if np.abs(rows).max(initial=0.0) < _SQUARES_FIT:
        norms = np.linalg.norm(rows, axis=1)
        if norms.min(initial=np.inf) > _DEGENERATE_NORM:
            return HPolytope._trusted(_freeze(rows / norms[:, None]), h.offsets / norms,
                                      exact=h.exact)
    return HPolytope(rows, h.offsets, exact=h.exact) if np.all(np.isfinite(rows)) else None


def minkowski_sum(s1: SetRep, s2: SetRep) -> SetRep:
    """Minkowski sum s1 + s2.

    Exact on box/box, zonotope/zonotope (and box/zonotope), and vertex
    pairs; other combinations are promoted when an exact promotion exists
    and otherwise fall back to a flagged template over-approximation using
    the additivity of support functions.
    """
    if s1.dim != s2.dim:
        raise ValueError(f"minkowski sum of sets with dimensions {s1.dim} and {s2.dim}")
    pair = (s1, s2)
    for x, y in (pair, pair[::-1]):
        if isinstance(x, Box) and isinstance(y, Box):
            return Box(x.lower + y.lower, x.upper + y.upper,
                       exact=x.exact and y.exact)
        if isinstance(x, Zonotope) and isinstance(y, (Zonotope, Box)):
            z = y.to_zonotope() if isinstance(y, Box) else y
            return Zonotope(x.center + z.center,
                            np.hstack([x.generators, z.generators]),
                            exact=x.exact and z.exact)
        if isinstance(x, VPolytope) and isinstance(y, VPolytope):
            sums = (x.vertices[:, None, :] + y.vertices[None, :, :]).reshape(-1, x.dim)
            return VPolytope(sums, exact=x.exact and y.exact)
        if isinstance(x, VPolytope) and isinstance(y, (Box, Zonotope)):
            v = _exact_vform(y)
            if v is not None:
                return minkowski_sum(x, v)
        if isinstance(x, HPolytope):
            v = _exact_vform(x)
            if v is not None:
                return minkowski_sum(v, y)
    # general fallback: support functions add under minkowski sum
    def total(dmat):
        vals = support_batch(s1, dmat) + support_batch(s2, dmat)
        if not np.all(np.isfinite(vals)):
            raise ValueError("minkowski sum of unbounded operands is not supported")
        return vals

    return _support_template(s1.dim, total)


def zonotope_vertices_2d(z: Zonotope) -> np.ndarray:
    """Vertex cycle of a planar zonotope by angular generator walk.

    Every generator is flipped into the upper half-plane by its exact
    signs (y < 0, or y = 0 and x < 0) and walked in angular order; the
    exact chain of ``VPolytope`` drops the repeated and collinear points
    the walk makes.
    """
    if z.dim != 2:
        raise ValueError("zonotope vertex walk is planar only")
    g = z.generators.T.copy()
    if len(g) == 0:
        return z.center[None, :].copy()
    g[(g[:, 1] < 0) | ((g[:, 1] == 0) & (g[:, 0] < 0))] *= -1.0
    g = g[np.argsort(np.arctan2(g[:, 1], g[:, 0]), kind="stable")]
    # walk up one side and mirror down the other, one step after another
    walk = np.cumsum(np.vstack([z.center - g.sum(axis=0), 2.0 * g, -2.0 * g]), axis=0)
    return VPolytope(walk[:-1]).vertices


def intersect(s1: SetRep, s2: SetRep) -> SetRep | None:
    """The common part of s1 and s2, or None when they share no point.

    Two boxes are decided exactly from their corners and share a box.  Any
    other pair gives an H-polytope of the stacked facet rows of both: a
    box by its own, any other set by ``_hform_enclosure`` (its exact facet
    form, or else its bounding box's rows, flagged inexact), so the result
    always contains the true intersection.  A row (n, b) of either operand
    that the other's support bound U places beyond it, b < -U(-n) by
    ``_PRECHECK_MARGIN``, separates the two without the simplex.  When
    every stacked row is an axis row (+-e_i) the common part is a box, and
    corners that meet on every axis give a point on every row: the answer
    is "not disjoint" without the simplex.  Otherwise ``is_empty`` on the
    stacked rows decides; it keeps no start, so the H-polytope returned
    keeps no simplex start.

    This is ``_Prepared(s2).intersect(s1)``; a driver that checks many
    sets against one fixed s2 keeps the ``_Prepared`` operand.
    """
    return _Prepared(s2).intersect(s1)


def is_empty(s: SetRep) -> bool:
    """Emptiness check: True only for an H-polytope whose rows, each offset
    relaxed by TOL, have a Farkas certificate of infeasibility, read from
    phase one (run from a simplex start the set does not keep) and checked
    in exact arithmetic (``_empty``).  Any other set is not empty."""
    if isinstance(s, (Box, VPolytope, Zonotope)):
        return False
    if isinstance(s, HPolytope):
        return _empty(s, _LpStart(s.normals, s.offsets)) is not None
    raise TypeError(f"unknown set representation {type(s).__name__}")


# the certificate is sought among the rows with this many largest
# multipliers, so a check solves at most 2^12 row sets
_CERTIFICATE_ROWS = 12


def _empty(h: HPolytope, start: _LpStart) -> tuple[int, ...] | None:
    """``is_empty(h)``, read from ``start``, a start over h's rows: the rows
    R of a proof that h is empty, in no particular order, or None.

    The proof is that no x meets a . x <= b + TOL on every row of R: the
    weights mu >= 0 on R with sum mu_i a_i = 0, which R fixes up to scale,
    give sum mu_i (b_i + TOL) < 0, exactly (Farkas; Neumaier & Shcherbina,
    Math. Program. 2004).  Phase one's multipliers, when it ends
    infeasible, point to R: the rows with the ``_CERTIFICATE_ROWS``
    largest are tried in sets of n + 1 rows down to one, largest first.
    A set whose rank is one below its size has one null vector up to
    scale, which is zero off the one minimal dependent set it holds: the
    certificate when it is one-signed and the relaxed offsets give it the
    right sign.  Each row enters as integers over its floats' largest
    power-of-two denominator, a positive scale that keeps every sign.
    Without a certificate the answer is "not empty", which every caller
    takes as the conservative one.
    """
    if start.infeasible is None:
        return None
    rows = {i: _integers([*h.normals[i].tolist(), float(h.offsets[i]), TOL]) for i in
            np.argsort(-start.infeasible.farkas, kind="stable")[:_CERTIFICATE_ROWS].tolist()}
    for size in range(h.dim + 1, 0, -1):
        for r in itertools.combinations(rows, size):
            null = _left_null([rows[i][:-2] for i in r])
            if (len(null) == 1 and min(null[0]) * max(null[0]) >= 0 and sum(null[0])
                    * sum(mu * (rows[i][-2] + rows[i][-1]) for mu, i in zip(null[0], r)) < 0):
                return tuple(i for mu, i in zip(null[0], r) if mu)
    return None


def _left_null(rows: list[list[int]]) -> list[list[int]]:
    """Integer vectors spanning {mu : sum_i mu_i rows_i = 0}: Bareiss's
    fraction-free elimination of the rows beside an identity, where each
    division by the last pivot is exact; the identity parts of the rows
    left over once every column has its pivot span the space."""
    k, last = len(rows), 1
    m = [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    for col in range(len(rows[0])):
        pivot = next((r for r in m if r[col]), None)
        if pivot is not None:
            m.remove(pivot)
            m = [[(pivot[col] * x - r[col] * y) // last for x, y in zip(r, pivot)] for r in m]
            last = pivot[col]
    return [r[-k:] for r in m]


# a facet row decides a yes/no query without the simplex only when it
# clears the closed-form bound by this much, relative to one plus the
# magnitudes on both sides (each term's weight times one plus its offset);
# far above the rounding of those sums and the simplex's FEAS_TOL, so the
# exact LP path always gives the same answer
_PRECHECK_MARGIN = 1e-6
# a parallelotope whose normals are worse conditioned than this gets no
# closed-form support bound
_MAX_COND = 1e8


def _box_overlap(b1: Box, b2: Box) -> tuple[np.ndarray, np.ndarray] | None:
    """Corners ``(lower, upper)`` of the box b1 and b2 share, or None when
    an axis separates them; touching boxes share a flat box."""
    lo = np.maximum(b1.lower, b2.lower)
    hi = np.minimum(b1.upper, b2.upper)
    return None if np.any(lo > hi) else (lo, hi)


def _box_rows(b: Box) -> tuple[np.ndarray, np.ndarray]:
    """A box's facet rows ``(normals, offsets)``: +-axes, upper and -lower."""
    eye = np.eye(b.dim)
    return np.vstack([eye, -eye]), np.concatenate([b.upper, -b.lower])


def _clears(gap: np.ndarray, offsets: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Where ``gap`` is negative by the precheck margin, so the sign of the
    exact LP's gap is not in doubt."""
    return gap < -_PRECHECK_MARGIN * (1.0 + np.abs(offsets) + mag)


def _support_bound(s: Box | HPolytope, dmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on the supports of s along the unit columns of dmat,
    taken from s's own facet rows, and the magnitude of the terms summed
    into each bound (inf where the rows give no bound).

    A box answers exactly.  An H-polytope answers by the least offset of a
    row with the same normal and, when it is a parallelotope (rows [P; -P],
    P independent), exactly by one n x n solve.  Only the
    rows an LP over s sees enter, each with a bounded multiplier, so the
    LP's own tolerances move its answer far less than the precheck margin.
    """
    if isinstance(s, Box):
        return (support_batch(s, dmat),
                np.abs(dmat.T) @ (1.0 + np.maximum(np.abs(s.lower), np.abs(s.upper))))
    return _RowBound(s.normals, dmat)(s.offsets)


class _RowBound:
    """What ``_support_bound`` of an H-polytope takes from its normals
    alone, for the unit columns of ``dmat``: the rows equal to a column,
    and, when those leave a column unbounded and the normals are a
    parallelotope [P; -P], the coefficients ``lam`` of each column in the
    rows of P.  Called with the set's offsets, it gives the bounds and
    magnitudes ``_support_bound`` gives; called with a stack of offsets
    over these normals, one set per row, it gives theirs row by row, bit
    for bit."""

    __slots__ = ("width", "rows", "cols", "lam")

    def __init__(self, normals: np.ndarray, dmat: np.ndarray):
        self.width = dmat.shape[1]
        self.rows, self.cols = _equal_rows(normals, dmat.T)
        self.lam = None
        if np.unique(self.cols).shape[0] < self.width and _parallelotopes(normals[None])[0]:
            # d = sum_i lam_i p_i over the rows p_i of P
            self.lam = np.linalg.solve(normals[:normals.shape[1]].T, dmat)

    def __call__(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bound = np.full(offsets.shape[:-1] + (self.width,), np.inf)
        np.minimum.at(bound.T, self.cols, offsets[..., self.rows].T)
        mag = 1.0 + np.abs(bound)
        if self.lam is None:
            return bound, mag
        return _parallelotope_bound(self.lam, offsets, bound, mag)


def _parallelotope_bound(lam: np.ndarray, offsets: np.ndarray, bound: np.ndarray,
                         mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bound, mag)``, taking instead the bound that parallelotope rows
    [P; -P] with ``offsets`` give along each column ``d = lam^T P`` where
    it is tighter, with its magnitude.  Each argument may carry leading
    stack axes; every set's sums run over the rows of P in order."""
    n = lam.shape[-2]
    hi, lo = offsets[..., :n, None], offsets[..., n:, None]
    para = np.where(lam > 0.0, lam * hi, -lam * lo).sum(axis=-2)
    para_mag = (np.abs(lam) * (1.0 + np.maximum(np.abs(hi), np.abs(lo)))).sum(axis=-2)
    tighter = para < bound
    return np.where(tighter, para, bound), np.where(tighter, para_mag, mag)


def _stacked_row_bounds(normals: np.ndarray, offsets: np.ndarray,
                        dmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_RowBound(normals[i], dmat)(offsets[i])`` for each of k sets, each
    over its own rows ``normals`` (k, m, n) with ``offsets`` (k, m), taken
    at once: the rows equal to a column are matched in one weighted sum
    over the stack, and the sets that leave a column unbounded and are
    parallelotopes get one solve over their stack.  LAPACK solves each set
    alone, so every ``lam``, bound and magnitude has the bits ``_RowBound``
    gives that set."""
    k, m, n = normals.shape
    rows, cols = _equal_rows(normals.reshape(-1, n), dmat.T)
    which = rows // m
    bound = np.full((k, dmat.shape[1]), np.inf)
    np.minimum.at(bound, (which, cols), offsets.reshape(-1)[rows])
    mag = 1.0 + np.abs(bound)
    covered = np.zeros(bound.shape, dtype=bool)
    covered[which, cols] = True
    para = ~covered.all(axis=1)
    para[para] = _parallelotopes(normals[para])
    if para.any():
        lam = np.linalg.solve(normals[para, :n].transpose(0, 2, 1), dmat)
        bound[para], mag[para] = _parallelotope_bound(lam, offsets[para], bound[para], mag[para])
    return bound, mag


def _equal_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with a[i] == b[j] exactly, found through one
    weighted sum per row instead of an all-pairs comparison of rows."""
    w = np.sqrt(np.arange(2.0, a.shape[1] + 2.0))
    ka = (np.ascontiguousarray(a) * w).sum(axis=1)
    kb = (np.ascontiguousarray(b) * w).sum(axis=1)
    i, j = np.nonzero(ka[:, None] == kb[None, :])
    same = np.all(a[i] == b[j], axis=1)
    return i[same], j[same]


def _parallelotopes(normals: np.ndarray) -> np.ndarray:
    """Which of the stacked row sets ``normals`` (k, m, n) are a
    well-conditioned parallelotope in the layout [P; -P], compared as
    values (0.0 matches -0.0), so row i pairs with row i + n: one SVD call
    over the stack of those in that layout, which LAPACK runs set by set."""
    k, m, n = normals.shape
    if m != 2 * n:
        return np.zeros(k, dtype=bool)
    out = np.all(normals[:, n:] == -normals[:, :n], axis=(1, 2))
    if out.any():
        sv = np.linalg.svd(normals[out, :n], compute_uv=False)
        out[out] = ~(sv[:, -1] * _MAX_COND <= sv[:, 0])
    return out


def meets(s1: SetRep, s2: SetRep) -> bool:
    """True when s1 and s2 share a point: ``intersect`` decides it, and a
    caller that needs the common part calls ``intersect`` alone."""
    return intersect(s1, s2) is not None


class _Stack:
    """The stacked rows [n1; n2] of ``intersect``, normalised once as the
    ``HPolytope`` constructor would: the read-only unit normals every
    result over these rows shares, the row norms its offsets are divided
    by, and, when every row is an axis row (+-e_i), which rows bound each
    axis from above and from below.  The operands' rows are unit rows, so
    no row is degenerate."""

    __slots__ = ("normals", "norms", "upper", "lower")

    def __init__(self, n1: np.ndarray, n2: np.ndarray):
        a = np.vstack([n1, n2])
        self.norms = _row_norms(a)
        self.normals = _freeze(a / self.norms[:, None])
        self.upper = self.lower = None
        nonzero = self.normals != 0.0
        if np.all(nonzero.sum(axis=1) == 1) and np.all(np.abs(self.normals[nonzero]) == 1.0):
            self.upper = (self.normals == 1.0).T
            self.lower = (self.normals == -1.0).T

    def corners_meet(self, offsets: np.ndarray) -> bool:
        """True when the rows are axis rows and, on every axis, the least
        upper offset is at least the greatest lower bound: then the box's
        lower corner meets every row exactly, so the set is not empty."""
        if self.upper is None:
            return False
        hi = np.where(self.upper, offsets, np.inf).min(axis=1)
        lo = np.where(self.lower, -offsets, -np.inf).max(axis=1)
        return bool(np.all(lo <= hi))


class _Memo:
    """What the questions against a prepared set take from the other
    operand's normals alone, filled as they are asked: the prepared set's
    support bound along the negated normals (``beyond``), the other's row
    bound along the prepared set's negated normals (``facing``) and along
    its normals (``inside``), and the stacked rows (``stack``)."""

    __slots__ = ("normals", "beyond", "facing", "inside", "stack")

    def __init__(self, normals: np.ndarray):
        self.normals = normals
        self.beyond = self.facing = self.inside = self.stack = None


class _Prepared:
    """A set that stays fixed while a run asks many questions of it: a bad
    set, a guard, an invariant or a domain.

    Its facet rows are built once: ``_box_rows`` for a box, else
    ``_hform_enclosure``, whose rows are also ``_exact_hform``'s when that
    form exists (``exact_form``).  What a question takes from the other
    operand's normals alone is kept in a one-entry memo keyed by the
    identity of that read-only buffer, which the memo holds; writable
    normals get no memo.  A flowpipe's segments share one template buffer,
    and the pieces one prepared set clips share one stacked buffer, so
    each step costs only arithmetic on the offsets.  The other operand
    enters by its facet rows whatever its type: a vertex set up to 3-d by
    ``vrep_to_hrep``, read from the hull it keeps.  ``intersect``,
    ``meets`` and ``contains_set`` are these methods on a fresh operand.
    """

    __slots__ = ("set", "op", "rows", "exact_form", "_memo")

    def __init__(self, s: SetRep):
        self.set = s
        if isinstance(s, Box):
            self.op, self.rows, self.exact_form = s, _box_rows(s), True
        else:
            h = _exact_hform(s)
            self.exact_form = h is not None
            # the closed-form support of a zonotope or vertex set is no
            # bound for its facet form as the LP sees it: on a sliver the
            # pivot tolerance admits points well outside the set
            self.op = h if h is not None else _hform_enclosure(s)
            self.rows = self.op.normals, self.op.offsets
        self._memo = None

    def _memo_for(self, normals: np.ndarray) -> _Memo:
        memo = self._memo
        if memo is not None and memo.normals is normals:
            return memo
        memo = _Memo(normals)
        if _is_frozen(normals):
            self._memo = memo
        return memo

    def intersect(self, s1: SetRep) -> SetRep | None:
        """``intersect(s1, s)`` for the prepared set s."""
        s2 = self.set
        if s1.dim != s2.dim:
            raise ValueError(f"intersection of sets with dimensions {s1.dim} and {s2.dim}")
        if isinstance(s1, Box) and isinstance(s2, Box):
            corners = _box_overlap(s1, s2)
            return None if corners is None else Box(*corners, exact=s1.exact and s2.exact)
        n2, b2 = self.rows
        op1 = s1 if isinstance(s1, Box) else _hform_enclosure(s1)
        # a box stacks its facet rows directly rather than build an
        # HPolytope on each call
        n1, b1 = _box_rows(op1) if isinstance(op1, Box) else (op1.normals, op1.offsets)
        memo = self._memo_for(n1)
        if memo.beyond is None:
            memo.beyond = _support_bound(self.op, -n1.T)
        bound, mag = memo.beyond
        if np.any(_clears(b1 + bound, b1, mag)):
            return None
        if isinstance(op1, Box):
            bound, mag = _support_bound(op1, -n2.T)
        else:
            if memo.facing is None:
                memo.facing = _RowBound(n1, -n2.T)
            bound, mag = memo.facing(b1)
        if np.any(_clears(b2 + bound, b2, mag)):
            return None
        if memo.stack is None:
            memo.stack = _Stack(n1, n2)
        stack = memo.stack
        h = HPolytope._trusted(stack.normals, np.concatenate([b1, b2]) / stack.norms,
                               exact=op1.exact and self.op.exact)
        if not stack.corners_meet(h.offsets) and is_empty(h):
            return None
        return h

    def meets(self, s1: SetRep) -> bool:
        """``meets(s1, s)`` for the prepared set s."""
        return self.intersect(s1) is not None

    def first_meeting(self, sets: Sequence[SetRep]) -> int | None:
        """The index of the first of ``sets`` that meets the prepared set
        s, or None when none does: ``meets`` asked of each in turn, with
        the prechecks of ``intersect`` taken for the whole block at once.

        H-polytopes of s's dimension over one shared normals buffer (the
        segments of a lazy pipe) get both prechecks in one vectorised test
        of their stacked offsets against the memo.  The others of one row
        count, each over its own rows (facet segments), get the second in
        one stacked row bound (``_stacked_row_bounds``).  A precheck clears
        a set only on the floats ``intersect`` computes for it alone, so
        every set it clears is one ``intersect`` would call disjoint; the
        rest go through ``intersect`` in order, up to the first that meets.
        """
        cleared = np.zeros(len(sets), dtype=bool)
        shared, own = {}, {}
        for i, s in enumerate(sets):
            if isinstance(s, HPolytope) and s.dim == self.set.dim:
                shared.setdefault(id(s.normals), []).append(i)
        for idx in shared.values():
            if len(idx) == 1:
                own.setdefault(sets[idx[0]].normals.shape, []).extend(idx)
                continue
            offsets = np.stack([sets[i].offsets for i in idx])
            cleared[idx] = self._shared_clears(sets[idx[0]].normals, offsets)
        n2, b2 = self.rows
        for idx in own.values():
            bound, mag = _stacked_row_bounds(np.stack([sets[i].normals for i in idx]),
                                             np.stack([sets[i].offsets for i in idx]), -n2.T)
            cleared[idx] = _clears(b2 + bound, b2, mag).any(axis=1)
        for i in np.flatnonzero(~cleared).tolist():
            if self.meets(sets[i]):
                return i
        return None

    def _shared_clears(self, n1: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Where ``intersect``'s prechecks call H-polytopes over the one
        normals buffer ``n1`` disjoint from s, one set per row of
        ``offsets``, from the memo as ``intersect`` fills it."""
        n2, b2 = self.rows
        memo = self._memo_for(n1)
        if memo.beyond is None:
            memo.beyond = _support_bound(self.op, -n1.T)
        bound, mag = memo.beyond
        if memo.facing is None:
            memo.facing = _RowBound(n1, -n2.T)
        facing, facing_mag = memo.facing(offsets)
        return (_clears(offsets + bound, offsets, mag).any(axis=1)
                | _clears(b2 + facing, b2, facing_mag).any(axis=1))

    def contains(self, p: SetRep, tol: float = TOL) -> bool:
        """``contains_set(s, p, tol)`` for the prepared single set s.  The
        row LPs of one call solve from one start that p does not keep.  A
        set with no exact facet form (a vertex set above 3-d) answers False:
        its enclosure's rows cannot prove that p lies inside it."""
        if not self.exact_form:
            return False
        normals, offsets = self.rows
        if not isinstance(p, HPolytope):
            # one row at a time: stop at the first row p crosses
            return all(support_batch(p, a_row[:, None])[0] <= b_row + tol
                       for a_row, b_row in zip(normals, offsets))
        # a row that p's own rows already bound needs no LP
        memo = self._memo_for(p.normals)
        if memo.inside is None:
            memo.inside = _RowBound(p.normals, normals.T)
        bound, mag = memo.inside(p.offsets)
        open_rows = ~_clears(bound - offsets - tol, offsets, mag)
        if not open_rows.any():
            return True
        start = _LpStart(p.normals, p.offsets)
        # one LP per row, so stop early
        for a_row, b_row in zip(normals[open_rows], offsets[open_rows]):
            value = _hpolytope_supports(p, a_row[:, None], start)
            if value is None:
                return True  # p is empty
            if value[0] > b_row + tol:
                return False
        return True


# Shewchuk's static bounds on the rounding of the float orientation
# determinants, relative to their permanents, with eps = 2^-53: in 3-d, and
# in 2-d relative to |left| + |right|; both are widened by the smallest
# normal float
_ORIENT_ERR = (7.0 + 56.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT2_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_TINY = np.finfo(float).tiny


def _orientation(t, d) -> np.ndarray:
    """Exact signs (-1, 0 or 1) of (d - a) . ((b - a) x (c - a)) for the
    triangles t, rows a, b, c, and the points d: positive where d lies
    above its triangle's plane, from where a, b, c run counterclockwise.
    The triangles (..., 3, 3) and the points (..., 3) broadcast over their
    leading axes.

    The float determinant decides where Shewchuk's static error bound
    (DCG 1997) leaves its sign in no doubt; the bound is widened by the
    smallest normal float, which covers what underflow loses, and an
    overflow leaves the sign in doubt.  A sign in doubt is the exact
    determinant's: each float is an integer over a power of two, so the
    twelve coordinates over their largest denominator are integers, and
    Python's integers, some ten times faster than ``Fraction``, give it.
    """
    t, d = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(d, dtype=float)[..., None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        # the corner axis first, then the coordinate axis
        ad, bd, cd = np.moveaxis(t - d, (-2, -1), (0, 1))
        left, right = bd[[1, 2, 0]] * cd[[2, 0, 1]], bd[[2, 0, 1]] * cd[[1, 2, 0]]
        # (a - d) . ((b - d) x (c - d)), the sign's negative
        det = (ad * (left - right)).sum(axis=0)
        bound = _ORIENT_ERR * (np.abs(ad) * (np.abs(left) + np.abs(right))).sum(axis=0)
    out = np.array(np.where(det < 0.0, 1, -1))
    for i in map(tuple, np.argwhere(~(np.abs(det) > bound + _TINY))):
        p = _integers(np.vstack([t[i], d[i]]).ravel().tolist())
        u, r, e = ([p[j + k] - p[k] for k in range(3)] for j in (3, 6, 9))
        exact = sum(e[k] * (u[k - 2] * r[k - 1] - u[k - 1] * r[k - 2]) for k in range(3))
        out[i] = (exact > 0) - (exact < 0)
    return out


def _integers(values: list[float]) -> list[int]:
    """The floats as integers over their largest denominator, a power of
    two: exact, and their common positive scale keeps every sign."""
    ratios = [x.as_integer_ratio() for x in values]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


def _hull_3d(v: np.ndarray) -> np.ndarray | None:
    """The convex hull of the 3-d points v as triangles: rows of three
    indices into v, counterclockwise seen from outside, so that
    ``_orientation`` puts no point of v above any triangle.  None when no
    point lies off the plane of three far-apart points of v: a flat cloud,
    or one that rounding cannot tell from a line.

    Quickhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) on that exact
    test.  Each triangle holds the points strictly above it, each point in
    one triangle.  The highest point of some triangle replaces every
    triangle it lies on or above with a cone over their boundary, and
    their points go to the first new triangle they lie strictly above; a
    point above none lies in the new hull and is dropped.  A triangle in
    the apex's plane borders the triangles it lies strictly above, and no
    boundary edge lies on a line through the apex, so no cone triangle is
    flat and every corner kept is a vertex of the hull.
    """
    # the float picks read v scaled to extent 1: no square or cube of it
    # over- or underflows
    w = v / (float(np.abs(v).max()) or 1.0)

    def highest(f, pts):  # by the float normal: any point above would do
        return int(pts[np.argmax(np.abs((w[pts] - w[f[0]]) @ np.cross(*(w[f[1:]] - w[f[0]]))))])

    first = int(np.argmin(w[:, 0]))
    far = int(np.argmax(((w - w[first]) ** 2).sum(axis=1)))
    wide = int(np.argmax((np.cross(w[far] - w[first], w - w[first]) ** 2).sum(axis=1)))
    side = _orientation(v[[first, far, wide]], v)
    if not side.any():
        return None
    apex = highest([first, far, wide], np.flatnonzero(side))
    # outward when apex lies below the first triangle; reversed rows flip every triangle
    tri = np.array([(first, far, wide), (far, first, apex), (wide, far, apex),
                    (first, wide, apex)])[:, ::-side[apex]]
    held = {}  # triangle -> the points strictly above it, none empty

    def hand_out(pts, faces):
        above = _orientation(v[faces], v[pts][:, None]) > 0  # points by triangles
        owner = np.where(above.any(axis=1), above.argmax(axis=1), -1)
        held.update((tuple(f), pts[owner == j]) for j, f in enumerate(faces.tolist())
                    if np.any(owner == j))

    hand_out(np.setdiff1d(np.arange(v.shape[0]), tri), tri)
    while held:
        face, pts = held.popitem()
        top = highest(list(face), pts)
        seen = _orientation(v[tri], v[top]) >= 0
        edges = {e for t in tri[seen].tolist() for e in zip(t, t[1:] + t[:1])}
        cone = np.array([(i, j, top) for i, j in sorted(edges) if (j, i) not in edges])
        pts = np.concatenate([pts, *(held.pop(tuple(t), pts[:0]) for t in tri[seen].tolist())])
        tri = np.vstack([tri[~seen], cone])
        hand_out(pts[pts != top], cone)
    return tri


def _hull(v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The points of the cloud v that its convex hull needs, and in full
    3-d the hull's triangles as rows of indices into them (else None): the
    thinning ``VPolytope`` describes."""
    n = v.shape[1]
    if n == 3 and (faces := _hull_3d(v)) is not None:
        corners = np.unique(faces)
        return v[corners], np.searchsorted(corners, faces)
    # each repeated point's first copy, sorted lexicographically up to 2-d
    # (in 1-d the first and the last are the ends), else in the order given
    first = _first_copies(v)
    if n <= 2:
        v = v[first]
        return (v[[0, -1]][:v.shape[0]] if n == 1 else _hull_2d(v)), None
    return v[np.sort(first)], None


def _first_copies(v: np.ndarray) -> np.ndarray:
    """The index of the first copy of each distinct row of v, in the
    lexicographic order of the rows (first column first), rows compared as
    values (0.0 matches -0.0): ``np.unique(v, axis=0, return_index=True)[1]``
    by one stable sort and one comparison of neighbours."""
    order = np.lexsort(v.T[::-1])
    rows = v[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order[new]


def _hull_2d(v: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain on the exact orientation test over the
    distinct planar points v, sorted lexicographically: their corner cycle,
    counterclockwise from the first.  A point leaves the chain unless the
    turn onto it is strictly left, so collinear points leave their two
    ends."""
    if v.shape[0] <= 2:
        return v
    rows = v.tolist()
    cycle = []
    for seq in (rows, rows[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and not _left_turn(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        cycle += chain[:-1]
    return np.array(cycle)


def _left_turn(o: list, a: list, b: list) -> bool:
    """Whether o, a, b turn strictly left, exactly: Shewchuk's 2-d filter
    on Python floats, and where it leaves the sign in doubt the 3-d test
    on the triangle lifted to z = 0 against (o, 1)."""
    left, right = (a[0] - o[0]) * (b[1] - o[1]), (a[1] - o[1]) * (b[0] - o[0])
    if abs(left - right) > _ORIENT2_ERR * (abs(left) + abs(right)) + _TINY:
        return left > right
    return _orientation([[*o, 0.0], [*a, 0.0], [*b, 0.0]], [*o, 1.0]) > 0


def vrep_to_hrep(p: VPolytope) -> HPolytope:
    """Facet form of a vertex polytope, dimensions <= 3, flagged as p is.

    ``_facet_normals`` gives the directions, each made a unit row, and
    every offset is the cloud's maximum along its row, taken after the
    normalisation.  So every vertex meets every row with no tolerance, a
    flat cloud keeps its thickness, and a direction that rounding tilted
    still gives a superset.
    """
    if not isinstance(p, VPolytope):
        raise TypeError("vrep_to_hrep expects a VPolytope")
    if p.dim > 3:
        raise ValueError("exact vertex-to-facet conversion is limited to dimension 3")
    normals = _facet_normals(p)
    normals = _freeze(normals / _row_norms(normals)[:, None])
    return HPolytope._trusted(normals, (p.vertices @ normals.T).max(axis=0), exact=p.exact)


def _facet_normals(p: VPolytope) -> np.ndarray:
    """Outward facet normals of p, in dimension n <= 3, one row of nonzero
    norm each; the offsets are ``vrep_to_hrep``'s.

    They are read from p's own hull, its vertices centred and scaled to
    extent 1.  The set is flat when a singular value of that copy is at
    most FEAS_TOL (1e-9): the simplex cannot tell apart rows whose slopes
    differ by less, so the facet form of a thinner set could read +inf
    supports along it.  A flat set gets +- each direction across its affine
    hull, a singular value above that bound counting as one along it, and
    then the normals of its hull inside that hull, lifted back.  A full set
    gets +-1 in 1-d, the edge normals of its cycle in 2-d and in 3-d one
    normal per facet (``_facets``), the sum of its triangles' normals; an
    edge or facet whose normal rounds to zero gives none.
    """
    v = p.vertices
    n = v.shape[1]
    if n == 1:
        return np.array([[1.0], [-1.0]])
    centered = v - v.mean(axis=0)
    extent = float(np.abs(centered).max())
    pts = centered / extent if extent else centered[:1]
    pts = pts - pts.mean(axis=0)
    # the reduced SVD drops the directions across a copy of fewer than n rows
    _, sv, vt = np.linalg.svd(pts, full_matrices=pts.shape[0] < n)
    rank = int(np.count_nonzero(sv > FEAS_TOL))
    if rank < n or (n == 3 and p.faces is None):
        rank = min(rank, n - 1)
        inside = vt[:rank]
        lifted = [_facet_normals(VPolytope(pts @ inside.T)) @ inside] if rank else []
        return np.vstack([vt[rank:], -vt[rank:], *lifted])
    if n == 2:
        edge = np.roll(pts, -1, axis=0) - pts
        normals = np.column_stack([edge[:, 1], -edge[:, 0]])  # outward for a CCW cycle
    else:
        t = pts[p.faces]
        normals = np.zeros(t.shape[:2])
        np.add.at(normals, _facets(v, p.faces), np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]))
    return normals[_row_norms(normals) > 0.0]


def _facets(v: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The facet of each hull triangle of ``_hull_3d``, labelled by the
    least index of a triangle in it.  Two triangles that share an edge lie
    in one facet when the far corner of one lies exactly in the other's
    plane."""
    tail, head = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    # each edge runs once in each of its two triangles: sorted, they pair up
    e, f = np.argsort(np.minimum(tail, head) * v.shape[0] + np.maximum(tail, head)).reshape(-1, 2).T
    flat = _orientation(v[faces[e // 3]], v[np.roll(faces, 1, axis=1).ravel()[f]]) == 0
    pairs = np.stack([e[flat], f[flat]]) // 3
    a, b = np.hstack([pairs, pairs[::-1]])
    label = np.arange(faces.shape[0])
    while np.any(label[a] != label[b]):
        np.minimum.at(label, a, label[b])
        label = label[label]
    return label


# a candidate vertex is kept when it meets every row within this much
# times max(1, max |b|)
_VERTEX_TOL = 1e-7
# two candidates within this much times max(1, max |b|) of each other in
# every coordinate are one vertex, solved from different rows: the scale
# of the solve's rounding
_SAME_VERTEX = 1e-12


def hrep_to_vrep(p: HPolytope) -> VPolytope:
    """Vertex enumeration of a bounded H-polytope, dimensions <= 3.

    Enumerates all n-subsets of facets, solves each linear system and keeps
    the intersection points that meet every row within ``_VERTEX_TOL``
    times max(1, max |b|): far-apart corners of a thin set meet the same
    rows only within such a band.  A point within ``_SAME_VERTEX`` of a
    kept one, as the n-subsets of the rows through one degenerate vertex
    solve to, counts as that one, so the kept points hold every vertex up
    to the solve's rounding.  The ``VPolytope`` of the kept points thins
    them to their exact hull, a superset of p, flagged inexact when a
    kept point lies outside some row.
    """
    if not isinstance(p, HPolytope):
        raise TypeError("hrep_to_vrep expects an HPolytope")
    n = p.dim
    if n > 3:
        raise ValueError("exact facet-to-vertex conversion is limited to dimension 3")
    eye = np.eye(n)
    # raises on empty input
    if not np.all(np.isfinite(support_batch(p, np.hstack([eye, -eye])))):
        raise ValueError("cannot enumerate the vertices of an unbounded polytope")
    a, b = p.normals, p.offsets
    scale = max(1.0, float(np.abs(b).max()))
    pts = []
    for rows in itertools.combinations(range(a.shape[0]), n):
        try:
            x = np.linalg.solve(a[list(rows)], b[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if (np.all(a @ x <= b + _VERTEX_TOL * scale)
                and all(np.abs(x - q).max() > _SAME_VERTEX * scale for q in pts)):
            pts.append(x)
    if not pts:
        raise ValueError("vertex enumeration found no vertices (empty polytope?)")
    pts = np.asarray(pts)
    return VPolytope(pts, exact=p.exact and bool(np.all(pts @ a.T <= b)))


def default_template(n: int) -> np.ndarray:
    """Default direction template: +-axes, plus all pairwise diagonals
    (e_i +- e_j)/sqrt(2) in dimensions up to 4 (octagonal in the plane)."""
    if n < 1:
        raise ValueError("template needs a positive dimension")
    eye = np.eye(n)
    dirs = [eye, -eye]
    if n <= 4:
        diag = []
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in itertools.product((1.0, -1.0), repeat=2):
                    d = np.zeros(n)
                    d[i], d[j] = si, sj
                    diag.append(d / np.sqrt(2.0))
        if diag:
            dirs.append(np.asarray(diag))
    return np.vstack(dirs)


def _support_template(n: int, values) -> HPolytope:
    """Flagged outer approximation over the default template of dimension n.

    ``values(dmat)`` returns the offsets for the template directions given
    as the columns of ``dmat``; each caller decides there how zero and
    unbounded directions are treated.
    """
    dirs = default_template(n)
    return HPolytope(dirs, values(dirs.T), exact=False)


def template_hull(s: SetRep, directions) -> HPolytope:
    """Support-based outer approximation of s over the given directions.

    Always a superset of s; the result is flagged inexact.  Directions in
    which s is unbounded contribute no constraint.
    """
    dirs = as_matrix(directions)
    if dirs.shape[1] != s.dim:
        raise ValueError("template directions do not match the set dimension")
    if np.any(np.all(dirs == 0.0, axis=1)):
        raise ValueError("support direction must be nonzero")
    vals = support_batch(s, dirs.T)
    bounded = np.isfinite(vals)
    return HPolytope(dirs[bounded], vals[bounded], exact=False)


def bloat(s: SetRep, eps: float) -> SetRep:
    """Minkowski sum with the eps-infinity-ball (axis box of radius eps).

    Exact for boxes, zonotopes and planar vertex sets; H-polytopes push
    each facet outward by eps * the 1-norm of its normal, which rounds the
    corners outward (flagged inexact).
    """
    if eps < 0.0:
        raise ValueError("bloat radius must be nonnegative")
    if eps == 0.0:
        return s
    n = s.dim
    if isinstance(s, Box):
        return Box(s.lower - eps, s.upper + eps, exact=s.exact)
    if isinstance(s, Zonotope):
        return Zonotope(s.center, np.hstack([s.generators, eps * np.eye(n)]),
                        exact=s.exact)
    if isinstance(s, HPolytope):
        grow = eps * np.abs(s.normals).sum(axis=1)
        return HPolytope(s.normals, s.offsets + grow, exact=False)
    if isinstance(s, VPolytope):
        ball = Box(-eps * np.ones(n), eps * np.ones(n))
        return minkowski_sum(s, ball)
    raise TypeError(f"unknown set representation {type(s).__name__}")


def _exact_hform(s: SetRep) -> HPolytope | None:
    """Exact facet form of s, flagged as s is, or None when there is none.

    Boxes, H-polytopes, vertex sets up to dimension 3, and zonotopes that
    are points, intervals or planar have one; callers that can do with an
    enclosure take the bounding box when None comes back.
    """
    if isinstance(s, HPolytope):
        return s
    if isinstance(s, Box):
        return s.to_hpolytope()
    if isinstance(s, VPolytope) and s.dim <= 3:
        return vrep_to_hrep(s)
    if isinstance(s, Zonotope):
        if s.order == 0 or s.dim == 1:
            return s.bounding_box().to_hpolytope()
        if s.dim == 2:
            return vrep_to_hrep(VPolytope(zonotope_vertices_2d(s), exact=s.exact))
    return None


def _hform_enclosure(s: SetRep) -> HPolytope:
    """``_exact_hform(s)``, or else the facet form of the bounding box of s,
    flagged inexact: the H-form operand of facet pushing and ``intersect``."""
    h = _exact_hform(s)
    return Box(*axis_bounds(s), exact=False).to_hpolytope() if h is None else h


# most corners or sign patterns _exact_vform enumerates
_MAX_VERTICES = 4096


def _exact_vform(s: SetRep) -> VPolytope | None:
    """Exact vertex form of s, flagged as s is, or None when there is none.

    Vertex sets, boxes and zonotopes with at most ``_MAX_VERTICES`` corners
    or sign patterns (planar zonotopes always), and H-polytopes up to
    dimension 3 have one; callers that can do with an enclosure take the
    corners of the bounding box when None comes back.
    """
    if isinstance(s, VPolytope):
        return s
    if isinstance(s, Box):
        return s.to_vpolytope() if 2 ** np.count_nonzero(s.lower < s.upper) <= _MAX_VERTICES else None
    if isinstance(s, Zonotope):
        if s.dim == 2:
            return VPolytope(zonotope_vertices_2d(s), exact=s.exact)
        if 2 ** s.order <= _MAX_VERTICES:
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=s.order)))
            pts = s.center + signs @ s.generators.T
            return VPolytope(pts, exact=s.exact)
        return None
    if isinstance(s, HPolytope) and s.dim <= 3:
        try:
            return hrep_to_vrep(s)
        except ValueError:
            return None
    return None


def _vform_enclosure(s: SetRep) -> VPolytope:
    """``_exact_vform(s)``, or else the corners of the bounding box of s,
    flagged inexact: the operand of vertex propagation."""
    v = _exact_vform(s)
    return Box(*axis_bounds(s), exact=False).to_vpolytope() if v is None else v


def _box_difference(p: Box, b: Box) -> list[Box]:
    """p minus b as a list of boxes that meet only on their faces (empty
    when b covers p), cut exactly at b's faces."""
    corners = _box_overlap(p, b)
    if corners is None:
        return [p]
    cut_lo, cut_hi = corners
    out = []
    lo = p.lower.copy()
    hi = p.upper.copy()
    for i in range(p.dim):
        if cut_lo[i] > lo[i]:
            nhi = hi.copy()
            nhi[i] = cut_lo[i]
            out.append(Box(lo.copy(), nhi))
            lo[i] = cut_lo[i]
        if cut_hi[i] < hi[i]:
            nlo = lo.copy()
            nlo[i] = cut_hi[i]
            out.append(Box(nlo, hi.copy()))
            hi[i] = cut_hi[i]
    return out


def contains_set(q, p: SetRep, tol: float = TOL) -> bool:
    """Decide p subseteq q.

    q may be a single set or a list of sets (a union).  Single sets are
    decided exactly through their facet form (support of p vs offsets); a
    set with no exact facet form (a vertex set above 3-d) answers False, a
    containment it cannot prove.
    Box unions against a box p use successive set difference (sifting)
    from each member widened by tol on every axis, the band a single box
    gives each of its facet rows; other unions use the sound one-sided
    test "p inside some single member", which may answer False for a
    genuinely covered p.  An empty
    list covers nothing.  An infeasible H-polytope p is the empty set, so
    every single set contains it: the precheck or the first LP row test
    answers True.  A row of q that the support bound of an H-polytope p
    (see ``intersect``) keeps inside by ``_PRECHECK_MARGIN`` needs no LP;
    the row LPs share one simplex start that p does not keep.

    A single q is ``_Prepared(q).contains(p, tol)``; a driver that checks
    many sets against one fixed q keeps the ``_Prepared`` operand.
    """
    if isinstance(q, (list, tuple)):
        if isinstance(p, Box) and all(isinstance(m, Box) for m in q):
            pieces = [p]
            for b in q:
                wide = Box(b.lower - tol, b.upper + tol)
                pieces = [frag for piece in pieces for frag in _box_difference(piece, wide)]
                if not pieces:
                    return True
            return False
        return any(contains_set(m, p, tol) for m in q)
    return _Prepared(q).contains(p, tol)


def axis_bounds(s: SetRep) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise bounds (tight bounding box) via axis supports."""
    if isinstance(s, Box):
        return s.lower.copy(), s.upper.copy()
    if isinstance(s, Zonotope):
        b = s.bounding_box()
        return b.lower, b.upper
    if isinstance(s, VPolytope):
        return s.vertices.min(axis=0), s.vertices.max(axis=0)
    eye = np.eye(s.dim)
    vals = support_batch(s, np.hstack([eye, -eye]))
    return -vals[s.dim:], vals[:s.dim]


def bounding_box(s: SetRep) -> Box:
    """Tight enclosing box, flagged exact only when it equals s."""
    if isinstance(s, Zonotope):
        return s.bounding_box()
    lo, hi = axis_bounds(s)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("set is unbounded, no bounding box")
    return Box(lo, hi, exact=isinstance(s, Box) and s.exact)


def hull_union(s1: SetRep, s2: SetRep) -> SetRep:
    """Superset of conv(s1 union s2); exact for vertex pairs and intervals.

    Zonotope or box pairs use the symmetric enclosing zonotope; anything
    else takes the componentwise-max support template (flagged).
    """
    if s1.dim != s2.dim:
        raise ValueError("hull of sets with different dimensions")
    if s1.dim == 1:
        # interval hull is the exact convex hull of a union of intervals
        lo1, hi1 = axis_bounds(s1)
        lo2, hi2 = axis_bounds(s2)
        lo, hi = np.minimum(lo1, lo2), np.maximum(hi1, hi2)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("hull of unbounded operands is not supported")
        return Box(lo, hi, exact=s1.exact and s2.exact)
    if isinstance(s1, VPolytope) and isinstance(s2, VPolytope):
        v = np.vstack([s1.vertices, s2.vertices])
        return VPolytope(v, exact=s1.exact and s2.exact)
    if isinstance(s1, (Box, Zonotope)) and isinstance(s2, (Box, Zonotope)):
        z1 = s1.to_zonotope() if isinstance(s1, Box) else s1
        z2 = s2.to_zonotope() if isinstance(s2, Box) else s2
        p = max(z1.order, z2.order)
        g1 = np.hstack([z1.generators, np.zeros((z1.dim, p - z1.order))])
        g2 = np.hstack([z2.generators, np.zeros((z2.dim, p - z2.order))])
        mid = 0.5 * (z1.center + z2.center)
        gens = np.hstack([0.5 * (z1.center - z2.center)[:, None],
                          0.5 * (g1 + g2), 0.5 * (g1 - g2)])
        return Zonotope(mid, gens, exact=False)

    def widest(dmat):
        vals = np.maximum(support_batch(s1, dmat), support_batch(s2, dmat))
        if not np.all(np.isfinite(vals)):
            raise ValueError("hull of unbounded operands is not supported")
        return vals

    return _support_template(s1.dim, widest)


def sample_points(s: SetRep, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random points of s, one per row (test and simulation helper)."""
    if isinstance(s, Box):
        return rng.uniform(s.lower, s.upper, size=(count, s.dim))
    if isinstance(s, Zonotope):
        alpha = rng.uniform(-1.0, 1.0, size=(count, s.order))
        return s.center + alpha @ s.generators.T
    if isinstance(s, VPolytope):
        w = rng.dirichlet(np.ones(s.vertices.shape[0]), size=count)
        return w @ s.vertices
    if isinstance(s, HPolytope):
        box = bounding_box(s)
        out = np.empty((count, s.dim))
        have = 0
        for _ in range(2000):
            cand = rng.uniform(box.lower, box.upper, size=(max(count, 64), s.dim))
            ok = cand[_member_rows(s)(cand)]
            take = min(count - have, ok.shape[0])
            out[have:have + take] = ok[:take]
            have += take
            if have >= count:
                return out
        raise ValueError("rejection sampling failed (thin polytope)")
    raise TypeError(f"unknown set representation {type(s).__name__}")
