"""Independent oracles used to freeze expected values in the test suite.

Deliberately naive implementations that share no code with the package:
plain Taylor series, brute-force vertex enumeration, hulls on Fraction
orientation tests, Farkas certificates checked in Fraction arithmetic, and
fixed-step integrators.  ``extremal_trace`` alone calls the package, for
its closed-form support witnesses, its matrix exponential and its
``simulate``: it builds a true trajectory, not a bound.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def taylor_exp(a, r=1.0, terms=30):
    """Matrix exponential by direct Taylor summation (no scaling)."""
    a = np.asarray(a, dtype=float) * r
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def matvec_loops(a, x):
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i] += a[i, j] * x[j]
    return out


def lp_vertex_enum(c, a, b, tol=1e-9):
    """Brute LP oracle: intersect every n-subset of constraints, keep the
    feasible points, return (max value, lexicographically smallest argmax).
    Assumes a bounded feasible region; returns None when no vertex is
    feasible."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    best_val = None
    best_pts = []
    for rows in itertools.combinations(range(a.shape[0]), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if not np.all(a @ x <= b + tol):
            continue
        val = float(c @ x)
        if best_val is None or val > best_val + tol:
            best_val, best_pts = val, [x]
        elif abs(val - best_val) <= tol:
            best_pts.append(x)
    if best_val is None:
        return None
    best_pts.sort(key=lambda p: tuple(p))
    return best_val, best_pts[0]


def _cold_pivot(t, basis, row, col):
    t[row] /= t[row, col]
    colvals = t[:, col].copy()
    colvals[row] = 0.0
    t -= np.outer(colvals, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _cold_bland(t, basis, nvars, tol):
    """Bland's rule on a full tableau, objective row last, pivoted in place;
    returns "optimal" or "unbounded"."""
    rows = t.shape[0] - 1
    nonbasic = np.ones(t.shape[1], dtype=bool)
    nonbasic[basis] = False
    for _ in range(500 * (nvars + rows + 10)):
        candidates = np.flatnonzero((t[-1, :nvars] > tol) & nonbasic[:nvars])
        if candidates.size == 0:
            return "optimal"
        enter = int(candidates[0])
        best_ratio, leave = None, -1
        for i in range(rows):
            aij = t[i, enter]
            if aij > tol:
                ratio = t[i, -1] / aij
                if (best_ratio is None or ratio < best_ratio - tol
                        or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded"
        nonbasic[basis[leave]] = True
        nonbasic[enter] = False
        _cold_pivot(t, basis, leave, enter)
    raise RuntimeError("simplex iteration limit exceeded")


def cold_phase_one(a, b, tol=1e-9):
    """Phase one of {a x <= b} (m > 0 rows) on the split-variable standard
    form, with its own Bland loop over the full tableau: a reference for a
    phase one that shares its loop with phase two.

    Returns ``(t, basis, None)`` for a feasible system: the tableau with
    columns x+ (n), x- (n), slacks (m) and the right-hand side, objective
    row last, artificials and redundant rows removed.  Returns
    ``(None, None, lam)`` for an infeasible one, lam the row multipliers:
    the final objective row's slack prices, negated and clipped at 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    neg = b < 0.0
    n_art = int(np.count_nonzero(neg))
    nreal = 2 * n + m
    ncols = nreal + n_art
    t = np.zeros((m + 1, ncols + 1))
    basis = [0] * m
    art_col = nreal
    for i in range(m):
        sign = -1.0 if neg[i] else 1.0
        t[i, :n] = sign * a[i]
        t[i, n:2 * n] = -sign * a[i]
        t[i, 2 * n + i] = sign
        t[i, -1] = sign * b[i]
        if neg[i]:
            t[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = 2 * n + i
    if not n_art:
        return t, basis, None
    t[-1, nreal:ncols] = -1.0
    for i in range(m):
        if basis[i] >= nreal:
            t[-1] += t[i]
    # phase one's objective is bounded by zero, so a column that no row
    # bounds at tol is rounding: phase one ends on the tableau it reached
    _cold_bland(t, basis, ncols, tol)
    if t[-1, -1] > tol:
        return None, None, np.maximum(-t[-1, 2 * n:nreal], 0.0)
    keep = []
    for i in range(m):
        if basis[i] >= nreal:
            piv = -1
            for j in range(nreal):
                if abs(t[i, j]) > tol:
                    piv = j
                    break
            if piv < 0:
                continue
            _cold_pivot(t, basis, i, piv)
        keep.append(i)
    return np.delete(t[keep + [m]], np.s_[nreal:ncols], axis=1), [basis[i] for i in keep], None


def _fractions(values):
    return [Fraction(float(x)) for x in np.asarray(values, dtype=float).ravel()]


def farkas_certifies(a, b, tol):
    """Whether the rows a x <= b + tol prove themselves infeasible, in
    Fraction arithmetic: the weights mu with sum_i mu_i a_i = 0 span one
    dimension, and oriented to mu >= 0 they give sum_i mu_i (b_i + tol) <
    0.  Such rows are a Farkas certificate for every row set holding them.
    The weights come from the reduced echelon form of the n x k system."""
    k = len(b)
    cols = [_fractions(row) for row in np.asarray(a, dtype=float)]
    m = [list(r) for r in zip(*cols)]  # n x k: column i is row i of a
    pivots = []
    for col in range(k):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[r0], m[piv] = m[piv], m[r0]
        m[r0] = [x / m[r0][col] for x in m[r0]]
        for r in range(len(m)):
            if r != r0 and m[r][col] != 0:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    free = [j for j in range(k) if j not in pivots]
    if len(free) != 1:
        return False
    mu = [Fraction(0)] * k
    mu[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        mu[col] = -m[r][free[0]]
    if all(v <= 0 for v in mu):
        mu = [-v for v in mu]
    relaxed = [c + Fraction(tol) for c in _fractions(b)]
    return all(v >= 0 for v in mu) and sum(v * c for v, c in zip(mu, relaxed)) < 0


def meets_relaxed(a, b, x, tol):
    """Whether the point x meets every row a x <= b + tol, in Fraction
    arithmetic on the floats as given."""
    x = _fractions(x)
    return all(sum(ai * xi for ai, xi in zip(_fractions(row), x)) <= c + Fraction(tol)
               for row, c in zip(np.asarray(a, dtype=float), _fractions(b)))


def cold_phase_two(c, t, basis, tol=1e-9):
    """Bland's-rule phase two on a full copy of a feasible tableau, the way
    a single solve runs it: a reference for solves that share tableaux.

    ``t`` and ``basis`` are a phase-one result (constraint rows, objective
    row last, right-hand side last column; split columns x+ then x-); both
    are left untouched.  Returns (status, value, x), value and x None when
    unbounded.
    """
    t = np.array(t, dtype=float)
    basis = list(basis)
    n = len(c)
    rows, nvars = t.shape[0] - 1, t.shape[1] - 1
    t[-1, :] = 0.0
    t[-1, :n] = c
    t[-1, n:2 * n] = -np.asarray(c)
    for i in range(rows):
        cb = t[-1, basis[i]]
        if cb != 0.0:
            t[-1] -= cb * t[i]
    nonbasic = np.ones(t.shape[1], dtype=bool)
    nonbasic[basis] = False
    while True:
        candidates = np.flatnonzero((t[-1, :nvars] > tol) & nonbasic[:nvars])
        if candidates.size == 0:
            break
        enter = int(candidates[0])
        best_ratio, leave = None, -1
        for i in range(rows):
            aij = t[i, enter]
            if aij > tol:
                ratio = t[i, -1] / aij
                if (best_ratio is None or ratio < best_ratio - tol
                        or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded", None, None
        nonbasic[basis[leave]] = True
        nonbasic[enter] = False
        t[leave] /= t[leave, enter]
        colvals = t[:, enter].copy()
        colvals[leave] = 0.0
        t -= np.outer(colvals, t[leave])
        t[:, enter] = 0.0
        t[leave, enter] = 1.0
        basis[leave] = enter
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] += t[i, -1]
        elif j < 2 * n:
            x[j - n] -= t[i, -1]
    return "optimal", float(np.asarray(c) @ x), x


def _distinct_points(points):
    """The rows of points as tuples, each repeated point's first copy kept
    in order (0.0 and -0.0 are equal)."""
    return list(dict.fromkeys(map(tuple, np.asarray(points, dtype=float).tolist())))


def fraction_turn(o, a, b):
    """Sign of (a - o) x (b - o) in Fraction arithmetic, on the floats as
    given: positive when o, a, b turn left."""
    o, a, b = ([Fraction(float(x)) for x in p] for p in (o, a, b))
    det = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (det > 0) - (det < 0)


def positively_spans_plane(rows):
    """Whether the planar rows positively span the plane, in Fraction
    arithmetic: each has rows strictly on both sides of its line.  A
    facet form on such normals is bounded."""
    rows = np.asarray(rows, dtype=float).tolist()
    return all({fraction_turn((0.0, 0.0), a, b) for b in rows} >= {-1, 1} for a in rows)


def gift_wrap_hull(points):
    """Planar convex hull by gift wrapping (independent of monotone chain)
    on Fraction orientation: the corners, counterclockwise from the
    lexicographically least point; collinear points leave their two
    ends."""
    pts = _distinct_points(points)
    if len(pts) <= 2:
        return np.array(pts)

    def dist2(i, j):
        return sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(pts[i], pts[j]))

    start = min(range(len(pts)), key=lambda i: pts[i])
    hull = [start]
    while True:
        cur = hull[-1]
        cand = 0 if cur != 0 else 1
        for i in range(len(pts)):
            if i == cur:
                continue
            turn = fraction_turn(pts[cur], pts[cand], pts[i])
            if turn < 0 or (turn == 0 and dist2(cur, i) > dist2(cur, cand)):
                cand = i
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > len(pts):
            raise RuntimeError("gift wrapping failed")
    return np.array([pts[i] for i in hull])


def fraction_orientation(a, b, c, d):
    """Sign of (d - a) . ((b - a) x (c - a)) in Fraction arithmetic, on the
    floats as given: positive when d lies above the triangle a, b, c."""
    a, b, c, d = ([Fraction(float(x)) for x in p] for p in (a, b, c, d))
    u, w, e = ([p[i] - a[i] for i in range(3)] for p in (b, c, d))
    det = (e[0] * (u[1] * w[2] - u[2] * w[1]) + e[1] * (u[2] * w[0] - u[0] * w[2])
           + e[2] * (u[0] * w[1] - u[1] * w[0]))
    return (det > 0) - (det < 0)


def exact_chain(points):
    """Planar hull by the monotone chain on Fraction orientation: the
    counterclockwise corner cycle from the lexicographically least point,
    a point staying only where the turn onto it is strictly left.  Each
    corner is the first copy of its point as given."""
    pts = sorted(_distinct_points(points))
    if len(pts) <= 2:
        return np.array(pts)
    cycle = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and fraction_turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        cycle += chain[:-1]
    return np.array(cycle)


def box_support(lower, upper, d):
    """Closed-form support value of an axis box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = np.asarray(d, dtype=float)
    return float(np.sum(np.where(d > 0, d * upper, d * lower)))


def eager_zonotope_support(x0_c, x0_g, v_c, v_g, a, k, d):
    """Support of A^k X0 + sum_{i<k} A^i V by eager materialisation.

    X0 and V are zonotopes (center, generator-columns); the sum is built as
    one big zonotope, then its closed-form support is evaluated.
    """
    a = np.asarray(a, dtype=float)
    ak = np.linalg.matrix_power(a, k)
    center = ak @ x0_c
    gens = [ak @ x0_g]
    for i in range(k):
        ai = np.linalg.matrix_power(a, i)
        center = center + ai @ v_c
        gens.append(ai @ v_g)
    g = np.hstack(gens)
    return float(d @ center + np.abs(d @ g).sum())


def extremal_trace(system, d, k, step=None, substeps=1):
    """States of a trajectory of ``system`` whose state at step k maximises
    d . x over every trajectory, by the maximum principle for a linear
    system; along a zero direction any witness will do.

    Discrete: x0 is the support witness of X0 along (A^T)^k d, and input i
    that of the input set along B^T (A^T)^(k-1-i) d, replayed with
    ``simulate``.  Continuous, with time step ``step`` (r): x0 is the
    witness along e^(A^T k r) d, and each of ``substeps`` (q) equal
    sub-steps of every step holds the witness along B^T e^(A^T (k r - s)) d
    at its midpoint s, replayed exactly by ``simulate`` at step r / q; the
    states returned are those at the multiples of r.  The held inputs are
    admissible, so the trace is a true trajectory; as q grows its state at
    k r tends to the true support."""
    from reachflow.linreach import simulate
    from reachflow.numkernel import mat_exp
    from reachflow.setgeom import support

    def witness(s, w):
        return support(s, w if np.any(w) else np.eye(s.dim)[0])[1]

    d = np.asarray(d, dtype=float)
    if step is not None:
        # the directions at the sub-steps' midpoints, last first
        h = step / substeps
        half, full = mat_exp(system.a.T, h / 2), mat_exp(system.a.T, h)
        pulled = [half @ d] if k else []
        while len(pulled) < k * substeps:
            pulled.append(full @ pulled[-1])
        x0 = witness(system.x0, half @ pulled[-1] if k else d)
        inputs = ([witness(system.input_set, system.b.T @ w) for w in reversed(pulled)]
                  if system.has_input else None)
        return simulate(system, x0, inputs, steps=k * substeps, step=h).states[::substeps]
    pulled = [d]
    for _ in range(k):
        pulled.append(system.a.T @ pulled[-1])
    x0 = witness(system.x0, pulled[k])
    if not system.has_input:
        return simulate(system, x0, steps=k).states
    inputs = [witness(system.input_set, system.b.T @ pulled[k - 1 - i]) for i in range(k)]
    return simulate(system, x0, inputs, steps=k).states


def rk4(f, x0, t_end, steps):
    """Classic fixed-step Runge-Kutta 4 integrator; returns the full path."""
    x = np.asarray(x0, dtype=float).copy()
    h = t_end / steps
    path = [x.copy()]
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(x.copy())
    return np.asarray(path)


def euler_interval_1d(x0_lo, x0_hi, alpha, drift, r, steps):
    """Exact scalar affine recurrence x' = alpha x + drift, interval valued."""
    lo, hi = x0_lo, x0_hi
    out = [(lo, hi)]
    for _ in range(steps):
        vals = sorted([alpha * lo + drift, alpha * hi + drift])
        lo, hi = vals
        out.append((lo, hi))
    return out


def hausdorff_points(p, q):
    """Max over p of distance to the nearest point of q (directed)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    return float(d.min(axis=1).max())
