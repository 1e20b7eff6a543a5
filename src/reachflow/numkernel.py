"""Dense numeric kernel: the matrix exponential and a small dense LP
solver.  Everything else in the package sits on top of these two
primitives.

The solver is a two-phase simplex with Bland's rule, and both phases walk
one loop (``_walk``): the entering choice, the ratio test and the
objective-row update exist once.  Phase one over {a x <= b} runs once
into an ``_LpStart``, on a private tableau it pivots in place; phase two
walks the tableaux reached from it, shared by every objective over the
same constraints and kept up to a byte budget (``_START_BYTES_CAP``), and
each objective carries only its own objective row, so every result
equals a cold solve bit for bit.  An H-polytope's ``support`` and
``support_batch`` keep their start for the set's lifetime; its yes/no
questions (emptiness, containment rows) solve from starts they do not
keep.  ``lp_max`` is the one checked entry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Feasibility / comparison tolerance shared by the solver and its callers.
FEAS_TOL = 1e-9

# Statuses returned by lp_max.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


# Taylor order used after scaling; with the scaled norm at most 1/2 the
# series remainder is below 2^-70.
_EXP_ORDER = 20


def mat_exp(a, r: float = 1.0) -> np.ndarray:
    """e^{A r} by scaling-and-squaring on a truncated Taylor series.

    The argument is scaled by 2^-s so its infinity norm is at most 1/2,
    the series is evaluated by Horner's scheme, and the result is squared
    s times.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix exponential requires a square matrix")
    if not np.isfinite(r):
        raise ValueError("time step must be finite")
    n = a.shape[0]
    m = a * float(r)
    theta = np.linalg.norm(m, np.inf)
    if theta == 0.0:
        return np.eye(n)
    s = 0
    if theta > 0.5:
        s = int(math.ceil(math.log2(theta))) + 1
        m = m / (2.0 ** s)
    eye = np.eye(n)
    out = eye * (1.0 / math.factorial(_EXP_ORDER))
    for k in range(_EXP_ORDER - 1, -1, -1):
        out = m @ out + eye * (1.0 / math.factorial(k))
    for _ in range(s):
        out = out @ out
    return out


def _exp_integral(a, r: float) -> np.ndarray:
    """The input integral of e^{A s} over s in [0, r]: the top-right block
    of the exponential of the augmented matrix [[A, I], [0, 0]] r."""
    a = as_matrix(a)
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = a
    aug[:n, n:] = np.eye(n)
    return mat_exp(aug, r)[:n, n:]


@dataclass(frozen=True)
class LpResult:
    """A solve's status, and for an optimal one its value and point.

    An infeasible result carries ``farkas``: phase one's final prices on
    the slack columns, negated and clipped at 0, one multiplier lam_i >= 0
    per row.  Phase one's optimality makes them a Farkas certificate up to
    its tolerance: |a^T lam| <= FEAS_TOL and lam . b < -FEAS_TOL.  Only a
    check in exact arithmetic makes it a proof (``setgeom._empty``).
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    farkas: np.ndarray | None = None


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    colvals = t[:, col].copy()
    colvals[row] = 0.0
    t -= np.outer(colvals, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _basic_point(t: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    """The point x = x+ - x- of a tableau's basic solution."""
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] += t[i, -1]
        elif j < 2 * n:
            x[j - n] -= t[i, -1]
    return x


def _phase_one(a: np.ndarray, b: np.ndarray):
    """A feasible basis of {a x <= b} (m > 0 rows) on the split-variable
    standard form, or an infeasible ``LpResult`` when phase one ends with
    artificials above FEAS_TOL.  Its ``farkas`` are the multipliers the
    final prices give the rows: on a flat set the tableau's rounding can
    leave that residue although a point meets every row, so they are a
    certificate only once checked exactly.

    Returns the tableau, columns x+ (n), x- (n), slacks (m) and the
    right-hand side, with the objective row left for phase two, and its
    basis.  Only ``(a, b)`` are read, so every objective over the same
    constraints starts phase two from one result: an ``_LpStart``.
    """
    m, n = a.shape
    neg = b < 0.0
    n_art = int(np.count_nonzero(neg))
    # columns: x+ (n), x- (n), slacks (m), artificials (n_art), rhs
    nreal = 2 * n + m
    ncols = nreal + n_art
    t = np.zeros((m + 1, ncols + 1))
    basis: list[int] = [0] * m
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
        return t, basis
    # maximize -(sum of artificials)
    t[-1, nreal:ncols] = -1.0
    for i in range(m):
        if basis[i] >= nreal:
            t[-1] += t[i]
    # the walk pivots the constraint rows t[:-1] and the basis in place and
    # updates the objective row t[-1], a view of t as well.  Phase one's
    # objective is bounded by zero, so a column that prices above FEAS_TOL
    # while no entry bounds it is the tableau's rounding: the walk stops
    # there and the corner test below judges the tableau it stopped on
    _walk(None, _Node(t[:-1], basis, private=True), t[-1])
    # the tableau keeps the negated objective value in the corner
    if t[-1, -1] > FEAS_TOL:
        # a slack's price is its row's multiplier, negated; the corner is
        # -lam . b
        return LpResult(INFEASIBLE, farkas=np.maximum(-t[-1, 2 * n:nreal], 0.0))
    # drive leftover artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= nreal:
            piv = -1
            for j in range(nreal):
                if abs(t[i, j]) > FEAS_TOL:
                    piv = j
                    break
            if piv < 0:
                continue  # redundant constraint row
            _pivot(t, basis, i, piv)
        keep.append(i)
    # retire the artificial columns (all zero from here on) with the
    # redundant rows
    return np.delete(t[keep + [m]], np.s_[nreal:ncols], axis=1), [basis[i] for i in keep]


# Bytes of phase-two tableaux one ``_LpStart`` keeps.  Past it a walk
# pivots a private copy of the last kept tableau, as a cold solve does.
_START_BYTES_CAP = 1 << 20


class _Node:
    """A tableau Bland's rule reaches: its constraint rows with the
    right-hand side (``t``), its basis, the mask of the columns that may
    enter (the nonbasic ones, not the right-hand side), and the steps
    taken from it, by entering column: the normalized pivot row and the
    tableau it leads to, or None for an unbounded column.  ``steps`` is
    None on a private tableau, which is pivoted in place."""

    __slots__ = ("t", "basis", "may_enter", "steps", "x")

    def __init__(self, t: np.ndarray, basis: list[int], private: bool = False):
        self.t = t
        self.basis = basis
        self.may_enter = np.ones(t.shape[1], dtype=bool)
        self.may_enter[basis] = False
        self.may_enter[-1] = False
        self.steps = None if private else {}
        self.x = None


def _walk(start: _LpStart | None, node: _Node, obj: np.ndarray) -> _Node | None:
    """Bland's rule from ``node`` on the objective row ``obj``, which is
    updated in place as ``_pivot`` would update it: the optimal tableau,
    or None when the objective is unbounded.

    Entering column: the first that may enter and prices above FEAS_TOL.
    Bland's rule cannot cycle; the iteration cap is a safety net only.
    ``start`` owns the shared tableaux and their budget (None in phase
    one, whose node is private); see ``_step``.
    """
    t = node.t
    for _ in range(500 * (t.shape[1] - 1 + t.shape[0] + 10)):
        candidates = (obj > FEAS_TOL) & node.may_enter
        enter = int(candidates.argmax())
        if not candidates[enter]:
            return node
        step = _step(start, node, enter)
        if step is None:
            return None
        pivot_row, node = step
        obj -= obj[enter] * pivot_row
        obj[enter] = 0.0
    raise RuntimeError("simplex iteration limit exceeded")


def _step(start: _LpStart | None, node: _Node, enter: int):
    """The pivot on column ``enter`` from ``node``: (normalized pivot row,
    next tableau), or None when no row bounds the column.  A private node
    is pivoted in place and ``start`` is not read; a shared one keeps the
    step, within the budget of ``start``.

    Leaving row: the smallest basic index among the rows of minimum ratio
    whose entry is above FEAS_TOL."""
    steps = node.steps
    if steps is not None and enter in steps:
        return steps[enter]
    t, basis = node.t, node.basis
    best_ratio = None
    leave = -1
    for i in range(t.shape[0]):
        aij = t[i, enter]
        if aij > FEAS_TOL:
            ratio = t[i, -1] / aij
            if (best_ratio is None or ratio < best_ratio - FEAS_TOL
                    or (abs(ratio - best_ratio) <= FEAS_TOL and basis[i] < basis[leave])):
                best_ratio = ratio
                leave = i
    if leave < 0:
        if steps is not None:
            steps[enter] = None
        return None
    pivot_row = t[leave] / t[leave, enter]
    if steps is None:
        nxt = node
    elif start.nbytes + t.nbytes + pivot_row.nbytes > _START_BYTES_CAP:
        nxt = _Node(t.copy(), list(basis), private=True)
    else:
        nxt = _Node(t.copy(), list(basis))
        start.nbytes += t.nbytes + pivot_row.nbytes
        steps[enter] = pivot_row, nxt
    nxt.may_enter[nxt.basis[leave]] = True
    nxt.may_enter[enter] = False
    _pivot(nxt.t, nxt.basis, leave, enter)
    nxt.x = None
    return pivot_row, nxt


class _LpStart:
    """Phase one of {a x <= b} run once, and the phase-two tableaux that
    Bland's rule has reached from it, keyed by pivot path.

    A pivot's constraint rows depend on the pivot sequence alone, never on
    the objective, so every objective walks the shared tableaux and
    carries only its own objective row: the pricing, the entering and
    leaving choices and the row update that ``_pivot`` would make.  Each
    result is therefore that of a cold solve, bit for bit.  The kept
    tableaux stay within ``_START_BYTES_CAP`` bytes (``nbytes`` counts
    them); ``a`` and ``b`` are checked arrays the start never writes.
    ``infeasible`` is phase one's result when it found no feasible basis,
    and every objective gets it.
    """

    __slots__ = ("n", "root", "priced", "infeasible", "nbytes")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.n = a.shape[1]
        self.root = self.infeasible = None
        self.priced = []
        self.nbytes = 0
        if a.shape[0] == 0:
            return
        start = _phase_one(a, b)
        if isinstance(start, LpResult):
            self.infeasible = start
            return
        t, basis = start
        self.root = _Node(t[:-1], basis)
        # a basic column is a unit column, so only the rows whose basic
        # variable is an x column, the only ones with a cost, price out
        self.priced = [(i, j) for i, j in enumerate(basis) if j < 2 * self.n]
        self.nbytes = self.root.t.nbytes

    @property
    def within_budget(self) -> bool:
        """Whether the kept tableaux fit in ``_START_BYTES_CAP``: false only
        when phase one's tableau alone is larger."""
        return self.nbytes <= _START_BYTES_CAP

    def solve(self, objectives: np.ndarray) -> list[LpResult]:
        """Maximize c.x for every row c of the checked ``objectives``."""
        if self.infeasible is not None:
            return [self.infeasible for _ in objectives]
        n = self.n
        if self.root is None:  # no rows
            return [LpResult(UNBOUNDED) if np.any(np.abs(c) > FEAS_TOL)
                    else LpResult(OPTIMAL, 0.0, np.zeros(n)) for c in objectives]
        t = self.root.t
        out = []
        for c in objectives:
            # objective row priced out against the start basis
            obj = np.zeros(t.shape[1])
            obj[:n] = c
            obj[n:2 * n] = -c
            for i, j in self.priced:
                cb = obj[j]
                if cb != 0.0:
                    obj -= cb * t[i]
            node = _walk(self, self.root, obj)
            if node is None:
                out.append(LpResult(UNBOUNDED))
                continue
            if node.x is None:
                node.x = _basic_point(node.t, node.basis, n)
            x = node.x.copy()
            out.append(LpResult(OPTIMAL, float(c @ x), x))
        return out


def lp_max(objective, a, b) -> LpResult:
    """Maximize objective . x over {x : a x <= b} (x free).

    The returned point is the simplex's optimal vertex, which Bland's rule
    makes deterministic; it satisfies the constraints within FEAS_TOL.
    The arrays are checked here; the package's own solves build an
    ``_LpStart`` on arrays it has checked already.
    """
    c, a, b = as_vector(objective), as_matrix(a), as_vector(b)
    m, n = a.shape
    if c.shape[0] != n:
        raise ValueError(
            f"objective length {c.shape[0]} does not match "
            f"constraint matrix with {n} columns")
    if b.shape[0] != m:
        raise ValueError(
            f"right-hand side length {b.shape[0]} does not match "
            f"constraint matrix with {m} rows")
    return _LpStart(a, b).solve(c[None])[0]
