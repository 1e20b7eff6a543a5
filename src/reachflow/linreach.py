"""Flowpipe computation for linear systems with bounded inputs.

Discrete-time semantics is the exact set recurrence
``X_{k+1} = A X_k + B V``; continuous-time systems are reduced to that
shape by conservative time discretization.  One stepping core,
``_flow_steps``, runs that recurrence on demand: it discretizes, builds
the per-step input, and yields segment k+1 only when its caller asks for
it.  Behind it sit three interchangeable strategies: explicit vertex
propagation, facet pushing in H-representation, and a lazy
support-function evaluator that never materializes intermediate sets (and
therefore does not wrap).  The drivers -- ``reach`` here,
``hybridreach.mode_reach`` and ``hybridize.dynamic_hybridize_reach`` --
iterate the core and keep only their own stopping rules; when a driver
stops, the core lets go of the simplex start its initial set kept.
``reach`` with a bad set takes the core's segments in blocks and asks the
bad set about each block at once.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .numkernel import _exp_integral, as_matrix, as_vector, mat_exp
from .setgeom import (
    TOL,
    Box,
    HPolytope,
    SetRep,
    VPolytope,
    Zonotope,
    _drop_start,
    _even_odd,
    _fan_pairs,
    _hform_enclosure,
    _Prepared,
    _pullback,
    _row_norms,
    _vform_enclosure,
    axis_bounds,
    bloat,
    default_template,
    hull_union,
    linear_map,
    member,
    minkowski_sum,
    support_batch,
)

log = logging.getLogger(__name__)

DISCRETE = "discrete"
CONTINUOUS = "continuous"

BOUNDED = "bounded"
BAD_SET = "bad_set"
FIXPOINT = "fixpoint"

VERTICES = "vertices"
FACETS = "facets"
LAZY = "lazy"

SMALL_R = "small_r"
ONCE_HULL = "once_hull"
ERROR_BALL = "error_ball"

# Flowpipe termination statuses.
HORIZON = "horizon"
BAD_REACHED = "bad_reached"
FIXPOINT_REACHED = "fixpoint"
COMPLETED = "completed"


def _dynamics(a, b, input_set: Optional[SetRep]):
    """Checked ``(A, B)`` of ``x' = A x + B v``, shared by ``LinearSystem``
    and ``hybridreach.Mode``.

    A must be square and the input bounded; B needs A's row count and one
    column per input coordinate, defaults to the identity when an input is
    given without a gain, and is refused without an input.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("dynamics matrix must be square")
    if input_set is None:
        if b is not None:
            raise ValueError("input gain given without an input set")
        return a, None
    b = np.eye(a.shape[0]) if b is None else as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError("input gain row count does not match dynamics")
    if b.shape[1] != input_set.dim:
        raise ValueError("input gain column count does not match input set")
    lo, hi = axis_bounds(input_set)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("input set must be bounded")
    return a, b


@dataclass(frozen=True)
class LinearSystem:
    """``x' = A x + B v`` (discrete step or time derivative).

    ``input_set`` is the bounded set of admissible input values v; it is
    held fixed over the whole horizon but v may vary per step.  ``b``
    defaults to the identity when an input set is given without a gain.
    """

    a: np.ndarray
    x0: SetRep
    b: Optional[np.ndarray] = None
    input_set: Optional[SetRep] = None
    time_kind: str = DISCRETE

    def __post_init__(self):
        a, b = _dynamics(self.a, self.b, self.input_set)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.x0.dim != a.shape[0]:
            raise ValueError("initial set dimension does not match dynamics")
        lo, hi = axis_bounds(self.x0)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("initial set must be bounded")
        if self.time_kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"unknown time kind {self.time_kind!r}")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def has_input(self) -> bool:
        return self.input_set is not None


@dataclass(frozen=True)
class ReachConfig:
    """Knobs for one flowpipe run.

    ``horizon`` counts steps for discrete systems and is a time length
    for continuous ones (paired with ``step``).  ``max_steps`` guards the
    fixpoint mode only; the default is 10x the horizon step count, capped
    at 10000.  ``horizon``, ``state_bound`` and ``max_steps`` are finite and
    nonnegative, ``step`` finite and positive, and ``max_steps`` a whole
    number, kept as an int.
    """

    horizon: float
    step: Optional[float] = None
    mode: str = BOUNDED
    bad_set: Optional[SetRep] = None
    strategy: str = LAZY
    template: Optional[np.ndarray] = None
    bloat_policy: str = ONCE_HULL
    max_steps: Optional[int] = None
    state_bound: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (BOUNDED, BAD_SET, FIXPOINT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.strategy not in (VERTICES, FACETS, LAZY):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.bloat_policy not in (SMALL_R, ONCE_HULL, ERROR_BALL):
            raise ValueError(f"unknown bloat policy {self.bloat_policy!r}")
        if self.mode == BAD_SET and self.bad_set is None:
            raise ValueError("bad_set mode requires a bad set")
        if self.mode != BAD_SET and self.bad_set is not None:
            raise ValueError("bad set given outside bad_set mode")
        if not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be a nonnegative finite number")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError("step must be a positive finite number")
        if self.state_bound is not None and not 0 <= self.state_bound < math.inf:
            raise ValueError("state_bound must be a nonnegative finite number")
        if self.max_steps is not None:
            if not (self.max_steps >= 0 and float(self.max_steps).is_integer()):
                raise ValueError("max_steps must be a nonnegative integer")
            object.__setattr__(self, "max_steps", int(self.max_steps))
        if self.template is not None:
            t = as_matrix(self.template).copy()  # the caller keeps its array
            _template_norms(t)
            t.flags.writeable = False
            object.__setattr__(self, "template", t)


def _template_norms(t: np.ndarray) -> np.ndarray:
    """Row norms of a direction template; zero rows are rejected."""
    norms = _row_norms(t)
    if np.any(norms < TOL):
        raise ValueError("template rows must be nonzero")
    return norms


def _lattice(config: ReachConfig, time_kind: str, dim: int):
    """The time lattice of a run: ``(r, N)``, step length and step count.

    Continuous time needs a step r and takes N = ceil(horizon / r) steps
    (up to a 1e-12 slack); discrete time counts steps, so the horizon must
    be an integer N, r is 1 and no step may be given.  The config's
    template and bad set must have the state dimension ``dim``.  Every
    driver and the CLI take their lattice from here.
    """
    if time_kind == CONTINUOUS:
        if config.step is None:
            raise ValueError("continuous time requires a time step")
        r = float(config.step)
        nsteps = int(math.ceil(config.horizon / r - 1e-12))
    else:
        if config.step is not None:
            raise ValueError("discrete time takes an integer horizon, not a time step")
        if config.horizon != int(config.horizon):
            raise ValueError("discrete horizon must be an integer step count")
        r, nsteps = 1.0, int(config.horizon)
    if config.template is not None and config.template.shape[1] != dim:
        raise ValueError("template dimension does not match the system")
    if config.bad_set is not None and config.bad_set.dim != dim:
        raise ValueError("bad set dimension does not match the system")
    return r, nsteps


def _dense_only(config: ReachConfig, question: str) -> None:
    """Refuse a lattice bloat policy for a dense-time question of a
    continuous run: its time-point sets at k r let a trajectory cross a
    thin set between two lattice points unseen."""
    if config.bloat_policy != ONCE_HULL:
        raise ValueError(
            f"{question} in continuous time requires the dense bloat policy: "
            "lattice semantics could step across a thin set unseen"
        )


@dataclass(frozen=True)
class Segment:
    """One flowpipe element: the states reachable over one step.

    For continuous systems the segment covers the dense time interval
    [t0, t1]; for discrete systems (and lattice-semantics continuous
    policies) it is the snapshot at step ``k`` and t0 == t1 == k * r.
    """

    k: int
    t0: float
    t1: float
    set_rep: SetRep


@dataclass(frozen=True)
class Flowpipe:
    segments: tuple
    status: str
    status_step: Optional[int] = None
    time_step: Optional[float] = None

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)


@dataclass(frozen=True)
class SimTrace:
    states: np.ndarray  # (steps+1, n)
    inputs: Optional[np.ndarray]  # (steps, m) or None
    time_step: Optional[float] = None


# ---------------------------------------------------------------------------
# per-step input: a tuple of summands, whose supports add, so the lazy and
# facet strategies never fold the sum


def _summands(v: Union[SetRep, Sequence[SetRep], None]) -> tuple:
    """The summands of a per-step input: one set, a sequence of sets
    (their Minkowski sum) or None."""
    if v is None:
        return ()
    return (v,) if isinstance(v, SetRep) else tuple(v)


def _summed_supports(parts: Sequence[SetRep], dmat: np.ndarray) -> np.ndarray:
    """The supports of the sum of ``parts`` along the columns of ``dmat``,
    summed from zero, part by part."""
    total = np.zeros(dmat.shape[1])
    for p in parts:
        total += support_batch(p, dmat)
    return total


def _is_origin(s: SetRep) -> bool:
    if isinstance(s, Box):
        return bool(np.all(s.lower == 0.0) and np.all(s.upper == 0.0))
    if isinstance(s, Zonotope):
        return bool(
            np.all(s.center == 0.0)
            and (s.order == 0 or np.all(s.generators == 0.0))
        )
    return False


# ---------------------------------------------------------------------------
# single-step operators


def step_input_vertices(p: SetRep, v: Optional[SetRep], a: np.ndarray) -> VPolytope:
    """``A P + V`` by explicit vertex propagation; ``A P`` without an input
    (v None).

    Each operand enters by its exact vertex form, or else by the corners
    of its bounding box (flagged inexact).  An input given as several
    summands is folded into one set by the caller, once per run.  The
    candidates A p + v, one per pair of vertices, make one ``VPolytope``:
    up to 3-d one hull thins them, so the count stays bounded by the true
    facet structure, and its facet form reads that hull.  In 2-d only the
    pairs the edge normals of A P and V allow enter (``_fan_pairs``),
    about |P| + |V| of them: the hull of those is the hull of all, the
    same vertex cycle bit for bit.
    """
    p = _vform_enclosure(p)
    a = as_matrix(a)
    pts = p.vertices @ a.T
    if v is not None:
        v = _vform_enclosure(v)
        pairs = _fan_pairs(p.vertices, a, pts, v.vertices)
        pts = pts[:, None] + v.vertices
        pts = pts.reshape(-1, pts.shape[-1]) if pairs is None else pts[pairs]
    return VPolytope(pts, exact=p.exact and (v is None or v.exact))


def step_input_facets(p: HPolytope, v: Union[SetRep, Sequence[SetRep], None],
                      a: np.ndarray) -> HPolytope:
    """``A P + V`` by pushing facets of P through the map.

    Each facet normal of P is pulled back through A, as ``linear_map``
    does, and its offset raised by the input support, so every facet of
    the result touches the true sum.  V is one set, a sequence of sets
    (their Minkowski sum, whose supports are summed from zero, part by
    part), or None for no input.  The input may add facet directions that
    P does not have, so with a full-dimensional input the result is a
    tight superset and is flagged; it is the exact sum when the input is
    absent or a point.  A singular A loses facet correspondence: the step
    takes ``linear_map``'s template over-approximation of A P, raised the
    same way, and logs a warning.
    """
    a = as_matrix(a)
    p = _hform_enclosure(p)
    img = _pullback(a, p)
    if img is None:
        log.warning(
            "facet pushing through a singular map: falling back to a template hull"
        )
        img = linear_map(a, p)
    if v is None:
        return img
    raised = _summed_supports(_summands(v), img.normals.T)
    # img's normals are frozen unit rows: only the new offsets need checks
    return HPolytope._trusted(img.normals, img.offsets + raised, exact=False)


# ---------------------------------------------------------------------------
# lazy strategy

# a template [P; -P] folds onto the columns of P when its row count m is a
# multiple of twice this many rows.  A box's or zonotope's supports are
# matrix-vector products, one row per direction, and OpenBLAS's gemv rounds a
# row the same way whatever the row count only inside its 4-row blocks, so
# on other counts a row among the m/2 folded columns could differ in the last
# bit from the same row among all m
_GEMV_BLOCK = 4


class LazyReachSet:
    """Reach set at step k, represented by its support function.

    Holds the initial set X0, the step matrix A, the per-step input as a
    tuple of summands (``input_set`` is one set, a sequence of sets
    meaning their Minkowski sum, or None), and one evolving matrix: the
    template directions pulled back to step 0, ``(A^T)^k D^T``, with
    their accumulated input supports.  The set it denotes is
    ``A^k X0 + sum_{i<k} A^i U``.  A template in the layout ``[P; -P]``
    whose m rows are a multiple of ``2 * _GEMV_BLOCK`` is folded: the
    product advances only the m/2 columns of P (n x n for the box template
    ``[I; -I]`` when 4 divides n), and every other template advances all m
    columns.  The supports of a box or zonotope (the base, or an input
    part) are read from the advanced columns, an even part and an odd part
    per column, with one ``|B|`` per step shared by every box; the n x m
    matrix ``[P; -P]^T`` is stacked only for an H- or V-polytope operand.
    Every concretization answers the template from these columns alone.
    The template is scaled to unit rows once and kept read-only, so all
    segments of one flowpipe share one normals buffer.  Any other
    direction is answered from scratch in O(k) products.
    Advancing returns a new object and never feeds a concretization back
    into the recurrence, so repeated over-approximation cannot compound.
    """

    __slots__ = ("base", "a", "inputs", "k", "dirs", "_folded", "_basis", "_full", "_abs",
                 "_acc")

    def __init__(
        self,
        base: SetRep,
        a: np.ndarray,
        input_set: Union[SetRep, Sequence[SetRep], None] = None,
        directions: Optional[np.ndarray] = None,
    ):
        self.base = base
        self.a = as_matrix(a)
        n = self.a.shape[0]
        if self.a.shape != (n, n) or base.dim != n:
            raise ValueError("dimension mismatch between map and initial set")
        self.inputs = _summands(input_set)
        if any(p.dim != n for p in self.inputs):
            raise ValueError("input set dimension does not match the map")
        if directions is None:
            directions = default_template(n)
        directions = as_matrix(directions)
        if directions.shape[1] != n:
            raise ValueError("template direction dimension mismatch")
        dirs = directions / _template_norms(directions)[:, None]
        dirs.flags.writeable = False
        self.k = 0
        self.dirs = dirs
        h = len(dirs) // 2
        # compared as values, so 0.0 and -0.0 match
        self._folded = len(dirs) % (2 * _GEMV_BLOCK) == 0 and np.array_equal(dirs[h:], -dirs[:h])
        self._full = dirs.T  # columns: (A^T)^k d
        # the columns the product advances: those of P if folded
        self._basis = dirs[:h].T if self._folded else self._full
        self._abs = None
        self._acc = np.zeros(dirs.shape[0])

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def _cur(self) -> np.ndarray:
        """The m template columns ``(A^T)^k D^T``, stacked from the folded
        ones on first use."""
        if self._full is None:
            self._full = np.hstack([self._basis, -self._basis])
        return self._full

    def _supports(self, s: SetRep) -> np.ndarray:
        """``support_batch(s, self._cur)``, bit for bit.

        A box or zonotope is read from the advanced columns: a folded
        template's rows -d take ``even - odd``, which is the sum
        ``support_batch`` takes along -d, and on a ``_GEMV_BLOCK``-aligned
        fold a matrix-vector product has the same bits in a row with or
        without the other rows beside it.
        """
        if not isinstance(s, (Box, Zonotope)):
            return support_batch(s, self._cur)
        if isinstance(s, Box) and self._abs is None:
            self._abs = np.abs(self._basis.T)
        even, odd = _even_odd(s, self._basis, self._abs)
        if not self._folded:
            return even if odd is None else odd + even
        return np.concatenate((even, even) if odd is None else (odd + even, even - odd))

    def advance(self) -> "LazyReachSet":
        new = object.__new__(LazyReachSet)
        new.base = self.base
        new.a = self.a
        new.inputs = self.inputs
        new.dirs = self.dirs
        new._folded = self._folded
        new.k = self.k + 1
        if self.inputs:
            # summed from zero, part by part, as _summed_supports sums them
            new._acc = self._acc + sum(self._supports(p) for p in self.inputs)
        else:
            new._acc = self._acc
        # a column of the product keeps its bits with or without the other
        # columns beside it for every template up to 96 dimensions and for
        # box templates whose n is a multiple of 8, so the supports read
        # the unfolded matrix bit for bit there; box templates with n = 4
        # (mod 8) from n = 196 on round some columns differently
        new._basis = self.a.T @ self._basis
        new._full = None if self._folded else new._basis
        new._abs = None
        return new

    def support(self, d) -> float:
        """Support value in direction d (fresh O(k) evaluation)."""
        d = as_vector(d)
        if d.shape[0] != self.dim:
            raise ValueError("direction dimension mismatch")
        return float(self._from_scratch(d.reshape(-1, 1))[0])

    def _from_scratch(self, dmat: np.ndarray) -> np.ndarray:
        """Supports in the columns of ``dmat``, pulled back through k steps."""
        acc = np.zeros(dmat.shape[1])
        for _ in range(self.k):
            if self.inputs:
                acc += _summed_supports(self.inputs, dmat)
            dmat = self.a.T @ dmat
        return support_batch(self.base, dmat) + acc

    def concretize(self, directions: Optional[np.ndarray] = None) -> HPolytope:
        """Template H-polytope enclosure at the current step.

        Exact for the registered template directions; a superset of the
        true reach set overall, hence flagged non-exact.
        """
        if directions is None:
            vals = self._supports(self.base) + self._acc
            return HPolytope._trusted(self.dirs, vals, exact=False)
        directions = as_matrix(directions)
        if directions.shape[1] != self.dim:
            raise ValueError("direction dimension mismatch")
        return HPolytope(directions, self._from_scratch(directions.T), exact=False)


# ---------------------------------------------------------------------------
# time discretization


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


def _sup_norm_of_set(s: SetRep) -> float:
    lo, hi = axis_bounds(s)
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


def _ball(n: int, radius: float) -> Box:
    r = np.full(n, float(radius))
    return Box(-r, r)


def discretize_continuous(system: LinearSystem, config: ReachConfig):
    """Reduce ``dx/dt = A x + B v`` to a discrete recurrence over step r.

    Returns ``(a_step, omega0, err_ball)`` with ``a_step = e^{Ar}``.
    ``omega0`` covers the initial segment per the bloat policy and
    ``err_ball`` is the per-step error set E, a centered box.

    The stepping core adds ``r * BV + E`` per step.  E holds the input's
    curvature residual, of radius ``(e^u - 1 - u) / ||A||  *  sup ||Bv||``
    (u = ||A|| r), so that the sum covers the true convolution integral of
    the input over one step (E is the origin without an input); under the
    error_ball policy E also carries the state's fixed per-step fattening.
    """
    r, _ = _lattice(config, CONTINUOUS, system.dim)
    a = system.a
    n = system.dim
    a_step = mat_exp(a, r)
    u = _inf_norm(a) * r
    phi = math.expm1(u) - u  # e^u - 1 - u, accurate near 0
    r_v = 0.0
    if system.has_input:
        r_v = _sup_norm_of_set(linear_map(system.b, system.input_set))
    norm_a = _inf_norm(a)
    beta = (phi / norm_a) * r_v if norm_a > 0 else 0.0

    policy = config.bloat_policy
    if policy == SMALL_R:
        return a_step, system.x0, _ball(n, beta)
    if policy == ONCE_HULL:
        r_x = _sup_norm_of_set(system.x0)
        # chord defect of the matrix exponential over one step, plus the
        # input's first-step reachability radius
        gamma = ((math.expm1(u) / norm_a) if norm_a > 0 else r) * r_v
        eps = phi * r_x + gamma
        omega0 = hull_union(system.x0, linear_map(a_step, system.x0))
        if eps > 0:
            omega0 = bloat(omega0, eps)
        return a_step, omega0, _ball(n, beta)
    # error_ball: lattice semantics with a fixed fattening per step
    r_x = (
        float(config.state_bound)
        if config.state_bound is not None
        else _sup_norm_of_set(system.x0)
    )
    return a_step, system.x0, _ball(n, phi * r_x + beta)


def _template_dominates(q: _Prepared, p: SetRep) -> bool:
    """P subset of the prepared set Q, with an O(m) fast path for
    same-template H-forms; any other pair asks ``q.contains(p)``, which is
    ``contains_set(Q, P)``."""
    s = q.set
    if (
        isinstance(p, HPolytope)
        and isinstance(s, HPolytope)
        and (
            p.normals is s.normals
            or (
                p.normals.shape == s.normals.shape
                and np.array_equal(p.normals, s.normals)
            )
        )
    ):
        return bool(np.all(p.offsets <= s.offsets + TOL))
    return q.contains(p)


class _Seen:
    """The segments a fixpoint run has passed, asked whether one of them
    dominates the next.

    While every segment is an H-polytope over one normals buffer (every
    lazy run), their offsets plus ``TOL`` sit in one growing array, and one
    vectorised comparison per step gives what ``_template_dominates`` gives
    for each earlier segment, from the same floats.  The first segment off
    that buffer sends this and every later question to
    ``_template_dominates``, one earlier segment at a time, each held as
    one ``_Prepared`` operand made when it is first asked, so a vertex
    segment's facet form is built once, not once per later segment.
    """

    def __init__(self):
        self.sets = []
        self.prepared = []  # entry i: segment i as a _Prepared, once asked
        self.bounds = None  # row i: offsets of segment i + TOL
        self.shared = True

    def _operand(self, i: int) -> _Prepared:
        if i == len(self.prepared):
            self.prepared.append(_Prepared(self.sets[i]))
        return self.prepared[i]

    def dominated(self, p: SetRep) -> bool:
        """Whether a segment seen so far contains ``p``, which joins them."""
        k = len(self.sets)
        self.shared = self.shared and isinstance(p, HPolytope) and (
            k == 0 or p.normals is self.sets[0].normals)
        if self.shared:
            hit = k > 0 and bool(np.any(np.all(p.offsets <= self.bounds[:k], axis=1)))
            if k == 0:
                self.bounds = np.empty((16, p.offsets.shape[0]))
            elif k == self.bounds.shape[0]:
                self.bounds = np.concatenate([self.bounds, np.empty_like(self.bounds)])
            self.bounds[k] = p.offsets + TOL
        else:
            hit = any(_template_dominates(self._operand(i), p) for i in range(k))
        self.sets.append(p)
        return hit


# ---------------------------------------------------------------------------
# stepping core and driver


def _flow_steps(system: LinearSystem, config: ReachConfig) -> Iterator[Segment]:
    """Segments 0, 1, 2, ... of the flowpipe of ``system``, without end.

    Discretizes a continuous system, builds the per-step input and runs the
    strategy ``config.strategy`` selects; segment k+1 is computed only when
    the caller asks for it, so each driver stops on its own rules.  Only
    ``reach`` with a bad set asks ahead, by at most one block of segments
    (see there); every other driver asks for one segment at a time.  Dense
    continuous segments cover [k r, (k+1) r]; discrete and lattice ones are
    the snapshot at k r (r = 1 for discrete systems).  The supports the run
    reads of ``system.x0`` keep a simplex start on an H-polytope x0, which
    outlives the run: when the caller stops iterating, the run lets go of
    that start.
    """
    r, _ = _lattice(config, system.time_kind, system.dim)
    # per-step input: BV for discrete systems, r BV + E for continuous ones
    bv = linear_map(system.b, system.input_set) if system.has_input else None
    if system.time_kind == CONTINUOUS:
        a_step, omega0, err = discretize_continuous(system, config)
        dense = config.bloat_policy == ONCE_HULL
        parts = [] if bv is None else [linear_map(r * np.eye(system.dim), bv)]
        parts.append(err)
    else:
        a_step, omega0 = system.a, system.x0
        dense = False
        parts = [] if bv is None else [bv]
    inputs = tuple(p for p in parts if not _is_origin(p))

    if config.strategy == LAZY:
        lazy = LazyReachSet(omega0, a_step, inputs, config.template)
        current = lazy.concretize()
    elif config.strategy == VERTICES:
        current = _vform_enclosure(omega0)
        v_in = _vform_enclosure(reduce(minkowski_sum, inputs)) if inputs else None
    else:  # facets
        current = _hform_enclosure(omega0)

    k = 0
    try:
        while True:
            t = k * r
            yield Segment(k, t, (k + 1) * r if dense else t, current)
            k += 1
            if config.strategy == LAZY:
                lazy = lazy.advance()
                current = lazy.concretize()
            elif config.strategy == VERTICES:
                current = step_input_vertices(current, v_in, a_step)
            else:
                current = step_input_facets(current, inputs if inputs else None, a_step)
    finally:
        _drop_start(system.x0)


def _take(steps: Iterator[Segment], count: int) -> tuple[list, Optional[Exception]]:
    """Up to ``count`` segments from the stepping core, and the error that
    cut them short (None when there was none): a step computed past a
    bad-set hit must not fail the run that stops at the hit."""
    block = []
    try:
        block.extend(itertools.islice(steps, count))
    except Exception as error:
        return block, error
    return block, None


# the most segments reach takes from the stepping core at once in bad-set
# mode; blocks double from one up to this many
_BLOCK_MAX = 64


def reach(system: LinearSystem, config: ReachConfig) -> Flowpipe:
    """Compute the flowpipe of ``system`` under ``config``.

    Takes segments from the stepping core until the horizon (or, in
    fixpoint mode, ``max_steps``).  Early exit on bad-set contact
    (bad_set mode) or on inclusion in an already-seen segment (fixpoint
    mode, decided by template domination, one vectorised comparison per
    step over a lazy run's shared template).  A continuous system's
    bad-set question needs the dense policy: a lattice one is refused.

    The bad set is prepared once per run (``setgeom._Prepared``) and asked
    about blocks of segments, 1, 2, 4, ... up to ``_BLOCK_MAX`` at a time,
    through one batched precheck per block (``_Prepared.first_meeting``).
    So the run looks ahead at most one block, computes no more steps past
    its last kept segment than it kept, and discards every segment past a
    hit, as well as an error raised by a step past it; the flowpipe,
    status and step are those of asking one segment at a time.  Bounded
    and fixpoint runs without a bad set take one segment at a time.
    """
    r, nsteps = _lattice(config, system.time_kind, system.dim)
    if config.mode == BAD_SET and system.time_kind == CONTINUOUS:
        _dense_only(config, "a bad-set question")
    limit = nsteps
    if config.mode == FIXPOINT:
        limit = (
            config.max_steps
            if config.max_steps is not None
            else (10 * nsteps if nsteps > 0 else 10000)
        )

    segments = []
    status, status_step = HORIZON, None
    steps = _flow_steps(system, config)
    try:
        if config.bad_set is None:
            seen = _Seen()
            for seg in steps:
                segments.append(seg)
                if config.mode == FIXPOINT and seen.dominated(seg.set_rep):
                    status, status_step = FIXPOINT_REACHED, seg.k
                    break
                if seg.k >= limit:
                    break
        else:
            bad = _Prepared(config.bad_set)
            size = 1
            while len(segments) <= limit:
                block, error = _take(steps, min(size, limit + 1 - len(segments)))
                hit = bad.first_meeting([seg.set_rep for seg in block])
                if hit is not None:
                    segments += block[:hit + 1]
                    status, status_step = BAD_REACHED, block[hit].k
                    break
                if error is not None:
                    raise error
                segments += block
                size = min(2 * size, _BLOCK_MAX)
    finally:
        steps.close()

    return Flowpipe(
        tuple(segments),
        status,
        status_step=status_step,
        time_step=r if system.time_kind == CONTINUOUS else None,
    )


# ---------------------------------------------------------------------------
# trajectory sampling


# exact one-step matrices reused across simulations; keyed by matrix
# content, not identity, so equal systems and modes share entries
_STEP_MATS: dict = {}
_STEP_MATS_CAP = 8192


def _step_matrices(a: np.ndarray, b: Optional[np.ndarray], tau: float):
    """``(e^{A tau}, int_0^tau e^{A s} ds B)``: the exact one-step solution
    of ``x' = A x + B v`` under a zero-order hold (no second matrix without
    a gain)."""
    key = (tau, a.tobytes(), None if b is None else b.tobytes())
    hit = _STEP_MATS.get(key)
    if hit is not None:
        return hit
    a_step = mat_exp(a, tau)
    b_step = None if b is None else _exp_integral(a, tau) @ b
    if len(_STEP_MATS) >= _STEP_MATS_CAP:
        _STEP_MATS.clear()
    _STEP_MATS[key] = (a_step, b_step)
    return a_step, b_step


def simulate(
    system: LinearSystem,
    x0,
    inputs: Optional[Sequence] = None,
    steps: Optional[int] = None,
    step: Optional[float] = None,
) -> SimTrace:
    """One exact trajectory of the system from the point x0.

    Discrete systems iterate the map; continuous systems apply the exact
    one-step solution under a zero-order hold, i.e. the input is held
    constant over each step.  Every supplied input value must lie in the
    system's input set.
    """
    x0 = as_vector(x0)
    if x0.shape[0] != system.dim:
        raise ValueError("initial state dimension mismatch")
    if inputs is None:
        if system.has_input:
            raise ValueError("system has an input: per-step values are required")
        if steps is None:
            raise ValueError("autonomous simulation needs an explicit step count")
        seq = None
        nsteps = int(steps)
    else:
        seq = [as_vector(z) for z in inputs]
        for z in seq:
            if not member(system.input_set, z):
                raise ValueError("input value outside the admissible input set")
        if steps is not None and int(steps) != len(seq):
            raise ValueError("steps and input sequence length disagree")
        nsteps = len(seq)

    # the step rule of reach's time lattice; the step count is the caller's
    r, _ = _lattice(ReachConfig(horizon=0, step=step), system.time_kind, system.dim)
    continuous = system.time_kind == CONTINUOUS
    a_step, b_step = (_step_matrices(system.a, system.b, r) if continuous
                      else (system.a, system.b))

    states = np.empty((nsteps + 1, system.dim))
    states[0] = x0
    x = x0
    for k in range(nsteps):
        x = a_step @ x
        if seq is not None:
            x = x + b_step @ seq[k]
        states[k + 1] = x
    if not np.all(np.isfinite(states)):
        raise ValueError("vector has non-finite entries")
    return SimTrace(
        states,
        np.array(seq) if seq is not None else None,
        time_step=(r if continuous else None),
    )
