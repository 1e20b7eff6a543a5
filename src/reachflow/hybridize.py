"""Reachability for nonlinear systems via linearization with error bounds.

The vector field is replaced, over a bounded domain, by an affine system
``dx/dt = A x + b + w`` whose disturbance w ranges over a box that
contains the linearization residual everywhere on the domain.  Flowpipes
of the affine relaxation then over-approximate the nonlinear flow as
long as it stays inside the domain.  Two drivers are provided: a static
grid partition that becomes an ordinary hybrid automaton (one mode per
cell, face guards between neighbours), and a dynamic scheme in epochs,
each of which wraps a domain around the current reach set and runs the
stepping core until the flowpipe leaves it.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .linreach import (
    BAD_REACHED,
    CONTINUOUS,
    FIXPOINT,
    HORIZON,
    Flowpipe,
    LinearSystem,
    ReachConfig,
    Segment,
    _dense_only,
    _flow_steps,
    _lattice,
)
from .hybridreach import HybridAutomaton, Mode, Transition
from .numkernel import as_matrix, as_vector
from .setgeom import (
    Box,
    SetRep,
    _Prepared,
    bounding_box,
    contains_set,
    member,
)

log = logging.getLogger(__name__)

STALLED = "stalled"


@dataclass(frozen=True, eq=False)
class NonlinearSystem:
    """``dx/dt = f(x)`` with optional analytic Jacobian and curvature bound.

    ``hessian_bound`` bounds, per coordinate i, the spectral norm of the
    Hessian of f_i.  It may be a scalar, a per-coordinate vector, or a
    callable ``(lower, upper) -> scalar or vector`` evaluated on the box
    the bound is needed for.  Without it, linearization falls back to a
    sampled residual estimate and results are no longer guaranteed
    enclosures.
    """

    f: Callable[[np.ndarray], np.ndarray]
    dim: int
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian_bound: Union[None, float, Sequence, Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("state dimension must be positive")

    def field(self, x) -> np.ndarray:
        out = as_vector(self.f(as_vector(x)))
        if out.shape[0] != self.dim:
            raise ValueError("vector field output dimension mismatch")
        return out

    def jacobian(self, x) -> np.ndarray:
        x = as_vector(x)
        if self.jac is not None:
            j = as_matrix(self.jac(x))
            if j.shape != (self.dim, self.dim):
                raise ValueError("Jacobian shape mismatch")
            return j
        return _fd_jacobian(self.field, x)

    def curvature(self, lower, upper) -> Optional[np.ndarray]:
        if self.hessian_bound is None:
            return None
        h = self.hessian_bound
        if callable(h):
            h = h(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        h = np.broadcast_to(np.asarray(h, dtype=float), (self.dim,)).copy()
        if np.any(h < 0):
            raise ValueError("curvature bound must be nonnegative")
        return h


def _fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with a relative step."""
    n = x.shape[0]
    fx = f(x)
    out = np.empty((fx.shape[0], n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros(n)
        e[j] = h
        out[:, j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


@dataclass(frozen=True, eq=False)
class Linearization:
    """Affine enclosure ``f(x) in A x + b + [-err, err]`` valid on a box."""

    a: np.ndarray
    b: np.ndarray
    err: np.ndarray  # per-coordinate residual radius
    rigorous: bool

    def disturbance_set(self) -> Box:
        """The constant term and the residual as one input box
        ``b + [-err, err]``, entering with the identity gain."""
        return Box(self.b - self.err, self.b + self.err)


def linearize(system: NonlinearSystem, domain: Box) -> Linearization:
    """Affine enclosure of the field over ``domain``.

    Expansion at the domain center c: A = Jf(c), b = f(c) - A c.  With a
    curvature bound H the Taylor remainder gives the rigorous residual
    radius ``err_i = H_i/2 * d^2`` where d is the largest Euclidean
    distance from c inside the box (the half-diagonal).  Without one, the
    residual is estimated from samples (a fixed seed, so runs repeat),
    doubled, and flagged non-rigorous.
    """
    if domain.dim != system.dim:
        raise ValueError("domain dimension does not match the system")
    c = domain.center
    a = system.jacobian(c)
    b = system.field(c) - a @ c
    h = system.curvature(domain.lower, domain.upper)
    if h is not None:
        d2 = float(domain.radii @ domain.radii)
        return Linearization(a, b, 0.5 * h * d2, rigorous=True)
    rng = np.random.default_rng(0)
    pts = [c, domain.lower.copy(), domain.upper.copy()]
    if domain.dim <= 10:
        pts.extend(
            np.array(corner)
            for corner in itertools.product(*zip(domain.lower, domain.upper))
        )
    pts.extend(rng.uniform(domain.lower, domain.upper, size=(256, domain.dim)))
    resid = np.zeros(system.dim)
    for x in pts:
        resid = np.maximum(resid, np.abs(system.field(x) - (a @ x + b)))
    log.warning(
        "no curvature bound: linearization residual estimated from samples "
        "and doubled; the enclosure is not guaranteed"
    )
    return Linearization(a, b, 2.0 * resid, rigorous=False)


# ---------------------------------------------------------------------------
# static partition


@dataclass(frozen=True, eq=False)
class StaticHybridization:
    automaton: HybridAutomaton
    domain: Box
    shape: tuple  # cells per axis
    cells: dict  # mode name -> cell Box
    rigorous: bool

    def mode_containing(self, x) -> str:
        x = as_vector(x)
        for name, cell in self.cells.items():
            if member(cell, x):
                return name
        raise ValueError("point lies outside the partitioned domain")

    def initial(self, x0: SetRep):
        """Initial mode and entry set for ``x0``: the cell of its bounding
        box's center, entered by x0 itself.  An x0 that this cell does not
        contain is refused: a flow from one cell would miss the states of
        x0 in the others.
        """
        name = self.mode_containing(bounding_box(x0).center)
        if not contains_set(self.cells[name], x0):
            raise ValueError(f"initial set is not inside its center cell {name}")
        return name, x0


def static_hybridize(
    system: NonlinearSystem,
    domain: Box,
    grid: Union[int, Sequence[int]],
    max_cells: int = 1024,
) -> StaticHybridization:
    """Partition ``domain`` into a grid and linearize each cell into a mode.

    Adjacent cells are connected both ways; the guard of each transition
    is the shared face.  One pass over the cells, in grid order (the last
    axis fastest), gives each cell's mode and the two transitions across
    each of its upper faces.  The cell count is capped: refusing a huge grid
    beats silently building an automaton that can never be explored.
    """
    n = system.dim
    if domain.dim != n:
        raise ValueError("domain dimension does not match the system")
    shape = np.broadcast_to(np.asarray(grid, dtype=int), (n,)).copy()
    if np.any(shape < 1):
        raise ValueError("grid must have at least one cell per axis")
    total = int(np.prod(shape))
    if total > max_cells:
        raise ValueError(
            f"grid would create {total} cells (cap {max_cells}); "
            "coarsen the grid or raise max_cells"
        )
    edges = [
        np.linspace(domain.lower[i], domain.upper[i], shape[i] + 1)
        for i in range(n)
    ]

    def cell_name(idx):
        return "cell_" + "_".join(str(i) for i in idx)

    modes = []
    transitions = []
    cells = {}
    rigorous = True
    for idx in itertools.product(*(range(s) for s in shape)):
        name = cell_name(idx)
        cell = Box([edges[i][j] for i, j in enumerate(idx)],
                   [edges[i][j + 1] for i, j in enumerate(idx)])
        lin = linearize(system, cell)
        rigorous = rigorous and lin.rigorous
        modes.append(Mode(name, lin.a, input_set=lin.disturbance_set(), invariant=cell))
        cells[name] = cell
        # both ways across each upper face, to the neighbour one cell up
        for axis in range(n):
            if idx[axis] + 1 < shape[axis]:
                other = cell_name(idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:])
                face = Box(np.where(np.arange(n) == axis, cell.upper, cell.lower), cell.upper)
                transitions.append(Transition(name, other, guard=face))
                transitions.append(Transition(other, name, guard=face))

    auto = HybridAutomaton(tuple(modes), tuple(transitions), time_kind=CONTINUOUS)
    return StaticHybridization(auto, domain, tuple(int(s) for s in shape), cells, rigorous)


# ---------------------------------------------------------------------------
# dynamic domains


@dataclass(frozen=True)
class DynamicFlowpipe(Flowpipe):
    """A ``Flowpipe`` whose status may also be ``stalled``, with the domain
    of each rebuild epoch and whether every linearization was rigorous.
    Pipes compare by their fields, as a ``Flowpipe`` does."""

    domains: tuple = ()
    rigorous: bool = True


# each epoch's domain: the reach set's bounding box padded by this share
# of its width on every side, and at least min_pad
_PAD_FRACTION = 0.5
# domain rebuilds before a run counts as stalled
_MAX_REBUILDS = 10000


def _inflate(box: Box, pad_fraction: float, min_pad: float) -> Box:
    pad = np.maximum(pad_fraction * (box.upper - box.lower), min_pad)
    return Box(box.lower - pad, box.upper + pad)


def dynamic_hybridize_reach(
    system: NonlinearSystem,
    x0: SetRep,
    config: ReachConfig,
    min_pad: float = 0.1,
) -> DynamicFlowpipe:
    """Flowpipe of a nonlinear system with on-the-fly domains.

    Each epoch linearizes over a box wrapped around the current reach set
    (its bounding box inflated by half its width on every side, at least
    ``min_pad``) and advances the affine flowpipe, with the strategy
    ``config.strategy`` selects, while its segments stay inside that box
    -- segment containment in the domain is what makes the residual
    bound, and hence the enclosure, valid.  Segments are numbered by the
    pipe's length as they are kept.  The first segment that leaves the
    domain ends the epoch, and the next one starts from the last kept
    segment; an epoch that keeps nothing is retried once from its entry's
    bounding box padded by ``min_pad``.  A second empty epoch in a row, or
    10000 epochs in all, stall the run; the truncated pipe is returned with
    status ``stalled``.  The bad set, and each epoch's domain for the
    containment test, are prepared once (``setgeom._Prepared``).
    """
    r, total = _lattice(config, CONTINUOUS, system.dim)
    if config.mode == FIXPOINT:
        raise ValueError("fixpoint mode is not supported with hybridization")
    _dense_only(config, "a domain question")
    bad = None if config.bad_set is None else _Prepared(config.bad_set)

    segments = []
    domains = []
    rigorous = True
    entry: SetRep = x0
    retried = False  # whether this epoch retries an epoch that kept nothing
    status, status_step = HORIZON, None

    while len(segments) <= total:
        if len(domains) >= _MAX_REBUILDS:
            status, status_step = STALLED, len(segments)
            break
        box = bounding_box(entry)
        domain = _inflate(box, _PAD_FRACTION, min_pad)
        domains.append(domain)
        inside = _Prepared(domain)
        lin = linearize(system, domain)
        rigorous = rigorous and lin.rigorous
        affine = LinearSystem(
            lin.a, entry, input_set=lin.disturbance_set(), time_kind=CONTINUOUS
        )
        before = len(segments)
        for seg in _flow_steps(affine, config):
            current = seg.set_rep
            if not inside.contains(current):
                break  # rebuild around the last kept segment
            segments.append(
                Segment(len(segments), len(segments) * r, (len(segments) + 1) * r, current)
            )
            if bad is not None and bad.meets(current):
                status, status_step = BAD_REACHED, len(segments) - 1
                break
            if len(segments) > total:
                break
        if status != HORIZON:
            break
        empty = len(segments) == before
        if empty and retried:
            status, status_step = STALLED, len(segments)
            break
        # an epoch that kept nothing is retried once with a wider margin
        retried = empty
        entry = _inflate(box, 0.0, min_pad) if empty else segments[-1].set_rep

    return DynamicFlowpipe(
        tuple(segments),
        status,
        status_step=status_step,
        time_step=r,
        domains=tuple(domains),
        rigorous=rigorous,
    )
