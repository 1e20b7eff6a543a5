"""Flowpipe computation for hybrid automata with linear mode dynamics.

A hybrid automaton is a finite set of modes, each with linear (or
linear-with-input) dynamics and an invariant, connected by guarded
transitions with optional affine resets.  Reachability interleaves
per-mode flowpipe computation with discrete jumps: guard intersections
are collected per step, clustered over contiguous step runs, reset, and
fed back into a FIFO worklist until it drains, a bad state is hit, or
the jump-depth bound is exceeded.  A mode's flow (``mode_reach``) is
fixed by the automaton and the mode's name: the mode's dynamics and
invariant, its outgoing transitions and the automaton's time kind.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from itertools import groupby
from typing import Optional

import numpy as np

from .linreach import (
    BAD_REACHED,
    COMPLETED,
    CONTINUOUS,
    DISCRETE,
    FIXPOINT,
    HORIZON,
    LinearSystem,
    ReachConfig,
    _dense_only,
    _dynamics,
    _flow_steps,
    _lattice,
    _step_matrices,
)
from .numkernel import as_matrix, as_vector
from .setgeom import (
    Box,
    HPolytope,
    SetRep,
    _member_rows,
    _Prepared,
    hull_union,
    linear_map,
    sample_points,
    translate,
)

INCOMPLETE = "incomplete"


@dataclass(frozen=True, eq=False)
class Mode:
    """One discrete location: linear dynamics restricted to an invariant.

    The dynamics are checked as ``LinearSystem`` checks them, so ``b`` is
    the identity when an input set comes without a gain.
    """

    name: str
    a: np.ndarray
    b: Optional[np.ndarray] = None
    input_set: Optional[SetRep] = None
    invariant: Optional[SetRep] = None  # None means the whole space

    def __post_init__(self):
        try:
            a, b = _dynamics(self.a, self.b, self.input_set)
        except ValueError as e:
            raise ValueError(f"mode {self.name!r}: {e}") from None
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.invariant is not None and not isinstance(self.invariant, (Box, HPolytope)):
            raise ValueError(f"mode {self.name!r}: invariant must be a Box or HPolytope")
        if self.invariant is not None and self.invariant.dim != a.shape[0]:
            raise ValueError(f"mode {self.name!r}: invariant dimension mismatch")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class Transition:
    """Guarded jump between modes with an optional affine reset x' = Mx + c."""

    source: str
    target: str
    guard: SetRep
    reset_matrix: Optional[np.ndarray] = None
    reset_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.guard, (Box, HPolytope)):
            raise ValueError("guard must be a Box or HPolytope")
        if self.reset_matrix is not None:
            object.__setattr__(self, "reset_matrix", as_matrix(self.reset_matrix))
        if self.reset_offset is not None:
            object.__setattr__(self, "reset_offset", as_vector(self.reset_offset))

    def apply_reset(self, s: SetRep) -> SetRep:
        out = s
        if self.reset_matrix is not None:
            out = linear_map(self.reset_matrix, out)
        if self.reset_offset is not None:
            out = translate(out, self.reset_offset)
        return out

    def apply_reset_point(self, x: np.ndarray) -> np.ndarray:
        if self.reset_matrix is not None:
            x = self.reset_matrix @ x
        if self.reset_offset is not None:
            x = x + self.reset_offset
        return x


@dataclass(frozen=True, eq=False)
class HybridAutomaton:
    modes: tuple
    transitions: tuple
    time_kind: str = CONTINUOUS

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        names = [m.name for m in self.modes]
        if len(set(names)) != len(names):
            raise ValueError("mode names must be unique")
        if not self.modes:
            raise ValueError("automaton needs at least one mode")
        dims = {m.dim for m in self.modes}
        if len(dims) != 1:
            raise ValueError("all modes must share one state dimension")
        n = dims.pop()
        by_name = {m.name: m for m in self.modes}
        for tr in self.transitions:
            where = f"transition {tr.source!r} -> {tr.target!r}"
            for end in (tr.source, tr.target):
                if end not in by_name:
                    raise ValueError(f"{where}: endpoint {end!r} is not a mode")
            if tr.guard.dim != n:
                raise ValueError(f"{where}: guard dimension does not match the state space")
            if tr.reset_matrix is not None and tr.reset_matrix.shape != (n, n):
                raise ValueError(f"{where}: reset matrix must map the state space to itself")
            if tr.reset_offset is not None and tr.reset_offset.shape != (n,):
                raise ValueError(f"{where}: reset offset dimension mismatch")
        if self.time_kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"unknown time kind {self.time_kind!r}")

    @property
    def dim(self) -> int:
        return self.modes[0].dim

    def mode(self, name: str) -> Mode:
        for m in self.modes:
            if m.name == name:
                return m
        raise KeyError(f"no mode named {name!r}")

    def outgoing(self, name: str):
        return [t for t in self.transitions if t.source == name]


@dataclass(frozen=True, eq=False)
class ModeFlow:
    """One continuous flow episode: a flowpipe inside a single mode.

    Segment steps are local; globally the flow is aligned to its earliest
    possible entry.  A guard can stay enabled over a run of steps, so the
    actual entry time is only known up to ``entry_spread`` steps: segment
    k covers the global times [(entry_step + k) r,
    (entry_step + k + 1 + entry_spread) r].  Safety checks are unaffected
    (they quantify over all segments); the spread only matters when
    slicing the pipe by time.
    """

    mode: str
    entry_step: int  # global step index of the earliest possible entry
    depth: int  # number of jumps taken before entering
    segments: tuple
    status: str  # horizon | completed | bad_reached
    status_step: Optional[int] = None
    entry_spread: int = 0  # entry-time uncertainty inherited from jumps


@dataclass(frozen=True, eq=False)
class Jump:
    transition: Transition
    from_flow: int
    to_flow: Optional[int]  # None when pruned or left unexplored
    step_lo: int  # contiguous guard-run bounds, local to the source flow
    step_hi: int
    pre: SetRep  # guard cluster before reset
    post: SetRep  # entry set after reset, clipped to the target invariant
    pruned: bool = False


@dataclass(frozen=True, eq=False)
class HybridFlowpipe:
    flows: tuple
    jumps: tuple
    status: str  # completed | bad_reached | incomplete
    time_step: Optional[float] = None
    bad_flow: Optional[int] = None

    def all_segments(self):
        """Flattened (mode name, segment) pairs across every flow."""
        for flow in self.flows:
            for seg in flow.segments:
                yield flow.mode, seg


def mode_reach(
    automaton: HybridAutomaton,
    name: str,
    entry: SetRep,
    config: ReachConfig,
    nsteps: int,
):
    """Flowpipe of the automaton's mode ``name`` from ``entry``, clipped to
    the mode's invariant.

    The flow runs in the automaton's time kind, asks the guards of
    ``automaton.outgoing(name)`` at every step and stops at the first
    segment that meets ``config.bad_set`` (when there is one).  The step
    recurrence itself is never clipped (trajectories that left the
    invariant are dropped from the output but stay in the recurrence,
    which only over-approximates).  Segments are recorded clipped; the
    run stops early once ``intersect`` finds nothing of a segment inside
    the invariant, since no trajectory can still be flowing there.  Each
    question, invariant or guard, is one ``intersect``: its piece, or None
    when the sets are disjoint.  The invariant, each guard and the bad set
    are prepared once per call (``setgeom._Prepared``): the segments share
    one template and the clipped pieces one stacked template, so a step's
    questions cost arithmetic on its offsets unless one of them needs the
    emptiness LP.

    Returns ``(segments, hits, status, status_step)`` where hits lists,
    for each outgoing transition in order, its per-step guard pieces
    ``[(k, piece), ...]``.
    """
    mode = automaton.mode(name)
    transitions = automaton.outgoing(name)
    inv = None if mode.invariant is None else _Prepared(mode.invariant)
    guards = [_Prepared(tr.guard) for tr in transitions]
    bad = None if config.bad_set is None else _Prepared(config.bad_set)
    hits = [[] for _ in transitions]
    segments = []
    status, status_step = HORIZON, None

    system = LinearSystem(
        mode.a, entry, b=mode.b, input_set=mode.input_set,
        time_kind=automaton.time_kind,
    )
    for seg in _flow_steps(system, config):
        k = seg.k
        # a segment of the stepping core is never empty, so only an
        # invariant can end the flow
        clipped = seg.set_rep if inv is None else inv.intersect(seg.set_rep)
        if clipped is None:
            # nothing remains inside the invariant: the flow is over
            status, status_step = COMPLETED, k
            break
        segments.append(replace(seg, set_rep=clipped))
        for i, guard in enumerate(guards):
            piece = guard.intersect(clipped)
            if piece is not None:
                hits[i].append((k, piece))
        if bad is not None and bad.meets(clipped):
            status, status_step = BAD_REACHED, k
            break
        if k >= nsteps:
            break

    return tuple(segments), hits, status, status_step


def guard_cross(hits, transition: Transition):
    """Cluster per-step guard pieces and apply the reset.

    ``hits`` is one transition's ``[(k, piece), ...]`` from ``mode_reach``,
    in step order.  Each run of contiguous steps becomes one cluster, the
    hull of its pieces taken left to right (``hull_union``, or an enclosure
    of it), so a guard grazed over many consecutive steps spawns a single
    successor instead of one per step.  Returns
    ``[(k_lo, k_hi, pre_cluster, post_set), ...]``, empty when there are
    no hits.
    """
    out = []
    # k minus its position is constant exactly along a contiguous run
    for _, run in groupby(enumerate(hits), key=lambda item: item[1][0] - item[0]):
        ks, pieces = zip(*(hit for _, hit in run))
        cluster = reduce(hull_union, pieces)
        out.append((ks[0], ks[-1], cluster, transition.apply_reset(cluster)))
    return out


def hybrid_reach(
    automaton: HybridAutomaton,
    init_mode: str,
    init_set: SetRep,
    config: ReachConfig,
    jump_depth: int = 8,
    max_flows: int = 512,
) -> HybridFlowpipe:
    """Reachability over mode changes, breadth-first in jump depth.

    Every worklist item is a (mode, entry set, global step offset, jump
    depth) tuple.  An entry contained in an already-explored entry of the
    same mode with at least as many remaining steps is pruned; each
    explored entry is prepared once (``setgeom._Prepared``).  Exceeding
    ``jump_depth`` or ``max_flows`` leaves work unfinished and the result
    is flagged ``incomplete``; a bad-set hit aborts immediately.  A
    continuous automaton's guards are dense-time questions, so it refuses
    a lattice bloat policy.
    """
    automaton.mode(init_mode)  # raises on unknown name
    if config.mode == FIXPOINT:
        raise ValueError("fixpoint mode is not supported with hybrid automata")
    r, total_steps = _lattice(config, automaton.time_kind, automaton.dim)
    if automaton.time_kind == CONTINUOUS:
        _dense_only(config, "a guard question")

    flows = []
    # a jump is recorded when its crossing is found; its successor's
    # worklist item carries the jump's index, and popping the item settles
    # whether the jump was pruned or which flow it leads to
    jumps = []
    # (mode name, prepared entry, remaining steps); an entry without an
    # exact facet form contains nothing it is asked about
    explored = []
    queue = deque([(init_mode, init_set, 0, 0, 0, None)])
    # the invariants jumps enter, prepared once per run
    invariants = {m.name: _Prepared(m.invariant) for m in automaton.modes
                  if m.invariant is not None}
    status = COMPLETED
    bad_flow = None

    while queue:
        mode_name, entry, offset, spread, depth, jump = queue.popleft()
        remaining = total_steps - offset
        if any(
            name == mode_name and remaining <= rem and old.contains(entry)
            for name, old, rem in explored
        ):
            jumps[jump] = replace(jumps[jump], pruned=True)
            continue
        if len(flows) >= max_flows:
            status = INCOMPLETE
            break
        explored.append((mode_name, _Prepared(entry), remaining))
        segments, hits, flow_status, flow_step = mode_reach(
            automaton, mode_name, entry, config, remaining
        )
        flow_idx = len(flows)
        if jump is not None:
            jumps[jump] = replace(jumps[jump], to_flow=flow_idx)
        flows.append(
            ModeFlow(
                mode_name, offset, depth, segments, flow_status, flow_step,
                entry_spread=spread,
            )
        )
        if flow_status == BAD_REACHED:
            status, bad_flow = BAD_REACHED, flow_idx
            break
        for tr, tr_hits in zip(automaton.outgoing(mode_name), hits):
            for k_lo, k_hi, pre, post in guard_cross(tr_hits, tr):
                inv = invariants.get(tr.target)
                entry_next = post if inv is None else inv.intersect(post)
                if entry_next is None:
                    continue
                jumps.append(Jump(tr, flow_idx, None, k_lo, k_hi, pre, entry_next))
                if depth + 1 > jump_depth:
                    status = INCOMPLETE
                    continue
                # the crossing happened somewhere in [k_lo, k_hi]: align the
                # successor to the earliest step and widen its entry spread
                queue.append((
                    tr.target, entry_next, offset + k_lo,
                    spread + (k_hi - k_lo), depth + 1, len(jumps) - 1,
                ))

    return HybridFlowpipe(
        tuple(flows),
        tuple(jumps),
        status,
        time_step=r if automaton.time_kind == CONTINUOUS else None,
        bad_flow=bad_flow,
    )


# ---------------------------------------------------------------------------
# trajectory sampling


@dataclass(frozen=True, eq=False)
class HybridTrace:
    states: np.ndarray  # (samples, n)
    times: np.ndarray  # (samples,)
    modes: tuple  # mode name per sample
    truncated: bool  # the trace got stuck before the horizon


URGENT = "urgent"
DELAYED = "delayed"
RANDOM = "random"

def _input_draw(mode: Mode, rng: np.random.Generator):
    """Inputs for k traces flowing in the mode, one row each (None without
    an input set); a point input set draws nothing."""
    v = mode.input_set
    if v is None:
        return lambda k: None
    if isinstance(v, Box) and np.array_equal(v.lower, v.upper):
        return lambda k: np.broadcast_to(v.lower, (k, v.dim))
    return lambda k: sample_points(v, k, rng)


def hybrid_simulate(
    automaton: HybridAutomaton,
    init_mode: str,
    x0,
    horizon: float,
    step: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    jump_policy: str = RANDOM,
    jump_probability: float = 0.5,
    max_samples: Optional[int] = None,
) -> HybridTrace | tuple[HybridTrace, ...]:
    """Sample trajectories of the automaton.

    ``x0`` is one start state ``(n,)``, which returns one ``HybridTrace``,
    or a stack of starts ``(N, n)``, which returns a tuple of N traces in
    row order.  All traces advance together as one state array, one
    sample per trace and round.

    Continuous flows advance with the exact one-step solution under a
    zero-order hold on a per-step random input.  When a step would leave
    the invariant, the crossing time is located by bisection and the
    state is clamped onto the boundary; an enabled transition must then
    be taken (the trace is truncated if none lands).  ``urgent`` jumps as
    soon as a guard is enabled, ``delayed`` jumps only when forced, and
    ``random`` flips a coin per enabled step.  A trace that reaches
    ``max_samples`` samples is truncated too; the others go on.

    Each round draws, in this order: one coin per trace with an enabled
    guard (``random`` only), a permutation of the enabled transitions per
    trace that jumps, the inputs of the flowing traces mode by mode, and a
    permutation per trace that reaches its invariant's boundary.  So the
    draws of one trace depend on the other starts of its stack.

    A crossing is searched between consecutive samples, so a flow that
    leaves and re-enters the invariant within one step can be missed;
    shrink the step if that matters.
    """
    if jump_policy not in (URGENT, DELAYED, RANDOM):
        raise ValueError(f"unknown jump policy {jump_policy!r}")
    rng = rng if rng is not None else np.random.default_rng()
    continuous = automaton.time_kind == CONTINUOUS
    # the time lattice of hybrid_reach: a discrete horizon counts steps
    r, nsteps = _lattice(ReachConfig(horizon=horizon, step=step),
                         automaton.time_kind, automaton.dim)
    if max_samples is None:
        max_samples = 10 * nsteps + 100

    starts = np.asarray(x0, dtype=float)
    n = automaton.dim
    if starts.ndim not in (1, 2) or starts.shape[-1] != n:
        raise ValueError(f"initial states must have shape ({n},) or (N, {n}), "
                         f"got {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("initial state has non-finite entries")
    x = np.array(starts, ndmin=2)

    modes = automaton.modes
    start = modes.index(automaton.mode(init_mode))
    index = {m.name: i for i, m in enumerate(modes)}
    inv = [_member_rows(m.invariant) for m in modes]
    draw = [_input_draw(m, rng) for m in modes]
    # per mode: its outgoing transitions with target index and guard test
    outs = [[(tr, index[tr.target], _member_rows(tr.guard))
             for tr in automaton.outgoing(m.name)] for m in modes]
    nguards = max(map(len, outs))

    if not np.all(inv[start](x)):
        raise ValueError("initial state violates the mode invariant")

    def advance(m, xs, zs, tau):
        a_step, b_step = (_step_matrices(modes[m].a, modes[m].b, tau) if continuous
                          else (modes[m].a, modes[m].b))
        out = xs @ a_step.T
        return out if zs is None else out + zs @ b_step.T

    def enabled(ids, points):
        """Enabled outgoing transitions, one row per trace, in its mode's order."""
        out = np.zeros((ids.size, nguards), dtype=bool)
        here = loc[ids]
        for m in np.unique(here):
            pos = np.flatnonzero(here == m)
            for j, (_, _, guard) in enumerate(outs[m]):
                out[pos, j] = guard(points[pos])
        return out

    def take_jump(i, point, row):
        # try the enabled transitions in random order; a jump may still be
        # blocked by the target invariant
        options = np.flatnonzero(row)
        for j in rng.permutation(options.size):
            tr, target, _ = outs[loc[i]][options[j]]
            y = tr.apply_reset_point(point)
            if inv[target](y[None])[0]:
                return target, y
        return None

    ntraces = x.shape[0]
    loc = np.full(ntraces, start)  # mode index per trace
    t = np.zeros(ntraces)
    count = np.zeros(ntraces, dtype=int)
    active = np.ones(ntraces, dtype=bool)
    truncated = np.zeros(ntraces, dtype=bool)
    # one entry per recorded sample batch: (trace ids, states, times, modes);
    # a trace gets at most one sample per round, so a stable sort by trace
    # id puts every trace's samples in time order
    log = []

    def record(ids):
        log.append((ids, x[ids], t[ids], loc[ids]))
        count[ids] += 1

    record(np.arange(ntraces))
    while True:
        live = np.flatnonzero(active)
        done = t[live] >= horizon - 1e-12
        full = ~done & (count[live] >= max_samples)
        truncated[live[full]] = True
        active[live[done | full]] = False
        live = live[~(done | full)]
        if live.size == 0:
            break

        # consider jumping before flowing
        jumped = np.zeros(live.size, dtype=bool)
        if jump_policy != DELAYED:
            rows = enabled(live, x[live])
            go = rows.any(axis=1)
            if jump_policy == RANDOM and go.any():
                go[go] = rng.uniform(size=np.count_nonzero(go)) < jump_probability
            for p in np.flatnonzero(go):
                i = live[p]
                landed = take_jump(i, x[i], rows[p])
                if landed is not None:
                    loc[i], x[i] = landed
                    jumped[p] = True
            record(live[jumped])

        flowing = live[~jumped]
        tau = np.minimum(r, horizon - t[flowing]) if continuous else np.ones(flowing.size)
        crossed = []  # (trace ids, boundary states, crossing times)
        here = loc[flowing]
        for m in np.unique(here):
            sel = np.flatnonzero(here == m)
            zs = draw[m](sel.size)
            for tv in np.unique(tau[sel]):
                sub = tau[sel] == tv
                ids, z = flowing[sel[sub]], None if zs is None else zs[sub]
                nxt = advance(m, x[ids], z, float(tv))
                ok = inv[m](nxt)
                x[ids[ok]] = nxt[ok]
                t[ids[ok]] += tv
                record(ids[ok])
                if ok.all():
                    continue
                ids, z = ids[~ok], None if z is None else z[~ok]
                if not continuous:
                    crossed.append((ids, x[ids], t[ids]))  # stay at the pre-step state
                    continue
                # the step exits the invariant: clamp onto the boundary.
                # Bisect incrementally: carry the states at the inside
                # endpoints and probe with halving durations, so the step
                # matrices come from a fixed tau/2^j sequence the cache can serve
                lo, y, width = np.zeros(ids.size), x[ids], float(tv)
                for _ in range(40):
                    width *= 0.5
                    mid = advance(m, y, z, width)
                    inside = inv[m](mid)
                    lo[inside] += width
                    y[inside] = mid[inside]
                crossed.append((ids, y, t[ids] + lo))

        if crossed:
            ids, points, times = (np.concatenate(c) for c in zip(*crossed))
            order = np.argsort(ids)  # jump in trace order
            ids, points, times = ids[order], points[order], times[order]
            rows = enabled(ids, points)
            for p, i in enumerate(ids):
                landed = take_jump(i, points[p], rows[p])
                if landed is None:
                    # stuck on the boundary with no usable transition
                    x[i] = points[p]
                    truncated[i] = True
                    active[i] = False
                else:
                    loc[i], x[i] = landed
            t[ids] = times
            record(ids)

    ids, states, times, locs = (np.concatenate(c) for c in zip(*log))
    order = np.argsort(ids, kind="stable")
    states, times = states[order], times[order]
    names = np.array([m.name for m in modes], dtype=object)[locs[order]]
    ends = np.cumsum(count)
    traces = tuple(
        HybridTrace(states[e - c:e], times[e - c:e], tuple(names[e - c:e]), bool(cut))
        for c, e, cut in zip(count, ends, truncated)
    )
    return traces[0] if starts.ndim == 1 else traces
