"""Flowpipe computation for hybrid automata with linear mode dynamics.

A hybrid automaton is a finite set of modes, each with linear (or
linear-with-input) dynamics and an invariant, connected by guarded
transitions with optional affine resets.  Reachability interleaves
per-mode flowpipe computation with discrete jumps: guard intersections
are collected per step, clustered over contiguous step runs, reset, and
fed back into a FIFO worklist until it drains, a bad state is hit, or
the jump-depth bound is exceeded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

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
    _dynamics,
    _flow_steps,
    _lattice,
)
from .numkernel import _exp_integral, as_matrix, as_vector, mat_exp
from .setgeom import (
    TOL,
    Box,
    HPolytope,
    SetRep,
    _exact_hform,
    contains_set,
    hull_union,
    intersect,
    is_empty,
    linear_map,
    meets,
    member,
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
            for end in (tr.source, tr.target):
                if end not in by_name:
                    raise ValueError(f"transition endpoint {end!r} is not a mode")
            if tr.guard.dim != n:
                raise ValueError("guard dimension does not match the state space")
            if tr.reset_matrix is not None and tr.reset_matrix.shape != (n, n):
                raise ValueError("reset matrix must map the state space to itself")
            if tr.reset_offset is not None and tr.reset_offset.shape != (n,):
                raise ValueError("reset offset dimension mismatch")
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
    mode: Mode,
    entry: SetRep,
    config: ReachConfig,
    nsteps: int,
    transitions: Sequence[Transition] = (),
    time_kind: str = CONTINUOUS,
    bad_set: Optional[SetRep] = None,
):
    """Flowpipe of one mode from ``entry``, clipped to the invariant.

    The step recurrence itself is never clipped (trajectories that left
    the invariant are dropped from the output but stay in the recurrence,
    which only over-approximates).  Segments are recorded clipped; the
    run stops early once the clipped set is empty, since no trajectory
    can still be flowing inside the invariant.

    Returns ``(segments, hits, status, status_step)`` where hits lists,
    for each transition in order, its per-step guard pieces
    ``[(k, piece), ...]``.
    """
    inv = mode.invariant
    hits = [[] for _ in transitions]
    segments = []
    status, status_step = HORIZON, None

    system = LinearSystem(
        mode.a, entry, b=mode.b, input_set=mode.input_set, time_kind=time_kind
    )
    for seg in _flow_steps(system, config):
        k = seg.k
        if is_empty(seg.set_rep) if inv is None else not meets(seg.set_rep, inv):
            # nothing remains inside the invariant: the flow is over
            status, status_step = COMPLETED, k
            break
        clipped = seg.set_rep if inv is None else intersect(seg.set_rep, inv)
        segments.append(replace(seg, set_rep=clipped))
        for i, tr in enumerate(transitions):
            if meets(clipped, tr.guard):
                hits[i].append((k, intersect(clipped, tr.guard)))
        if bad_set is not None and meets(clipped, bad_set):
            status, status_step = BAD_REACHED, k
            break
        if k >= nsteps:
            break

    return tuple(segments), hits, status, status_step


def guard_cross(hits, transition: Transition):
    """Cluster per-step guard pieces and apply the reset.

    Contiguous step runs are merged into one cluster each (their convex
    hull, or an enclosure of it), so a guard grazed over many consecutive
    steps spawns a single successor instead of one per step.  Returns
    ``[(k_lo, k_hi, pre_cluster, post_set), ...]``.
    """
    out = []
    run = []
    last_k = None
    for k, piece in hits:
        if last_k is not None and k != last_k + 1:
            out.append(_close_run(run, transition))
            run = []
        run.append((k, piece))
        last_k = k
    if run:
        out.append(_close_run(run, transition))
    return out


def _close_run(run, transition: Transition):
    cluster = run[0][1]
    for _, piece in run[1:]:
        cluster = hull_union(cluster, piece)
    post = transition.apply_reset(cluster)
    return run[0][0], run[-1][0], cluster, post


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
    same mode with at least as many remaining steps is pruned.  Exceeding
    ``jump_depth`` or ``max_flows`` leaves work unfinished and the result
    is flagged ``incomplete``; a bad-set hit aborts immediately.
    """
    automaton.mode(init_mode)  # raises on unknown name
    if config.mode == FIXPOINT:
        raise ValueError("fixpoint mode is not supported with hybrid automata")
    r, total_steps = _lattice(config, automaton.time_kind, automaton.dim)

    flows = []
    # a jump is recorded when its crossing is found; its successor's
    # worklist item carries the jump's index, and popping the item settles
    # whether the jump was pruned or which flow it leads to
    jumps = []
    # (mode name, exact entry H-form, remaining steps); an entry without an
    # exact facet form is never pruned against, since an enclosure of it
    # would prune successors that reach states outside it
    explored = []
    queue = deque([(init_mode, init_set, 0, 0, 0, None)])
    status = COMPLETED
    bad_flow = None

    while queue:
        mode_name, entry, offset, spread, depth, jump = queue.popleft()
        remaining = total_steps - offset
        if any(
            name == mode_name and remaining <= rem and contains_set(old, entry)
            for name, old, rem in explored
        ):
            jumps[jump] = replace(jumps[jump], pruned=True)
            continue
        if len(flows) >= max_flows:
            status = INCOMPLETE
            break
        entry_h = _exact_hform(entry)
        if entry_h is not None:
            explored.append((mode_name, entry_h, remaining))
        mode = automaton.mode(mode_name)
        outgoing = automaton.outgoing(mode_name)
        segments, hits, flow_status, flow_step = mode_reach(
            mode,
            entry,
            config,
            remaining,
            outgoing,
            automaton.time_kind,
            bad_set=config.bad_set,
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
        for tr, tr_hits in zip(outgoing, hits):
            if not tr_hits:
                continue
            for k_lo, k_hi, pre, post in guard_cross(tr_hits, tr):
                target_inv = automaton.mode(tr.target).invariant
                if is_empty(post) if target_inv is None else not meets(post, target_inv):
                    continue
                entry_next = post if target_inv is None else intersect(post, target_inv)
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

# exact one-step matrices reused across simulate calls; keyed by matrix
# content, not identity, so equal automata share entries
_STEP_MATS: dict = {}
_STEP_MATS_CAP = 8192


def _sim_matrices(mode: Mode, tau: float):
    key = (tau, mode.a.tobytes(), None if mode.b is None else mode.b.tobytes())
    hit = _STEP_MATS.get(key)
    if hit is not None:
        return hit
    a_step = mat_exp(mode.a, tau)
    b_step = None if mode.b is None else _exp_integral(mode.a, tau) @ mode.b
    if len(_STEP_MATS) >= _STEP_MATS_CAP:
        _STEP_MATS.clear()
    _STEP_MATS[key] = (a_step, b_step)
    return a_step, b_step


def _member_fn(s: Optional[SetRep]):
    """Membership closure with the same tolerance semantics as member()."""
    if s is None:
        return lambda x: True
    if isinstance(s, Box):
        lo, hi = s.lower - TOL, s.upper + TOL
        return lambda x: bool(np.all(x >= lo)) and bool(np.all(x <= hi))
    if isinstance(s, HPolytope):
        normals, offs = s.normals, s.offsets + TOL
        return lambda x: bool(np.all(normals @ x <= offs))
    return lambda x: member(s, x)


def _input_sampler(mode: Mode, rng: np.random.Generator):
    v = mode.input_set
    if v is None:
        return None
    if isinstance(v, Box) and np.array_equal(v.lower, v.upper):
        const = v.lower.copy()
        return lambda: const
    return lambda: sample_points(v, 1, rng)[0]


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
) -> HybridTrace:
    """Sample one trajectory of the automaton.

    Continuous flows advance with the exact one-step solution under a
    zero-order hold on a per-step random input.  When a step would leave
    the invariant, the crossing time is located by bisection and the
    state is clamped onto the boundary; an enabled transition must then
    be taken (the trace is truncated if none lands).  ``urgent`` jumps as
    soon as a guard is enabled, ``delayed`` jumps only when forced, and
    ``random`` flips a coin per enabled step.

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

    inv_fns = {m.name: _member_fn(m.invariant) for m in automaton.modes}
    samplers = {m.name: _input_sampler(m, rng) for m in automaton.modes}
    out_guarded = {
        m.name: [(tr, _member_fn(tr.guard)) for tr in automaton.outgoing(m.name)]
        for m in automaton.modes
    }

    def flow(mode: Mode, x, zeta, tau):
        if not continuous:
            out = mode.a @ x
            if zeta is not None:
                out = out + mode.b @ zeta
            return out
        a_step, b_step = _sim_matrices(mode, tau)
        out = a_step @ x
        if zeta is not None:
            out = out + b_step @ zeta
        return out

    mode = automaton.mode(init_mode)
    inv = inv_fns[mode.name]
    x = as_vector(x0)
    if x.shape[0] != automaton.dim:
        raise ValueError("initial state dimension mismatch")
    if not inv(x):
        raise ValueError("initial state violates the mode invariant")

    t = 0.0
    states, times, modes = [x.copy()], [0.0], [mode.name]
    truncated = False

    def enabled(point):
        return [tr for tr, g in out_guarded[mode.name] if g(point)]

    def take_jump(point, options):
        # try the enabled transitions in random order; a jump may still be
        # blocked by the target invariant
        for i in rng.permutation(len(options)):
            tr = options[int(i)]
            y = tr.apply_reset_point(point)
            if inv_fns[tr.target](y):
                return automaton.mode(tr.target), y
        return None

    while t < horizon - 1e-12:
        if len(states) >= max_samples:
            truncated = True
            break
        # consider jumping before flowing
        options = enabled(x)
        if options:
            jump_now = jump_policy == URGENT or (
                jump_policy == RANDOM and rng.uniform() < jump_probability
            )
            if jump_now:
                landed = take_jump(x, options)
                if landed is not None:
                    mode, x = landed
                    inv = inv_fns[mode.name]
                    states.append(x.copy())
                    times.append(t)
                    modes.append(mode.name)
                    continue
        tau = min(r, horizon - t) if continuous else 1.0
        sampler = samplers[mode.name]
        zeta = sampler() if sampler is not None else None
        x_next = flow(mode, x, zeta, tau)
        if inv(x_next):
            x = x_next
            t += tau
            states.append(x.copy())
            times.append(t)
            modes.append(mode.name)
            continue
        # the step exits the invariant: clamp onto the boundary
        if continuous:
            # bisect incrementally: carry the state at the inside endpoint
            # and probe with halving durations, so the step matrices come
            # from a fixed tau/2^j sequence the cache can serve
            lo, y_lo, width = 0.0, x, tau
            for _ in range(40):
                width *= 0.5
                y_mid = flow(mode, y_lo, zeta, width)
                if inv(y_mid):
                    lo, y_lo = lo + width, y_mid
            x_cross, t_cross = y_lo, t + lo
        else:
            x_cross, t_cross = x, t  # discrete: stay at the pre-step state
        options = enabled(x_cross)
        landed = take_jump(x_cross, options) if options else None
        if landed is None:
            # stuck on the boundary with no usable transition
            states.append(x_cross.copy())
            times.append(t_cross)
            modes.append(mode.name)
            truncated = True
            break
        mode, x = landed
        inv = inv_fns[mode.name]
        t = t_cross
        states.append(x.copy())
        times.append(t)
        modes.append(mode.name)

    return HybridTrace(
        np.asarray(states), np.asarray(times), tuple(modes), truncated
    )
