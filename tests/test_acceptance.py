"""Acceptance gate: nine end-to-end checks at pinned tolerances.

Each check prints its own ``criterion N: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Coverage:

1. trace containment in the flowpipe for 20 randomized linear systems,
   every strategy, under two minutes;
2. lazy support values equal an eagerly expanded Minkowski sum;
3. the lazy engine does not accumulate wrapping error where a per-step
   box-hull iteration blows up;
4. facet pushing over-approximates tightly and degenerates to equality
   on axis-aligned instances;
5. 1000 lazy steps at n = 100 inside a wall-clock budget (n = 200
   reported informationally);
6. thermostat: flowpipe stays in the safe band and contains 10^4
   simulated traces under urgent, delayed and randomized switching;
7. hybridized nonlinear systems contain fine-step integrations, and
   linear dynamics reproduce the linear engine bit-for-bit in support;
8. fixpoint mode stops at the analytically forced step;
9. CLI exit codes match library statuses and result files round-trip
   byte-identically.

Random instances are seeded; every expected value is either computed by
an independent oracle or forced analytically.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import box_support, eager_zonotope_support, gift_wrap_hull, rk4, taylor_exp

from reachflow import cli
from reachflow.hybridize import (
    STALLED,
    NonlinearSystem,
    dynamic_hybridize_reach,
    static_hybridize,
)
from reachflow.hybridreach import (
    DELAYED,
    INCOMPLETE,
    RANDOM,
    URGENT,
    HybridAutomaton,
    Mode,
    Transition,
    hybrid_reach,
    hybrid_simulate,
)
from reachflow.linreach import (
    BAD_REACHED,
    COMPLETED,
    ERROR_BALL,
    FACETS,
    FIXPOINT,
    FIXPOINT_REACHED,
    HORIZON,
    LAZY,
    ONCE_HULL,
    SMALL_R,
    VERTICES,
    LazyReachSet,
    LinearSystem,
    ReachConfig,
    reach,
    step_input_facets,
)
from reachflow.modelio import load_result, parse_model, save_result
from reachflow.setgeom import Box, HPolytope, VPolytope, Zonotope, axis_bounds

TOL = 1e-9


_CAPTURE = {"fd": None}


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    _CAPTURE["fd"] = capfd
    yield
    _CAPTURE["fd"] = None


def announce(line):
    """One visible line per criterion, stepping outside output capture so
    the verdicts appear in plain ``pytest -v`` runs too."""
    cap = _CAPTURE["fd"]
    if cap is None:
        print(line, flush=True)
        return
    with cap.disabled():
        print(line, flush=True)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        announce(f"criterion {num}: FAIL - {name}")
        raise
    announce(f"criterion {num}: PASS - {name}")


# ---------------------------------------------------------------------------
# shared fixtures


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def random_dynamics(rng, n, stability, time_kind):
    g = rng.normal(size=(n, n)) / math.sqrt(n)
    if time_kind == "discrete":
        target = 0.9 if stability == "stable" else 1.04
        return g * (target / spectral_radius(g))
    shift = float(np.max(np.linalg.eigvals(g).real))
    # place the rightmost eigenvalue at -0.5 (stable) or +0.3 (unstable)
    return g - (shift + (0.5 if stability == "stable" else -0.3)) * np.eye(n)


def zoh_matrices(a, b, r):
    """Exact one-step matrices for dx/dt = A x + B v with v held constant.

    Built from the oracle Taylor exponential of the augmented matrix, not
    from the package's own exponential.
    """
    n = a.shape[0]
    if b is None:
        return taylor_exp(a, r, terms=60), None
    m = b.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    full = taylor_exp(aug, r, terms=60)
    return full[:n, :n], full[:n, n:]


def hull_halfspaces_2d(verts):
    """Plane halfspaces of a 2-d vertex set, via the gift-wrapping oracle."""
    hull = gift_wrap_hull(verts)
    assert hull.shape[0] >= 3, "degenerate hull in a full-dimensional fixture"
    c = hull.mean(axis=0)
    rows, offs = [], []
    m = hull.shape[0]
    for i in range(m):
        p, q = hull[i], hull[(i + 1) % m]
        e = q - p
        nrm = np.array([e[1], -e[0]])
        ln = float(np.linalg.norm(nrm))
        if ln < 1e-14:
            continue
        nrm = nrm / ln
        if nrm @ c > nrm @ p:
            nrm = -nrm
        rows.append(nrm)
        offs.append(float(nrm @ p))
    return np.array(rows), np.array(offs)


def hull_halfspaces_3d(verts):
    """Supporting planes of a 3-d vertex set from exhaustive vertex triples.

    Every facet of a 3-polytope contains at least three vertices, so the
    kept planes cut out exactly the convex hull.  The side test is strict
    (1e-12) so membership at the 1e-9 slack stays meaningful.
    """
    m = verts.shape[0]
    rows, offs = [], []
    for i, j, k in itertools.combinations(range(m), 3):
        nrm = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        ln = float(np.linalg.norm(nrm))
        if ln < 1e-12:
            continue
        nrm = nrm / ln
        d = verts @ nrm
        di = float(nrm @ verts[i])
        if np.all(d <= di + 1e-12):
            rows.append(nrm)
            offs.append(di)
        if np.all(d >= di - 1e-12):
            rows.append(-nrm)
            offs.append(-di)
    assert rows, "no supporting planes found (flat vertex set?)"
    return np.array(rows), np.array(offs)


def assert_points_inside(set_rep, pts, label):
    """All rows of pts lie in set_rep, within the pinned 1e-9 slack."""
    if isinstance(set_rep, Box):
        worst = max(
            float((set_rep.lower - pts).max()), float((pts - set_rep.upper).max())
        )
    elif isinstance(set_rep, HPolytope):
        worst = float((set_rep.normals @ pts.T - set_rep.offsets[:, None]).max())
    elif isinstance(set_rep, VPolytope):
        if set_rep.dim == 2:
            rows, offs = hull_halfspaces_2d(set_rep.vertices)
        else:
            rows, offs = hull_halfspaces_3d(set_rep.vertices)
        worst = float((rows @ pts.T - offs[:, None]).max())
    else:
        raise AssertionError(f"unexpected segment representation {type(set_rep)}")
    assert worst <= TOL, f"{label}: containment violated by {worst:.3e}"


# ---------------------------------------------------------------------------
# criterion 1: randomized trace containment, all strategies


# (n, time kind, stability, input, continuous bloat policy, vertices run)
# The vertices strategy runs on n <= 3 systems except 3-d ones with a set
# input: each Minkowski step keeps only the hull's corners, but a 3-d
# zonotope with p generators has up to p (p - 1) + 2 of them, so 20 steps
# with a 3-d box input reach about 3900 corners from 31000 candidates.
C1_SPECS = [
    (2, "discrete", "stable", "box", None, True),
    (2, "discrete", "unstable", "box", None, True),
    (2, "discrete", "stable", None, None, True),
    (2, "continuous", "stable", "box", ONCE_HULL, True),
    (2, "continuous", "unstable", None, SMALL_R, True),
    (3, "discrete", "stable", "box", None, False),
    (3, "discrete", "unstable", None, None, True),
    (3, "discrete", "stable", None, None, True),
    (3, "continuous", "stable", "box", ERROR_BALL, False),
    (3, "discrete", "unstable", "box", None, False),
    (5, "discrete", "stable", "box", None, False),
    (5, "discrete", "unstable", None, None, False),
    (5, "continuous", "stable", "box", ONCE_HULL, False),
    (5, "discrete", "stable", "gain", None, False),
    (5, "continuous", "stable", "box", SMALL_R, False),
    (10, "discrete", "stable", "box", None, False),
    (10, "discrete", "unstable", None, None, False),
    (10, "continuous", "stable", "box", ONCE_HULL, False),
    (10, "discrete", "stable", "box", None, False),
    (10, "discrete", "unstable", "box", None, False),
]

C1_TRACES = 1000
C1_STEPS = 20
C1_STEP = 0.05  # continuous systems: horizon 1.0 in 20 steps


def c1_build(idx, spec):
    n, time_kind, stability, input_kind, policy, run_vertices = spec
    rng = np.random.default_rng(7919 * idx + 11)
    a = random_dynamics(rng, n, stability, time_kind)
    c0 = rng.uniform(-1.0, 1.0, n)
    h0 = rng.uniform(0.1, 0.4, n)
    x0 = Box(c0 - h0, c0 + h0)
    b = None
    v = None
    if input_kind is not None:
        m = 2 if input_kind == "gain" else n
        cv = rng.uniform(-0.2, 0.2, m)
        hv = rng.uniform(0.02, 0.12, m)
        v = Box(cv - hv, cv + hv)
        if input_kind == "gain":
            b = rng.normal(size=(n, m)) * 0.5
    system = LinearSystem(a, x0, b=b, input_set=v, time_kind=time_kind)
    return system, rng


def c1_traces(system, rng, policy):
    """1000 exact trajectories sampled at the step lattice (and mid-steps
    for the dense policy), propagated independently of the engine."""
    n = system.dim
    x = rng.uniform(system.x0.lower, system.x0.upper, size=(C1_TRACES, n))
    states = [x]
    mids = []
    beff = system.b if system.has_input else None
    if system.time_kind == "discrete":
        for _ in range(C1_STEPS):
            x = x @ system.a.T
            if system.has_input:
                z = rng.uniform(
                    system.input_set.lower,
                    system.input_set.upper,
                    size=(C1_TRACES, system.input_set.dim),
                )
                x = x + z @ (beff.T if beff is not None else np.eye(n))
            states.append(x)
        return states, None
    gain = beff if beff is not None else (np.eye(n) if system.has_input else None)
    e_full, d_full = zoh_matrices(system.a, gain, C1_STEP)
    e_half, d_half = zoh_matrices(system.a, gain, C1_STEP / 2.0)
    for _ in range(C1_STEPS):
        if system.has_input:
            z = rng.uniform(
                system.input_set.lower,
                system.input_set.upper,
                size=(C1_TRACES, system.input_set.dim),
            )
            mids.append(x @ e_half.T + z @ d_half.T)
            x = x @ e_full.T + z @ d_full.T
        else:
            mids.append(x @ e_half.T)
            x = x @ e_full.T
        states.append(x)
    return states, (mids if policy == ONCE_HULL else None)


def c1_config(system, policy, strategy):
    if system.time_kind == "discrete":
        return ReachConfig(horizon=C1_STEPS, strategy=strategy)
    return ReachConfig(
        horizon=C1_STEPS * C1_STEP,
        step=C1_STEP,
        strategy=strategy,
        bloat_policy=policy,
    )


def test_criterion_1_trace_containment():
    started = time.perf_counter()
    with criterion(1, "1000 traces per randomized system lie in the flowpipe"):
        for idx, spec in enumerate(C1_SPECS):
            n, time_kind, stability, input_kind, policy, run_vertices = spec
            system, rng = c1_build(idx, spec)
            states, mids = c1_traces(system, rng, policy)
            strategies = [LAZY, FACETS] + ([VERTICES] if run_vertices else [])
            for strategy in strategies:
                pipe = reach(system, c1_config(system, policy, strategy))
                assert pipe.status == HORIZON
                assert len(pipe.segments) == C1_STEPS + 1
                tag = f"system {idx} ({strategy})"
                for k, seg in enumerate(pipe.segments):
                    assert_points_inside(seg.set_rep, states[k], f"{tag} step {k}")
                    if mids is not None and k < len(mids):
                        # dense segments cover the whole step interval
                        assert_points_inside(seg.set_rep, mids[k], f"{tag} mid {k}")
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"soundness sweep took {elapsed:.1f}s (budget 120s)"
    announce(f"criterion 1 info: sweep finished in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: lazy support equals the eager Minkowski expansion


def test_criterion_2_lazy_equals_eager():
    with criterion(2, "lazy support equals eager expansion within 1e-9"):
        for si, n in enumerate((2, 3, 4)):
            rng = np.random.default_rng(100 + si)
            a = rng.normal(size=(n, n))
            a *= 0.95 / spectral_radius(a)
            x0_c = rng.uniform(-1.0, 1.0, n)
            x0_g = rng.normal(size=(n, 3)) * 0.3
            v_c = rng.uniform(-0.2, 0.2, n)
            v_g = rng.normal(size=(n, 2)) * 0.1
            dirs = rng.normal(size=(100, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]

            fresh = LazyReachSet(Zonotope(x0_c, x0_g), a, Zonotope(v_c, v_g))
            templated = LazyReachSet(
                Zonotope(x0_c, x0_g), a, Zonotope(v_c, v_g), directions=dirs
            )
            for k in range(21):
                want = np.array(
                    [
                        eager_zonotope_support(x0_c, x0_g, v_c, v_g, a, k, d)
                        for d in dirs
                    ]
                )
                # the O(1)-per-step accumulated route
                got_t = templated.concretize().offsets
                assert np.max(np.abs(got_t - want)) <= 1e-9, f"n={n} k={k} template"
                # the from-scratch route on a sample of directions
                for d in dirs[::20]:
                    got = fresh.support(d)
                    ref = eager_zonotope_support(x0_c, x0_g, v_c, v_g, a, k, d)
                    assert abs(got - ref) <= 1e-9, f"n={n} k={k} fresh"
                fresh = fresh.advance()
                templated = templated.advance()


# ---------------------------------------------------------------------------
# criterion 3: no wrapping under rotation; box-hull iteration blows up


def test_criterion_3_wrapping_immunity():
    with criterion(3, "360 rotation steps: lazy exact, box-hull iteration >= 10% off"):
        th = math.radians(1.0)
        a = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        x0_c = np.array([1.0, 0.0])
        x0_r = np.array([0.1, 0.1])
        v_r = np.array([0.01, 0.01])
        d = np.array([1.0, 0.0])

        lazy = LazyReachSet(
            Box(x0_c - x0_r, x0_c + x0_r),
            a,
            Box(-v_r, v_r),
            directions=d.reshape(1, 2),
        )
        # the naive fixture: bounding-box the image every step, then add the
        # input box -- the classic wrapping iteration
        naive_c, naive_r = x0_c.copy(), x0_r.copy()
        abs_a = np.abs(a)
        want = 0.0
        for k in range(1, 361):
            lazy = lazy.advance()
            naive_c = a @ naive_c
            naive_r = abs_a @ naive_r + v_r
            want = eager_zonotope_support(
                x0_c, np.diag(x0_r), np.zeros(2), np.diag(v_r), a, k, d
            )
            got = float(lazy.concretize().offsets[0])
            assert abs(got - want) <= 1e-9, f"lazy drifted at step {k}"
        naive_val = float(naive_c[0] + naive_r[0])
        assert naive_val >= 1.1 * want, (
            f"box-hull iteration should diverge: {naive_val:.3f} vs exact {want:.3f}"
        )
    announce(
        f"criterion 3 info: exact support {want:.4f}, box-hull value {naive_val:.1f}"
    )


# ---------------------------------------------------------------------------
# criterion 4: facet pushing contains the exact sum and touches every facet


def test_criterion_4_facet_pushing():
    with criterion(4, "facet pushing: tight superset, exact on axis instances"):
        for i in range(50):
            rng = np.random.default_rng(400 + i)
            while True:
                a = rng.normal(size=(2, 2))
                if abs(np.linalg.det(a)) >= 0.3:
                    break
            while True:
                pts = rng.normal(size=(7, 2)) * rng.uniform(0.5, 1.5)
                hull = gift_wrap_hull(pts)
                if hull.shape[0] >= 3:
                    break
            rows, offs = hull_halfspaces_2d(hull)
            p = HPolytope(rows, offs)
            v_lo = rng.uniform(-0.5, 0.0, 2)
            v_hi = v_lo + rng.uniform(0.05, 0.5, 2)
            pushed = step_input_facets(p, Box(v_lo, v_hi), a)

            corners = np.array(
                [[x, y] for x in (v_lo[0], v_hi[0]) for y in (v_lo[1], v_hi[1])]
            )
            image = hull @ a.T
            sums = (image[:, None, :] + corners[None, :, :]).reshape(-1, 2)
            exact = gift_wrap_hull(sums)

            slack = pushed.normals @ exact.T - pushed.offsets[:, None]
            assert slack.max() <= 1e-9, f"instance {i}: exact sum not contained"
            assert slack.max(axis=1).min() >= -1e-9, (
                f"instance {i}: some facet does not touch the exact sum"
            )

        # axis-aligned family: diagonal map, box operands -- pushing is exact
        for i in range(10):
            rng = np.random.default_rng(450 + i)
            d = rng.uniform(0.3, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
            a = np.diag(d)
            p_lo = rng.uniform(-1.0, 0.0, 2)
            p_hi = p_lo + rng.uniform(0.5, 1.5, 2)
            v_lo = rng.uniform(-0.3, 0.0, 2)
            v_hi = v_lo + rng.uniform(0.1, 0.4, 2)
            pushed = step_input_facets(Box(p_lo, p_hi), Box(v_lo, v_hi), a)
            lo = np.minimum(d * p_lo, d * p_hi) + v_lo
            hi = np.maximum(d * p_lo, d * p_hi) + v_hi
            # every pushed facet is axis-aligned and sits exactly on the
            # interval-arithmetic bound
            for nrm, off in zip(pushed.normals, pushed.offsets):
                assert np.isclose(np.abs(nrm).max(), 1.0, atol=1e-12)
                assert abs(off - box_support(lo, hi, nrm)) <= 1e-9, f"instance {i}"
            corners = np.array([[x, y] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])
            slack = pushed.normals @ corners.T - pushed.offsets[:, None]
            assert slack.max() <= 1e-9


# ---------------------------------------------------------------------------
# criterion 5: scaled performance of the lazy engine


def _c5_run(n):
    rng = np.random.default_rng(500 + n)
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    a *= 0.98 / spectral_radius(a)
    ones = np.ones(n)
    system = LinearSystem(a, Box(-0.5 * ones, 0.5 * ones), input_set=Box(-0.05 * ones, 0.05 * ones))
    template = np.vstack([np.eye(n), -np.eye(n)])
    config = ReachConfig(horizon=1000, strategy=LAZY, template=template)
    t0 = time.perf_counter()
    pipe = reach(system, config)
    dt = time.perf_counter() - t0
    assert pipe.status == HORIZON
    assert len(pipe.segments) == 1001
    assert np.all(np.isfinite(pipe.segments[-1].set_rep.offsets))
    return dt


def test_criterion_5_scaled_performance():
    with criterion(5, "1000 lazy steps, n=100 under 60s (n=200 informational)"):
        t100 = _c5_run(100)
        assert t100 <= 60.0, f"n=100 took {t100:.1f}s (budget 60s)"
        t200 = _c5_run(200)
    announce(
        f"criterion 5 info: n=100 in {t100:.1f}s; n=200 in {t200:.1f}s "
        "(no bound asserted for n=200)"
    )


# ---------------------------------------------------------------------------
# criterion 6: thermostat band safety and 10^4 contained simulations


def thermostat():
    heat = Mode(
        "heat",
        a=[[-0.4]],
        b=[[0.4]],
        input_set=Box([30.0], [30.0]),
        invariant=Box([0.0], [22.0]),
    )
    cool = Mode(
        "cool",
        a=[[-0.4]],
        b=[[0.4]],
        input_set=Box([10.0], [10.0]),
        invariant=Box([18.0], [40.0]),
    )
    return HybridAutomaton(
        modes=(heat, cool),
        transitions=(
            Transition("heat", "cool", guard=Box([21.5], [40.0])),
            Transition("cool", "heat", guard=Box([0.0], [18.5])),
        ),
        time_kind="continuous",
    )


def hybrid_cover_tables(pipe, r, horizon):
    """Time-indexed coverage of a 1-d hybrid flowpipe.

    Returns (union intervals, per-step interval table, t_prune).  Segment k
    of a flow entered at step e with entry spread s covers global times
    [(e+k) r, (e+k+1+s) r].  Beyond the first pruned crossing t_prune the
    engine only promises state coverage (a pruned entry is a subset of an
    earlier one, reached at a different time), so time-aligned checks are
    restricted to t < t_prune.
    """
    nbuckets = int(round(horizon / r))
    buckets = [[] for _ in range(nbuckets)]
    union = []
    for flow in pipe.flows:
        for seg in flow.segments:
            lo, hi = axis_bounds(seg.set_rep)
            iv = (float(lo[0]), float(hi[0]))
            union.append(iv)
            w0 = flow.entry_step * r + seg.t0
            w1 = flow.entry_step * r + seg.t1 + flow.entry_spread * r
            g0 = int(round(w0 / r))
            g1 = min(int(round(w1 / r)), nbuckets)
            for g in range(g0, g1):
                buckets[g].append(iv)

    def merge(ivals):
        out = []
        for lo, hi in sorted(ivals):
            if out and lo <= out[-1][1] + TOL:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return out

    union = merge(union)
    kmax = max(1, max(len(merge(b)) for b in buckets if b))
    blo = np.full((nbuckets, kmax), np.inf)
    bhi = np.full((nbuckets, kmax), -np.inf)
    for g, b in enumerate(buckets):
        for j, (lo, hi) in enumerate(merge(b)):
            blo[g, j], bhi[g, j] = lo, hi

    t_prune = math.inf
    for jump in pipe.jumps:
        if jump.pruned:
            t_cross = (pipe.flows[jump.from_flow].entry_step + jump.step_lo) * r
            t_prune = min(t_prune, t_cross)
    return union, (blo, bhi), t_prune


def assert_trace_covered(tables, r, ts, xs, label):
    union, (blo, bhi), t_prune = tables
    in_union = np.zeros(xs.shape, dtype=bool)
    for lo, hi in union:
        in_union |= (xs >= lo - TOL) & (xs <= hi + TOL)
    assert np.all(in_union), f"{label}: state outside the flowpipe union"

    nbuckets = blo.shape[0]
    g = np.minimum((ts / r + 1e-9).astype(int), nbuckets - 1)
    aligned = ((xs[:, None] >= blo[g] - TOL) & (xs[:, None] <= bhi[g] + TOL)).any(axis=1)
    # a sample sitting exactly on a step boundary also belongs to the
    # preceding window
    prev = np.maximum(g - 1, 0)
    on_edge = np.abs(ts - g * r) <= 1e-9
    aligned |= on_edge & (
        (xs[:, None] >= blo[prev] - TOL) & (xs[:, None] <= bhi[prev] + TOL)
    ).any(axis=1)
    need = ts < t_prune - 1e-9
    bad = need & ~aligned
    assert not np.any(bad), (
        f"{label}: time-aligned coverage fails at t={ts[bad][0]:.4f} x={xs[bad][0]:.6f}"
    )


def test_criterion_6_thermostat():
    with criterion(6, "thermostat in [17,23]; 10^4 simulations contained"):
        auto = thermostat()
        horizon, r = 2.0, 0.01
        pipe = hybrid_reach(
            auto, "heat", Box([19.5], [20.5]), ReachConfig(horizon=horizon, step=r)
        )
        assert pipe.status == COMPLETED
        for flow in pipe.flows:
            for seg in flow.segments:
                lo, hi = axis_bounds(seg.set_rep)
                assert lo[0] >= 17.0 - 1e-12 and hi[0] <= 23.0 + 1e-12, (
                    f"band violated in mode {flow.mode}: [{lo[0]:.3f}, {hi[0]:.3f}]"
                )
        tables = hybrid_cover_tables(pipe, r, horizon)

        rng = np.random.default_rng(606)
        batches = ((URGENT, 3000), (DELAYED, 3000), (RANDOM, 4000))
        first_switch = {URGENT: [], DELAYED: [], RANDOM: []}
        for policy, count in batches:
            # one batch per policy: all starts first, then the traces' draws
            starts = rng.uniform(19.5, 20.5, size=(count, 1))
            traces = hybrid_simulate(
                auto,
                "heat",
                starts,
                horizon,
                step=r,
                rng=rng,
                jump_policy=policy,
                jump_probability=0.2,
            )
            assert len(traces) == count
            for trace in traces:
                assert not trace.truncated
                assert {"heat", "cool"} <= set(trace.modes)
                xs = trace.states[:, 0]
                assert_trace_covered(tables, r, trace.times, xs, policy)
                switch = next(
                    i
                    for i in range(1, len(trace.modes))
                    if trace.modes[i] == "cool" and trace.modes[i - 1] == "heat"
                )
                # the reset is the identity, so the sample at the switch is
                # the temperature the jump actually fired at
                first_switch[policy].append(float(trace.states[switch, 0]))

        urgent = np.array(first_switch[URGENT])
        delayed = np.array(first_switch[DELAYED])
        randomized = np.array(first_switch[RANDOM])
        # urgent jumps at the guard's lower edge, delayed rides to the
        # invariant ceiling: both ends of the nondeterministic band
        assert urgent.min() >= 21.5 - 1e-6 and urgent.max() <= 21.6
        assert delayed.min() >= 22.0 - 1e-6 and delayed.max() <= 22.0 + 1e-6
        assert randomized.min() <= 21.6 and randomized.max() >= 21.9


# ---------------------------------------------------------------------------
# criterion 7: hybridization containment and linear degeneration


def batch_rk4(f, x, t_end, steps):
    """Fixed-step RK4 on a batch of states; same scheme as the oracle."""
    h = t_end / steps
    path = np.empty((steps + 1,) + x.shape)
    path[0] = x
    for i in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[i + 1] = x
    return path


def cubic_system():
    return NonlinearSystem(
        f=lambda x: np.array([-x[0] ** 3]),
        dim=1,
        jac=lambda x: np.array([[-3.0 * x[0] ** 2]]),
        hessian_bound=lambda lo, hi: 6.0 * np.maximum(np.abs(lo), np.abs(hi)),
    )


def test_criterion_7_hybridization():
    with criterion(7, "hybridized flowpipes contain integrations; linear degenerates"):
        r = 0.01
        horizon = 1.0
        nsteps = 100
        substeps = 100  # integrator runs at r / 100

        # --- scalar decay through a static partition
        sys1 = cubic_system()
        x0_lo, x0_hi = 0.52, 0.58
        starts = np.linspace(x0_lo, x0_hi, 100)[:, None]
        path1 = batch_rk4(lambda s: -(s**3), starts, horizon, nsteps * substeps)
        # the batch integrator agrees with the single-trajectory oracle
        lead = rk4(lambda x: np.array([-x[0] ** 3]), starts[0], horizon, nsteps * substeps)
        assert np.max(np.abs(path1[:, 0, 0] - lead[:, 0])) <= 1e-12
        # and with the closed form x(t) = x0 / sqrt(1 + 2 x0^2 t)
        closed = starts[:, 0] / np.sqrt(1.0 + 2.0 * starts[:, 0] ** 2 * horizon)
        assert np.max(np.abs(path1[-1, :, 0] - closed)) <= 1e-10

        hyb = static_hybridize(sys1, Box([0.0], [1.1]), grid=11)
        assert hyb.rigorous
        name, entry = hyb.initial(Box([x0_lo], [x0_hi]))
        pipe = hybrid_reach(
            hyb.automaton, name, entry, ReachConfig(horizon=horizon, step=r),
            jump_depth=16,
        )
        assert pipe.status == COMPLETED
        tables = hybrid_cover_tables(pipe, r, horizon)
        sample_idx = np.arange(0, nsteps * substeps + 1, substeps // 2)
        ts = sample_idx * (horizon / (nsteps * substeps))
        for j in range(starts.shape[0]):
            assert_trace_covered(
                tables, r, ts, path1[sample_idx, j, 0], f"static trajectory {j}"
            )

        # --- same system through dynamic domains
        dpipe = dynamic_hybridize_reach(
            sys1, Box([x0_lo], [x0_hi]), ReachConfig(horizon=horizon, step=r)
        )
        assert dpipe.status == HORIZON and dpipe.rigorous
        for k in range(nsteps + 1):
            lo, hi = axis_bounds(dpipe.segments[k].set_rep)
            pts = path1[k * substeps, :, 0]
            assert np.all(pts >= lo[0] - TOL) and np.all(pts <= hi[0] + TOL), f"step {k}"
            if k < nsteps:
                mid = path1[k * substeps + substeps // 2, :, 0]
                assert np.all(mid >= lo[0] - TOL) and np.all(mid <= hi[0] + TOL)

        # --- 2-d oscillator with state-dependent curvature
        def f2(x):
            return np.array([x[1], -x[0] + 0.2 * (1.0 - x[0] ** 2) * x[1]])

        def f2_batch(s):
            return np.stack(
                [s[:, 1], -s[:, 0] + 0.2 * (1.0 - s[:, 0] ** 2) * s[:, 1]], axis=1
            )

        def jac2(x):
            return np.array(
                [[0.0, 1.0], [-1.0 - 0.4 * x[0] * x[1], 0.2 * (1.0 - x[0] ** 2)]]
            )

        def curv2(lo, hi):
            far = np.maximum(np.abs(lo), np.abs(hi))
            # second component's Hessian is [[-0.4 x2, -0.4 x1], [-0.4 x1, 0]];
            # its spectral norm |a|/2 + sqrt(a^2/4 + b^2) grows with |x|
            a = 0.4 * far[1]
            b = 0.4 * far[0]
            return np.array([0.0, 0.5 * a + math.sqrt(0.25 * a * a + b * b)])

        sys2 = NonlinearSystem(f=f2, dim=2, jac=jac2, hessian_bound=curv2)
        x0_2 = Box([0.98, -0.02], [1.02, 0.02])
        dpipe2 = dynamic_hybridize_reach(sys2, x0_2, ReachConfig(horizon=horizon, step=r))
        assert dpipe2.status == HORIZON and dpipe2.rigorous
        rng = np.random.default_rng(707)
        starts2 = rng.uniform(x0_2.lower, x0_2.upper, size=(100, 2))
        path2 = batch_rk4(f2_batch, starts2, horizon, nsteps * substeps)
        lead2 = rk4(f2, starts2[0], horizon, nsteps * substeps)
        assert np.max(np.abs(path2[:, 0, :] - lead2)) <= 1e-12
        for k in range(nsteps + 1):
            seg = dpipe2.segments[k].set_rep
            assert_points_inside(seg, path2[k * substeps], f"oscillator step {k}")
            if k < nsteps:
                assert_points_inside(
                    seg, path2[k * substeps + substeps // 2], f"oscillator mid {k}"
                )

        # --- linear dynamics degenerate to the linear engine
        a_rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lin_as_nonlinear = NonlinearSystem(
            f=lambda x: a_rot @ x, dim=2, jac=lambda x: a_rot, hessian_bound=0.0
        )
        x0_lin = Box([0.9, -0.05], [1.1, 0.05])
        cfg_lin = ReachConfig(horizon=1.0, step=0.05)
        got = dynamic_hybridize_reach(lin_as_nonlinear, x0_lin, cfg_lin, min_pad=5.0)
        ref = reach(LinearSystem(a_rot, x0_lin, time_kind="continuous"), cfg_lin)
        assert got.status == HORIZON and got.rigorous
        assert len(got.segments) == len(ref.segments)
        for seg_got, seg_ref in zip(got.segments, ref.segments):
            assert np.array_equal(seg_got.set_rep.normals, seg_ref.set_rep.normals)
            diff = np.max(np.abs(seg_got.set_rep.offsets - seg_ref.set_rep.offsets))
            assert diff <= 1e-9


# ---------------------------------------------------------------------------
# criterion 8: fixpoint termination at the forced step


def test_criterion_8_fixpoint():
    with criterion(8, "fixpoint stops at the analytically forced step"):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        axis = np.vstack([np.eye(2), -np.eye(2)])

        pipe = reach(
            LinearSystem(np.eye(2), box), ReachConfig(horizon=50, mode=FIXPOINT)
        )
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 1 and len(pipe.segments) == 2

        # 0.5 X0 is inside X0 exactly because X0 contains the origin, so
        # the first dominated template hull appears at k = 1
        pipe = reach(
            LinearSystem(0.5 * np.eye(2), box),
            ReachConfig(horizon=50, mode=FIXPOINT, template=axis),
        )
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 1 and len(pipe.segments) == 2

        # quarter turn of a box symmetric under half turns: period 2
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        slab = Box([-1.0, -0.1], [1.0, 0.1])
        pipe = reach(LinearSystem(rot, slab), ReachConfig(horizon=50, mode=FIXPOINT))
        assert pipe.status == FIXPOINT_REACHED
        assert pipe.status_step == 2 and len(pipe.segments) == 3


# ---------------------------------------------------------------------------
# criterion 9: CLI exit codes track library statuses; byte-stable files


def _model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _rotation_doc(**config):
    return {
        "format": "flowpipe-model/1",
        "kind": "linear-continuous",
        "a": [[0.0, 1.0], [-1.0, 0.0]],
        "x0": {"type": "box", "lower": [0.9, -0.1], "upper": [1.1, 0.1]},
        "config": {"horizon": 2.0, "step": 0.05, **config},
    }


def _doubling_doc(**config):
    return {
        "format": "flowpipe-model/1",
        "kind": "linear-discrete",
        "a": [[2.0, 0.0], [0.0, 2.0]],
        "x0": {"type": "box", "lower": [1.0, 1.0], "upper": [1.1, 1.1]},
        "config": {"horizon": 6, **config},
    }


def _thermostat_doc(**config):
    box = lambda lo, hi: {"type": "box", "lower": [lo], "upper": [hi]}
    return {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "name": "thermostat",
        "init_mode": "heat",
        "x0": box(19.5, 20.5),
        "modes": [
            {
                "name": "heat",
                "a": [[-0.4]],
                "b": [[0.4]],
                "input": box(30.0, 30.0),
                "invariant": box(0.0, 22.0),
            },
            {
                "name": "cool",
                "a": [[-0.4]],
                "b": [[0.4]],
                "input": box(10.0, 10.0),
                "invariant": box(18.0, 40.0),
            },
        ],
        "transitions": [
            {"source": "heat", "target": "cool", "guard": box(21.5, 40.0)},
            {"source": "cool", "target": "heat", "guard": box(0.0, 18.5)},
        ],
        "config": {"horizon": 2.0, "step": 0.01, **config},
    }


def _pingpong_doc(**config):
    """Discrete two-mode automaton with always-on guards and growing state,
    so successor entries are never covered by explored ones and the jump
    depth runs out within the horizon."""
    anywhere = {"type": "box", "lower": [-1e30], "upper": [1e30]}
    return {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "time": "discrete",
        "init_mode": "a",
        "x0": {"type": "box", "lower": [0.5], "upper": [0.6]},
        "modes": [
            {"name": "a", "a": [[1.2]]},
            {"name": "b", "a": [[1.2]]},
        ],
        "transitions": [
            {"source": "a", "target": "b", "guard": anywhere},
            {"source": "b", "target": "a", "guard": anywhere},
        ],
        "config": {"horizon": 20, **config},
    }


def _cubic_doc(hessian=8.0, **config):
    doc = {
        "format": "flowpipe-model/1",
        "kind": "nonlinear",
        "variables": ["x"],
        "rhs": ["-x**3"],
        "x0": {"type": "box", "lower": [0.9], "upper": [1.0]},
        "config": {"horizon": 1.0, "step": 0.01, **config},
    }
    if hessian is not None:
        doc["hessian_bound"] = hessian
    return doc


def _library_exit_code(doc):
    """The exit code the library's own run demands for a check."""
    result = cli._compute(parse_model(doc))
    if result.status in (BAD_REACHED, INCOMPLETE, STALLED):
        return 2
    if not getattr(result, "rigorous", True):
        return 2
    return 0


def _bad(lo, hi):
    return {"type": "box", "lower": [lo] if np.isscalar(lo) else lo,
            "upper": [hi] if np.isscalar(hi) else hi}


def test_criterion_9_cli():
    import tempfile
    from pathlib import Path

    with criterion(9, "check exit codes match library status; byte-stable files"):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            far = {"type": "box", "lower": [-6.0, -6.0], "upper": [-5.0, -5.0]}
            near = {"type": "hpolytope", "normals": [[-1.0, 0.0]], "offsets": [-4.0]}
            fixtures = [
                ("safe linear", _rotation_doc(mode="bad_set", bad_set=far), 0),
                ("unsafe linear", _doubling_doc(mode="bad_set", bad_set=near), 2),
                ("safe hybrid", _thermostat_doc(mode="bad_set", bad_set=_bad(24.0, 30.0)), 0),
                ("unsafe hybrid", _thermostat_doc(mode="bad_set", bad_set=_bad(21.0, 21.2)), 2),
                ("incomplete hybrid", _pingpong_doc(mode="bad_set", bad_set=_bad(-60.0, -50.0)), 2),
                ("safe nonlinear", _cubic_doc(mode="bad_set", bad_set=_bad(-2.0, -0.5)), 0),
                ("unsafe nonlinear", _cubic_doc(mode="bad_set", bad_set=_bad(-2.0, 0.62)), 2),
                ("sampled nonlinear", _cubic_doc(hessian=None, mode="bad_set", bad_set=_bad(-2.0, -0.5)), 2),
                ("stalled nonlinear", _cubic_doc(hessian=1e9, mode="bad_set", bad_set=_bad(-2.0, -0.5)), 2),
            ]
            for tag, doc, expected in fixtures:
                path = _model(tmp_path, tag.replace(" ", "_") + ".json", doc)
                assert _library_exit_code(doc) == expected, f"{tag}: library status moved"
                got = cli.main(["check", str(path)])
                assert got == expected, f"{tag}: exit {got}, expected {expected}"

            # error paths are exit 1
            assert cli.main(["check", str(tmp_path / "missing.json")]) == 1
            broken = tmp_path / "broken.json"
            broken.write_text("{not json")
            assert cli.main(["check", str(broken)]) == 1
            plain = _model(tmp_path, "plain.json", _rotation_doc())
            assert cli.main(["check", str(plain)]) == 1

            # result files: identical bytes across runs and across a
            # load/save round trip
            for tag, doc in (
                ("linear", _rotation_doc()),
                ("hybrid", _thermostat_doc()),
                ("nonlinear", _cubic_doc()),
            ):
                model = _model(tmp_path, f"rt_{tag}.json", doc)
                out1 = tmp_path / f"rt_{tag}_1.json"
                out2 = tmp_path / f"rt_{tag}_2.json"
                assert cli.main(["reach", str(model), "-o", str(out1)]) == 0
                assert cli.main(["reach", str(model), "-o", str(out2)]) == 0
                first = out1.read_bytes()
                assert first == out2.read_bytes(), f"{tag}: nondeterministic bytes"
                reloaded = load_result(out1)
                out3 = tmp_path / f"rt_{tag}_3.json"
                save_result(reloaded, out3)
                assert first == out3.read_bytes(), f"{tag}: round trip changed bytes"
