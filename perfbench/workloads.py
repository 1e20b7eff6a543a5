"""The workloads: seeded inputs, one pass of operations, and the checks
on a pass's outputs.

A workload is built from ``(seed, small, workdir)``; building it is the
set-up that ``setup_s`` times.  ``ops()`` lists the operations of one
pass, each a call into one public reachflow entry point.  After the pass,
``check`` returns one failure reason (or None) per operation,
``fingerprint`` a digest per operation that must repeat on every pass,
``final_width`` the summed last-segment widths and ``facts`` the counts
read from the results.  Every pass gets the same inputs, so its outputs
must be identical.  ``small`` shrinks each workload for the self-check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from functools import partial

import numpy as np

from reachflow import cli, hybridize, linreach, modelio, setgeom

import geometry


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _contraction(rng, n):
    """0.9 times a random rotation: normal, so facet pushing stays well
    conditioned over 1000 steps (a non-normal map collapses the facets)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return 0.9 * q * np.sign(np.diag(r))


def _stable_continuous(rng, n):
    """Random dynamics with the rightmost eigenvalue at -0.5, as in the
    acceptance gate's generator."""
    g = rng.normal(size=(n, n)) / math.sqrt(n)
    return g - (float(np.max(np.linalg.eigvals(g).real)) + 0.5) * np.eye(n)


def _relabel(rng, a):
    """``P A P^T`` for a seeded signed permutation P.

    The same dynamics in relabelled, re-signed coordinates: every seed
    poses an equally hard problem with the same summed widths, while
    fresh random matrices would move cost and width from seed to seed.
    """
    n = a.shape[0]
    p = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)[:, None]
    return p @ a @ p.T


def _box(lo, hi):
    return {"type": "box", "lower": [float(v) for v in lo], "upper": [float(v) for v in hi]}


def _far_box(n, near, far):
    """A bad set beyond ``near`` along the first axis.  Fixed, not seeded:
    where it lies changes the simplex's pivot path, and so the cost."""
    lo, hi = np.full(n, -far), np.full(n, far)
    lo[0] = near
    return _box(lo, hi)


def _inside_all(segments, states) -> bool:
    """states[k] (rows: trajectories) inside segment k for every segment."""
    return all(bool(np.all(geometry.contains(seg, pts))) for seg, pts in zip(segments, states))


# ---------------------------------------------------------------------------


class LazyHighdim:
    """Criterion-5 system: 1000 lazy steps at n=200 through ``reach``.

    The matrix is the acceptance gate's (generator seed 500 + n); the
    seed relabels its coordinates and places the initial box.
    """

    name = "lazy-highdim"
    # timed passes per 34 s run (~3.2 s each); 10 keeps op_tail_s the
    # slowest pass, as no percentile has 10 samples beyond it
    passes = 10

    def __init__(self, seed, small, workdir):
        n, self.steps = (20, 100) if small else (200, 1000)
        base = np.random.default_rng(500 + n).normal(size=(n, n)) / math.sqrt(n)
        base *= 0.98 / float(np.max(np.abs(np.linalg.eigvals(base))))
        rng = np.random.default_rng(seed)
        a = _relabel(rng, base)
        self.center = rng.uniform(-1.0, 1.0, size=n)
        ones = np.ones(n)
        self.system = linreach.LinearSystem(
            a, setgeom.Box(self.center - 0.5, self.center + 0.5),
            input_set=setgeom.Box(-0.05 * ones, 0.05 * ones))
        self.config = linreach.ReachConfig(
            horizon=self.steps, strategy="lazy", template=np.vstack([np.eye(n), -np.eye(n)]))
        self._seed = seed
        self._states = None

    def ops(self):
        return [self.reach]

    def reach(self):
        return linreach.reach(self.system, self.config)

    def _trajectories(self):
        """Exact trajectories from sampled initial states and inputs."""
        if self._states is None:
            rng = np.random.default_rng([self._seed, 1])
            a, n = self.system.a, self.system.dim
            x = self.center + rng.uniform(-0.5, 0.5, size=(8, n))
            states = [x]
            for _ in range(self.steps):
                x = x @ a.T + rng.uniform(-0.05, 0.05, size=x.shape)
                states.append(x)
            self._states = np.asarray(states)
        return self._states

    def check(self, results):
        (pipe,) = results
        if pipe.status != "horizon":
            return [f"status {pipe.status}"]
        if len(pipe.segments) != self.steps + 1:
            return [f"{len(pipe.segments)} segments"]
        segs = [s.set_rep for s in pipe.segments]
        if not _inside_all(segs, self._trajectories()):
            return ["a sampled trajectory leaves the flowpipe"]
        return [None]

    def fingerprint(self, results):
        (pipe,) = results
        return [_digest(pipe.segments[-1].set_rep.normals,
                        *(s.set_rep.offsets for s in pipe.segments))]

    def final_width(self, results):
        return geometry.width(results[0].segments[-1].set_rep)

    def facts(self, results):
        return {}


# ---------------------------------------------------------------------------


ROTATION = [[0.0, 1.0], [-1.0, 0.0]]
ROTATION_X0 = _box([0.9, -0.1], [1.1, 0.1])
THERMOSTAT_HORIZON = 2.0

VDP_MU = 0.2
VDP_X0 = ([0.98, -0.02], [1.02, 0.02])


def thermostat_doc(bad_set):
    return {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "name": "thermostat",
        "init_mode": "heat",
        "x0": _box([19.5], [20.5]),
        "modes": [
            {"name": "heat", "a": [[-0.4]], "b": [[0.4]],
             "input": _box([30.0], [30.0]), "invariant": _box([0.0], [22.0])},
            {"name": "cool", "a": [[-0.4]], "b": [[0.4]],
             "input": _box([10.0], [10.0]), "invariant": _box([18.0], [40.0])},
        ],
        "transitions": [
            {"source": "heat", "target": "cool", "guard": _box([21.5], [40.0])},
            {"source": "cool", "target": "heat", "guard": _box([0.0], [18.5])},
        ],
        "config": {"horizon": THERMOSTAT_HORIZON, "step": 0.01,
                   "mode": "bad_set", "bad_set": bad_set},
    }


def _vdp(x):
    return np.array([x[1], -x[0] + VDP_MU * (1.0 - x[0] ** 2) * x[1]])


def _vdp_jac(x):
    return np.array([[0.0, 1.0],
                     [-1.0 - 2.0 * VDP_MU * x[0] * x[1], VDP_MU * (1.0 - x[0] ** 2)]])


def _vdp_curvature(lo, hi):
    """Spectral-norm bound of the second component's Hessian on [lo, hi].

    A model file can only give a constant bound; one valid on every domain
    of this run stalls the hybridizer, hence the library call.
    """
    far = np.maximum(np.abs(lo), np.abs(hi))
    a, b = 2.0 * VDP_MU * far[1], 2.0 * VDP_MU * far[0]
    return np.array([0.0, 0.5 * a + math.sqrt(0.25 * a * a + b * b)])


def _vdp_batch(s):
    return np.stack([s[:, 1], -s[:, 0] + VDP_MU * (1.0 - s[:, 0] ** 2) * s[:, 1]], axis=1)


def _rk4_half_steps(starts, steps, step, substeps=20):
    """Fine-step RK4 states of the Van der Pol field at every half step."""
    h = step / substeps
    x = starts
    path = [x]
    for _ in range(steps * substeps):
        k1 = _vdp_batch(x)
        k2 = _vdp_batch(x + 0.5 * h * k1)
        k3 = _vdp_batch(x + 0.5 * h * k2)
        k4 = _vdp_batch(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(x)
    return np.asarray(path)[:: substeps // 2]


def _cover_tables(res):
    """Time-indexed coverage of a 1-d hybrid result document (criterion 6).

    Segment k of a flow entered at step e with entry spread s covers the
    global times [(e+k) r, (e+k+1+s) r].  Past the first pruned crossing
    only state coverage is promised, so time alignment stops there.
    """
    r = res["time_step"]
    nbuckets = int(round(THERMOSTAT_HORIZON / r))
    buckets = [[] for _ in range(nbuckets)]
    union = []
    for flow in res["flows"]:
        for seg in flow["segments"]:
            lo, hi = geometry.axis_bounds(geometry.as_arrays(seg["set"]))
            iv = (float(lo[0]), float(hi[0]))
            union.append(iv)
            g0 = int(round(flow["entry_step"] + seg["t0"] / r))
            g1 = min(int(round(flow["entry_step"] + seg["t1"] / r + flow["entry_spread"])),
                     nbuckets)
            for g in range(g0, g1):
                buckets[g].append(iv)

    def merge(ivals):
        out = []
        for lo, hi in sorted(ivals):
            if out and lo <= out[-1][1] + geometry.TOL:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return out

    kmax = max(1, max(len(merge(b)) for b in buckets if b))
    blo = np.full((nbuckets, kmax), np.inf)
    bhi = np.full((nbuckets, kmax), -np.inf)
    for g, b in enumerate(buckets):
        for j, (lo, hi) in enumerate(merge(b)):
            blo[g, j], bhi[g, j] = lo, hi
    t_prune = min(((res["flows"][j["from_flow"]]["entry_step"] + j["step_lo"]) * r
                   for j in res["jumps"] if j["pruned"]), default=math.inf)
    return r, merge(union), blo, bhi, t_prune


def _trace_covered(tables, ts, xs) -> bool:
    r, union, blo, bhi, t_prune = tables
    tol = geometry.TOL
    in_union = np.zeros(xs.shape, dtype=bool)
    for lo, hi in union:
        in_union |= (xs >= lo - tol) & (xs <= hi + tol)
    if not np.all(in_union):
        return False
    g = np.minimum((ts / r + 1e-9).astype(int), blo.shape[0] - 1)
    aligned = ((xs[:, None] >= blo[g] - tol) & (xs[:, None] <= bhi[g] + tol)).any(axis=1)
    # a sample exactly on a step boundary also belongs to the window before
    prev = np.maximum(g - 1, 0)
    on_edge = np.abs(ts - g * r) <= 1e-9
    aligned |= on_edge & ((xs[:, None] >= blo[prev] - tol)
                          & (xs[:, None] <= bhi[prev] + tol)).any(axis=1)
    return not np.any((ts < t_prune - 1e-9) & ~aligned)


def _traces(raw):
    """``reachflow simulate`` CSV as a list of (times, first coordinate) per run."""
    rows = list(csv.reader(io.StringIO(raw.decode())))[1:]
    runs = {}
    for run, _, t, _, x in rows:
        runs.setdefault(int(run), []).append((float(t), float(x)))
    return [np.asarray(v).T for _, v in sorted(runs.items())]


class CheckMix:
    """``reachflow check model.json -o result.json`` on seven generated
    models, criterion 7's Van der Pol oscillator through
    ``dynamic_hybridize_reach``, and ``reachflow simulate`` on the
    thermostat.

    The n=4 and n=20 matrices come from fixed generator seeds and the bad
    sets are fixed; the seed places the initial sets, draws the unsafe
    model's witness, the thermostat's bad-set edge, the simulation seed and
    the check samples (RK4 starts for Van der Pol).  Relabelling coordinates, as lazy-highdim does,
    would move the simplex's pivot counts by several percent from seed to
    seed.
    """

    name = "check-mix"
    # timed passes per 34 s run (~6 s each): with 9 operations a pass, the
    # op_tail_s rank (63 - 11) falls mid-way through the simulate calls and
    # the median mid-way through the facet-model checks, away from the
    # edges between operation kinds
    passes = 7

    def __init__(self, seed, small, workdir):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self._seed = seed
        # the unsafe rotation's witness trajectory enters the bad set here
        self.witness_step = 60 if small else 200
        n4_steps = 100 if small else 1000
        rot_h, vert_h, n20, vdp_h = (1.0, 0.2, 6, 0.5) if small else (6.3, 0.4, 20, 3.0)
        self.sim_runs = 10 if small else 200
        self.sim_seed = int(rng.integers(2 ** 31))

        a4 = _contraction(np.random.default_rng(404), 4)
        c4 = rng.uniform(-1.0, 1.0, size=4)
        n4 = {
            "format": "flowpipe-model/1", "kind": "linear-discrete",
            "a": a4.tolist(), "x0": _box(c4 - 0.1, c4 + 0.1),
            "input": _box(-0.05 * np.ones(4), 0.05 * np.ones(4)),
            "config": {"horizon": n4_steps, "mode": "bad_set",
                       "bad_set": _far_box(4, 20.0, 30.0)},
        }
        n4_facets = json.loads(json.dumps(n4))
        n4_facets["config"]["strategy"] = "facets"

        def rotation(horizon, bad_set, **config):
            return {
                "format": "flowpipe-model/1", "kind": "linear-continuous",
                "a": ROTATION, "x0": ROTATION_X0,
                "input": _box([-0.01, -0.01], [0.01, 0.01]),
                "config": {"horizon": horizon, "step": 0.01, "mode": "bad_set",
                           "bad_set": bad_set, **config},
            }

        c20 = rng.uniform(-1.0, 1.0, size=n20)
        cont = {
            "format": "flowpipe-model/1", "kind": "linear-continuous",
            "a": _stable_continuous(np.random.default_rng(2020), n20).tolist(),
            "x0": _box(c20 - 0.1, c20 + 0.1),
            "input": _box(-0.05 * np.ones(n20), 0.05 * np.ones(n20)),
            "config": {"horizon": 1.0, "step": 0.01, "mode": "bad_set",
                       "bad_set": _far_box(n20, 20.0, 30.0)},
        }

        # the unsafe model's bad set is a small box around the state an
        # exact trajectory reaches at witness_step, so "unsafe" is proven
        unsafe = rotation(rot_h, None)
        system = modelio.parse_model({**unsafe, "config": {"horizon": 1.0, "step": 0.01}}).system
        x0 = rng.uniform([0.9, -0.1], [1.1, 0.1])
        inputs = rng.uniform(-0.01, 0.01, size=(self.witness_step, 2))
        hit = linreach.simulate(system, x0, inputs, step=0.01).states[-1]
        unsafe["config"]["bad_set"] = _box(hit - 0.005, hit + 0.005)

        # (name, document, expected exit code)
        self.models = [
            ("n4-lazy", n4, 0),
            ("n4-facets", n4_facets, 0),
            ("rotation-lazy", rotation(rot_h, _far_box(2, 3.0, 4.0)), 0),
            ("rotation-vertices",
             rotation(vert_h, _far_box(2, 3.0, 4.0), strategy="vertices"), 0),
            (f"n{n20}-continuous", cont, 0),
            ("rotation-unsafe", unsafe, 2),
            ("thermostat", thermostat_doc(_box([24.0 + 2.0 * rng.uniform()], [30.0])), 0),
        ]
        for name, doc, _ in self.models:
            (workdir / f"{name}.json").write_text(json.dumps(doc))

        self.vdp_steps = int(round(vdp_h / 0.01))
        self.vdp_system = hybridize.NonlinearSystem(
            f=_vdp, dim=2, jac=_vdp_jac, hessian_bound=_vdp_curvature)
        self.vdp_config = linreach.ReachConfig(horizon=vdp_h, step=0.01)
        self.vdp_starts = rng.uniform(*VDP_X0, size=(50, 2))
        self._states = {}

    def ops(self):
        return ([partial(self.check_model, name) for name, _, _ in self.models]
                + [self.hybridize_vdp, self.simulate])

    def _cli(self, argv, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["-o", str(out)])
        return code, out.read_bytes()

    def check_model(self, name):
        return self._cli(["check", str(self.workdir / f"{name}.json")],
                         self.workdir / f"{name}.result.json")

    def hybridize_vdp(self):
        return hybridize.dynamic_hybridize_reach(
            self.vdp_system, setgeom.Box(*VDP_X0), self.vdp_config)

    def simulate(self):
        return self._cli(["simulate", str(self.workdir / "thermostat.json"),
                          "--runs", str(self.sim_runs), "--seed", str(self.sim_seed)],
                         self.workdir / "thermostat.traces.csv")

    def _trajectories(self, name, doc=None):
        """Sampled trajectories, computed once per run: exact ones for the
        linear models, fine-step RK4 for Van der Pol."""
        if name not in self._states and name == "vdp":
            half = _rk4_half_steps(self.vdp_starts, self.vdp_steps, 0.01)
            # segment k must hold the states at its step's start and midpoint
            pad = np.concatenate([half, half[-1:]])
            self._states[name] = pad.reshape(-1, 2 * half.shape[1], 2)
        if name not in self._states:
            rng = np.random.default_rng([self._seed, len(self._states) + 1])
            model = modelio.parse_model(doc)
            system, config = model.system, model.config
            steps = (int(config.horizon) if system.time_kind == "discrete"
                     else int(math.ceil(config.horizon / config.step - 1e-12)))
            lo, hi = geometry.axis_bounds(geometry.as_arrays(doc["x0"]))
            v_lo, v_hi = geometry.axis_bounds(geometry.as_arrays(doc["input"]))
            runs = []
            for _ in range(10):
                inputs = rng.uniform(v_lo, v_hi, size=(steps, system.dim))
                runs.append(linreach.simulate(
                    system, rng.uniform(lo, hi), inputs, step=config.step).states)
            self._states[name] = np.stack(runs, axis=1)
        return self._states[name]

    def _check_model(self, name, doc, expected, result):
        code, raw = result
        if code != expected:
            return f"{name}: exit {code}, expected {expected}"
        res = json.loads(raw)
        if name == "thermostat":
            for flow in res["flows"]:
                for seg in flow["segments"]:
                    lo, hi = geometry.axis_bounds(geometry.as_arrays(seg["set"]))
                    if lo[0] < 17.0 - 1e-12 or hi[0] > 23.0 + 1e-12:
                        return f"{name}: segment leaves the [17, 23] band"
            return None
        segs = [s["set"] for s in res["segments"]]
        if expected == 2 and (res["status_step"] is None
                              or res["status_step"] > self.witness_step):
            return f"{name}: contact missed, a real trajectory enters at step {self.witness_step}"
        if not _inside_all(segs, self._trajectories(name, doc)):
            return f"{name}: a sampled trajectory leaves the flowpipe"
        return None

    def _check_traces(self, thermostat, result):
        code, raw = result
        if code != 0 or thermostat[0] != 0:
            return f"simulate: exit {code}, or no thermostat flowpipe to check against"
        tables = _cover_tables(json.loads(thermostat[1]))
        traces = _traces(raw)
        if len(traces) != self.sim_runs:
            return f"simulate: {len(traces)} runs, expected {self.sim_runs}"
        for i, (ts, xs) in enumerate(traces):
            if abs(ts[-1] - THERMOSTAT_HORIZON) > 1e-9:
                return f"simulate: run {i} stops at t={ts[-1]}"
            if not _trace_covered(tables, ts, xs):
                return f"simulate: run {i} leaves the thermostat flowpipe"
        return None

    def _check_hybridize(self, pipe):
        if pipe.status != "horizon" or not pipe.rigorous:
            return f"vdp: status {pipe.status}, rigorous {pipe.rigorous}"
        if len(pipe.segments) != self.vdp_steps + 1:
            return f"vdp: {len(pipe.segments)} segments"
        if not _inside_all([s.set_rep for s in pipe.segments], self._trajectories("vdp")):
            return "vdp: an RK4 trace leaves the flowpipe"
        return None

    def check(self, results):
        *checks, pipe, traces = results
        out = [self._check_model(name, doc, expected, result)
               for (name, doc, expected), result in zip(self.models, checks)]
        thermostat = checks[[m[0] for m in self.models].index("thermostat")]
        return out + [self._check_hybridize(pipe), self._check_traces(thermostat, traces)]

    def fingerprint(self, results):
        *checks, pipe, traces = results
        return ([f"{code}:{hashlib.sha256(raw).hexdigest()}" for code, raw in checks + [traces]]
                + [_digest(*(s.set_rep.offsets for s in pipe.segments))])

    def final_width(self, results):
        *checks, pipe, _ = results
        total = geometry.width(pipe.segments[-1].set_rep)
        for _, raw in checks:
            res = json.loads(raw)
            flows = res["flows"] if "flows" in res else [res]
            total += sum(geometry.width(f["segments"][-1]["set"]) for f in flows)
        return total

    def facts(self, results):
        *checks, pipe, traces = results
        jumps = [j for _, raw in checks for j in json.loads(raw).get("jumps", [])]
        return {"result_bytes": sum(len(raw) for _, raw in checks),
                "jumps": len(jumps), "pruned": sum(j["pruned"] for j in jumps),
                "sim_samples": sum(len(ts) for ts, _ in _traces(traces[1])),
                "rebuilds": len(pipe.domains), "segments_kept": len(pipe.segments)}


WORKLOADS = {w.name: w for w in (LazyHighdim, CheckMix)}
