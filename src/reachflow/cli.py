"""Command-line front end.

Subcommands:
  reach     compute a flowpipe and write a result document
  check     bounded safety verdict; exit 0 when safe, 2 when not proven
  plot      render a result document to an SVG file
  simulate  sample trajectories and emit them as CSV

Exit codes: 0 success (check: safety proven), 1 usage or input error,
2 (check only) safety not provable -- the over-approximation touched the
bad set, or the exploration was truncated.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from itertools import repeat

import numpy as np

from .exprs import ExprError
from .hybridize import STALLED, dynamic_hybridize_reach
from .hybridreach import INCOMPLETE, hybrid_reach, hybrid_simulate
from .linreach import BAD_REACHED, BAD_SET, CONTINUOUS, _lattice, reach, simulate
from .modelio import (
    KIND_HYBRID,
    KIND_NONLINEAR,
    ModelError,
    ParsedModel,
    decode_set,
    load_model,
    load_result,
    result_doc,
    result_segments,
    save_result,
)
from .setgeom import sample_points
from .svgplot import plot_segments

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNPROVEN = 2


def _require_config(model: ParsedModel):
    if model.config is None:
        raise ModelError("model has no config block")
    return model.config


def _compute(model: ParsedModel):
    config = _require_config(model)
    if model.kind == KIND_HYBRID:
        return hybrid_reach(model.automaton, model.init_mode, model.x0, config)
    if model.kind == KIND_NONLINEAR:
        return dynamic_hybridize_reach(model.nonlinear, model.x0, config)
    return reach(model.system, config)


def cmd_reach(args) -> int:
    model = load_model(args.model)
    pipe = _compute(model)
    doc = result_doc(model, pipe)
    save_result(doc, args.output)
    nseg = sum(len(group) for _, group in result_segments(doc))
    print(f"{pipe.status}: {nseg} segments -> {args.output}")
    return EXIT_OK


def cmd_check(args) -> int:
    model = load_model(args.model)
    config = _require_config(model)
    if config.mode != BAD_SET:
        raise ModelError("check needs a config with mode 'bad_set' and a bad set")
    pipe = _compute(model)
    if args.output:
        save_result(result_doc(model, pipe), args.output)

    if pipe.status == BAD_REACHED:
        where = getattr(pipe, "status_step", None)
        at = f" at step {where}" if where is not None else ""
        print(f"UNSAFE (unproven): the flowpipe touches the bad set{at}")
        return EXIT_UNPROVEN
    if pipe.status == INCOMPLETE:
        print("UNKNOWN: exploration stopped at the jump or flow limit")
        return EXIT_UNPROVEN
    if pipe.status == STALLED:
        print("UNKNOWN: hybridization stalled before the horizon")
        return EXIT_UNPROVEN
    if not getattr(pipe, "rigorous", True):
        print("UNKNOWN: linearization residuals were estimated, not bounded")
        return EXIT_UNPROVEN
    print(f"SAFE: bad set unreachable within the horizon ({pipe.status})")
    return EXIT_OK


def cmd_plot(args) -> int:
    doc = load_result(args.flowpipe)
    try:
        dims = tuple(int(v) for v in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims expects two comma-separated integers, got {args.dims!r}")
    groups = []
    for label, segs in result_segments(doc):
        sets = [decode_set(seg["set"], f"segments[{i}].set") for i, seg in enumerate(segs)]
        groups.append((label, sets))
    if not groups:
        raise ValueError("the result document has no segments to plot")
    plot_segments(groups, dims, path=args.output, title=doc.get("name"))
    print(f"wrote {args.output}")
    return EXIT_OK


_RK4_SUBSTEPS = 8


def _rk4_path(field, x0: np.ndarray, nsteps: int, r: float):
    """Classic fixed-step integration, ``_RK4_SUBSTEPS`` stages per lattice step."""
    out = np.empty((nsteps + 1, x0.shape[0]))
    out[0] = x0
    x = x0
    h = r / _RK4_SUBSTEPS
    for k in range(nsteps):
        for _ in range(_RK4_SUBSTEPS):
            k1 = field(x)
            k2 = field(x + 0.5 * h * k1)
            k3 = field(x + 0.5 * h * k2)
            k4 = field(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]  # the empty last field and the "\r\n" row end


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    config = _require_config(model)
    rng = np.random.default_rng(args.seed)
    # the same time lattice as reach and check: a discrete horizon counts steps
    if model.kind == KIND_HYBRID:
        time_kind, dim = model.automaton.time_kind, model.automaton.dim
    elif model.kind == KIND_NONLINEAR:
        time_kind, dim = CONTINUOUS, model.nonlinear.dim
    else:
        time_kind, dim = model.system.time_kind, model.system.dim
    r, nsteps = _lattice(config, time_kind, dim)

    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    # (times, states, mode per sample) per run
    if model.kind == KIND_HYBRID:
        # one batch: all starts first, then every trace's draws interleaved
        starts = sample_points(model.x0, args.runs, rng)
        traces = hybrid_simulate(
            model.automaton, model.init_mode, starts, config.horizon,
            step=config.step, rng=rng,
        )
        runs = [(trace.times, trace.states, trace.modes) for trace in traces]
    else:
        runs = []
        for _ in range(args.runs):
            if model.kind == KIND_NONLINEAR:
                x0 = sample_points(model.x0, 1, rng)[0]
                states = _rk4_path(model.nonlinear.field, x0, nsteps, r)
            else:
                system = model.system
                x0 = sample_points(system.x0, 1, rng)[0]
                inputs = (sample_points(system.input_set, nsteps, rng)
                          if system.has_input else None)
                states = simulate(
                    system, x0, inputs=inputs, steps=nsteps, step=config.step
                ).states
            runs.append((np.arange(len(states)) * r, states, ("-",) * len(states)))

    fields = {name: _csv_field(name) for _, _, modes in runs for name in set(modes)}
    line = "%d,%d,%.12g,%s" + ",%.12g" * dim + "\r\n"
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        csv.writer(out).writerow(
            ["run", "step", "time", "mode"] + [f"x{i}" for i in range(dim)])
        for run, (times, states, modes) in enumerate(runs):
            rows = zip(repeat(run), range(len(times)), times.tolist(),
                       map(fields.__getitem__, modes), *states.T.tolist())
            out.write("".join(map(line.__mod__, rows)))
    finally:
        if args.output:
            out.close()
    if args.output:
        print(f"wrote {args.runs} runs -> {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reachflow",
        description="Set-based reachability for linear, hybrid and nonlinear systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("reach", help="compute a flowpipe and write a result document")
    r.add_argument("model", help="model JSON file")
    r.add_argument("-o", "--output", required=True, help="result JSON file to write")
    r.set_defaults(func=cmd_reach)

    c = sub.add_parser(
        "check",
        help="bounded safety check; exit 0 when proven safe, 2 otherwise",
    )
    c.add_argument("model", help="model JSON file (config mode must be 'bad_set')")
    c.add_argument("-o", "--output", help="optionally write the flowpipe result too")
    c.set_defaults(func=cmd_check)

    pl = sub.add_parser("plot", help="render a result document to SVG")
    pl.add_argument("flowpipe", help="result JSON file")
    pl.add_argument("--dims", default="0,1", help="two state dimensions, e.g. 0,2")
    pl.add_argument("-o", "--output", required=True, help="SVG file to write")
    pl.set_defaults(func=cmd_plot)

    s = sub.add_parser("simulate", help="sample random trajectories as CSV")
    s.add_argument("model", help="model JSON file")
    s.add_argument("--runs", type=int, default=10, help="number of trajectories")
    s.add_argument("--seed", type=int, default=0, help="random seed")
    s.add_argument("-o", "--output", help="CSV file (default: stdout)")
    s.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the generic error code so 2 stays a verdict
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ModelError, ExprError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
