"""Command-line interface: subcommands, exit codes, file outputs."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reachflow.cli import main
from reachflow.modelio import load_result


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rotation_doc(**config):
    """Pure rotation: states stay within radius ~1.56 of the origin."""
    return {
        "format": "flowpipe-model/1",
        "kind": "linear-continuous",
        "a": [[0.0, 1.0], [-1.0, 0.0]],
        "x0": {"type": "box", "lower": [0.9, -0.1], "upper": [1.1, 0.1]},
        "config": {"horizon": 2.0, "step": 0.05, **config},
    }


def doubling_doc(**config):
    return {
        "format": "flowpipe-model/1",
        "kind": "linear-discrete",
        "a": [[2.0, 0.0], [0.0, 2.0]],
        "x0": {"type": "box", "lower": [1.0, 1.0], "upper": [1.1, 1.1]},
        "config": {"horizon": 6, **config},
    }


def thermostat_doc(**config):
    return {
        "format": "flowpipe-model/1",
        "kind": "hybrid",
        "name": "thermostat",
        "init_mode": "heat",
        "x0": {"type": "box", "lower": [19.0], "upper": [20.0]},
        "modes": [
            {
                "name": "heat",
                "a": [[-1.0]],
                "b": [[1.0]],
                "input": {"type": "box", "lower": [30.0], "upper": [30.0]},
                "invariant": {"type": "hpolytope", "normals": [[1.0]], "offsets": [22.0]},
            },
            {
                "name": "cool",
                "a": [[-1.0]],
                "b": [[1.0]],
                "input": {"type": "box", "lower": [10.0], "upper": [10.0]},
                "invariant": {"type": "hpolytope", "normals": [[-1.0]], "offsets": [-18.0]},
            },
        ],
        "transitions": [
            {
                "source": "heat",
                "target": "cool",
                "guard": {"type": "hpolytope", "normals": [[-1.0]], "offsets": [-22.0]},
            },
            {
                "source": "cool",
                "target": "heat",
                "guard": {"type": "hpolytope", "normals": [[1.0]], "offsets": [18.0]},
            },
        ],
        "config": {"horizon": 2.0, "step": 0.01, **config},
    }


def cubic_doc(**config):
    return {
        "format": "flowpipe-model/1",
        "kind": "nonlinear",
        "variables": ["x"],
        "rhs": ["-x**3"],
        "x0": {"type": "box", "lower": [1.0], "upper": [1.0]},
        "hessian_bound": 8.0,
        "config": {"horizon": 1.0, "step": 0.01, **config},
    }


class TestReach:
    def test_writes_result_document(self, tmp_path, capsys):
        model = write_model(tmp_path, doubling_doc())
        out = tmp_path / "result.json"
        assert main(["reach", model, "-o", str(out)]) == 0
        assert "horizon" in capsys.readouterr().out
        doc = load_result(out)
        assert doc["kind"] == "linear-discrete"
        assert len(doc["segments"]) == 7

    def test_deterministic_output_bytes(self, tmp_path):
        model = write_model(tmp_path, rotation_doc())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["reach", model, "-o", str(out1)]) == 0
        assert main(["reach", model, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_model_without_config_is_an_error(self, tmp_path, capsys):
        doc = doubling_doc()
        del doc["config"]
        model = write_model(tmp_path, doc)
        assert main(["reach", model, "-o", str(tmp_path / "r.json")]) == 1
        assert "no config block" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["reach", str(tmp_path / "nope.json"), "-o", "r.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["reach", str(bad), "-o", str(tmp_path / "r.json")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_model_names_the_entry(self, tmp_path, capsys):
        model = write_model(tmp_path, {**doubling_doc(), "a": []})
        assert main(["check", model]) == 1
        assert "a: must be a non-empty array of rows" in capsys.readouterr().err

    def test_vertex_fixpoint_above_3d_ends_without_traceback(self, tmp_path, capsys):
        doc = {**doubling_doc(mode="fixpoint", strategy="vertices", horizon=5),
               "a": (0.5 * np.eye(4)).tolist(),
               "x0": {"type": "box", "lower": [0.0] * 4, "upper": [1.0] * 4}}
        out = tmp_path / "r.json"
        assert main(["reach", write_model(tmp_path, doc), "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "horizon" in captured.out and "Traceback" not in captured.err
        assert len(load_result(out)["segments"]) == 51

    def test_hybrid_reach(self, tmp_path):
        model = write_model(tmp_path, thermostat_doc())
        out = tmp_path / "r.json"
        assert main(["reach", model, "-o", str(out)]) == 0
        doc = load_result(out)
        assert {f["mode"] for f in doc["flows"]} == {"heat", "cool"}

    def test_nonlinear_reach(self, tmp_path):
        model = write_model(tmp_path, cubic_doc())
        out = tmp_path / "r.json"
        assert main(["reach", model, "-o", str(out)]) == 0
        doc = load_result(out)
        assert doc["rigorous"] is True
        assert len(doc["segments"]) == 101


class TestBadNumbers:
    @pytest.mark.parametrize("doc, message", [
        (doubling_doc(mode="fixpoint", max_steps=float("inf")),
         "config.max_steps: must be a finite number"),
        (rotation_doc(horizon=float("nan")), "config.horizon: must be a finite number"),
        (rotation_doc(bloat_policy="error_ball", state_bound=float("nan")),
         "config.state_bound: must be a finite number"),
        ({**cubic_doc(), "hessian_bound": float("inf")}, "hessian_bound: must be a finite number"),
        ({**doubling_doc(), "x0": {"type": "box", "lower": [1.0, -float("inf")],
                                   "upper": [1.1, 1.1]}},
         "x0.lower[1]: must be a finite number"),
        (doubling_doc(mode="fixpoint", max_steps=10 ** 400),
         "config.max_steps: must be a finite number"),
        (doubling_doc(mode="fixpoint", max_steps=2.7),
         "config: max_steps must be a nonnegative integer"),
        (doubling_doc(mode="fixpoint", max_steps=-3),
         "config: max_steps must be a nonnegative integer"),
        (rotation_doc(bloat_policy="error_ball", state_bound=-0.2),
         "config: state_bound must be a nonnegative finite number"),
        (rotation_doc(bloat_policy="error_ball", state_bound=-5),
         "config: state_bound must be a nonnegative finite number"),
    ])
    def test_reach_names_the_field(self, tmp_path, capsys, doc, message):
        # json.dumps writes inf and nan as Infinity and NaN, as json.load reads them
        model = write_model(tmp_path, doc)
        assert main(["reach", model, "-o", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()


class TestCheck:
    def test_safe_exits_zero(self, tmp_path, capsys):
        bad = {"type": "hpolytope", "normals": [[-1.0, 0.0]], "offsets": [-5.0]}
        model = write_model(tmp_path, rotation_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_contact_exits_two(self, tmp_path, capsys):
        bad = {"type": "hpolytope", "normals": [[-1.0, 0.0]], "offsets": [-4.0]}
        model = write_model(tmp_path, doubling_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 2
        assert "UNSAFE" in capsys.readouterr().out

    def test_check_requires_bad_set_mode(self, tmp_path, capsys):
        model = write_model(tmp_path, rotation_doc())
        assert main(["check", model]) == 1
        assert "check needs" in capsys.readouterr().err

    def test_check_writes_optional_result(self, tmp_path):
        bad = {"type": "hpolytope", "normals": [[-1.0, 0.0]], "offsets": [-4.0]}
        model = write_model(tmp_path, doubling_doc(mode="bad_set", bad_set=bad))
        out = tmp_path / "r.json"
        assert main(["check", model, "-o", str(out)]) == 2
        assert load_result(out)["status"] == "bad_reached"

    def test_hybrid_safe_band(self, tmp_path, capsys):
        bad = {"type": "hpolytope", "normals": [[1.0]], "offsets": [16.0]}
        model = write_model(tmp_path, thermostat_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_hybrid_contact(self, tmp_path):
        bad = {"type": "hpolytope", "normals": [[-1.0]], "offsets": [-21.0]}
        model = write_model(tmp_path, thermostat_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 2

    def test_nonlinear_truly_unsafe(self, tmp_path, capsys):
        # x(1) = 1/sqrt(3) ~ 0.577 < 0.6: the trajectory really enters
        bad = {"type": "box", "lower": [-10.0], "upper": [0.6]}
        model = write_model(tmp_path, cubic_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 2
        assert "UNSAFE" in capsys.readouterr().out

    def test_nonlinear_safe(self, tmp_path, capsys):
        bad = {"type": "box", "lower": [-10.0], "upper": [0.4]}
        model = write_model(tmp_path, cubic_doc(mode="bad_set", bad_set=bad))
        assert main(["check", model]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_nonlinear_without_curvature_is_unknown(self, tmp_path, capsys):
        doc = cubic_doc(mode="bad_set", bad_set={"type": "box", "lower": [-10.0], "upper": [0.4]})
        del doc["hessian_bound"]
        model = write_model(tmp_path, doc)
        assert main(["check", model]) == 2
        assert "UNKNOWN" in capsys.readouterr().out


class TestPlot:
    def test_plot_linear_result(self, tmp_path):
        model = write_model(tmp_path, rotation_doc())
        res = tmp_path / "r.json"
        svg = tmp_path / "pipe.svg"
        assert main(["reach", model, "-o", str(res)]) == 0
        assert main(["plot", str(res), "-o", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == 41  # ceil(2/0.05) + 1 segments

    def test_plot_hybrid_result_with_modes(self, tmp_path):
        model = write_model(tmp_path, thermostat_doc())
        res = tmp_path / "r.json"
        svg = tmp_path / "pipe.svg"
        main(["reach", model, "-o", str(res)])
        # 1-d pipe: plotting needs two distinct dims, so reuse dim 0 twice is
        # invalid; a 1-d result cannot be plotted and should error cleanly
        assert main(["plot", str(res), "--dims", "0,1", "-o", str(svg)]) == 1

    def test_plot_bad_dims(self, tmp_path, capsys):
        model = write_model(tmp_path, rotation_doc())
        res = tmp_path / "r.json"
        main(["reach", model, "-o", str(res)])
        assert main(["plot", str(res), "--dims", "a,b", "-o", "x.svg"]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_plot_rejects_a_result_without_segments(self, tmp_path, capsys):
        model = write_model(tmp_path, rotation_doc())
        res = tmp_path / "r.json"
        main(["reach", model, "-o", str(res)])
        doc = json.loads(res.read_text())
        del doc["segments"]
        res.write_text(json.dumps(doc))
        assert main(["plot", str(res), "-o", str(tmp_path / "x.svg")]) == 1
        assert "the result document has no segments to plot" in capsys.readouterr().err

    def test_plot_rejects_model_file(self, tmp_path, capsys):
        model = write_model(tmp_path, rotation_doc())
        assert main(["plot", model, "-o", str(tmp_path / "x.svg")]) == 1
        assert "flowpipe-result/1" in capsys.readouterr().err


class TestSimulate:
    def test_linear_csv(self, tmp_path, capsys):
        model = write_model(tmp_path, doubling_doc())
        out = tmp_path / "runs.csv"
        assert main(["simulate", model, "--runs", "3", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "step", "time", "mode", "x0", "x1"]
        assert len(rows) == 1 + 3 * 7  # header + runs * (steps + 1)
        assert rows[1][3] == "-"

    def test_seed_determinism(self, tmp_path):
        model = write_model(tmp_path, rotation_doc())
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", model, "--runs", "2", "--seed", "7", "-o", str(a)])
        main(["simulate", model, "--runs", "2", "--seed", "7", "-o", str(b)])
        main(["simulate", model, "--runs", "2", "--seed", "8", "-o", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_linear_csv_bytes(self, tmp_path):
        # per-run draws (start, then inputs) and the %.12g format, as
        # written before hybrid runs were batched
        doc = rotation_doc(horizon=0.03, step=0.01)
        doc["input"] = {"type": "box", "lower": [-0.1, -0.1], "upper": [0.1, 0.1]}
        model = write_model(tmp_path, doc)
        out = tmp_path / "runs.csv"
        assert main(["simulate", model, "--runs", "2", "--seed", "5", "-o", str(out)]) == 0
        assert out.read_bytes() == (
            b"run,step,time,mode,x0,x1\r\n"
            b"0,0,0,-,1.06100058475,0.0615881579473\r\n"
            b"0,1,0.01,-,1.06159191512,0.0505467061959\r\n"
            b"0,2,0.02,-,1.06115100458,0.0396996389666\r\n"
            b"0,3,0.03,-,1.06130733949,0.0281778016186\r\n"
            b"1,0,0,-,0.909751542145,0.099835223013\r\n"
            b"1,1,0.01,-,0.911006468807,0.090200373071\r\n"
            b"1,2,0.02,-,0.911737546656,0.082034957335\r\n"
            b"1,3,0.03,-,0.913311080301,0.0735981059682\r\n"
        )

    def test_hybrid_seed_determinism(self, tmp_path):
        # heat may leave from 21 on: the coin flips make traces differ by seed
        doc = thermostat_doc()
        doc["transitions"][0]["guard"]["offsets"] = [-21.0]
        model = write_model(tmp_path, doc)
        outs = {}
        for seed, runs in ((7, 4), (7, 4), (8, 4), (7, 5)):
            out = tmp_path / f"{seed}-{runs}.csv"
            assert main(["simulate", model, "--runs", str(runs), "--seed", str(seed),
                         "-o", str(out)]) == 0
            outs.setdefault((seed, runs), []).append(out.read_bytes())
        assert outs[7, 4][0] == outs[7, 4][1]
        assert outs[7, 4][0] != outs[8, 4][0]
        with open(tmp_path / "7-5.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sorted({int(row[0]) for row in rows}) == [0, 1, 2, 3, 4]

    def test_mode_names_quoted_as_csv(self, tmp_path):
        doc = thermostat_doc()
        doc["modes"][0]["name"] = 'heat, "on"'
        doc["init_mode"] = doc["transitions"][0]["source"] = 'heat, "on"'
        doc["transitions"][1]["target"] = 'heat, "on"'
        model = write_model(tmp_path, doc)
        out = tmp_path / "runs.csv"
        assert main(["simulate", model, "--runs", "2", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows)
        assert {row[3] for row in rows[1:]} == {'heat, "on"', "cool"}

    def test_hybrid_modes_in_csv(self, tmp_path):
        model = write_model(tmp_path, thermostat_doc())
        out = tmp_path / "runs.csv"
        assert main(["simulate", model, "--runs", "2", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        modes = {row[3] for row in rows[1:]}
        assert modes <= {"heat", "cool"} and "heat" in modes

    def test_nonlinear_rk4(self, tmp_path):
        model = write_model(tmp_path, cubic_doc())
        out = tmp_path / "runs.csv"
        assert main(["simulate", model, "--runs", "1", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        final = float(rows[-1][4])
        assert final == pytest.approx(1.0 / 3.0 ** 0.5, abs=1e-6)

    def test_stdout_default(self, tmp_path, capsys):
        model = write_model(tmp_path, doubling_doc())
        assert main(["simulate", model, "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "run,step,time,mode,x0,x1"

    def test_zero_runs_rejected(self, tmp_path, capsys):
        model = write_model(tmp_path, doubling_doc())
        assert main(["simulate", model, "--runs", "0"]) == 1
        assert "at least 1" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "reach" in capsys.readouterr().out
