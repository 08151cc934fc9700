"""Scenario files, trajectory CSV contract, and the command line."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import pytest

import conecbf
from conecbf import (
    ControllerSpec,
    FilterConfig,
    ModelParams,
    Obstacle,
    Scenario,
    SimulationError,
    ValidationError,
    load_scenario,
    parse_scenario,
    run_scenario,
    save_scenario,
    scenario_to_dict,
)
from conecbf.cli import main
from conecbf.models import STATE_FIELDS, STATE_TYPES
from conecbf.scenario_io import (
    CSV_BLOCK_ROWS,
    csv_header,
    read_json,
    read_trajectory_csv,
    write_json,
    write_trajectory_csv,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
NAN = float("nan")
INF = float("inf")


def set_path(doc, dotted, value):
    """Set doc[a][b]... for the dotted path "a.b..." (digits index lists)."""
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    doc[last] = value


def minimal_doc(**over):
    doc = {
        "name": "mini",
        "model": "unicycle",
        "params": {"l": 0.0, "w": 0.6},
        "initial_state": {"x": 0, "y": 0, "theta": 0, "v": 1.0, "omega": 0},
        "obstacles": [{"center": [6, 0.5]}],
        "controller": {"kind": "p", "k1": 2.0, "k2": 1.0, "v_des": 1.0},
        "filter": {"gamma": 1.0},
        "sim": {"dt": 0.01, "duration": 2.0},
        "cbf": "c3bf",
    }
    doc.update(over)
    return doc


class TestScenarioFiles:
    def test_round_trip_all_corpus(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = load_scenario(path)
            assert scenario_to_dict(parse_scenario(scenario_to_dict(sc))) == scenario_to_dict(sc)

    def test_save_load_round_trip(self, tmp_path):
        sc = parse_scenario(minimal_doc())
        out = tmp_path / "sc.json"
        save_scenario(sc, out)
        assert scenario_to_dict(load_scenario(out)) == scenario_to_dict(sc)

    # a number field set to a bool is refused when built, as the document
    # reader refuses it; set to the int the bool stands for, the scenario
    # saves a file that loads back equal
    @pytest.mark.parametrize("edit,value", [
        (lambda sc, v: replace(sc, filter=replace(sc.filter, gamma=v)), True),
        (lambda sc, v: replace(sc, obstacles=(replace(sc.obstacles[0], cx=v),)), True),
        (lambda sc, v: replace(sc, dt=v), True),
        (lambda sc, v: replace(sc, params=replace(sc.params, w=v)), False),
        (lambda sc, v: replace(sc, initial_state=replace(sc.initial_state, v=v)), True),
    ], ids=["filter-gamma", "obstacle-cx", "dt", "params-w", "state-v"])
    def test_bool_refused_and_int_round_trips(self, tmp_path, edit, value):
        sc = load_scenario(SCENARIO_DIR / "unicycle-braking.json")
        with pytest.raises(ValidationError, match=f"expected a finite number, got {value}"):
            edit(sc, value)
        sc = edit(sc, int(value))
        save_scenario(sc, tmp_path / "sc.json")
        assert load_scenario(tmp_path / "sc.json") == sc

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(minimal_doc(extra=1))
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(minimal_doc(params={"l": 0.0, "wheelbase": 2.0}))
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(minimal_doc(obstacles=[{"center": [1, 2], "radius": 3}]))

    def test_wrong_state_fields_rejected(self):
        doc = minimal_doc(initial_state={"x": 0, "y": 0, "theta": 0, "v": 1.0})
        with pytest.raises(ValidationError, match="missing required key"):
            parse_scenario(doc)
        doc = minimal_doc(model="bicycle")
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(doc)  # omega is not a bicycle field

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="expected a number"):
            parse_scenario(minimal_doc(sim={"dt": "small", "duration": 2.0}))

    def test_missing_sections_use_dataclass_defaults(self):
        doc = minimal_doc(obstacles=[{"center": [6, 0.5]}])
        for key in ("params", "controller", "filter", "sim", "cbf"):
            del doc[key]
        sc = parse_scenario(doc)
        defaults = {f.name: f.default for f in fields(Scenario)}
        assert sc.params == ModelParams()
        assert sc.controller == ControllerSpec(kind="zero")
        assert sc.filter == FilterConfig()
        assert sc.obstacles == (Obstacle(6.0, 0.5),)
        for name in ("params", "controller", "filter", "dt", "duration", "cbf", "hocbf_gamma1"):
            assert getattr(sc, name) == defaults[name], name

    @pytest.mark.parametrize("model", sorted(STATE_TYPES))
    def test_scenario_built_in_python_takes_the_document_defaults(self, model):
        # a document with only the required keys and a Scenario given only
        # those fields are the same Scenario
        s = STATE_TYPES[model](*range(len(STATE_FIELDS[model])))
        doc = {"name": "bare", "model": model, "initial_state": dict(zip(STATE_FIELDS[model], range(9)))}
        assert Scenario(name="bare", model=model, initial_state=s) == parse_scenario(doc)

    def test_input_bounds_with_open_sides(self):
        # a null side is an open side, and scenario_to_dict writes it back
        sides = [[None, 2.0], [-1.0, None]]
        sc = parse_scenario(minimal_doc(filter={"gamma": 1.0, "input_bounds": sides}))
        assert sc.filter.input_bounds == ((-INF, 2.0), (-1.0, INF))
        doc = scenario_to_dict(sc)
        assert doc["filter"]["input_bounds"] == sides
        assert parse_scenario(doc) == sc

    def test_round_trip_exact_for_fields_a_run_reads(self):
        doc = minimal_doc(
            model="bicycle",
            params={"w": 0.6, "beta_max": 0.3, "v_max": 2.5},
            initial_state={"x": 0, "y": 0, "theta": 0, "v": 1.0},
            controller={"kind": "p", "k1": 2.0, "v_des": 1.0, "a_max": 0.7},
            filter={"gamma": 1.0, "activation_radius": 5.0,
                    "input_bounds": [[-1.0, None], [-0.25, 0.25]]},
        )
        stanley = parse_scenario(minimal_doc(
            model="bicycle",
            params={"l": 0.1, "l_f": 1.2, "l_r": 0.8, "w": 0.5, "beta_max": 0.3, "v_max": 2.5},
            initial_state={"x": 0, "y": 0, "theta": 0, "v": 1.0},
            controller={"kind": "stanley", "k1": 2.0, "k2": 0.5, "v_des": 1.0, "v_des_vec": [1.0, 0.5],
                        "a_max": 0.7, "k_e": 0.9, "path": [[0, 0], [5, 0], [5, 5]], "closed": True},
            filter={"gamma": 2.0, "regularization_eps": 1e-9, "activation_radius": 5.0,
                    "input_bounds": [[-1.0, None], [-0.25, 0.25]]},
        ))
        # a field added to any of these must be set here, so the writer is seen to keep it
        for obj in (stanley.params, stanley.controller, stanley.controller.path, stanley.filter):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        scenarios = (parse_scenario(doc), parse_scenario(minimal_doc(cbf="hocbf", hocbf_gamma1=2.5)), stanley)
        for sc in scenarios:
            assert parse_scenario(scenario_to_dict(sc)) == sc

    def test_round_trip_canonical_for_fields_a_run_never_reads(self):
        # these fields change nothing a run does, so scenario_to_dict drops
        # them and the round trip gives their defaults back
        sc = parse_scenario(minimal_doc())
        path = load_scenario(SCENARIO_DIR / "bicycle-path-yield.json").controller.path
        cases = [
            # hocbf_gamma1 is read by the hocbf barrier only
            (replace(sc, hocbf_gamma1=2.5), replace(sc, hocbf_gamma1=1.0)),
            # a zero controller reads no gain
            (replace(sc, controller=ControllerSpec(kind="zero", k1=3.0, v_des=2.0, a_max=1.0)),
             replace(sc, controller=ControllerSpec(kind="zero"))),
            # k_e and the path are read by the stanley controller only
            (replace(sc, controller=replace(sc.controller, k_e=2.0, path=path)), sc),
        ]
        for given, canonical in cases:
            assert given != canonical
            assert parse_scenario(scenario_to_dict(given)) == canonical

    def test_closed_only_beside_a_path(self):
        # the writer puts `closed` beside a path and nowhere else
        with pytest.raises(ValidationError, match=re.escape("scenario.controller.closed: allowed only beside 'path'")):
            parse_scenario(minimal_doc(controller={"kind": "p", "closed": False}))
        stanley = {"kind": "stanley", "path": [[0, 0], [5, 0]]}
        with pytest.raises(ValidationError, match=re.escape("scenario.controller.closed: expected true or false")):
            parse_scenario(minimal_doc(model="bicycle", initial_state={"x": 0, "y": 0, "theta": 0, "v": 1.0},
                                       controller={**stanley, "closed": 1}))

    def test_errors_name_the_document_path(self):
        cases = [
            ({"obstacles": [{"center": [1, "x"]}]}, "scenario.obstacles[0].center"),
            ({"obstacles": [{"center": [1, 2], "segments": [{"t": 1, "velocity": [0]}]}]},
             "scenario.obstacles[0].segments[0].velocity"),
            ({"sim": {"dt": "x"}}, "scenario.sim.dt"),
            ({"sim": {"step": 1}}, "scenario.sim: unknown key"),
            ({"params": {"w": None}}, "scenario.params.w"),
            ({"controller": {"v_des_vec": [1]}}, "scenario.controller.v_des_vec"),
            ({"controller": {"kind": "stanley", "path": [[0, 0], 5]}}, "scenario.controller.path[1]"),
            ({"filter": {"input_bounds": [[0, 1], [None, "x"]]}}, "scenario.filter.input_bounds"),
            ({"initial_state": {"x": 0}}, "scenario.initial_state: missing required key 'y'"),
            ({"model": "boat"}, "scenario.model: expected one of"),
            ({"hocbf_gamma1": [2]}, "scenario.hocbf_gamma1"),
            ({"name": 5}, "scenario.name: expected a string"),
        ]
        for change, where in cases:
            with pytest.raises(ValidationError, match=re.escape(where)):
                parse_scenario(minimal_doc(**change))

    @pytest.mark.parametrize("name", ["A & B <1>", "tab\tnew\nline\r", "Größe 🚗", "\ufffd", ""])
    def test_name_as_written(self, name):
        assert parse_scenario(minimal_doc(name=name)).name == name

    @pytest.mark.parametrize("name", ["\ud800x", "bad\u0001name", "\ufffe", 5, None, ["a"]])
    def test_name_beyond_utf8_or_xml_rejected(self, name):
        with pytest.raises(ValidationError, match="scenario.name: expected a string that UTF-8 and XML 1.0"):
            parse_scenario(minimal_doc(name=name))

    def test_bad_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "unicycle",\n  broken\n}')
        with pytest.raises(ValidationError, match="line"):
            load_scenario(bad)


class TestTrajectoryCsv:
    def make_log(self):
        return run_scenario(load_scenario(SCENARIO_DIR / "unicycle-braking.json"))

    def test_column_contract(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(log, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[1:6] == list(STATE_FIELDS["unicycle"])
        assert header[6:10] == ["u_ref_0", "u_ref_1", "u_star_0", "u_star_1"]
        assert header[10:] == ["h_0", "psi_0", "dist_0", "active_0", "penetration_0"]

    def test_reload_exact(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(log, path)
        data = read_trajectory_csv(path)
        assert len(data["t"]) == len(log.t)
        # 17-significant-digit scientific notation round-trips doubles exactly
        for k in (0, 7, len(log.t) - 1):
            assert data["t"][k] == log.t[k]
            assert data["x"][k] == log.states[k][0]
            assert data["h_0"][k] == log.h[k][0]
            assert data["psi_0"][k] == log.psi[k][0]

    def test_unknown_layout_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="unknown column layout"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "name", ["unicycle-braking", "bicycle-braking", "pointmass-braking"]
    )
    def test_reload_every_model_layout(self, tmp_path, name):
        # bicycle state fields are a prefix of unicycle's; the reader must
        # disambiguate by the following input columns for every model
        log = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        path = tmp_path / "t.csv"
        write_trajectory_csv(log, path)
        data = read_trajectory_csv(path)
        assert len(data["t"]) == len(log.t)
        assert "u_ref_0" in data and "h_0" in data

    @pytest.mark.parametrize(
        "name", ["unicycle-braking", "bicycle-braking", "pointmass-braking"]
    )
    def test_reload_without_obstacles(self, tmp_path, name):
        sc = replace(load_scenario(SCENARIO_DIR / f"{name}.json"), obstacles=(), duration=1.0)
        log = run_scenario(sc)
        path = tmp_path / "t.csv"
        write_trajectory_csv(log, path)
        data = read_trajectory_csv(path)
        assert list(data) == ["t", *STATE_FIELDS[sc.model], "u_ref_0", "u_ref_1", "u_star_0", "u_star_1"]
        assert data["t"] == log.t

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self.make_log(), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[1] = "abc"  # the x column of the second data row
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"line 3: column 'x' holds 'abc'"):
            read_trajectory_csv(path)
        assert main(["plot", "--csv", str(path), "--out", str(tmp_path / "x.svg"),
                     "--mode", "inputs"]) == 3

    @pytest.mark.parametrize("mode", ["path", "hvalue", "inputs"])
    def test_header_only_rejected(self, tmp_path, mode):
        # a run logs at least one step; every plot mode needs one
        run = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
                     "--out", str(run), "--duration", "0.1"]) == 0
        path = run / "trajectory.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(ValidationError, match="no data rows"):
            read_trajectory_csv(path)
        assert main(["plot", "--csv", str(path), "--out", str(tmp_path / "x.svg"),
                     "--mode", mode]) == 3

    @pytest.mark.parametrize("n_obstacles", [0, 2])
    @pytest.mark.parametrize("n_rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7])
    def test_block_writer_matches_row_writer(self, tmp_path, n_rows, n_obstacles):
        # the writer formats CSV_BLOCK_ROWS rows per `%`; its bytes must be
        # those of one `%` per row, for a short, an exact and a ragged last block
        sc = load_scenario(SCENARIO_DIR / "unicycle-two-obstacles.json")
        sc = replace(sc, obstacles=sc.obstacles[:n_obstacles], duration=3 * CSV_BLOCK_ROWS * sc.dt)
        assert len(sc.obstacles) == n_obstacles
        full = run_scenario(sc)
        assert len(full.t) > n_rows
        columns = ("t", "states", "u_ref", "u_star", "h", "psi", "dist", "active",
                   "penetration", "degenerate", "infeasible")
        log = replace(full, **{c: getattr(full, c)[:n_rows] for c in columns})
        path = tmp_path / "t.csv"
        write_trajectory_csv(log, path)
        assert path.read_bytes() == _row_by_row_csv(log).encode("utf-8")
        data = read_trajectory_csv(path)
        assert data["t"] == log.t
        assert len(data) == 10 + 5 * n_obstacles

    def test_byte_identical_rewrites(self, tmp_path):
        log = self.make_log()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectory_csv(log, p1)
        write_trajectory_csv(run_scenario(log.scenario), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _row_by_row_csv(log):
    """The trajectory CSV text written with one `%` per row."""
    header = csv_header(log.scenario.model, len(log.scenario.obstacles))
    row = ",".join(
        "%d" if c.startswith(("active_", "penetration_")) else "%.16e" for c in header
    ) + "\n"
    lines = [",".join(header) + "\n"]
    for k in range(len(log.t)):
        per_obs = zip(log.h[k], log.psi[k], log.dist[k], log.active[k], log.penetration[k])
        values = (log.t[k], *log.states[k], *log.u_ref[k], *log.u_star[k],
                  *[v for obs in per_obs for v in obs])
        lines.append(row % values)
    return "".join(lines)


class TestCli:
    def test_simulate_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
            "--out", str(out), "--plot",
        ])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "plot.svg").exists()
        assert "safe" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["A & B <1>", 'say "hi" & <bye>'])
    def test_plot_title_escaped(self, tmp_path, name):
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        doc["name"] = name
        scenario = tmp_path / "named.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--plot"]) == 0
        title = ET.parse(out / "plot.svg").getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text == name

    @pytest.mark.parametrize("name", ["\ud800x", "bad\u0001name", 5, None],
                             ids=["lone-surrogate", "control-character", "number", "null"])
    def test_name_beyond_utf8_or_xml_exit_3(self, tmp_path, capsys, name):
        # every verb refuses the name when it reads the file: none prints it
        # into a UnicodeEncodeError or writes a plot.svg that is not XML
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        doc["name"] = name
        folder = tmp_path / "in"
        folder.mkdir()
        scenario = folder / "named.json"
        scenario.write_text(json.dumps(doc))  # escapes the lone surrogate as \ud800
        out = tmp_path / "run"
        assert main(["validate", "--scenario", str(scenario)]) == 3
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--plot"]) == 3
        assert main(["batch", "--scenarios", str(folder), "--out", str(out), "--plot"]) == 3
        err = capsys.readouterr().err
        assert err.count(".name: expected a string that UTF-8 and XML 1.0 can carry") == 3
        assert not list(out.rglob("*.svg"))
        assert (out / "report.csv").read_text().splitlines()[1] == "named,invalid,,,,"

    def test_simulate_collision_exit_2(self, tmp_path):
        code = main([
            "simulate",
            "--scenario", str(SCENARIO_DIR / "baseline" / "unicycle-braking-unfiltered.json"),
            "--out", str(tmp_path / "unf"),
        ])
        assert code == 2

    def test_aborted_summary_ends_in_newline(self, tmp_path):
        # the ellipse barrier has no input column for the unicycle here
        doc = json.loads((SCENARIO_DIR / "unicycle-crossing.json").read_text())
        doc["cbf"] = "ellipse"
        scenario = tmp_path / "ellipse.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        text = (out / "summary.json").read_text()
        assert text.endswith("}\n")
        assert json.loads(text)["aborted"] == "filter degenerate for 201 consecutive steps"

    @pytest.mark.parametrize("plot", [[], ["--plot"]], ids=["no-plot", "plot"])
    def test_abort_removes_the_previous_runs_outputs(self, tmp_path, plot):
        # a run aborted into the folder of an earlier run leaves only its own
        # summary there: plot reads no stale trajectory in its name
        doc = json.loads((SCENARIO_DIR / "pointmass-braking.json").read_text())
        doc["controller"].update(k1=1e308, v_des_vec=[5.0, 0.0])
        scenario = tmp_path / "huge-gain.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o"
        braking = str(SCENARIO_DIR / "pointmass-braking.json")
        assert main(["simulate", "--scenario", braking, "--out", str(out), "--plot"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["plot.svg", "summary.json", "trajectory.csv"]
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out), *plot]) == 2
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert "filter failed" in read_json(out / "summary.json", "summary")["aborted"]
        svg = str(tmp_path / "p.svg")
        for mode in ("path", "hvalue", "inputs"):
            assert main(["plot", "--csv", str(out / "trajectory.csv"), "--out", svg, "--mode", mode]) == 3
        # an abort into a fresh folder has nothing to remove
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "new")]) == 2

    def test_batch_removes_an_invalid_files_previous_outputs(self, tmp_path):
        # a file that batch reports invalid leaves no earlier run's outputs
        # in its folder
        folder = tmp_path / "s"
        folder.mkdir()
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        (folder / "unicycle-braking.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["batch", "--scenarios", str(folder), "--out", str(out), "--plot"]) == 0
        assert sorted(p.name for p in (out / "unicycle-braking").iterdir()) == [
            "plot.svg", "summary.json", "trajectory.csv"]
        doc["filter"]["gamma"] = -1
        (folder / "unicycle-braking.json").write_text(json.dumps(doc))
        assert main(["batch", "--scenarios", str(folder), "--out", str(out)]) == 3
        assert (out / "report.csv").read_text().splitlines()[1] == "unicycle-braking,invalid,,,,"
        assert list((out / "unicycle-braking").iterdir()) == []

    def test_run_without_plot_removes_an_earlier_plot(self, tmp_path):
        # the folder's plot.svg would draw the earlier run beside this one's files
        out = tmp_path / "o"
        for stem, plot in (("unicycle-braking", ["--plot"]), ("unicycle-turning", [])):
            scenario = str(SCENARIO_DIR / f"{stem}.json")
            assert main(["simulate", "--scenario", scenario, "--out", str(out), *plot]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trajectory.csv"]
        assert read_json(out / "summary.json", "summary")["scenario"]["name"] == "unicycle-turning"

    def test_simulate_invalid_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(sim={"dt": -0.01, "duration": 2.0})))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_override_flags(self, tmp_path):
        out = tmp_path / "ovr"
        code = main([
            "simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
            "--out", str(out), "--dt", "0.02", "--duration", "1.0", "--gamma", "2.0",
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == int(1.0 / 0.02) + 1
        assert summary["scenario"]["filter"]["gamma"] == 2.0

    def test_overrides_checked_together(self, tmp_path):
        # --dt 20 exceeds the file's 10 s duration but not the 30 s override
        scenario = str(SCENARIO_DIR / "unicycle-braking.json")
        out = tmp_path / "long"
        code = main(["simulate", "--scenario", scenario, "--out", str(out),
                     "--dt", "20", "--duration", "30"])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["steps"] == 2
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "short"),
                     "--dt", "0.5", "--duration", "0.4"]) == 3

    # each case once passed `validate` or ended in a traceback (exit 1)
    @pytest.mark.parametrize("changes", [
        {"cbf": "hocbf", "hocbf_gamma1": NAN},
        {"cbf": "hocbf", "hocbf_gamma1": -1},
        {"controller.k1": 0},
        {"controller.a_max": -1},
        {"sim.dt": NAN},
        {"sim.duration": INF},
        {"sim.dt": 1e-300},
        {"controller.path": [[0, 0], [1]]},
        {"controller.path": [[0, 0], [1, 0]], "controller.closed": "yes"},
        {"controller.closed": "yes"},
        {"controller.closed": True},
        {"saturate_speed": "no"},
        {"obstacles": 5},
        {"obstacles.0.segments": 5},
        {"params": [1]},
        {"model": []},
        {"filter.input_bounds": [1, 2]},
        {"params.v_max": -1},
    ], ids=lambda changes: ",".join(f"{k}={v!r}" for k, v in changes.items()))
    def test_bad_input_exit_3(self, tmp_path, changes):
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        for dotted, value in changes.items():
            set_path(doc, dotted, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(bad)]) == 3
        assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 3
        assert not out.exists()

    def test_pointmass_speed_saturation_exit_3(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "pointmass-braking.json").read_text())
        doc.setdefault("params", {})["v_max"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 3

    def test_refused_first_step_exit_3(self, tmp_path):
        # u_ref is (inf, 0) at step 0, which the filter refuses: the run can
        # only abort, and validate runs that first step
        doc = json.loads((SCENARIO_DIR / "pointmass-braking.json").read_text())
        doc["controller"]["k1"] = 1e308
        doc["controller"]["v_des_vec"] = [5, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(bad)]) == 3
        assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
        assert json.loads((out / "summary.json").read_text())["step"] == 0

    def test_huge_integer_literal_exit_3(self, tmp_path):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(minimal_doc()).replace('"w": 0.6', '"w": 1' + "0" * 400))
        assert main(["validate", "--scenario", str(bad)]) == 3
        bad.write_text(json.dumps(minimal_doc()).replace('"w": 0.6', '"w": 1' + "0" * 5000))
        assert main(["validate", "--scenario", str(bad)]) == 3

    # each case once ended in an OSError traceback (exit 1)
    @pytest.mark.parametrize("verb", ["simulate", "plot", "batch"])
    def test_filesystem_errors_exit_3(self, tmp_path, capsys, verb):
        scenario = str(SCENARIO_DIR / "unicycle-braking.json")
        if verb == "simulate":
            taken = tmp_path / "taken"
            taken.write_text("")
            argv = ["simulate", "--scenario", scenario, "--out", str(taken)]
        elif verb == "plot":
            run = tmp_path / "run"
            assert main(["simulate", "--scenario", scenario, "--out", str(run),
                         "--duration", "1"]) == 0
            argv = ["plot", "--csv", str(run / "trajectory.csv"),
                    "--out", str(tmp_path / "missing" / "x.svg")]
        else:
            argv = ["batch", "--scenarios", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    # argparse's own exit code 2 is the collision code
    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "s.json", "--out", "o", "--dt", "abc"],
        ["simulate", "--out", "o"],
        ["bogus"],
    ])
    def test_usage_error_exit_3(self, argv, capsys):
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("exc, code", [
        (SimulationError("diverged", step=3), 2),
        (ValidationError("unsupported"), 3),
    ])
    def test_escaping_package_errors_mapped(self, monkeypatch, exc, code):
        def fail(path):
            raise exc
        monkeypatch.setattr("conecbf.cli.load_scenario", fail)
        assert main(["validate", "--scenario", "any.json"]) == code

    def test_batch_over_corpus(self, tmp_path, capsys):
        out = tmp_path / "batch"
        code = main(["batch", "--scenarios", str(SCENARIO_DIR), "--out", str(out)])
        assert code == 0
        txt = capsys.readouterr().out
        for label in ("turning", "braking", "reversing", "overtaking"):
            assert label in txt
        assert (out / "report.csv").exists()

    def test_input_box_beyond_the_squares_of_floats(self, tmp_path):
        # the QP ranks candidates by squared distance; under a +-1e200 box
        # the box rows' projections lie 1e200 away, and the run is the one
        # under a +-1e100 box, byte for byte
        doc = minimal_doc(model="pointmass", initial_state={"x": 0, "y": 0, "vx": 2.0, "vy": 0},
                          obstacles=[{"center": [8, y], "semi_axes": [0.8, 0.8]} for y in (0.9, -0.9)],
                          controller={"kind": "p", "k1": 1.0, "v_des_vec": [2.0, 0.0]})
        csv = {}
        for bound in (1e100, 1e200):
            doc["filter"]["input_bounds"] = [[-bound, bound], [-bound, bound]]
            folder = tmp_path / f"in-{bound:g}"
            folder.mkdir()
            (folder / "wide.json").write_text(json.dumps(doc))
            out = tmp_path / f"out-{bound:g}"
            assert main(["simulate", "--scenario", str(folder / "wide.json"), "--out", str(out)]) == 0
            csv[bound] = (out / "trajectory.csv").read_bytes()
        assert csv[1e200] == csv[1e100]
        # the +-1e200 scene under validate and batch
        assert main(["validate", "--scenario", str(folder / "wide.json")]) == 0
        batch = tmp_path / "batch"
        assert main(["batch", "--scenarios", str(folder), "--out", str(batch)]) == 0
        assert (batch / "report.csv").exists()
        assert (batch / "wide" / "trajectory.csv").read_bytes() == csv[1e200]

    def test_batch_empty_dir_exit_3(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["batch", "--scenarios", str(empty), "--out", str(tmp_path / "o")]) == 3

    def test_batch_mixed_worst_exit(self, tmp_path):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for name in ("unicycle-braking.json",):
            (mixed / name).write_text((SCENARIO_DIR / name).read_text())
        (mixed / "unsafe.json").write_text(
            (SCENARIO_DIR / "baseline" / "unicycle-braking-unfiltered.json").read_text()
        )
        code = main(["batch", "--scenarios", str(mixed), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_batch_goes_on_past_a_filter_abort(self, tmp_path):
        # a valid scenario whose huge gain makes u_ref infinite aborts in the
        # filter; the batch reports it and runs the rest
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        doc = json.loads((SCENARIO_DIR / "pointmass-braking.json").read_text())
        doc["name"] = "huge-gain"
        doc["controller"].update(k1=1e308, v_des_vec=[5.0, 0.0])
        (mixed / "a-huge-gain.json").write_text(json.dumps(doc))
        (mixed / "b-braking.json").write_text((SCENARIO_DIR / "pointmass-braking.json").read_text())
        out = tmp_path / "o"
        assert main(["batch", "--scenarios", str(mixed), "--out", str(out)]) == 2
        rows = (out / "report.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["huge-gain", "aborted"], ["pointmass-braking", "safe"]
        ]
        summary = json.loads((out / "a-huge-gain" / "summary.json").read_text())
        assert summary["step"] == 0 and "filter failed" in summary["aborted"]

    @staticmethod
    def diverging_doc():
        # unfiltered and unforced, a point mass near the float limit runs
        # off it within ten steps, and the integrator refuses that step
        doc = json.loads((SCENARIO_DIR / "pointmass-braking.json").read_text())
        doc.update(name="diverging", cbf="none", controller={"kind": "zero"})
        doc["initial_state"].update(x=1.7e308, vx=1e308)
        return doc

    def test_integrator_divergence_aborts_exit_2(self, tmp_path):
        scenario = tmp_path / "diverging.json"
        scenario.write_text(json.dumps(self.diverging_doc()))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(scenario)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        summary = read_json(out / "summary.json", "summary")
        assert summary["step"] == 9 and "integration failed" in summary["aborted"]

    def test_batch_goes_on_past_an_integrator_abort(self, tmp_path):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "a-diverging.json").write_text(json.dumps(self.diverging_doc()))
        (mixed / "b-braking.json").write_text((SCENARIO_DIR / "pointmass-braking.json").read_text())
        out = tmp_path / "o"
        assert main(["batch", "--scenarios", str(mixed), "--out", str(out)]) == 2
        rows = (out / "report.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["diverging", "aborted"], ["pointmass-braking", "safe"]
        ]

    def test_undecodable_and_too_deep_files_exit_3(self, tmp_path, capsys):
        files = tmp_path / "files"
        files.mkdir()
        (files / "a-deep.json").write_text('{"obstacles": ' + "[" * 1500 + "]" * 1500 + "}")
        (files / "b-utf16.json").write_bytes(b"\xff\xfe" + json.dumps(minimal_doc()).encode())
        (files / "c-braking.json").write_text((SCENARIO_DIR / "unicycle-braking.json").read_text())
        for bad in ("a-deep.json", "b-utf16.json"):
            assert main(["validate", "--scenario", str(files / bad)]) == 3
        assert "nested too deeply" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["batch", "--scenarios", str(files), "--out", str(out)]) == 3
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[1:3] == ["a-deep,invalid,,,,", "b-utf16,invalid,,,,"]
        assert rows[3].split(",")[:2] == ["unicycle-braking", "safe"]
        assert (out / "c-braking" / "trajectory.csv").exists()

    def test_batch_goes_on_past_an_invalid_file(self, tmp_path, capsys):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "a-invalid.json").write_text(json.dumps(minimal_doc(extra=1)))
        (mixed / "b-braking.json").write_text((SCENARIO_DIR / "unicycle-braking.json").read_text())
        out = tmp_path / "o"
        assert main(["batch", "--scenarios", str(mixed), "--out", str(out)]) == 3
        assert "unknown key" in capsys.readouterr().err
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[1] == "a-invalid,invalid,,,,"
        assert rows[2].split(",")[:2] == ["unicycle-braking", "safe"]
        assert (out / "b-braking" / "trajectory.csv").exists()
        assert (out / "b-braking" / "summary.json").exists()

    @pytest.mark.parametrize("bounds,verb", [
        ([[1, 0], [-1, 1]], "simulate"),
        ([[1, 0], [-1, 1]], "validate"),
        ([[-1, 1], [0, 0]], "validate"),
    ])
    def test_empty_input_bounds_exit_3(self, tmp_path, bounds, verb):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(filter={"gamma": 1.0, "input_bounds": bounds})))
        argv = ["--out", str(tmp_path / "o")] if verb == "simulate" else []
        assert main([verb, "--scenario", str(bad), *argv]) == 3

    def test_bicycle_slip_bounds_beyond_beta_max_exit_3(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "bicycle-braking.json").read_text())
        bad = tmp_path / "slip.json"
        doc["filter"]["input_bounds"] = [[None, None], [-0.2, 0.2]]
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 0
        doc["filter"]["input_bounds"] = [[None, None], [-0.3, 0.2]]
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 3
        assert "beta_max" in capsys.readouterr().err

    def test_obstacle_free_run_reports_no_clearance(self, tmp_path, capsys):
        # no obstacle, no clearance: null in summary.json, empty report cells
        doc = json.loads((SCENARIO_DIR / "unicycle-turning.json").read_text())
        doc["obstacles"] = []
        free = tmp_path / "free"
        free.mkdir()
        (free / "unicycle-turning.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(free / "unicycle-turning.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "unicycle-turning: safe, steps=2001, behaviors=-, min_clearance=None, "
            "min_h=None, active_fraction=0.000\n"
        )
        summary = (out / "summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == (
            "cc6d9d12f1f3a52cbdaf3f1617b951b31d3743d2884e61052dcf9eda4d5df013"
        )
        assert json.loads(summary)["metrics"] == {
            "min_clearance": [], "min_clearance_overall": None, "min_h": None,
            "active_fraction": 0.0, "max_u_safe": 0.0, "max_abs_beta": None,
            "degenerate_steps": 0, "infeasible_steps": 0,
        }
        assert main(["batch", "--scenarios", str(free), "--out", str(tmp_path / "b")]) == 0
        report = (tmp_path / "b" / "report.csv").read_text().splitlines()
        assert report[1] == "unicycle-turning,safe,,,,0.0"

    @pytest.mark.parametrize("mode", ["path", "hvalue", "inputs"])
    def test_plot_modes(self, tmp_path, mode):
        out = tmp_path / "run"
        main(["simulate", "--scenario", str(SCENARIO_DIR / "unicycle-turning.json"),
              "--out", str(out)])
        svg = tmp_path / f"{mode}.svg"
        code = main(["plot", "--csv", str(out / "trajectory.csv"),
                     "--out", str(svg), "--mode", mode])
        assert code == 0
        ET.parse(svg)  # well-formed XML

    def test_plot_bad_csv_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot", "--csv", str(bad), "--out", str(tmp_path / "x.svg")]) == 3

    def test_plot_recovery_shows_sign_change(self, tmp_path):
        # a run with h(0) < 0 must produce an hvalue plot whose data cross 0
        out = tmp_path / "rec"
        main(["simulate", "--scenario", str(SCENARIO_DIR / "unicycle-turning.json"),
              "--out", str(out)])
        data = read_trajectory_csv(out / "trajectory.csv")
        assert data["h_0"][0] < 0
        assert max(data["h_0"]) > 0
        code = main(["plot", "--csv", str(out / "trajectory.csv"),
                     "--out", str(tmp_path / "rec.svg"), "--mode", "hvalue"])
        assert code == 0

    def test_runs_as_a_module(self):
        # python -m conecbf reaches main and exits with its code
        env = {**os.environ, "PYTHONPATH": str(Path(conecbf.__file__).resolve().parent.parent)}
        for args, code in (
            (["--help"], 0),
            (["validate", "--scenario", str(SCENARIO_DIR / "unicycle-turning.json")], 0),
            (["frobnicate"], 3),
        ):
            run = subprocess.run(
                [sys.executable, "-m", "conecbf", *args], env=env, capture_output=True, timeout=120,
            )
            assert run.returncode == code, (args, run.stderr)

    def test_validate(self, tmp_path):
        assert main(["validate", "--scenario",
                     str(SCENARIO_DIR / "bicycle-path-yield.json")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", "--scenario", str(bad)]) == 3

    def test_path_closing_on_its_first_waypoint_exit_3(self, tmp_path, capsys):
        # a closed path's closing segment would have length 0
        doc = json.loads((SCENARIO_DIR / "bicycle-path-yield.json").read_text())
        doc["controller"].update(path=[[0, 0], [10, 0], [10, 10], [0, 0]], closed=True)
        looped = tmp_path / "looped.json"
        looped.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(looped)]) == 3
        assert "error: consecutive waypoints must differ" in capsys.readouterr().err
        assert main(["simulate", "--scenario", str(looped), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("field", ["gamma", "activation_radius"])
    def test_validate_nan_filter_exit_3(self, tmp_path, field):
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        doc["filter"][field] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 3
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_simulate_gamma_nan_exit_3(self, tmp_path):
        code = main([
            "simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
            "--out", str(tmp_path / "o"), "--gamma", "nan",
        ])
        assert code == 3


class TestPlotRefusals:
    """`plot` exits 3 on a CSV or a run directory it cannot draw from."""

    @pytest.fixture
    def run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
                     "--out", str(out), "--duration", "0.1"]) == 0
        return out

    @staticmethod
    def plot(csv, mode="inputs"):
        return main(["plot", "--csv", str(csv), "--out", str(csv.parent / "p.svg"), "--mode", mode])

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValidationError, match="empty CSV"):
            read_trajectory_csv(empty)
        assert self.plot(empty) == 3

    def test_unreadable_path(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(ValidationError, match="cannot read CSV"):
            read_trajectory_csv(missing)
        assert self.plot(missing) == 3

    def test_ragged_row(self, run):
        lines = (run / "trajectory.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        ragged = run / "ragged.csv"
        ragged.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="ragged row"):
            read_trajectory_csv(ragged)
        assert self.plot(ragged) == 3

    def test_field_beyond_size_limit(self, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("t," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ValidationError, match="malformed CSV"):
            read_trajectory_csv(huge)
        assert self.plot(huge) == 3

    def test_not_utf8(self, run):
        bad = run / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + (run / "trajectory.csv").read_bytes())
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_trajectory_csv(bad)
        assert self.plot(bad) == 3

    @pytest.mark.parametrize("input_at", [
        # all 1e17: the frame's 0.08 pad rounds away and leaves no span
        lambda k: 1e17,
        # a span of 4 around 1e16: a tick step under half an ulp of 1e16
        lambda k: 1e16 + 0.4 * k,
    ], ids=["constant-1e17", "span-4-at-1e16"])
    def test_inputs_at_large_magnitude(self, run, input_at):
        lines = (run / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        inputs = [header.index(c) for c in ("u_ref_0", "u_ref_1", "u_star_0", "u_star_1")]
        for k in range(1, len(lines)):
            row = lines[k].split(",")
            for i in inputs:
                row[i] = repr(input_at(k - 1))
            lines[k] = ",".join(row)
        large = run / "large.csv"
        large.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        assert self.plot(large) == 0
        assert time.perf_counter() - start < 1.0
        ET.fromstring((run / "p.svg").read_text())

    def test_path_without_summary(self, run):
        (run / "summary.json").unlink()
        assert self.plot(run / "trajectory.csv", "path") == 3
        assert self.plot(run / "trajectory.csv", "inputs") == 0

    def test_hvalue_without_obstacles(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "unicycle-braking.json").read_text())
        doc["obstacles"] = []
        scenario = tmp_path / "free.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                     "--duration", "0.1"]) == 0
        assert self.plot(out / "trajectory.csv", "hvalue") == 3
        assert self.plot(out / "trajectory.csv", "inputs") == 0


class TestNonFinite:
    """A run may log non-finite numbers; its report and plots stay finite."""

    @staticmethod
    def run_with_obstacle_at(tmp_path, center, cbf="c3bf", code=0):
        """Output directory of unicycle-turning.json run under `cbf` with one
        more obstacle, at rest at `center` (none if None); the run must exit
        with `code`."""
        doc = json.loads((SCENARIO_DIR / "unicycle-turning.json").read_text())
        doc["filter"].pop("activation_radius", None)
        if center is not None:
            doc["obstacles"].append({"center": center})
        doc["cbf"] = cbf
        scenario = tmp_path / f"far-{cbf}-{center is not None}.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / f"run-{cbf}-{center is not None}"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == code
        return out

    @pytest.fixture
    def far_run(self, tmp_path):
        # an obstacle so far away that its barrier overflows: h = psi = nan
        # on most steps, at a finite distance the path plot can frame
        return self.run_with_obstacle_at(tmp_path, [1.5e308, 0.0])

    def test_far_obstacle_constrains_nothing(self, tmp_path):
        # at 1e200 m the squared distance overflows but the distance does
        # not: the barrier stays finite and the filter stays feasible
        run = self.run_with_obstacle_at(tmp_path, [1e200, 0.0])
        data = read_trajectory_csv(run / "trajectory.csv")
        assert all(d == 1e200 for d in data["dist_1"])
        assert all(map(math.isfinite, data["h_1"] + data["psi_1"]))
        assert read_json(run / "summary.json", "summary")["metrics"]["infeasible_steps"] == 0

    def test_far_obstacle_under_the_baselines(self, tmp_path):
        # the ellipse and HOCBF kernels measure a distance whose square
        # overflows by hypot, so the far obstacle changes no verdict: the
        # ellipse filter still degenerates at step 519 and the HOCBF run
        # still collides with obstacle 0, each exiting 2 with a summary
        run = self.run_with_obstacle_at(tmp_path, [1e200, 0.0], "ellipse", code=2)
        summary = read_json(run / "summary.json", "summary")
        assert (summary["aborted"], summary["step"]) == ("filter degenerate for 201 consecutive steps", 519)
        sc = load_scenario(tmp_path / "far-ellipse-True.json")
        assert conecbf.ellipse_cbf_eval(sc.model, sc.initial_state, sc.obstacles[1]).dist == 1e200
        run = self.run_with_obstacle_at(tmp_path, [1e200, 0.0], "hocbf", code=2)
        summary = read_json(run / "summary.json", "summary")
        assert (summary["collided"], summary["collision_obstacle"]) == (True, 0)
        assert summary["metrics"]["min_clearance"][1] == 1e200

    def test_far_obstacle_hocbf_row_met_by_every_input(self, tmp_path):
        # the HOCBF barrier of the far obstacle overflows to h = psi = +inf
        # under a finite lgh: a row every input meets, so no step is
        # infeasible and the run is the one without that obstacle
        run = self.run_with_obstacle_at(tmp_path, [1e200, 0.0], "hocbf", code=2)
        alone = self.run_with_obstacle_at(tmp_path, None, "hocbf", code=2)
        data = read_trajectory_csv(run / "trajectory.csv")
        assert all(h == math.inf for h in data["h_1"] + data["psi_1"])
        assert read_json(run / "summary.json", "summary")["metrics"]["infeasible_steps"] == 0
        without = read_trajectory_csv(alone / "trajectory.csv")
        assert {c: data[c] for c in without} == without

    @staticmethod
    def plot(run, mode, cells=()):
        """Exit code and SVG text of `plot` on run's CSV with the given
        (data row, column, text) cells replaced."""
        lines = (run / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        for k, column, text in cells:
            row = lines[k + 1].split(",")
            row[header.index(column)] = text
            lines[k + 1] = ",".join(row)
        edited = run / "edited.csv"
        edited.write_text("\n".join(lines) + "\n")
        svg = run / f"{mode}.svg"
        code = main(["plot", "--csv", str(edited), "--out", str(svg), "--mode", mode])
        return code, svg.read_text() if code == 0 else None

    def test_summary_is_strict_json(self, tmp_path):
        # an obstacle whose distance is beyond the float range logs
        # dist = inf and h = psi = nan
        run = self.run_with_obstacle_at(tmp_path, [1.3e308, 1.3e308])
        data = read_trajectory_csv(run / "trajectory.csv")
        assert data["dist_1"][0] == INF
        assert data["h_1"][0] != data["h_1"][0] and data["psi_1"][0] != data["psi_1"][0]
        text = (run / "summary.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        metrics = read_json(run / "summary.json", "summary")["metrics"]
        assert metrics["min_clearance"][0] > 0
        assert metrics["min_clearance"][1] is None

    def test_refused_document_leaves_no_file(self, tmp_path):
        # the whole document is encoded before the file is opened
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json({"h": [0.5, NAN]}, path)
        assert not path.exists()

    @pytest.mark.parametrize("mode", ["path", "hvalue", "inputs"])
    def test_plots_skip_non_finite_samples(self, far_run, mode):
        code, text = self.plot(far_run, mode)
        assert code == 0
        assert "inf" not in text and "nan" not in text
        ET.fromstring(text)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_input_sample_breaks_the_trace(self, far_run, value):
        code, text = self.plot(far_run, "inputs", [(4, "u_star_0", value)])
        assert code == 0
        assert "inf" not in text and "nan" not in text
        # u*[0] is drawn as two polylines, either side of the gap at step 4
        ns = "{http://www.w3.org/2000/svg}"
        drawn = [e for e in ET.fromstring(text).iter(ns + "polyline")
                 if e.get("stroke") == "#3567a6"]
        n = len(read_trajectory_csv(far_run / "trajectory.csv")["t"])
        assert [len(e.get("points").split()) for e in drawn] == [4, n - 5]

    def test_plot_draws_no_non_finite_mark(self, far_run):
        # the start marker sits on a non-finite sample
        code, text = self.plot(far_run, "path", [(0, "x", "nan")])
        assert code == 0 and "nan" not in text
        # no input sample is finite, so nothing frames the inputs plot
        n = len(read_trajectory_csv(far_run / "trajectory.csv")["t"])
        inputs = ("u_ref_0", "u_ref_1", "u_star_0", "u_star_1")
        code, text = self.plot(far_run, "inputs", [(k, c, "nan") for k in range(n) for c in inputs])
        assert code == 0 and "nan" not in text

    def test_plot_span_beyond_float_range_exit_3(self, far_run):
        cells = [(2, "u_star_0", "1e308"), (3, "u_star_0", "-1e308")]
        assert self.plot(far_run, "inputs", cells) == (3, None)


class TestPlotPath:
    def test_segmented_obstacle_end_disc(self, tmp_path):
        # the end disc sits where Obstacle.state_at puts the center at the
        # last logged time, after both velocity changes
        doc = minimal_doc(obstacles=[{
            "center": [6, 3], "velocity": [1, 0], "semi_axes": [0.5, 0.5],
            "segments": [{"t": 1.0, "velocity": [0, 1]}, {"t": 1.5, "velocity": [-1, 0.5]}],
        }])
        scenario = tmp_path / "moving.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--plot"]) == 0
        t_end = read_trajectory_csv(out / "trajectory.csv")["t"][-1]
        obstacle = load_scenario(scenario).obstacles[0]
        (sx, sy), (ex, ey) = obstacle.state_at(0.0)[:2], obstacle.state_at(t_end)[:2]
        assert (ex, ey) != (sx + t_end, sy)  # the segments moved it off the initial course
        ns = "{http://www.w3.org/2000/svg}"
        svg = ET.parse(out / "plot.svg").getroot()
        track = next(e for e in svg.iter(ns + "line") if e.get("stroke-dasharray") == "4 3")
        end = next(e for e in svg.iter(ns + "circle") if e.get("stroke-dasharray") == "4 3")
        x1, y1, x2, y2 = (float(track.get(a)) for a in ("x1", "y1", "x2", "y2"))
        px_per_m = float(end.get("r")) / (0.5 + 0.5 * 0.6)
        assert (float(end.get("cx")), float(end.get("cy"))) == (x2, y2)
        assert (x2 - x1) / px_per_m == pytest.approx(ex - sx, abs=1e-2)
        assert (y1 - y2) / px_per_m == pytest.approx(ey - sy, abs=1e-2)

    @pytest.mark.parametrize("sidecar,code", [
        ("[]", 3),
        ("{}", 3),
        ('{"steps": 1' + "0" * 5000 + "}", 3),
        (None, 0),
    ], ids=["array", "empty-object", "huge-integer", "no-effective-radii"])
    def test_malformed_summary_sidecar(self, tmp_path, sidecar, code):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / "unicycle-braking.json"),
                     "--out", str(out), "--duration", "0.5"]) == 0
        plot = ["plot", "--csv", str(out / "trajectory.csv"), "--out", str(tmp_path / "p.svg")]
        assert main(plot) == 0
        intact = (tmp_path / "p.svg").read_bytes()
        summary = out / "summary.json"
        if sidecar is None:
            # the disc radii are computed from the summary's scenario
            doc = json.loads(summary.read_text())
            del doc["effective_radii"]
            sidecar = json.dumps(doc)
        summary.write_text(sidecar)
        assert main(plot) == code
        if code == 0:
            assert (tmp_path / "p.svg").read_bytes() == intact
