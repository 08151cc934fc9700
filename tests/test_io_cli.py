"""Scenario files, trajectory CSV contract, and the command line."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conecbf import (
    ValidationError,
    load_scenario,
    parse_scenario,
    run_scenario,
    save_scenario,
    scenario_to_dict,
)
from conecbf.cli import main
from conecbf.models import STATE_FIELDS
from conecbf.scenario_io import read_trajectory_csv, write_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_byte_identical_rewrites(self, tmp_path):
        log = self.make_log()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectory_csv(log, p1)
        write_trajectory_csv(run_scenario(log.scenario), p2)
        assert p1.read_bytes() == p2.read_bytes()


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

    def test_simulate_collision_exit_2(self, tmp_path):
        code = main([
            "simulate",
            "--scenario", str(SCENARIO_DIR / "baseline" / "unicycle-braking-unfiltered.json"),
            "--out", str(tmp_path / "unf"),
        ])
        assert code == 2

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

    def test_batch_over_corpus(self, tmp_path, capsys):
        out = tmp_path / "batch"
        code = main(["batch", "--scenarios", str(SCENARIO_DIR), "--out", str(out)])
        assert code == 0
        txt = capsys.readouterr().out
        for label in ("turning", "braking", "reversing", "overtaking"):
            assert label in txt
        assert (out / "report.csv").exists()

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

    def test_validate(self, tmp_path):
        assert main(["validate", "--scenario",
                     str(SCENARIO_DIR / "bicycle-path-yield.json")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", "--scenario", str(bad)]) == 3

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
