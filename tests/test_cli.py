import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affinevis.cli import main
from affinevis.report import RunReport, write_csv, write_json, write_report


@pytest.fixture()
def carpet_cfg(tmp_path):
    cfg = {
        "maps": [
            {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]},
            {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [1 / 3, 0.5]},
            {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [2 / 3, 0.0]},
        ]
    }
    p = tmp_path / "carpet.json"
    p.write_text(json.dumps(cfg))
    return p


class TestReportEmission:
    def test_csv_rfc4180(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [(1.5, 'say "hi"'), (2, "x,y")])
        data = p.read_bytes()
        assert b"\r\n" in data
        assert b'"say ""hi"""' in data
        assert b'"x,y"' in data

    def test_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        obj = {"z": [1.0, 2.5], "a": {"nested": np.float64(0.1)}}
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"np.float64" not in p1.read_bytes()

    def test_report_timings_sidecar(self, tmp_path):
        rep = RunReport(command="x", params={"seed": 0})
        rep.add_assertion("check", True, "fine")
        rep.timings["seconds"] = 1.23
        out = tmp_path / "rep.json"
        write_report(rep, out)
        payload = json.loads(out.read_text())
        assert "timings" not in payload  # timings stay out of the main report
        side = json.loads((tmp_path / "rep.timings.json").read_text())
        assert side["seconds"] == 1.23


class TestCLI:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "carpet-5.1" in out and "positive-cone" in out

    def test_gen_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        svg = tmp_path / "pts.svg"
        code = main(
            [
                "gen",
                "--scenario",
                "carpet-5.1",
                "--delta",
                "0.125",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1 + 27  # alpha1 <= 1/8 needs three symbols
        assert svg.read_text().startswith("<svg")

    def test_gen_from_config_file(self, tmp_path, carpet_cfg, capsys):
        out = tmp_path / "pts.csv"
        assert main(["gen", "--ifs", str(carpet_cfg), "--delta", "0.25", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 9

    def test_gen_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--scenario", "carpet-5.1", "--delta", "0.125", "--out", str(a)])
        main(["gen", "--scenario", "carpet-5.1", "--delta", "0.125", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_check_report(self, tmp_path):
        out = tmp_path / "check.json"
        code = main(
            ["check", "--scenario", "carpet-5.1", "--all", "--depth", "4", "--out", str(out)]
        )
        payload = json.loads(out.read_text())
        assert payload["results"]["domination"]["verdict"] is True
        assert payload["results"]["cone"]["found"] is True
        # identical linear parts cannot separate
        assert payload["results"]["cone"]["separation"] is False
        assert code == 4  # separation assertion fails for the carpet

    def test_check_domination_only(self, tmp_path):
        code = main(["check", "--scenario", "carpet-5.1", "--domination"])
        assert code == 0

    def test_orient(self, tmp_path, capsys):
        out = tmp_path / "cover.csv"
        code = main(
            ["orient", "--scenario", "carpet-5.1", "--eps", "1e-3", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2  # header + one interval
        center = float(rows[1].split(",")[0])
        assert center == pytest.approx(math.pi / 2, abs=1e-3)

    def test_vis_and_svg(self, tmp_path):
        out = tmp_path / "cells.csv"
        svg = tmp_path / "vis.svg"
        code = main(
            [
                "vis",
                "--scenario",
                "carpet-5.1",
                "--dir",
                str(-math.pi / 4),
                "--delta",
                str(2.0**-6),
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) > 10
        assert "<rect" in svg.read_text()

    def test_vis_dim_report(self, tmp_path):
        out = tmp_path / "vd.json"
        code = main(
            [
                "vis-dim",
                "--scenario",
                "carpet-5.1",
                "--dir",
                str(-math.pi / 4),
                "--ladder",
                "4:8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        slope = payload["results"]["estimate"]["slope"]
        assert 0.85 <= slope <= 1.15
        assert payload["results"]["estimate"]["mode"] == "per-scale-sweep"

    def test_scan_table(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan",
                "--scenario",
                "carpet-5.1",
                "--dirs",
                "8",
                "--depth",
                "3",
                "--delta",
                str(2.0**-7),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 9
        flags = [int(r.split(",")[1]) for r in rows[1:]]
        assert sum(flags) == 2

    def test_tangent_table(self, tmp_path):
        out = tmp_path / "tan.csv"
        code = main(
            [
                "tangent",
                "--scenario",
                "carpet-5.1",
                "--stream",
                "2",
                "--n-max",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 7

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"maps": [{"a": [[2.0, 0.0], [0.0, 0.5]], "t": [0, 0]}]}')
        assert main(["gen", "--ifs", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "a2, t2",
        [
            ("[[0.5, 0.0], [0.0, 0.5]]", "[NaN, 0.0]"),
            ("[[0.5, NaN], [0.0, 0.5]]", "[0.5, 0.0]"),
            ("[[0.5, 0.0], [0.0, 0.5]]", "[0.5, -Infinity]"),
        ],
        ids=["nan-translation", "nan-matrix", "infinite-translation"],
    )
    def test_non_finite_config_exit_code(self, tmp_path, capsys, a2, t2):
        # json reads NaN and Infinity; the loader must reject them
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"maps": [{"a": [[0.5, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]}, '
            f'{{"a": {a2}, "t": {t2}}}]}}'
        )
        out = tmp_path / "x.csv"
        assert main(["gen", "--ifs", str(bad), "--budget", "1000", "--out", str(out)]) == 2
        assert "map 1: entries must be finite numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_exit_code(self, tmp_path):
        code = main(
            [
                "gen",
                "--scenario",
                "carpet-5.1",
                "--delta",
                str(2.0**-9),
                "--budget",
                "50",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--dirs", "8", "--depth", "2"],
            ["check", "--projection", "--depth", "2"],
        ],
    )
    def test_projection_commands_honour_budget(self, tmp_path, argv):
        out = tmp_path / "out"
        argv = argv + ["--scenario", "carpet-5.1", "--budget", "10", "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, extra, source",
        [
            ("inf", [], "AFFINE_VIS_BUDGET"),
            ("-3", [], "AFFINE_VIS_BUDGET"),
            (None, ["--budget", "-5"], "budget argument"),
        ],
        ids=["env-inf", "env-negative", "option-negative"],
    )
    def test_bad_budget_exit_code(self, monkeypatch, capsys, env, extra, source):
        if env is None:
            monkeypatch.delenv("AFFINE_VIS_BUDGET", raising=False)
        else:
            monkeypatch.setenv("AFFINE_VIS_BUDGET", env)
        argv = ["gen", "--scenario", "carpet-5.1", "--delta", "0.1"] + extra
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert source in err and "finite number >= 1" in err

    @pytest.mark.parametrize("flag", ["--domination", "--cone", "--projection"])
    def test_check_depth_zero_exit_code(self, tmp_path, flag):
        out = tmp_path / "check.json"
        argv = ["check", "--scenario", "positive-cone", flag, "--depth", "0"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_scenario_exit_code(self):
        assert main(["orient", "--scenario", "missing", "--eps", "0.1"]) == 2

    def test_point_set_scenario_not_ifs_backed(self, tmp_path, capsys):
        assert main(["gen", "--scenario", "harmonic-5.2", "--out", str(tmp_path / "x.csv")]) == 2
        assert "not IFS-backed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--delta", "nan"],
            ["orient", "--eps", "nan"],
            ["vis", "--dir", "0.3", "--delta", "nan"],
            ["vis-dim", "--dir", "0.3", "--base", "0.5"],
            ["vis-dim", "--dir", "0.3", "--base", "1"],
            ["vis-dim", "--dir", "0.3", "--base", "nan"],
            ["check", "--projection", "--dir", "nan"],
            ["vis", "--dir", "nan", "--delta", "0.0625"],
            ["vis-dim", "--dir", "inf", "--ladder", "2:5"],
            ["gen", "--delta", "inf"],
            ["scan", "--dirs", "8", "--depth", "2", "--delta", "inf"],
            ["tangent", "--c", "nan", "--n-max", "6"],
        ],
    )
    def test_nan_and_out_of_range_input_exit_code(self, argv):
        assert main(argv + ["--scenario", "carpet-5.1", "--budget", "1000"]) == 2

    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "affinevis", "scenario", "list"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("carpet-5.1", "harmonic-5.2", "positive-cone"):
            assert name in proc.stdout

    def test_scan_depth_zero_exit_code(self, tmp_path):
        argv = ["scan", "--scenario", "carpet-5.1", "--dirs", "8", "--depth", "0"]
        assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 2
        assert not (tmp_path / "scan.csv").exists()

    def test_scenario_run_positive_cone(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["scenario", "run", "positive-cone", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        payload = json.loads(out.read_text())
        assert all(a["passed"] for a in payload["assertions"])
        assert (tmp_path / "run.timings.json").exists()

    def test_scenario_run_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["scenario", "run", "positive-cone", "--seed", "1", "--out", str(a)])
        main(["scenario", "run", "positive-cone", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
