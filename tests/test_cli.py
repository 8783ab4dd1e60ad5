import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affinevis import cli
from affinevis.cli import main
from affinevis.errors import DEFAULT_BUDGET, budget_limit
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
        # fields are numbers or empty, so none is quoted; a csv reader
        # gets back each number's repr
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "c"], [(1.5, "", 3), (-0.0, 1e-05, "")])
        data = p.read_bytes()
        assert data == b"a,b,c\r\n1.5,,3\r\n-0.0,1e-05,\r\n"
        with p.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b", "c"], ["1.5", "", "3"], ["-0.0", "1e-05", ""]]

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
        # every parsed option but the command, sorted, then the source
        assert list(payload["params"].items()) == [
            ("all", True),
            ("cone", False),
            ("delta", 2.0**-10),
            ("depth", 4),
            ("dir", -math.pi / 4),
            ("domination", False),
            ("out", str(out)),
            ("projection", False),
            ("scenario", "carpet-5.1"),
            ("seed", 0),
            ("threads", 1),
            ("source", "carpet-5.1"),
        ]

    def test_check_report_echoes_the_config_path(self, tmp_path, carpet_cfg):
        out = tmp_path / "check.json"
        assert main(["check", "--ifs", str(carpet_cfg), "--domination", "--out", str(out)]) == 0
        params = json.loads(out.read_text())["params"]
        assert params["ifs"] == params["source"] == str(carpet_cfg)
        assert "scenario" not in params and list(params)[-1] == "source"

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
        assert list(payload["params"].items()) == [
            ("base", 2.0),
            ("dir", -math.pi / 4),
            ("exact", False),
            ("ladder", [4, 8]),
            ("out", str(out)),
            ("scenario", "carpet-5.1"),
            ("seed", 0),
            ("threads", 1),
            ("source", "carpet-5.1"),
        ]

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
        assert "map 2: entries must be finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "a2, t2, why",
        [
            ("[[0.5, 0.0, 99.0], [0.0, 0.5]]", "[0.0, 0.0]", "not an array of length 2"),
            ("[[0.5, 0.0], [0.0, 0.5]]", "[0.0, 0.0, 7.0]", "not an array of length 2"),
            ("[[0.5, 0.0], [0.0, 0.5], [1.0, 1.0]]", "[0.0, 0.0]", "not an array of length 2"),
            ('[["0.5", 0.0], [0.0, 0.5]]', "[0.0, 0.0]", '"0.5" is not a number'),
            ("[[0.5, 0.0], [0.0, 0.5]]", "[true, 0.0]", "true is not a number"),
            ("[[0.5, 0.0], [0.0, 0.5]]", "[1" + "0" * 400 + ", 0]", "too large"),
        ],
        ids=["three-columns", "long-translation", "three-rows", "string", "boolean", "huge-int"],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, a2, t2, why):
        # extra entries, strings and booleans are not silently read as numbers
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"maps": [{"a": [[0.5, 0], [0, 0.5]], "t": [0, 0]}, '
            f'{{"a": {a2}, "t": {t2}}}]}}'
        )
        out = tmp_path / "x.csv"
        assert main(["gen", "--ifs", str(bad), "--delta", "0.1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "map 2: " in err and why in err
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

    def test_cone_cap_exits_3(self, tmp_path, capsys):
        # six distinct parts: the cone seed's level 7 (6^7 = 279,936
        # products) passes its 200k cap before depth 8, a cap and not a
        # failed certificate
        lin = [[[0.3 + 0.01 * k, 0.05], [0.02, 0.1]] for k in range(6)]
        cfg = {"maps": [{"a": a, "t": [0.15 * k, 0.1 * k]} for k, a in enumerate(lin)]}
        path = tmp_path / "six.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "check.json"
        argv = ["check", "--ifs", str(path), "--cone", "--depth", "8", "--out", str(out)]
        assert main(argv) == 3
        assert "budget exceeded: word levels stop at depth 7 of 8" in capsys.readouterr().err
        assert not out.exists()

    def test_domination_past_det_underflow_exits_3(self, capsys):
        # det^2 of the positive-cone products underflows from depth 111: a
        # cap, where the verdict read PASS with tau ~ nan
        assert main(["check", "--scenario", "positive-cone", "--domination", "--depth", "120"]) == 3
        assert "depth 111 of 120: its products are numerically singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env, extra, source",
        [
            ("inf", [], "AFFINE_VIS_BUDGET"),
            ("-3", [], "AFFINE_VIS_BUDGET"),
            (None, ["--budget", "-5"], "budget argument"),
            (None, ["--budget", "abc"], "budget argument"),
            (None, ["--budget", "inf"], "budget argument"),
            ("abc", ["--budget", "nan"], "budget argument"),
        ],
        ids=["env-inf", "env-negative", "option-negative", "option-word", "option-inf", "both-bad"],
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

    def test_budget_option_takes_the_environment_spellings(self, monkeypatch, tmp_path):
        # "1e8" is a budget in AFFINE_VIS_BUDGET, so it is one after --budget;
        # the report echoes the parsed int, as it echoes --budget 100000000
        monkeypatch.delenv("AFFINE_VIS_BUDGET", raising=False)
        for spelling in ("1e8", "100000000"):
            out = tmp_path / f"{spelling}.json"
            argv = ["check", "--scenario", "carpet-5.1", "--domination", "--budget", spelling]
            assert main(argv + ["--out", str(out)]) == 0
            params = json.loads(out.read_text())["params"]
            assert params["budget"] == 100_000_000 and type(params["budget"]) is int

    def test_check_projection_to_a_point_fails(self, capsys):
        # at delta 1 the cloud is one point: its projections have zero span
        assert main(["check", "--scenario", "carpet-5.1", "--projection", "--delta", "1"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] projection-condition")
        # the line names the reason: no gap is too wide, a span is zero
        assert "a projection at depth 5 has zero span" in out.splitlines()[0]

    @pytest.mark.parametrize("flag", ["--domination", "--cone", "--projection"])
    def test_check_depth_zero_exit_code(self, tmp_path, flag):
        out = tmp_path / "check.json"
        argv = ["check", "--scenario", "positive-cone", flag, "--depth", "0"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["orient", "--eps", "1e-15"], "orientation cover stops at depth 13"),
            (["tangent", "--stream", "1", "--n-max", "16"], "tangent sequence stops at n = 16"),
        ],
    )
    def test_past_float_resolution_exit_code(self, capsys, argv, message):
        assert main(argv + ["--scenario", "positive-cone"]) == 3
        assert message in capsys.readouterr().err

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
            ["vis-dim", "--dir", "0.3", "--base", "inf"],
            ["check", "--projection", "--dir", "nan"],
            ["vis", "--dir", "nan", "--delta", "0.0625"],
            ["vis-dim", "--dir", "inf", "--ladder", "2:5"],
            ["gen", "--delta", "inf"],
            ["scan", "--dirs", "8", "--depth", "2", "--delta", "inf"],
        ],
    )
    def test_nan_and_out_of_range_input_exit_code(self, argv):
        assert main(argv + ["--scenario", "carpet-5.1", "--budget", "1000"]) == 2

    def test_infinite_ladder_base_named(self, capsys):
        argv = ["vis-dim", "--scenario", "carpet-5.1", "--dir", "0.3", "--base", "inf"]
        assert main(argv) == 2
        assert "ladder base inf must be > 1 and finite" in capsys.readouterr().err

    def test_cells_past_int64_exit_code(self, tmp_path, capsys):
        # the carpet scaled by 1e19: its 2^-4 cells lie past int64
        cfg = {
            "maps": [
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]},
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [1e19 / 3, 5e18]},
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [2e19 / 3, 0.0]},
            ]
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "vis.csv"
        argv = ["vis", "--ifs", str(path), "--dir", "0.3", "--delta", "0.0625", "--out", str(out)]
        assert main(argv) == 2
        assert "do not fit int64" in capsys.readouterr().err
        assert not out.exists()

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
        assert list(payload["params"].items()) == [
            ("scenario", "positive-cone"),
            ("seed", 0),
            ("budget", None),
        ]

    @pytest.mark.parametrize(
        "command",
        [["gen"], ["check"], ["orient"], ["vis"], ["vis-dim"], ["scan"], ["tangent"],
         ["scenario"], ["scenario", "run"], ["scenario", "list"]],
        ids=" ".join,
    )
    def test_every_command_has_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: affinevis {' '.join(command)} ")

    def test_check_help_names_the_depth_caps(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "min(depth, 8)" in out and "max(depth, 4)" in out

    @pytest.mark.parametrize(
        "argv",
        [["scenario", "list"], ["check", "--scenario", "carpet-5.1", "--domination"],
         ["vis", "--scenario", "carpet-5.1", "--dir", "nan"], ["gen", "--delta", "0.1"]],
        ids=["list", "check", "bad-dir", "no-source"],
    )
    def test_repeated_calls_share_one_parser(self, capsys, argv):
        # the parser is built once per process: a second call exits and
        # prints as the first did, parse errors included
        def run():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            return code, capsys.readouterr()

        first = run()
        assert run() == first
        assert cli.build_parser() is cli.build_parser()

    def test_scenario_run_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["scenario", "run", "positive-cone", "--seed", "1", "--out", str(a)])
        main(["scenario", "run", "positive-cone", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# every command whose caps the budget reaches, with a budget that one of
# its caps exceeds
_BUDGETED = [
    (["gen", "--scenario", "carpet-5.1", "--delta", "0.03125", "--svg", "{tmp}/g.svg"], 100),
    (["vis", "--scenario", "carpet-5.1", "--dir", "0.3", "--delta", "0.0625"], 100),
    (["vis-dim", "--scenario", "carpet-5.1", "--dir", "0.3", "--ladder", "2:5"], 100),
    (["vis-dim", "--scenario", "carpet-5.1", "--dir", "0.3", "--ladder", "2:5", "--exact"], 100),
    (["scan", "--scenario", "carpet-5.1", "--dirs", "8", "--depth", "2"], 100),
    (["check", "--scenario", "carpet-5.1", "--projection", "--depth", "2"], 100),
    (["orient", "--scenario", "positive-cone", "--eps", "1e-3"], 10),
    (["tangent", "--scenario", "carpet-5.1", "--n-max", "6"], 100),
    (["scenario", "run", "positive-cone"], 100),
]
_BUDGETED_IDS = ["gen-svg", "vis", "vis-dim", "vis-dim-exact", "scan", "check-projection",
                 "orient", "tangent", "scenario-run"]


class TestBudgetChannel:
    """``--budget`` and AFFINE_VIS_BUDGET reach the same caps, and the
    option wins over the variable."""

    @staticmethod
    def _run(monkeypatch, capsys, argv, env=None, option=None):
        if env is None:
            monkeypatch.delenv("AFFINE_VIS_BUDGET", raising=False)
        else:
            monkeypatch.setenv("AFFINE_VIS_BUDGET", str(env))
        extra = [] if option is None else ["--budget", str(option)]
        capsys.readouterr()
        code = main(argv + extra)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("argv, n", _BUDGETED, ids=_BUDGETED_IDS)
    def test_option_and_environment_agree(self, monkeypatch, capsys, tmp_path, argv, n):
        argv = [a.format(tmp=tmp_path) for a in argv]
        by_option = self._run(monkeypatch, capsys, argv, option=n)
        assert by_option[0] == 3 and f"budget {n}" in by_option[1]
        assert self._run(monkeypatch, capsys, argv, env=n) == by_option

    @pytest.mark.parametrize("argv, n", _BUDGETED, ids=_BUDGETED_IDS)
    def test_option_wins_over_environment(self, monkeypatch, capsys, tmp_path, argv, n):
        argv = [a.format(tmp=tmp_path) for a in argv]
        unbudgeted = self._run(monkeypatch, capsys, argv)
        assert unbudgeted[0] == 0
        assert self._run(monkeypatch, capsys, argv, env=n, option=10**9) == unbudgeted

    @pytest.mark.parametrize("env", [None, "5000"])
    def test_scope_ends_with_the_command(self, monkeypatch, capsys, env):
        # a budget exceeded in one in-process call does not leak into the next
        argv = ["tangent", "--scenario", "carpet-5.1", "--n-max", "6"]
        assert self._run(monkeypatch, capsys, argv, env=env, option=10)[0] == 3
        assert budget_limit() == (DEFAULT_BUDGET if env is None else int(env))
        assert self._run(monkeypatch, capsys, argv, env=env)[0] == 0

    def test_scenario_list_reads_no_budget(self, monkeypatch, capsys):
        monkeypatch.setenv("AFFINE_VIS_BUDGET", "inf")
        assert main(["scenario", "list"]) == 0
        assert "carpet-5.1" in capsys.readouterr().out
