"""The benchmark's workloads: inputs, the operations of one pass, and how
each operation's result is judged against the recorded reference.

Every operation has two halves.  ``run`` is the timed call into the
package; ``judge`` turns its result into an ``Outcome`` outside the timed
region: the verdicts and counts that must equal the reference exactly, the
output bytes whose SHA-256 must equal the reference, and the assertion the
operation must pass.  The package modules are looked up at call time, so a
tracer that rebinds their functions sees every call.

README.md in this directory explains why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("carpet", "scan", "mix")
SIZES = ("full", "tiny")
# mix passes seed % PROGRAM_SEEDS to the program, so that a reference exists
# for every seed the benchmark can be given
PROGRAM_SEEDS = 8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

LOG3_2 = math.log(2.0) / math.log(3.0)
CARPET_BOX_SLOPE = 1.0 + math.log(1.5) / math.log(3.0)

PARAMS = {
    # the carpet-5.1 battery at cloud 2^-11 / ladder 6:10 / cross depth 7
    # instead of 2^-13 / 6:12 / 8, so that one pass fits a run
    ("carpet", "full"): {"cloud": 11, "fine": 12, "ladder": (6, 10), "cross": 7},
    ("carpet", "tiny"): {"cloud": 9, "fine": 10, "ladder": (4, 9), "cross": 5},
    ("scan", "full"): {"n_dirs": 8, "depth": 7, "delta": 10},
    ("scan", "tiny"): {"n_dirs": 8, "depth": 3, "delta": 7},
    ("mix", "full"): {
        "gen_delta": 10,
        "vis_delta": 8,
        "ladder": "6:10",
        "cone_depth": 8,
        "carpet_depth": 5,
        "cone_eps": "1e-5",
        "scan_dirs": 72,
        "scan_depth": 5,
        "n_max": 12,
        "assouad_delta": 10,
    },
    ("mix", "tiny"): {
        "gen_delta": 6,
        "vis_delta": 5,
        "ladder": "4:7",
        "cone_depth": 4,
        "carpet_depth": 3,
        "cone_eps": "1e-3",
        "scan_dirs": 8,
        "scan_depth": 3,
        "n_max": 6,
        "assouad_delta": 7,
    },
}


@dataclass
class Outcome:
    check: dict
    outputs: dict[str, bytes]
    ok: bool = True
    # (fitted slope, reference slope) pairs feeding slope_err
    slopes: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    command: str | None = None


@dataclass
class Inputs:
    workload: str
    program_seed: int | None
    params: dict
    data: dict


def program_seed(workload: str, seed: int) -> int | None:
    """The seed handed to the program; carpet and scan consume none."""
    return seed % PROGRAM_SEEDS if workload == "mix" else None


def reference_key(workload: str, size: str, prog_seed: int | None) -> str:
    key = f"{workload}/{size}"
    return key if prog_seed is None else f"{key}/seed{prog_seed}"


def build_inputs(workload: str, size: str, seed: int) -> Inputs:
    from affinevis import pipeline, scenarios

    params = PARAMS[(workload, size)]
    prog_seed = program_seed(workload, seed)
    data: dict = {}
    if workload == "carpet":
        data["ifs"] = scenarios.scenario("carpet-5.1").build_ifs()
        data["scales"] = pipeline.ladder_scales(*params["ladder"])
        data["dirs"] = pipeline.spread_directions(16, math.pi / 2, 0.15)
    elif workload == "scan":
        data["ifs"] = scenarios.scenario("positive-cone").build_ifs()
    else:
        data["commands"] = mix_commands(params, prog_seed)
        data["ifs"] = scenarios.scenario("carpet-5.1").build_ifs()
    return Inputs(workload, prog_seed, params, data)


def pass_ops(inputs: Inputs) -> list[Op]:
    return {"carpet": _carpet_ops, "scan": _scan_ops, "mix": _mix_ops}[
        inputs.workload
    ](inputs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, allow_nan=False).encode()


def _fit(est) -> dict:
    return {
        "slope": repr(est.slope),
        "intercept": repr(est.intercept),
        "residual": repr(est.residual),
        "counts": list(est.counts),
        "trimmed": est.trimmed,
    }


# ---------------------------------------------------------------------------
# carpet: the carpet-5.1 assertion battery


def _carpet_ops(inputs: Inputs) -> list[Op]:
    from affinevis import dimension, pipeline, regularity, scenarios, symbolic, tangent, visibility
    from affinevis.linalg2 import Direction, ProjLine

    p, d = inputs.params, inputs.data
    ifs, scales = d["ifs"], d["scales"]
    down = Direction(-math.pi / 2)
    vertical = ProjLine(math.pi / 2)
    state: dict = {}

    def cloud():
        state["cloud"] = symbolic.attractor_cloud(ifs, 2.0 ** -p["cloud"])
        state["grids"] = pipeline.ladder_grids(state["cloud"], scales)

    def judge_cloud(_):
        c, grids = state["cloud"], state["grids"]
        return Outcome(
            {"points": len(c), "cells": [len(g) for g in grids]},
            {"points": c.points.tobytes()},
        )

    def direction_op(e):
        def run():
            return pipeline.vis_dim(state["cloud"], e, scales, grids=state["grids"])

        def judge(est):
            return Outcome(
                {"counts": list(est.counts)},
                {"fit": _json_bytes(_fit(est))},
                ok=0.90 <= est.slope <= 1.12,
                slopes=[(est.slope, 1.0)],
            )

        return run, judge

    def exceptional():
        fine = symbolic.attractor_cloud(ifs, 2.0 ** -p["fine"])
        return (
            pipeline.vis_dim(fine, down, scales, exact=True),
            pipeline.set_dim(fine, scales),
        )

    def judge_exceptional(res):
        vis, whole = res
        return Outcome(
            {"visible_counts": list(vis.counts), "set_counts": list(whole.counts)},
            {"fit": _json_bytes({"visible": _fit(vis), "set": _fit(whole)})},
            ok=vis.slope >= 1.25 and abs(vis.slope - whole.slope) <= 0.08,
            slopes=[(vis.slope, CARPET_BOX_SLOPE)],
        )

    def cross():
        segment = scenarios.cantor_cross_segment(p["cross"])
        ternary = [3.0**-k for k in range(1, p["cross"] + 1)]
        counts = [
            len(visibility.visible_sweep(visibility.rasterize(segment, delta), down))
            for delta in ternary
        ]
        return dimension.fit_dimension(counts, ternary)

    def judge_cross(est):
        return Outcome(
            {"counts": list(est.counts)},
            {"fit": _json_bytes(_fit(est))},
            ok=0.58 <= est.slope <= 0.69,
            slopes=[(est.slope, LOG3_2)],
        )

    def cover():
        return regularity.orientation_cover(ifs, eps=1e-3)

    def judge_cover(cones):
        inside = len(cones) == 1 and cones[0].contains_line(vertical)
        return Outcome(
            {"intervals": len(cones), "contains_vertical": inside},
            {"cones": _json_bytes([[repr(c.center.angle), repr(c.half_width)] for c in cones])},
            ok=inside and cones[0].diameter <= 1e-3,
        )

    def tangents():
        seq = tangent.tangent_sequence(ifs, (2,), 12)
        rects = [rect for _, rect in seq if rect.h > 2.0]
        cones = regularity.orientation_cover(ifs, eps=1e-3)
        return seq, rects, cones, tangent.kakeya_extract(rects)

    def judge_tangents(res):
        seq, rects, cones, kakeya = res
        hs = [rect.h for _, rect in seq]
        vs = [rect.v for _, rect in seq]
        h_mono = all(b > a for a, b in zip(hs[3:], hs[4:]))
        v_mono = all(b < a for a, b in zip(vs[3:], vs[4:]))
        inside = all(
            any(c.line_distance(Direction(t).carrier()) <= 0.02 for c in cones)
            for t in kakeya.thetas
        )
        return Outcome(
            {"frames": len(seq), "rects": len(rects), "h_mono": h_mono,
             "v_mono": v_mono, "inside": inside},
            {"rects": _json_bytes([[repr(h), repr(v)] for h, v in zip(hs, vs)]),
             "thetas": _json_bytes([repr(float(t)) for t in kakeya.thetas])},
            ok=h_mono and v_mono and bool(rects) and inside,
        )

    ops = [Op("cloud", cloud, judge_cloud)]
    for k, e in enumerate(d["dirs"]):
        ops.append(Op(f"visible-{k:02d}", *direction_op(e)))
    ops += [
        Op("exceptional", exceptional, judge_exceptional),
        Op("cantor-cross", cross, judge_cross),
        Op("cover", cover, judge_cover),
        Op("tangent", tangents, judge_tangents),
    ]
    return ops


# ---------------------------------------------------------------------------
# scan: projection-condition verdicts over a direction grid


def _scan_ops(inputs: Inputs) -> list[Op]:
    from affinevis import geometry

    p = inputs.params

    def run():
        return geometry.direction_scan(
            inputs.data["ifs"], p["n_dirs"], depth=p["depth"], delta=2.0 ** -p["delta"]
        )

    def judge(rows):
        verdicts = [[r.exceptional, r.passed, r.first_pass_depth] for r in rows]
        table = [
            [repr(r.direction.angle), None if math.isnan(r.worst_gap) else repr(r.worst_gap)]
            for r in rows
        ]
        return Outcome({"verdicts": verdicts}, {"rows": _json_bytes(table)})

    return [Op("direction-scan", run, judge)]


# ---------------------------------------------------------------------------
# mix: in-process command-line invocations, then one Assouad estimate


def mix_commands(p: dict, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) per command; outputs are relative to the working directory."""
    gen = repr(2.0 ** -p["gen_delta"])
    vis = repr(2.0 ** -p["vis_delta"])
    cmds = [
        ("gen-carpet", ["gen", "--scenario", "carpet-5.1", "--delta", gen,
                        "--out", "gen-carpet.csv", "--svg", "gen-carpet.svg"]),
        ("gen-cone", ["gen", "--scenario", "positive-cone", "--delta", gen,
                      "--out", "gen-cone.csv"]),
        ("check-cone", ["check", "--scenario", "positive-cone", "--all",
                        "--depth", str(p["cone_depth"]), "--out", "check-cone.json"]),
        ("check-carpet", ["check", "--scenario", "carpet-5.1", "--all",
                          "--depth", str(p["carpet_depth"]), "--out", "check-carpet.json"]),
        ("orient-cone", ["orient", "--scenario", "positive-cone", "--eps", p["cone_eps"],
                         "--out", "orient-cone.csv"]),
        ("orient-carpet", ["orient", "--scenario", "carpet-5.1", "--eps", "1e-3",
                           "--out", "orient-carpet.csv"]),
        ("vis-carpet", ["vis", "--scenario", "carpet-5.1", "--dir=-0.7854", "--delta", vis,
                        "--out", "vis-carpet.csv", "--svg", "vis-carpet.svg"]),
        ("vis-cone", ["vis", "--scenario", "positive-cone", "--dir=0.3", "--delta", vis,
                      "--out", "vis-cone.csv", "--svg", "vis-cone.svg"]),
        ("visdim-carpet", ["vis-dim", "--scenario", "carpet-5.1", "--dir=-0.7854",
                           "--ladder", p["ladder"], "--out", "visdim-carpet.json",
                           "--svg", "visdim-carpet.svg"]),
        ("visdim-carpet-exact", ["vis-dim", "--scenario", "carpet-5.1", "--dir=-1.5708",
                                 "--ladder", p["ladder"], "--exact",
                                 "--out", "visdim-carpet-exact.json"]),
        ("visdim-cone", ["vis-dim", "--scenario", "positive-cone", "--dir=0.3",
                         "--ladder", p["ladder"], "--out", "visdim-cone.json"]),
        ("scan-carpet", ["scan", "--scenario", "carpet-5.1", "--dirs", str(p["scan_dirs"]),
                         "--depth", str(p["scan_depth"]), "--out", "scan-carpet.csv"]),
        ("tangent-cone", ["tangent", "--scenario", "positive-cone", "--stream", "1",
                          "--n-max", str(p["n_max"]), "--out", "tangent-cone.csv"]),
        ("tangent-carpet", ["tangent", "--scenario", "carpet-5.1", "--stream", "2",
                            "--n-max", str(p["n_max"]), "--out", "tangent-carpet.csv"]),
        ("scenario-cone", ["scenario", "run", "positive-cone", "--out", "scenario-cone.json"]),
        ("scenario-harmonic", ["scenario", "run", "harmonic-5.2",
                               "--out", "scenario-harmonic.json"]),
    ]
    return [(name, argv + ["--seed", str(seed)]) for name, argv in cmds]


def _written_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--svg")]


def _mix_ops(inputs: Inputs) -> list[Op]:
    from affinevis import cli, dimension, symbolic

    def command_op(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def judge(res):
            code, out, err = res
            assertions = [
                [line[1:5] == "PASS", line[7:].split(":", 1)[0]]
                for line in out.splitlines()
                if line.startswith(("[PASS] ", "[FAIL] "))
            ]
            outputs = {"stdout": out.encode()}
            for name in _written_files(argv):
                path = Path(name)
                outputs[name] = path.read_bytes() if path.is_file() else b""
            return Outcome({"exit": code, "assertions": assertions, "stderr": err}, outputs)

        return run, judge

    ops = [
        Op(name, *command_op(argv), command=argv[0])
        for name, argv in inputs.data["commands"]
    ]

    def assouad():
        cloud = symbolic.attractor_cloud(inputs.data["ifs"], 2.0 ** -inputs.params["assouad_delta"])
        return dimension.assouad_estimate(cloud, seed=inputs.program_seed)

    ops.append(Op("assouad", assouad, lambda v: Outcome({}, {"value": repr(v).encode()})))
    return ops


# ---------------------------------------------------------------------------
# references


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare(outcome: Outcome, ref: dict | None) -> tuple[list[str], int]:
    """(reasons the operation failed, number of outputs whose digest differs).
    A missing reference fails the operation and mismatches every output."""
    if ref is None:
        return ["no reference recorded"], len(outcome.outputs)
    reasons = []
    if not outcome.ok:
        reasons.append("assertion failed")
    check = json.loads(json.dumps(outcome.check))
    if check != ref["check"]:
        reasons.append(f"check {check} != reference {ref['check']}")
    digests = {name: digest(data) for name, data in outcome.outputs.items()}
    names = set(digests) | set(ref["digests"])
    mismatched = sum(digests.get(n) != ref["digests"].get(n) for n in names)
    return reasons, mismatched


def record_entry(outcome: Outcome) -> dict:
    return {
        "check": json.loads(json.dumps(outcome.check)),
        "digests": {name: digest(data) for name, data in sorted(outcome.outputs.items())},
    }
