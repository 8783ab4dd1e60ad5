"""Command-line interface.

Commands
--------
gen       write an attractor point cloud (CSV, optional SVG of its cells)
check     structural checks: domination, invariant cone, projection condition
orient    certified interval cover of the limit-orientation set
vis       visible cells for one direction (CSV, optional SVG overlay)
vis-dim   visible-part scaling fit over a scale ladder
scan      projection verdicts over a direction grid
tangent   tangent frames and approximating rectangles along a stream
scenario  list built-in scenarios or run one with its assertion battery

Exit codes: 0 success, 2 validation error, 3 budget exceeded,
4 scenario assertion failed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager

from .errors import AffineVisError, BudgetError, budget_limit, budget_scope
from .geometry import direction_scan, projection_condition_check
from .linalg2 import Direction
from .pipeline import ladder_scales, set_dim, vis_dim
from .regularity import (
    domination_report,
    invariant_cone_search,
    orientation_cover,
    strong_cone_separation_check,
)
from .report import RunReport, svg_cells, svg_loglog, write_csv, write_report
from .runner import run_scenario
from .scenarios import load_ifs, scenario, scenario_names
from .symbolic import attractor_cloud
from .tangent import tangent_sequence
from .visibility import rasterize, visible_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_ASSERTION = 4


def _parse_ladder(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ladder must be LO:HI, got {text!r}")


def _parse_stream(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"stream must be comma-separated ints, got {text!r}")


# built once per process: handlers are bound by set_defaults and help width
# is read when help is formatted, so every call parses as a fresh parser would
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinevis",
        description="planar self-affine sets: structure checks, visible parts, "
        "and dimension estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    src = source.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="built-in scenario name")
    src.add_argument("--ifs", help="path to a JSON IFS config")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (atomic write)")
    common.add_argument("--seed", type=int, default=0)
    # a string: budget_scope parses it as it parses AFFINE_VIS_BUDGET
    common.add_argument(
        "--budget", help="cell/point cap of every step (default: AFFINE_VIS_BUDGET, else 5e7)"
    )
    # ignored (scans run on one thread); kept hidden because check and
    # vis-dim reports echo every parsed argument, so dropping it changes them
    common.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)

    def command(name, run, help):
        p = sub.add_parser(name, help=help, parents=[source, common])
        p.set_defaults(run=run)
        return p

    p = command("gen", cmd_gen, "generate an attractor point cloud")
    p.add_argument("--delta", type=float, default=2.0**-10)
    p.add_argument("--svg", help="also draw occupied cells to this SVG")

    p = command("check", cmd_check, "structural checks")
    p.add_argument("--domination", action="store_true")
    p.add_argument("--cone", action="store_true")
    p.add_argument("--projection", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument(
        "--depth", type=int, default=5, help="word length of the checks; the cone search "
        "runs at min(depth, 8) and the domination probe at max(depth, 4)"
    )
    p.add_argument("--dir", type=float, default=-math.pi / 4, help="radians")
    p.add_argument("--delta", type=float, default=2.0**-10)

    p = command("orient", cmd_orient, "limit-orientation interval cover")
    p.add_argument("--eps", type=float, default=1e-3)

    p = command("vis", cmd_vis, "visible cells for one direction")
    p.add_argument("--dir", type=float, required=True, help="radians")
    p.add_argument("--delta", type=float, default=2.0**-8)
    p.add_argument("--svg", help="overlay SVG: attractor cells under visible cells")

    p = command("vis-dim", cmd_vis_dim, "visible-part scaling over a ladder")
    p.add_argument("--dir", type=float, required=True, help="radians")
    p.add_argument("--ladder", type=_parse_ladder, default=(6, 12), help="LO:HI exponents")
    p.add_argument("--base", type=float, default=2.0, help="ladder base")
    p.add_argument(
        "--exact",
        action="store_true",
        help="exact-ray visibility (for exceptional orientations)",
    )
    p.add_argument("--svg", help="log-log plot SVG")

    p = command("scan", cmd_scan, "projection verdicts over a direction grid")
    p.add_argument("--dirs", type=int, default=72)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--delta", type=float, default=2.0**-10)

    p = command("tangent", cmd_tangent, "tangent frames and rectangles")
    p.add_argument("--stream", type=_parse_stream, default=(1,), help="e.g. 1,2")
    p.add_argument("--n-max", type=int, default=12)

    p = sub.add_parser("scenario", help="list or run built-in scenarios")
    psub = p.add_subparsers(dest="scenario_command", required=True)
    psub.add_parser("list", help="list scenario names").set_defaults(run=cmd_scenario_list)
    p = psub.add_parser("run", help="run a scenario's assertion battery", parents=[common])
    p.set_defaults(run=cmd_scenario_run)
    p.add_argument("name")

    return parser


def _resolve_ifs(args):
    if args.scenario:
        return scenario(args.scenario).build_ifs()
    return load_ifs(args.ifs)


def _echo(args) -> dict:
    """The report's params: every parsed option but the command and its
    handler, sorted, then the IFS source."""
    skip = ("command", "run")
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    params["source"] = args.scenario or args.ifs
    return params


def _verdicts(report: RunReport, out: str | None) -> int:
    """Write the report to ``out`` when given, print one line per assertion
    and return the exit code: EXIT_ASSERTION when any assertion failed."""
    if out:
        write_report(report, out)
    for a in report.assertions:
        print(f"[{'PASS' if a['passed'] else 'FAIL'}] {a['name']}: {a['detail']}")
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


def cmd_gen(args) -> int:
    ifs = _resolve_ifs(args)
    cloud = attractor_cloud(ifs, args.delta)
    if args.out:
        write_csv(args.out, ["x", "y"], cloud.points)
    else:
        print(f"{len(cloud)} points at resolution {args.delta}")
    if args.svg:
        grid = rasterize(cloud, args.delta)
        svg_cells(args.svg, [(grid, "#444444")])
    return EXIT_OK


def cmd_check(args) -> int:
    if args.depth < 1:
        raise ValueError("depth must be >= 1")
    ifs = _resolve_ifs(args)
    which = {k: getattr(args, k) or args.all for k in ("domination", "cone", "projection")}
    if not any(which.values()):
        which = dict.fromkeys(which, True)
    report = RunReport(command="check", params=_echo(args))
    with report.stage("seconds"):
        if which["domination"]:
            dom = domination_report(ifs, max(args.depth, 4), seed=args.seed)
            report.results["domination"] = {
                "verdict": dom.verdict,
                "tau_estimate": dom.tau_estimate,
                "levels": list(dom.levels),
                "min_ratio_roots": list(dom.min_ratio_roots),
                "exhaustive_up_to": dom.exhaustive_up_to,
            }
            report.add_assertion(
                "domination",
                dom.verdict,
                f"verified to depth {len(dom.levels)}, tau ~ {dom.tau_estimate:.4f}",
            )
        if which["cone"]:
            with _section(report, "cone", "found", "invariant-cone"):
                cone = invariant_cone_search(ifs, depth=min(args.depth, 8))
                sep = strong_cone_separation_check(ifs, cone)
                report.results["cone"] = {
                    "found": True,
                    "center": cone.center.angle,
                    "half_width": cone.half_width,
                    "separation": sep.verdict,
                    "witness": list(sep.witness) if sep.witness else None,
                }
                report.add_assertion("invariant-cone", True, "certificate found")
                report.add_assertion(
                    "strong-cone-separation",
                    sep.verdict,
                    "image intervals pairwise disjoint"
                    if sep.verdict
                    else f"witness {sep.witness}",
                )
        if which["projection"]:
            with _section(report, "projection", "passed", "projection-condition"):
                e = Direction(args.dir)
                v = projection_condition_check(ifs, e, depth=args.depth, delta=args.delta)
                report.results["projection"] = {
                    "passed": v.passed,
                    "worst_gap": v.worst_gap,
                    "gap_tol": v.gap_tol,
                    "depth": v.depth,
                    "first_pass_depth": v.first_pass_depth,
                    "certified_to_depth": v.depth,
                }
                detail = f"certified-to-depth {v.depth}, worst relative gap {v.worst_gap:.5f}"
                if v.zero_span:
                    detail += f", a projection at depth {v.depth} has zero span (a point)"
                report.add_assertion("projection-condition", v.passed, detail)
    return _verdicts(report, args.out)


@contextmanager
def _section(report: RunReport, key: str, flag: str, assertion: str):
    """A ``check`` section's failure rule: a library error fails its assertion
    and sets ``results[key] = {flag: False, "reason": ...}``; a cap is not a
    verdict, so BudgetError propagates to exit 3."""
    try:
        yield
    except BudgetError:
        raise
    except AffineVisError as exc:
        report.results[key] = {flag: False, "reason": str(exc)}
        report.add_assertion(assertion, False, str(exc))


def cmd_orient(args) -> int:
    ifs = _resolve_ifs(args)
    cover = orientation_cover(ifs, eps=args.eps)
    rows = [(c.center.angle, c.half_width, c.diameter) for c in cover]
    if args.out:
        write_csv(args.out, ["center", "half_width", "diameter"], rows)
    print(f"{len(cover)} interval(s) at eps = {args.eps}")
    for c in cover:
        print(f"  center {c.center.angle:.6f}  half-width {c.half_width:.3e}")
    return EXIT_OK


def cmd_vis(args) -> int:
    ifs = _resolve_ifs(args)
    cloud = attractor_cloud(ifs, args.delta / 2)
    grid = rasterize(cloud, args.delta)
    vis = visible_sweep(grid, Direction(args.dir))
    if args.out:
        write_csv(args.out, ["i", "j"], vis.cells)
    print(f"{len(vis)} visible cells of {len(grid)} at delta = {args.delta}")
    if args.svg:
        svg_cells(args.svg, [(grid, "#bbbbbb"), (vis, "#b03030")])
    return EXIT_OK


def cmd_vis_dim(args) -> int:
    ifs = _resolve_ifs(args)
    lo, hi = args.ladder
    scales = ladder_scales(lo, hi, base=args.base)
    cloud = attractor_cloud(ifs, min(scales) / 2)
    est = vis_dim(cloud, Direction(args.dir), scales, exact=args.exact)
    ref = set_dim(cloud, scales)
    report = RunReport(command="vis-dim", params=_echo(args))
    report.results["estimate"] = {
        "slope": est.slope,
        "intercept": est.intercept,
        "residual": est.residual,
        "scales": list(est.scales),
        "counts": list(est.counts),
        "trimmed": est.trimmed,
        "mode": "exact-ray" if args.exact else "per-scale-sweep",
    }
    report.results["set_reference"] = {"slope": ref.slope, "residual": ref.residual}
    if args.out:
        write_report(report, args.out)
    if args.svg:
        svg_loglog(args.svg, est.scales, est.counts, est.slope, est.intercept)
    print(
        f"visible-part slope {est.slope:.4f} (residual {est.residual:.4f}) over "
        f"{len(est.scales)} scales; set slope {ref.slope:.4f}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    ifs = _resolve_ifs(args)
    rows = direction_scan(ifs, args.dirs, depth=args.depth, delta=args.delta)
    table = [
        (
            r.direction.angle,
            int(r.exceptional),
            int(r.passed),
            "" if math.isnan(r.worst_gap) else r.worst_gap,
            "" if r.first_pass_depth is None else int(r.first_pass_depth),
        )
        for r in rows
    ]
    if args.out:
        write_csv(
            args.out,
            ["angle", "exceptional", "passed", "worst_gap", "first_pass_depth"],
            table,
        )
    n_exc = sum(r.exceptional for r in rows)
    n_pass = sum((not r.exceptional) and r.passed for r in rows)
    print(f"{len(rows)} directions: {n_exc} exceptional, {n_pass} passed")
    return EXIT_OK


def cmd_tangent(args) -> int:
    ifs = _resolve_ifs(args)
    seq = tangent_sequence(ifs, args.stream, args.n_max)
    rows = [
        (
            n + 1,
            frame.center[0],
            frame.center[1],
            frame.scale,
            rect.h,
            rect.v,
            rect.orientation.angle,
        )
        for n, (frame, rect) in enumerate(seq)
    ]
    if args.out:
        write_csv(
            args.out, ["n", "center_x", "center_y", "scale", "h", "v", "orientation"], rows
        )
    last = seq[-1][1]
    print(f"{len(seq)} frames; final rectangle h = {last.h:.4g}, v = {last.v:.4g}")
    return EXIT_OK


def cmd_scenario_list(args) -> int:
    for name in scenario_names():
        print(f"{name}: {scenario(name).description}")
    return EXIT_OK


def cmd_scenario_run(args) -> int:
    return _verdicts(run_scenario(args.name, seed=args.seed, budget=args.budget), args.out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every cap of the command reads --budget, else AFFINE_VIS_BUDGET
        with budget_scope(getattr(args, "budget", None)):
            if hasattr(args, "budget"):  # `scenario list` reads no budget
                # a bad budget exits 2 even where no cap is hit; reports echo
                # the option as the parsed int
                limit = budget_limit()
                if args.budget is not None:
                    args.budget = limit
            return args.run(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AffineVisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
