"""affinevis benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload {carpet,scan,mix} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# every run must end within this many seconds
RUN_LIMIT_S = 170.0
CLI_COMMANDS = ("gen", "check", "orient", "vis", "vis-dim", "scan", "tangent", "scenario")
# The host-speed probe's time (worker.probe) that the rescaled metrics take
# as the reference speed: about its time on one core of a 2-core 2.1 GHz
# Xeon VM, where it reads 8-12 ms as the neighbours' load comes and goes.
REF_PROBE_S = 0.010


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one thread per workload: a 2-core box, and numbers that separate
    # "less work" from "more cores"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed",
            str(args.seed), "--size", args.size, *extra]


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    pct = math.floor(100 * (n - 10) / n)
    value = sorted(samples)[math.ceil(pct / 100 * n) - 1]
    return f"n={n}; p{pct}={value:.4f}"


def host_factor(record: dict) -> float:
    """The factor that takes a time of this pass to the reference host
    speed: the reference probe time over the median probe time of the pass."""
    return REF_PROBE_S / statistics.median(record["probe_s"])


def summarize(result: dict, trace: bool):
    """(metrics, report lines, attempted, failed, digest mismatches)."""
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatch = max(p["digest_mismatch"] for p in passes)
    slope_errs = [p["slope_err"] for p in passes if p["slope_err"] is not None]
    walls = [p["wall_s"] for p in plain]
    probes = [statistics.median(p["probe_s"]) for p in plain]
    op_walls = [w for p in plain for w in p["op_wall_s"]]
    seed = result["program_seed"]
    lines = [
        f"workload {result['workload']}: seed "
        + ("not consumed" if seed is None else f"{seed} passed to the program"),
        f"reference {result['reference'] or 'MISSING'}",
        f"passes {len(passes)} ({len(plain)} untraced), operations attempted {attempted}, failed {failed}",
        f"error_rate {failed / attempted:.6f} (failed / attempted, n={attempted})",
        f"digest_mismatch {mismatch} count (most in one pass, n={len(passes)} passes)",
        "slope_err " + (f"{max(slope_errs):.6f} (n={len(slope_errs)} passes)"
                        if slope_errs else "n/a (carpet only)"),
    ]
    for p in passes:
        lines += [f"  failed {f}" for f in p["failures"]]
    if not trace:
        walls_ref = [p["wall_s"] * host_factor(p) for p in plain]
        setup = [s for p in plain for s in p["setup_s"]]
        setup_ref = [s * host_factor(p) for p in plain for s in p["setup_s"]]
        metrics = {
            "wall_ref_s": (statistics.median(walls_ref), "s"),
            "cpu_ref_s": (statistics.median(p["cpu_s"] * host_factor(p) for p in plain), "s"),
            "setup_s": (statistics.median(setup_ref), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        lines += [
            f"wall_ref_s {metrics['wall_ref_s'][0]:.4f} s median per pass at the reference "
            f"host speed ({tail(walls_ref)})",
            f"cpu_ref_s {metrics['cpu_ref_s'][0]:.4f} s median per pass at the reference "
            f"host speed (n={len(plain)})",
            f"setup_s {metrics['setup_s'][0]:.4f} s median of fresh starts spread through the "
            f"run, at the reference host speed ({tail(setup_ref)})",
            f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (workload process)",
            f"as measured: wall_s {statistics.median(walls):.4f} s per pass ({tail(walls)}); "
            f"cpu_s {statistics.median(p['cpu_s'] for p in plain):.4f} s; "
            f"setup {statistics.median(setup):.4f} s",
            f"  per operation: median {statistics.median(op_walls):.4f} s ({tail(op_walls)})",
            f"host probe {statistics.median(probes):.4f} s median per pass "
            f"(reference {REF_PROBE_S} s; n={len(plain)})",
        ]
    else:
        traced = [p for p in passes if p["traced"]]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        for command in CLI_COMMANDS:
            values[f"cli.{command}.s"] = statistics.median(
                p["commands"].get(command, 0.0) for p in plain)
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(walls))
        values["wall_s"] = statistics.median(walls)
        values["cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        values["probe_s"] = statistics.median(probes)
        metrics = {name: (v, tracing.unit_of(name)) for name, v in values.items()}
        lines.append(f"traced passes {len(traced)}, untraced {len(plain)}; medians per pass:")
        lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return metrics, lines, attempted, failed, mismatch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: same code paths on small inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "affinevis" / "__init__.py").is_file():
        print(f"error: no affinevis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run(
            worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics, lines, attempted, failed, mismatch = summarize(result, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and mismatch == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
