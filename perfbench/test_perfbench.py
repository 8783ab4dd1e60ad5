"""Self-tests of the benchmark, on tiny inputs that cover the same code paths.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

worker.import_package()

import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_reference(workload: str, seed: int = 0) -> tuple[workloads.Inputs, dict]:
    inputs = workloads.build_inputs(workload, "tiny", seed)
    key = workloads.reference_key(workload, "tiny", inputs.program_seed)
    return inputs, workloads.load_reference()[key]


def test_self_time_subtracts_direct_children():
    spans = [
        ["visibility.a", -1, 0.0, 10.0],
        ["dimension.b", 0, 1.0, 4.0],
        ["visibility.c", 1, 2.0, 3.0],
        ["dimension.b", 0, 5.0, 9.0],
        ["cli.main", -1, 20.0, 21.5],
    ]
    assert tracing.self_times(spans) == {
        "visibility.a": (3.0, 1),
        "dimension.b": (6.0, 2),
        "visibility.c": (1.0, 1),
        "cli.main": (1.5, 1),
    }
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["visibility.self_s"] == 4.0
    assert metrics["visibility.calls"] == 2
    assert metrics["dimension.self_s"] == 6.0
    assert metrics["cli.self_s"] == 1.5
    assert metrics["geometry.self_s"] == 0.0
    assert metrics["rasterize.dedup_ratio"] == 0.0


def test_tracer_sees_calls_through_every_binding():
    import affinevis
    from affinevis import pipeline, symbolic, visibility
    from affinevis.linalg2 import Direction

    original = visibility.rasterize
    carpet = workloads.build_inputs("carpet", "tiny", 0).data["ifs"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.rasterize is visibility.rasterize is affinevis.rasterize
        assert pipeline.rasterize is not original
        cloud = symbolic.attractor_cloud(carpet, 2.0**-6)
        pipeline.vis_dim(cloud, Direction(0.3), pipeline.ladder_scales(2, 6))
    finally:
        tracer.uninstall()
    assert pipeline.rasterize is original and visibility.rasterize is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "symbolic.attractor_cloud"
    assert names.count("visibility.rasterize") == 5
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for name, parent, _, _ in tracer.spans:
        if name == "visibility.rasterize":
            assert by_index[parent][0] == "pipeline.ladder_grids"
    assert tracer.counts["attractor_cloud.points"] == len(cloud)
    assert tracer.counts["rasterize.points_in"] == 5 * len(cloud)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_matches_reference(workload):
    inputs, reference = tiny_reference(workload, seed=3)
    record, outcomes = worker.run_pass(inputs, reference)
    assert record["failures"] == []
    assert record["attempted"] == len(outcomes) == len(reference)
    assert record["digest_mismatch"] == 0
    assert (record["slope_err"] is not None) == (workload == "carpet")
    assert record["probe_s"]


def test_host_samples_are_left_out_of_the_clock():
    host = worker.HostProbe()
    wall0, cpu0 = host.clock()
    with host.running():
        time.sleep(2.5 * worker.PROBE_INTERVAL_S)
    wall1, cpu1 = host.clock()
    assert len(host.samples) >= 3
    assert wall1 - wall0 < 2.5 * worker.PROBE_INTERVAL_S + min(host.samples)
    assert cpu1 - cpu0 < min(host.samples)


def test_host_factor_rescales_to_the_reference_probe_time():
    assert run.host_factor({"probe_s": [run.REF_PROBE_S] * 3}) == 1.0
    slow = run.host_factor({"probe_s": [2 * run.REF_PROBE_S, 9.0, 0.0]})
    assert slow == pytest.approx(0.5)


def test_wrong_reference_is_counted_not_raised():
    inputs, reference = tiny_reference("mix")
    reference = json.loads(json.dumps(reference))
    reference["gen-carpet"]["digests"]["gen-carpet.svg"] = "0" * 64
    reference["check-carpet"]["check"]["exit"] = 0
    del reference["assouad"]
    record, _ = worker.run_pass(inputs, reference)
    assert record["attempted"] == 17
    assert record["failed"] == 2
    assert record["digest_mismatch"] == 2
    assert any(f.startswith("check-carpet: check") for f in record["failures"])
    assert "assouad: no reference recorded" in record["failures"]


def test_traced_pass_reports_the_layers():
    inputs, reference = tiny_reference("mix")
    tracer = tracing.Tracer()
    record, _ = worker.run_pass(inputs, reference, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert record["failed"] == 0
    for layer in ("report", "cli", "regularity", "runner", "geometry", "visibility"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["report.bytes_written"] > 0
    assert 0 < metrics["rasterize.dedup_ratio"] <= 1


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    proc = run_bench(HERE.parent, "--workload", "scan", "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "carpet", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
