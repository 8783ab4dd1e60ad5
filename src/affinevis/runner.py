"""The report envelope of ``scenario run``: one registry lookup, the
scenario's battery, then its description and expected values."""

from __future__ import annotations

import time

from .report import RunReport
from .scenarios import scenario


def run_scenario(name: str, seed: int = 0, budget: int | None = None) -> RunReport:
    spec = scenario(name)
    report = RunReport(
        command=f"scenario run {name}",
        params={"scenario": name, "seed": seed, "budget": budget},
    )
    t0 = time.perf_counter()
    spec.battery(spec, report, seed, budget)
    report.timings["total_seconds"] = time.perf_counter() - t0
    report.results["scenario_description"] = spec.description
    report.results["expected"] = [
        {"name": ev.name, "value": ev.value, "source": ev.source, "note": ev.note}
        for ev in spec.expected
    ]
    return report
