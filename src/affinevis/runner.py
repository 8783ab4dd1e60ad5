"""The report envelope of ``scenario run``: one registry lookup, the
scenario's battery under the given budget, then its description and
expected values."""

from __future__ import annotations

from dataclasses import asdict

from .errors import budget_scope
from .report import RunReport
from .scenarios import scenario


def run_scenario(name: str, seed: int = 0, budget: int | None = None) -> RunReport:
    spec = scenario(name)
    report = RunReport(
        command=f"scenario run {name}",
        params={"scenario": name, "seed": seed, "budget": budget},
    )
    with report.stage("total_seconds"), budget_scope(budget):
        spec.battery(spec, report, seed)
    report.results["scenario_description"] = spec.description
    report.results["expected"] = [asdict(ev) for ev in spec.expected]
    return report
