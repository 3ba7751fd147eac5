"""Chaos sweeps: fault-rate ladders x resilience policies, reduced.

``repro chaos`` runs one :class:`~repro.faults.plan.FaultPlan` at a
ladder of fault-rate scales against each resilience policy and reduces
the serving reports to the question that matters: *how much goodput
does each policy retain as faults ramp up?* Scale ``0.0`` is the
fault-free control every retention number is measured against, so the
sweep is self-calibrating — no external baseline file.

Each cell is a :class:`~repro.serving.scale.FleetRun` carrying its own
:class:`ServiceCosts` and its scaled plan, paired with the fault scale
that labels its row; callers map the runs through
:func:`~repro.serving.scale.run_fleet` with
:func:`repro.runtime.parallel.parallel_map`, every run a pure function
of ``(REPRO_SEED, run)`` — serial and ``--jobs N`` sweeps produce
byte-identical reports (pinned by ``tests/test_faults.py``).

The JSON report carries a ``schema`` tag and passes
:func:`validate_chaos_report`, which CI's chaos-smoke job runs against
a fresh sweep.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime.seed import repro_seed
from ..serving.metrics import ServingReport
from ..serving.scale import FleetRun
from ..serving.scheduler import (
    RESILIENCE_POLICIES,
    ResiliencePolicy,
    ServiceCosts,
)
from ..serving.workload import OpenLoopPoisson
from .plan import FaultPlan, default_plan

CHAOS_SCHEMA = "repro-chaos-report-v1"

DEFAULT_SCALES = (0.0, 0.5, 1.0, 2.0)

#: One chaos cell: the fault scale that labels its row, and its run.
ChaosCell = Tuple[float, FleetRun]


def chaos_grid(plan: Optional[FaultPlan] = None,
               scales: Sequence[float] = DEFAULT_SCALES,
               policies: Sequence[str] = RESILIENCE_POLICIES,
               model: str = "bert",
               devices: int = 4,
               rate_rps: float = 120.0,
               duration_s: float = 8.0,
               costs: Optional[ServiceCosts] = None) -> List[ChaosCell]:
    """The policy x fault-scale grid, in a stable order.

    A ``0.0`` scale (the fault-free control) is always prepended so
    retention is well-defined even when the caller's ladder omits it.
    Every cell serves the same seeded Poisson load.
    """
    plan = plan or default_plan()
    costs = costs or ServiceCosts.resolve([model])
    workload = OpenLoopPoisson((model,), rate_rps, duration_s)
    ladder = list(dict.fromkeys([0.0, *scales]))
    return [(scale, FleetRun(costs, workload, devices=devices,
                             fault_plan=plan.scaled(scale),
                             resilience=ResiliencePolicy(kind=policy)))
            for policy in policies
            for scale in ladder]


def chaos_report(plan: FaultPlan, grid: Sequence[ChaosCell],
                 reports: Sequence[ServingReport]) -> Dict[str, Any]:
    """Reduce a sweep of ``plan``'s grid to the schema-tagged report.

    Each row pairs one cell's serving outcomes with its
    ``goodput_retention``: goodput divided by the same policy's
    fault-free (scale 0.0) goodput. The summary keeps each policy's
    worst retention across faulted scales — the headline the resilience
    benchmark asserts on.
    """
    if len(grid) != len(reports):
        raise ValueError("grid cells and reports must pair up")
    if not grid:
        raise ValueError("empty chaos sweep")
    baseline: Dict[str, float] = {}
    for (scale, run), report in zip(grid, reports):
        if scale == 0.0 and run.resilience.kind not in baseline:
            baseline[run.resilience.kind] = report.goodput_rps
    rows: List[Dict[str, Any]] = []
    for (scale, run), report in zip(grid, reports):
        base = baseline.get(run.resilience.kind, 0.0)
        retention = report.goodput_rps / base if base > 0 else 0.0
        rows.append({
            "policy": run.resilience.kind,
            "fault_scale": scale,
            "offered": report.offered,
            "completed": report.completed,
            "failed": report.failed,
            "rejected": report.rejected,
            "bad_completions": report.bad_completions,
            "retries": report.retries,
            "timeouts": report.timeouts,
            "compile_retries": report.compile_retries,
            "devices_ejected": report.devices_ejected,
            "devices_readmitted": report.devices_readmitted,
            "faults": dict(report.faults),
            "throughput_rps": report.throughput_rps,
            "goodput_rps": report.goodput_rps,
            "goodput_retention": retention,
            "slo_attainment": report.slo_attainment,
            "p99_ms": report.p99_ms,
        })
    summary = {}
    for policy in dict.fromkeys(r["policy"] for r in rows):
        faulted = [r["goodput_retention"] for r in rows
                   if r["policy"] == policy and r["fault_scale"] > 0]
        summary[policy] = {
            "baseline_goodput_rps": baseline.get(policy, 0.0),
            "min_goodput_retention": min(faulted, default=1.0),
        }
    first = grid[0][1]
    return {
        "schema": CHAOS_SCHEMA,
        "seed": repro_seed(),
        "plan": plan.as_dict(),
        "model": first.workload.models[0],
        "devices": first.devices,
        "rate_rps": first.workload.rate_rps,
        "duration_s": first.workload.duration_s,
        "rows": rows,
        "summary": summary,
    }


def chaos_report_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: Required row fields and their types (None in a pair = any number).
_ROW_FIELDS = {
    "policy": str, "fault_scale": (int, float), "offered": int,
    "completed": int, "failed": int, "rejected": int,
    "bad_completions": int, "retries": int, "timeouts": int,
    "compile_retries": int, "devices_ejected": int,
    "devices_readmitted": int, "faults": dict,
    "throughput_rps": (int, float), "goodput_rps": (int, float),
    "goodput_retention": (int, float), "slo_attainment": (int, float),
    "p99_ms": (int, float),
}


def validate_chaos_report(payload: Any) -> List[str]:
    """Structural problems with a chaos report (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != CHAOS_SCHEMA:
        problems.append(f"schema must be {CHAOS_SCHEMA!r}, "
                        f"got {payload.get('schema')!r}")
    for key, kind in (("seed", int), ("plan", dict), ("model", str),
                      ("devices", int), ("rate_rps", (int, float)),
                      ("duration_s", (int, float)), ("rows", list),
                      ("summary", dict)):
        if not isinstance(payload.get(key), kind):
            problems.append(f"missing or mistyped field {key!r}")
    rows = payload.get("rows")
    if isinstance(rows, list):
        if not rows:
            problems.append("rows must be non-empty")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"rows[{i}] must be an object")
                continue
            for key, kind in _ROW_FIELDS.items():
                if not isinstance(row.get(key), kind) or \
                        isinstance(row.get(key), bool):
                    problems.append(f"rows[{i}].{key} missing or mistyped")
            if row.get("policy") not in RESILIENCE_POLICIES:
                problems.append(f"rows[{i}].policy not a known policy")
    summary = payload.get("summary")
    if isinstance(summary, dict):
        for policy, entry in summary.items():
            if not isinstance(entry, dict) or not isinstance(
                    entry.get("min_goodput_retention"), (int, float)):
                problems.append(
                    f"summary[{policy!r}].min_goodput_retention missing")
    return problems


def chaos_table(payload: Dict[str, Any]) -> str:
    """Fixed-width rendering of one chaos report."""
    from ..harness.report import render_table
    rows = [(r["policy"], r["fault_scale"], r["offered"], r["completed"],
             r["failed"], r["retries"], r["devices_ejected"],
             round(r["goodput_rps"], 2), round(r["goodput_retention"], 4),
             round(r["slo_attainment"], 4))
            for r in payload["rows"]]
    title = (f"chaos: {payload['model']} on {payload['devices']} device(s) "
             f"@ {payload['rate_rps']} req/s, plan "
             f"{payload['plan'].get('name', '?')}")
    return render_table(
        ("policy", "scale", "offered", "done", "failed", "retries",
         "ejects", "goodput", "retention", "SLO"),
        rows, title=title)
