"""Golden fixtures for the serving event core's fault, monitor and trace paths.

``fixtures/serving_golden.json`` was recorded from the per-request-object
``FleetSimulator`` while it still implemented fault plans, resilience,
the monitor and the trace log, before those paths moved into the
interned-record core. Every case here replays through
:class:`~repro.serving.scale.ScaledFleetSimulator` at ``cells=1`` and
must reproduce, for each case:

* the ``ServingReport`` JSON, byte for byte;
* the ``repro-monitor-report-v1`` payload and the request-lifecycle
  trace log (sha256 of their canonical JSON, plus the trace's entry
  counts by kind so a mismatch says where to look);
* the telemetry counters the run emits;
* the same report with the monitor and the trace log off.

The matrix: five single-fault plans plus a slowdown-heavy mixed plan,
under the ``naive`` and ``resilient`` policies and all three routings;
a closed loop under the mixed plan; an unverified model; a tiny
admission queue; and one ``repro serve --faults --monitor --trace-out``
CLI run on hand-set costs.

Run this file as a script to re-record the fixture from the current
core (only when a change to the serving semantics is intended).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.faults.plan import (
    BurstSpec,
    CorruptSpec,
    CrashSpec,
    FlakyCompileSpec,
    SlowdownSpec,
    TileFaultSpec,
)
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    ClosedLoop,
    ModelCost,
    MonitorConfig,
    OpenLoopPoisson,
    ResiliencePolicy,
    ScaledFleetSimulator,
    ServiceCosts,
)
from repro.telemetry import scoped_telemetry

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "serving_golden.json"
SEED = "12345"

COSTS = ServiceCosts(
    costs={"a": ModelCost(0.010, 0.004, True, 4),
           "b": ModelCost(0.006, 0.003, True, 2)},
    amortized_fraction=0.4)
UNVERIFIED_COSTS = ServiceCosts(
    costs=dict(COSTS.costs, u=ModelCost(0.008, 0.002, False, 1)),
    amortized_fraction=0.4)

PLANS = {
    "crash": FaultPlan(name="g-crash", crash=CrashSpec(
        p_per_device_s=0.4, outage_s=0.5, at=((0, 0.25),))),
    "burst": FaultPlan(name="g-burst", burst=BurstSpec(
        p_per_s=1.5, size=12, at=(0.5,))),
    "flaky": FaultPlan(name="g-flaky",
                       flaky_compile=FlakyCompileSpec(p=0.6)),
    "corrupt": FaultPlan(name="g-corrupt", corrupt=CorruptSpec(
        p_per_download=0.6, detection_rate=0.5)),
    "tile": FaultPlan(name="g-tile", tile_fault=TileFaultSpec(
        p_per_batch=0.3, tiles=3)),
    "mixed": FaultPlan(
        name="g-mixed",
        crash=CrashSpec(p_per_device_s=0.2, outage_s=None,
                        at=((1, 0.6),)),
        slowdown=SlowdownSpec(p_per_device_s=0.5, factor=3.0,
                              duration_s=0.3, at=((2, 0.1),)),
        flaky_compile=FlakyCompileSpec(p=0.2),
        corrupt=CorruptSpec(p_per_download=0.2, detection_rate=0.7),
        tile_fault=TileFaultSpec(p_per_batch=0.1, tiles=1),
        burst=BurstSpec(p_per_s=1.0, size=6)),
}
POLICIES = {"naive": ResiliencePolicy.naive(),
            "resilient": ResiliencePolicy()}
ROUTINGS = ("round_robin", "least_loaded", "model_affinity")


def _open_loop(models=("a", "b")):
    return OpenLoopPoisson(models, 300.0, 1.5)


def _closed_loop():
    return ClosedLoop(("a", "b"), clients=8, duration_s=1.0, think_s=0.003)


def cases():
    """``{case id: (simulator kwargs, workload factory)}``, stable order."""
    out = {}
    for plan_name, plan in PLANS.items():
        for policy_name, policy in POLICIES.items():
            for routing in ROUTINGS:
                out[f"{plan_name}-{policy_name}-{routing}"] = (
                    dict(costs=COSTS, devices=3, routing=routing,
                         fault_plan=plan, resilience=policy),
                    _open_loop)
    for policy_name, policy in POLICIES.items():
        out[f"closed-mixed-{policy_name}"] = (
            dict(costs=COSTS, devices=3, routing="least_loaded",
                 batch_policy=BatchPolicy("greedy"),
                 fault_plan=PLANS["mixed"], resilience=policy),
            _closed_loop)
    out["unverified-crash-burst-resilient"] = (
        dict(costs=UNVERIFIED_COSTS, devices=2, routing="round_robin",
             fault_plan=FaultPlan(
                 name="g-unverified",
                 crash=CrashSpec(at=((0, 0.4),), outage_s=0.3),
                 burst=BurstSpec(size=9, at=(0.2, 0.9))),
             resilience=ResiliencePolicy()),
        lambda: _open_loop(("a", "b", "u")))
    out["tiny-queue-burst-resilient"] = (
        dict(costs=COSTS, devices=2, routing="least_loaded",
             admission=AdmissionPolicy(max_queue=3),
             batch_policy=BatchPolicy("single"),
             fault_plan=PLANS["burst"],
             resilience=ResiliencePolicy(eject_threshold=1)),
        _open_loop)
    return out


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(simulator, kwargs, workload):
    """One case, monitored + traced + counted, and once plain."""
    kwargs = dict(kwargs)
    costs = kwargs.pop("costs")
    sim = simulator(costs, collect_trace=True,
                    monitor_config=MonitorConfig(), **kwargs)
    with scoped_telemetry() as tel:
        report = sim.run(workload(), rate_rps=300.0)
    plain = simulator(costs, **kwargs).run(workload(), rate_rps=300.0)
    return {
        "report": report.as_dict(),
        "plain_report_equal": plain.to_json() == report.to_json(),
        "monitor_sha256": digest(sim.monitor_payload),
        "alerts": len(sim.monitor_payload["alerts"]),
        "trace_sha256": digest(sim.trace_log),
        "trace_kinds": dict(sorted(Counter(
            e["kind"] for e in sim.trace_log).items())),
        "counters": tel.counters.as_dict(),
    }


CLI_PLAN = FaultPlan(
    name="g-cli",
    crash=CrashSpec(p_per_device_s=0.3, outage_s=0.6, at=((0, 0.3),)),
    tile_fault=TileFaultSpec(p_per_batch=0.2, tiles=2),
    burst=BurstSpec(size=10, at=(0.7,)),
    flaky_compile=FlakyCompileSpec(p=0.3))
CLI_COSTS = ServiceCosts(
    costs={"bert": ModelCost(0.010, 0.004, True, 4),
           "tinynet": ModelCost(0.006, 0.003, True, 2)},
    amortized_fraction=0.4)


def run_cli_case(workdir: Path):
    """``repro serve --faults --monitor --trace-out`` on hand-set costs."""
    plan_path = workdir / "plan.json"
    plan_path.write_text(CLI_PLAN.to_json())
    files = {name: workdir / f"{name}.json"
             for name in ("report", "monitor", "trace")}
    argv = ["serve", "--model", "bert,tinynet", "--devices", "3",
            "--rate", "300", "--duration", "1.5",
            "--faults", str(plan_path), "--monitor",
            "--monitor-out", str(files["monitor"]),
            "--trace-out", str(files["trace"]),
            "--json", str(files["report"])]
    out = io.StringIO()
    resolve = classmethod(lambda cls, models, *args, **kw: CLI_COSTS)
    with mock.patch.object(ServiceCosts, "resolve", resolve), \
            contextlib.redirect_stdout(out):
        code = main(argv)
    stdout = "".join(line for line in out.getvalue().splitlines(True)
                     if not line.startswith("wrote "))
    trace = json.loads(files["trace"].read_text())
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "report": json.loads(files["report"].read_text()),
        "monitor_sha256": digest(json.loads(files["monitor"].read_text())),
        "trace_sha256": digest(trace),
        "counters": trace["otherData"]["counters"],
    }


def record(simulator):
    """The whole fixture, produced by ``simulator``'s class."""
    with tempfile.TemporaryDirectory() as tmp:
        cli = run_cli_case(Path(tmp))
    return {"seed": int(SEED),
            "cases": {case_id: run_case(simulator, kwargs, workload)
                      for case_id, (kwargs, workload) in cases().items()},
            "cli": cli}


# ---------------------------------------------------------------------------
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", SEED)
    for knob in ("REPRO_MONITOR", "REPRO_MONITOR_INTERVAL",
                 "REPRO_AUTOSCALE"):
        monkeypatch.delenv(knob, raising=False)


def test_fixture_covers_every_case():
    assert GOLDEN["seed"] == int(SEED)
    assert sorted(GOLDEN["cases"]) == sorted(cases())


@pytest.mark.parametrize("case_id", list(cases()))
def test_core_reproduces_golden_case(case_id):
    kwargs, workload = cases()[case_id]
    got = run_case(ScaledFleetSimulator, kwargs, workload)
    want = GOLDEN["cases"][case_id]
    assert got["report"] == want["report"]
    assert json.dumps(got["report"], indent=2, sort_keys=True) == \
        json.dumps(want["report"], indent=2, sort_keys=True)
    assert got["plain_report_equal"] and want["plain_report_equal"]
    assert got["trace_kinds"] == want["trace_kinds"]
    assert got["trace_sha256"] == want["trace_sha256"]
    assert got["alerts"] == want["alerts"]
    assert got["monitor_sha256"] == want["monitor_sha256"]
    assert got["counters"] == want["counters"]


def test_cli_faults_monitor_trace_run_reproduces_golden(tmp_path):
    got = run_cli_case(tmp_path)
    want = GOLDEN["cli"]
    assert got["exit"] == want["exit"] == 0
    assert got["report"] == want["report"]
    assert got["counters"] == want["counters"]
    assert got["monitor_sha256"] == want["monitor_sha256"]
    assert got["trace_sha256"] == want["trace_sha256"]
    assert got["stdout_sha256"] == want["stdout_sha256"]


def test_golden_matrix_exercises_every_fault_path():
    kinds = Counter()
    for case in GOLDEN["cases"].values():
        kinds.update(case["trace_kinds"])
    for kind in ("crash", "recover", "timeout", "retry", "retry-exhausted",
                 "eject", "readmit", "shed", "queue-burst", "queue-reject",
                 "verify-reject", "compile-retry", "compile-fail",
                 "corrupt-detected", "corrupt-undetected", "tile-fault"):
        assert kinds[kind] > 0, kind
    assert any(case["alerts"] for case in GOLDEN["cases"].values())


if __name__ == "__main__":
    os.environ["REPRO_SEED"] = SEED
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(ScaledFleetSimulator), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
