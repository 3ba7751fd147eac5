"""Streaming-monitoring shape assertions + BENCH_monitoring.json.

One seeded incident and two healthy controls, all on the monitored
fleet simulator:

* **crash run** — BERT on 6 devices at 120 req/s for 20 s under a
  1 %/s-per-device crash hazard with 6 s outages (plan ``mon-crash-a``;
  under the pinned seed the first crash lands mid-run). The page
  burn-rate alert must fire within the detection-latency bound of the
  first crash — one SLO deadline for the miss to surface plus the
  2 s long page window plus one short window of slack — and every
  alert must resolve after the outage ends (the post-run drain).
* **fault-free runs** — the same fleet serving a bert+resnet50 zoo mix,
  and the continuous-batching LLM engine at light load, must fire
  exactly zero alerts: a monitor that pages on a healthy fleet is
  worse than no monitor.
* **determinism** — the full sample + alert streams are byte-identical
  between serial and ``--jobs 2`` execution.
* **overhead** — a warm monitored ``repro serve`` subprocess stays
  within 5 % (plus a small absolute slack for process noise) of the
  unmonitored command, because monitoring is observational.  Next to
  that gate, a paired, interleaved, in-process median-of-N ratio of
  monitored to unmonitored run time — for the crash run's fleet core
  and for ``ContinuousBatcher.run`` at the busiest ``gpt2_rms`` point
  of the default ladder — shows the monitor's own cost, which the
  subprocess's imports and cache load hide.

The measured numbers land in ``BENCH_monitoring.json`` at the repo
root so the detection-latency trajectory is visible across PRs.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_ARTIFACT = REPO_ROOT / "BENCH_monitoring.json"

#: A fixed scenario, not a property over all seeds: pin the seed so the
#: sampled crash schedule (and hence the alert stream) is reproducible.
SEED = "12345"
OVERHEAD_BAR = 0.05
#: Pairs per in-process ratio; which side runs first alternates.
RATIO_PAIRS = 7


def _points():
    from repro.faults import CrashSpec, FaultPlan
    from repro.serving import (
        FleetRun,
        MonitorConfig,
        OpenLoopPoisson,
        ServiceCosts,
    )

    costs = ServiceCosts.resolve(["bert"])
    zoo_costs = ServiceCosts.resolve(["bert", "resnet50"])
    plan = FaultPlan(name="mon-crash-a",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=6.0))
    crash = FleetRun(costs, OpenLoopPoisson(("bert",), 120.0, 20.0),
                     devices=6, routing="round_robin", fault_plan=plan,
                     monitor_config=MonitorConfig())
    zoo = FleetRun(zoo_costs,
                   OpenLoopPoisson(("bert", "resnet50"), 60.0, 20.0),
                   devices=6, routing="round_robin",
                   monitor_config=MonitorConfig())
    return plan, crash, zoo



def _serve_seconds(monitored, runs=2):
    """Warm wall time of a ``repro serve`` subprocess (min over runs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_SEED"] = SEED
    env.pop("REPRO_MONITOR", None)
    command = [sys.executable, "-m", "repro", "serve", "--model", "bert",
               "--devices", "6", "--rate", "120", "--duration", "20"]
    if monitored:
        command.append("--monitor")
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(command, capture_output=True, env=env,
                       cwd=REPO_ROOT, check=True)
        best = min(best, time.perf_counter() - start)
    return best


def _busiest_llm_point():
    """The busiest continuous point of the default ``gpt2_rms`` ladder
    (the point ``repro serve --llm --monitor`` re-runs monitored)."""
    from repro.llm import llm_grid
    from repro.serving import LLMServiceCosts
    points = llm_grid(costs=LLMServiceCosts.resolve("gpt2_rms"),
                      schedulers=("continuous",))
    return max(points, key=lambda p: p.rate_rps)


def _paired_ratio(plain, monitored, pairs=RATIO_PAIRS):
    """Median monitored/plain wall ratio over interleaved pairs."""
    ratios = []
    for index in range(pairs):
        seconds = {}
        for side in ((plain, monitored) if index % 2 == 0
                     else (monitored, plain)):
            start = time.perf_counter()
            side()
            seconds[side] = time.perf_counter() - start
        ratios.append(seconds[monitored] / seconds[plain])
    return statistics.median(ratios), ratios


def _in_process_ratios(crash_point):
    from repro.serving import (
        MonitorConfig,
        llm_poisson_requests,
        make_llm_batcher,
        run_fleet,
    )
    plain_point = replace(crash_point, monitor_config=None)
    point = _busiest_llm_point()
    requests = llm_poisson_requests(point.rate_rps, point.duration_s,
                                    point.prompt_range, point.output_range,
                                    point.stream)

    def llm(config):
        return lambda: make_llm_batcher(
            "continuous", point.costs, max_slots=point.max_slots,
            monitor_config=config).run(requests, rate_rps=point.rate_rps,
                                       duration_s=point.duration_s)
    fleet = _paired_ratio(lambda: run_fleet(plain_point),
                          lambda: run_fleet(crash_point))
    continuous = _paired_ratio(llm(None), llm(MonitorConfig()))
    return {
        "pairs": RATIO_PAIRS,
        "fleet_serve": {"median": round(fleet[0], 3),
                        "ratios": [round(r, 3) for r in fleet[1]]},
        "llm_continuous": {"rate_rps": point.rate_rps,
                           "median": round(continuous[0], 3),
                           "ratios": [round(r, 3) for r in continuous[1]]},
    }


def test_crash_detection_quiet_controls_and_overhead(benchmark,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_SEED", SEED)
    from repro.faults import FaultInjector
    from repro.runtime import parallel_map
    from repro.serving import (
        DEFAULT_SLO_MULTIPLIER,
        run_fleet,
        validate_monitor_report,
    )

    plan, crash_point, zoo_point = _points()
    results = benchmark.pedantic(
        lambda: parallel_map(run_fleet, [crash_point, zoo_point], jobs=1),
        rounds=1, iterations=1)
    (_, _, monitor), (_, _, zoo_monitor) = results
    for _, _, payload in results:
        assert validate_monitor_report(payload) == []

    # -- the crash run pages within the detection-latency bound --------
    injector = FaultInjector(plan, devices=6, duration_s=20.0)
    assert injector.crashes, "plan sampled no crashes; scenario is vacuous"
    first_crash_s = injector.crashes[0][0]
    assert first_crash_s < 15.0, (
        f"first crash at {first_crash_s:.2f}s leaves no run to observe")
    pages = [e for e in monitor["alerts"]
             if e["severity"] == "page" and e["kind"] == "fire"]
    assert pages, "seeded crash never paged"
    slo_s = (DEFAULT_SLO_MULTIPLIER
             * crash_point.costs.latency_s("bert"))
    page_rule = next(r for r in monitor["rules"]
                     if r["name"] == pages[0]["rule"])
    bound_s = slo_s + page_rule["long_window_s"] + page_rule["short_window_s"]
    detection_s = pages[0]["t_s"] - first_crash_s
    assert 0.0 < detection_s <= bound_s, (
        f"page fired {detection_s:.2f}s after the crash "
        f"(bound {bound_s:.2f}s)")

    # -- and resolves after recovery -----------------------------------
    recovery_s = first_crash_s + plan.crash.outage_s
    resolves = [e for e in monitor["alerts"] if e["kind"] == "resolve"]
    assert resolves, "alerts never resolved"
    assert monitor["active_alerts"] == [], (
        f"still firing after the drain: {monitor['active_alerts']}")
    assert all(e["t_s"] > recovery_s for e in resolves), (
        "an alert resolved while the first outage was still active")
    fires = [e for e in monitor["alerts"] if e["kind"] == "fire"]
    assert all(e["t_s"] >= first_crash_s for e in fires), (
        "an alert fired before any fault was injected")

    # -- fault-free runs stay silent -----------------------------------
    assert zoo_monitor["alerts"] == [], "healthy zoo mix paged"
    assert zoo_monitor["slo"]["bad"] == 0
    llm_payload = _llm_monitor_payload()
    assert validate_monitor_report(llm_payload) == []
    assert llm_payload["alerts"] == [], "healthy LLM engine paged"
    assert llm_payload["slo"]["bad"] == 0

    # -- determinism: serial vs --jobs, byte for byte ------------------
    forked = parallel_map(run_fleet, [crash_point, zoo_point], jobs=2)
    serial_json = json.dumps([(p, m) for _, p, m in results], sort_keys=True)
    assert json.dumps([(p, m) for _, p, m in forked],
                      sort_keys=True) == serial_json

    # -- observational overhead at the serve-command level -------------
    plain_s = _serve_seconds(monitored=False)
    monitored_s = _serve_seconds(monitored=True)
    overhead = monitored_s / plain_s - 1.0
    # Same discipline (and slack) as the telemetry gate: the bar is
    # relative, the absolute term absorbs subprocess start-up noise.
    assert monitored_s <= (1.0 + OVERHEAD_BAR) * plain_s + 0.3, (
        f"monitoring added {monitored_s - plain_s:.2f}s to a "
        f"{plain_s:.2f}s serve run")
    in_process = _in_process_ratios(crash_point)

    BENCH_ARTIFACT.write_text(json.dumps({
        "model": "bert",
        "devices": 6,
        "rate_rps": 120.0,
        "duration_s": 20.0,
        "seed": int(SEED),
        "plan": plan.name,
        "first_crash_s": round(first_crash_s, 3),
        "detection_latency_s": round(detection_s, 3),
        "detection_bound_s": round(bound_s, 3),
        "alerts": monitor["alerts"],
        "alert_counts": monitor["counts"],
        "fault_free_zoo_alerts": len(zoo_monitor["alerts"]),
        "fault_free_llm_alerts": len(llm_payload["alerts"]),
        "serial_vs_jobs_identical": True,
        "overhead_bar": OVERHEAD_BAR,
        "serve_seconds": {
            "plain": round(plain_s, 3),
            "monitored": round(monitored_s, 3),
        },
        "monitored_overhead": round(overhead, 3),
        "in_process_monitored_ratio": in_process,
    }, indent=2) + "\n")


def _llm_monitor_payload():
    from repro.serving import (
        LLMServiceCosts,
        MonitorConfig,
        llm_poisson_requests,
        make_llm_batcher,
    )
    costs = LLMServiceCosts.resolve("gpt2_rms")
    requests = llm_poisson_requests(4.0, 8.0, (8, 32), (8, 32), 0)
    batcher = make_llm_batcher("continuous", costs,
                               monitor_config=MonitorConfig())
    batcher.run(requests, rate_rps=4.0, duration_s=8.0)
    return batcher.monitor_payload


def test_monitoring_slo_experiment_shapes(benchmark):
    """The registered harness experiment reports every shape as met."""
    from repro.harness import run_experiment
    experiment = benchmark.pedantic(run_experiment,
                                    args=("monitoring_slo",),
                                    rounds=1, iterations=1)
    for metric, (expected, got) in experiment.summary.items():
        if expected is True:
            assert got is True, f"{metric}: expected True, measured {got}"
    paper_bound, measured_latency = experiment.summary[
        "detection_latency_within_bound_s"]
    assert 0.0 < measured_latency <= paper_bound
    rendered = experiment.render()
    assert "alert log" in rendered
    assert "page-fast-burn" in rendered
