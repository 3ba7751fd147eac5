"""Serving metrics: latency percentiles, utilization, SLO attainment.

The collector receives completion/rejection callbacks from the fleet
event loop and reduces them to a :class:`ServingReport`: throughput,
p50/p95/p99 latency, queue depth, device utilization and SLO
attainment, renderable as a fixed-width table (via
:func:`repro.harness.report.render_table`) or exportable as JSON.

SLO targets are per model: ``max(min_slo_s, slo_multiplier x isolated
latency)``, i.e. a request meets its SLO when end-to-end latency stays
within a fixed multiple of the model's unloaded service time. Rejected
requests count as SLO violations — shedding load does not launder the
attainment number.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The exact nearest-rank estimator lives in telemetry.timeseries so the
# end-of-run report and the streaming monitor histograms share ONE rank
# rule; re-exported here because this module is its historical home.
from ..telemetry.timeseries import percentile
from .scheduler import ServiceCosts
from .workload import Request

DEFAULT_SLO_MULTIPLIER = 10.0
DEFAULT_MIN_SLO_S = 1e-3

#: Above this many devices the table collapses the per-device
#: utilization row to min / p50 / max (``--json`` keeps every device).
TABLE_DEVICE_LIMIT = 16


@dataclass
class ServingReport:
    """One simulation's results (plain data; picklable, JSON-able)."""
    # -- configuration echo -------------------------------------------------
    models: Tuple[str, ...]
    devices: int
    batch_policy: str
    max_batch: int
    max_wait_ms: float
    routing: str
    rate_rps: float                 # offered rate (0 for closed loop)
    duration_s: float
    # -- outcomes -----------------------------------------------------------
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    verify_rejected: int = 0        # refused: verification record dirty/missing
    #: Requests that never completed: stuck on a crashed device with no
    #: retry policy, or retried until the attempt/budget limit.
    failed: int = 0
    #: Completions whose outputs came from a corrupted resident program
    #: (counted in ``completed`` but excluded from goodput and SLO).
    bad_completions: int = 0
    retries: int = 0                # request re-routes after a timeout
    timeouts: int = 0               # per-request timeout expiries
    compile_retries: int = 0        # flaky compiles retried in place
    devices_ejected: int = 0        # circuit-breaker ejections
    devices_readmitted: int = 0     # cooldown re-admissions
    #: Injected-fault counts by kind (``device_crash``, ``tile_fault``,
    #: ``corrupt_program``, ...), plus ``corrupt_detected`` for the
    #: verifier's catches.
    faults: Dict[str, int] = field(default_factory=dict)
    makespan_s: float = 0.0
    throughput_rps: float = 0.0
    #: Good completions per second: completed, within SLO, and not
    #: produced by a corrupted program — the resilience headline number.
    goodput_rps: float = 0.0
    mean_latency_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0
    mean_batch_size: float = 0.0
    device_utilization: float = 0.0
    per_device_utilization: List[float] = field(default_factory=list)
    compiles: int = 0
    #: Fraction of launched batches that found their model's programs
    #: already resident on the device (no first-touch compile charge).
    compile_cache_hit_rate: float = 0.0
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER
    slo_ms: Dict[str, float] = field(default_factory=dict)
    slo_attainment: float = 0.0

    def as_dict(self) -> Dict:
        """Plain-dict form (models tuple flattened to a list)."""
        payload = dataclasses.asdict(self)
        payload["models"] = list(self.models)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys + trailing newline.

        Byte-equality of two reports' ``to_json`` output is the
        bit-identity oracle used by the determinism and legacy-vs-scaled
        tests — any float that differs in the last ulp shows up here.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        """Fixed-width metric/value table for the CLI."""
        from ..harness.report import render_table
        slo = ", ".join(f"{m} {ms:.2f}ms" for m, ms in self.slo_ms.items())

        def latency(value_ms: float):
            # percentile() returns 0.0 on an empty list; with zero
            # completions that is "no data", not a zero-millisecond
            # tail — render n/a so monitoring comparisons can't confuse
            # an idle fleet with an infinitely fast one.
            return value_ms if self.completed else "n/a"

        rows = [
            ("models", "+".join(self.models)),
            ("devices", self.devices),
            ("batch policy", f"{self.batch_policy} (max_batch="
                             f"{self.max_batch}, wait={self.max_wait_ms}ms)"),
            ("routing", self.routing),
            ("offered requests", self.offered),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("verify-rejected", self.verify_rejected),
            ("failed", self.failed),
            ("bad completions", self.bad_completions),
            ("retries (timeouts)", f"{self.retries} ({self.timeouts})"),
            ("faults injected",
             ", ".join(f"{k} {v}" for k, v in sorted(self.faults.items()))
             or "(none)"),
            ("devices ejected/readmitted",
             f"{self.devices_ejected} / {self.devices_readmitted}"),
            ("throughput (req/s)", self.throughput_rps),
            ("goodput (req/s)", self.goodput_rps),
            ("mean latency (ms)", latency(self.mean_latency_ms)),
            ("p50 latency (ms)", latency(self.p50_ms)),
            ("p95 latency (ms)", latency(self.p95_ms)),
            ("p99 latency (ms)", latency(self.p99_ms)),
            ("mean/max queue depth", f"{self.mean_queue_depth:.2f} / "
                                     f"{self.max_queue_depth}"),
            ("mean batch size", self.mean_batch_size),
            ("device utilization", self.device_utilization),
            ("per-device utilization", self._per_device_utilization()),
            ("first-touch compiles", self.compiles),
            ("compile-cache hit rate", self.compile_cache_hit_rate),
            ("SLO target", slo or "(none)"),
            ("SLO attainment", self.slo_attainment),
        ]
        title = (f"serving: {'+'.join(self.models)} on {self.devices} "
                 f"device(s), {self.batch_policy} batching")
        return render_table(("metric", "value"), rows, title=title)

    def _per_device_utilization(self) -> str:
        """One cell per device up to 16 devices, else the spread."""
        util = self.per_device_utilization
        if len(util) <= TABLE_DEVICE_LIMIT:
            return (", ".join(f"d{i} {u:.3f}" for i, u in enumerate(util))
                    or "(none)")
        lo = min(range(len(util)), key=util.__getitem__)
        hi = max(range(len(util)), key=util.__getitem__)
        return (f"min d{lo} {util[lo]:.3f} / "
                f"p50 {percentile(sorted(util), 50):.3f} / "
                f"max d{hi} {util[hi]:.3f}")


@dataclass
class LLMServingReport:
    """One LLM batching simulation's results (plain data, JSON-able).

    Decode-phase telemetry follows the LLM-serving convention: **TTFT**
    (time to first token — arrival through prefill and the first decode
    step) and **ITL** (inter-token latency — gaps between a request's
    consecutive tokens, which absorb other requests' prefill stalls
    under continuous batching). Goodput counts completions within
    ``slo_multiplier`` x the request's isolated (ideal) latency.
    """
    # -- configuration echo -------------------------------------------------
    scheduler: str                  # "continuous" | "oneshot"
    config: str                     # LLM config name
    max_slots: int
    kv_budget_tokens: int
    rate_rps: float
    duration_s: float
    slo_multiplier: float
    # -- outcomes -----------------------------------------------------------
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    makespan_s: float = 0.0
    throughput_rps: float = 0.0
    goodput_rps: float = 0.0
    slo_attainment: float = 0.0
    tokens_generated: int = 0
    tokens_per_s: float = 0.0
    mean_batch_size: float = 0.0    # mean active slots per decode step
    kv_peak_tokens: int = 0
    mean_latency_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    ttft_p50_ms: float = 0.0
    ttft_p95_ms: float = 0.0
    ttft_p99_ms: float = 0.0
    itl_p50_ms: float = 0.0
    itl_p95_ms: float = 0.0
    itl_p99_ms: float = 0.0

    def as_dict(self) -> Dict:
        """Plain-dict form for JSON export."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys + trailing newline."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        """Fixed-width metric/value table for the CLI."""
        from ..harness.report import render_table
        rows = [
            ("scheduler", self.scheduler),
            ("config", self.config),
            ("slots / KV budget (tokens)",
             f"{self.max_slots} / {self.kv_budget_tokens}"),
            ("offered rate (req/s)", self.rate_rps),
            ("offered / completed / rejected",
             f"{self.offered} / {self.completed} / {self.rejected}"),
            ("throughput (req/s)", self.throughput_rps),
            ("goodput (req/s)", self.goodput_rps),
            ("SLO attainment", self.slo_attainment),
            ("tokens/s", self.tokens_per_s),
            ("mean decode batch", self.mean_batch_size),
            ("KV peak (tokens)", self.kv_peak_tokens),
            ("latency p50/p95/p99 (ms)",
             f"{self.p50_ms:.3f} / {self.p95_ms:.3f} / {self.p99_ms:.3f}"),
            ("TTFT p50/p95/p99 (ms)",
             f"{self.ttft_p50_ms:.3f} / {self.ttft_p95_ms:.3f} / "
             f"{self.ttft_p99_ms:.3f}"),
            ("ITL p50/p95/p99 (ms)",
             f"{self.itl_p50_ms:.3f} / {self.itl_p95_ms:.3f} / "
             f"{self.itl_p99_ms:.3f}"),
        ]
        title = (f"llm serving: {self.config}, {self.scheduler} batching "
                 f"@ {self.rate_rps:g} req/s")
        return render_table(("metric", "value"), rows, title=title)


class MetricsCollector:
    """Accumulates per-request outcomes during one simulation."""

    def __init__(self, costs: ServiceCosts,
                 slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
                 min_slo_s: float = DEFAULT_MIN_SLO_S):
        """Derive per-model SLO targets; zero all counters."""
        self.costs = costs
        self.slo_multiplier = slo_multiplier
        self.slo_s = {m: max(min_slo_s,
                             slo_multiplier * costs.latency_s(m))
                      for m in costs.models()}
        self.latencies_ms: List[float] = []
        self.offered = 0
        self.rejected = 0
        self.verify_rejected = 0
        self.failed = 0
        self.bad_completions = 0
        self.retries = 0
        self.timeouts = 0
        self.compile_retries = 0
        self.devices_ejected = 0
        self.devices_readmitted = 0
        self.faults: Dict[str, int] = {}
        self.slo_met = 0
        self.batches: List[int] = []
        self.queue_samples: List[int] = []
        self.max_queue = 0
        self.compiles = 0
        self.last_finish_s = 0.0

    def note_arrival(self, fleet_queue_depth: int) -> None:
        """One offered request, sampling fleet queue depth at arrival."""
        self.offered += 1
        self.queue_samples.append(fleet_queue_depth)
        self.max_queue = max(self.max_queue, fleet_queue_depth)

    def note_reject(self, request: Request, now_s: float) -> None:
        """Admission-control shed: the queue was full."""
        self.rejected += 1

    def note_verify_reject(self, request: Request, now_s: float) -> None:
        """Admission refusal: no clean static-verification record.

        Counts toward ``rejected`` too — an unverified model's requests
        are shed load, and they fail their SLO like any other reject.
        """
        self.rejected += 1
        self.verify_rejected += 1

    def note_batch(self, size: int) -> None:
        """One launched batch of ``size`` requests."""
        self.batches.append(size)

    def note_complete(self, request: Request, finish_s: float,
                      born_s: Optional[float] = None,
                      bad: bool = False) -> None:
        """One completion; latency runs from the *original* arrival.

        ``born_s`` is the first-attempt arrival time for retried
        requests — a retry must not launder its queueing history out of
        the latency distribution. ``bad`` marks a completion produced
        by a corrupted resident program: it counts as completed (the
        device did the work) but never as good.
        """
        start_s = request.arrival_s if born_s is None else born_s
        latency_s = finish_s - start_s
        self.latencies_ms.append(latency_s * 1e3)
        if bad:
            self.bad_completions += 1
        elif latency_s <= self.slo_s[request.model]:
            self.slo_met += 1
        self.last_finish_s = max(self.last_finish_s, finish_s)

    def note_failed(self, request: Request) -> None:
        """A request that will never complete (crash loss / retries out)."""
        self.failed += 1

    def note_fault(self, kind: str, count: int = 1) -> None:
        """Tally an injected fault by kind (chaos runs only)."""
        self.faults[kind] = self.faults.get(kind, 0) + count

    def report(self, *, models: Tuple[str, ...], devices: int,
               batch_policy: str, max_batch: int, max_wait_ms: float,
               routing: str, rate_rps: float, duration_s: float,
               busy_s: List[float]) -> ServingReport:
        """Reduce the accumulated counters to a :class:`ServingReport`.

        All rates normalize against ``max(last_finish, duration)`` so
        runs that drain past the traffic horizon are not flattered; the
        scaled core (:mod:`repro.serving.scale`) replicates this
        arithmetic term for term to stay bit-identical.
        """
        latencies = sorted(self.latencies_ms)
        completed = len(latencies)
        makespan = max(self.last_finish_s, duration_s)
        horizon = makespan if makespan > 0 else 1.0
        return ServingReport(
            models=models,
            devices=devices,
            batch_policy=batch_policy,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            routing=routing,
            rate_rps=rate_rps,
            duration_s=duration_s,
            offered=self.offered,
            completed=completed,
            rejected=self.rejected,
            verify_rejected=self.verify_rejected,
            failed=self.failed,
            bad_completions=self.bad_completions,
            retries=self.retries,
            timeouts=self.timeouts,
            compile_retries=self.compile_retries,
            devices_ejected=self.devices_ejected,
            devices_readmitted=self.devices_readmitted,
            faults=dict(sorted(self.faults.items())),
            makespan_s=makespan,
            throughput_rps=completed / horizon,
            goodput_rps=self.slo_met / horizon,
            mean_latency_ms=(sum(latencies) / completed
                             if completed else 0.0),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            mean_queue_depth=(sum(self.queue_samples)
                              / len(self.queue_samples)
                              if self.queue_samples else 0.0),
            max_queue_depth=self.max_queue,
            mean_batch_size=(sum(self.batches) / len(self.batches)
                             if self.batches else 0.0),
            device_utilization=(sum(busy_s) / (len(busy_s) * horizon)
                                if busy_s else 0.0),
            per_device_utilization=[b / horizon for b in busy_s],
            compiles=self.compiles,
            compile_cache_hit_rate=(1.0 - self.compiles / len(self.batches)
                                    if self.batches else 0.0),
            slo_multiplier=self.slo_multiplier,
            slo_ms={m: s * 1e3 for m, s in self.slo_s.items()},
            slo_attainment=(self.slo_met / self.offered
                            if self.offered else 0.0),
        )
