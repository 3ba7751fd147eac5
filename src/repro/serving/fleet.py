"""The fault-free reference fleet: one ``Request`` object per request.

Each device owns a FIFO queue, a busy-until clock, a per-device
"compile cache" (the set of models whose programs are already resident)
and a busy-time accumulator. The simulator advances a heap of timed
events — request arrivals, device-free transitions and batch timers —
and consults :func:`repro.serving.scheduler.plan_batch` whenever a
device might be able to launch.

This is the *reference* for the serving event core,
:class:`~repro.serving.scale.ScaledFleetSimulator`, which every caller
uses. It implements the fault-free semantics the plain way, so two
checks can compare the interned core against it: the bit-identity tests
in ``tests/test_scale.py`` (byte-identical report JSON at ``cells=1``)
and the ``BENCH_fleet_scale`` speed gate. Faults, resilience, the
monitor, the trace log, cells and autoscaling live only in the core.

Everything is deterministic: the event heap breaks time ties by
insertion order, and no wall clock or unseeded RNG is consulted.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .metrics import (
    DEFAULT_MIN_SLO_S,
    DEFAULT_SLO_MULTIPLIER,
    MetricsCollector,
    ServingReport,
)
from .scale import ROUTING_POLICIES
from .scheduler import (
    AdmissionPolicy,
    BatchPolicy,
    Launch,
    ServiceCosts,
    Wait,
    plan_batch,
)
from .workload import Request, Workload

_ARRIVAL, _FREE, _TIMER = range(3)


@dataclass
class DeviceState:
    queue: List[Request] = field(default_factory=list)
    busy_until_s: float = 0.0
    busy_s: float = 0.0
    compiled: Set[str] = field(default_factory=set)
    timer_at_s: Optional[float] = None
    backlog_clear_s: float = 0.0   # router's work-conserving estimate


class Router:
    """Arrival-time device choice."""

    def __init__(self, kind: str, devices: int, costs: ServiceCosts):
        if kind not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing {kind!r}; "
                             f"known: {', '.join(ROUTING_POLICIES)}")
        self.kind = kind
        self.devices = devices
        self.costs = costs
        self._next = 0

    def route(self, fleet: List[DeviceState], request: Request,
              now_s: float) -> int:
        """The target device index."""
        if self.kind == "round_robin":
            index = self._next
            self._next = (index + 1) % self.devices
        elif self.kind == "model_affinity":
            index = zlib.crc32(request.model.encode("utf-8")) % self.devices
        else:  # least_loaded
            index = min(range(self.devices),
                        key=lambda d: (fleet[d].backlog_clear_s,
                                       len(fleet[d].queue), d))
        device = fleet[index]
        start = max(device.backlog_clear_s, now_s)
        device.backlog_clear_s = start + self.costs.latency_s(request.model)
        return index


class FleetSimulator:
    """N devices + router + batcher, driven by one event heap."""

    def __init__(self, costs: ServiceCosts, devices: int = 1,
                 batch_policy: Optional[BatchPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 routing: str = "least_loaded",
                 slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
                 min_slo_s: float = DEFAULT_MIN_SLO_S,
                 require_verified: bool = True):
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing {routing!r}; "
                             f"known: {', '.join(ROUTING_POLICIES)}")
        self.costs = costs
        self.devices = devices
        self.policy = batch_policy or BatchPolicy()
        self.admission = admission or AdmissionPolicy()
        self.routing = routing
        self.slo_multiplier = slo_multiplier
        self.min_slo_s = min_slo_s
        self.require_verified = require_verified

    def _push(self, when_s: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (when_s, self._seq, kind, payload))
        self._seq += 1

    def run(self, workload: Workload, rate_rps: float = 0.0
            ) -> ServingReport:
        fleet = [DeviceState() for _ in range(self.devices)]
        router = Router(self.routing, self.devices, self.costs)
        collector = MetricsCollector(self.costs, self.slo_multiplier,
                                     self.min_slo_s)
        self._events: List[Tuple] = []
        self._seq = 0
        for request in sorted(workload.initial(),
                              key=lambda r: (r.arrival_s, r.rid)):
            self._push(request.arrival_s, _ARRIVAL, request)

        while self._events:
            now_s, _, kind, payload = heapq.heappop(self._events)
            if kind == _ARRIVAL:
                self._on_arrival(fleet, router, collector, workload,
                                 payload, now_s)
            elif kind == _FREE:
                index, batch = payload
                for request in batch:
                    collector.note_complete(request, now_s)
                    self._follow_up(workload, request, now_s)
                self._dispatch(fleet, collector, index, now_s)
            else:  # _TIMER
                fleet[payload].timer_at_s = None
                self._dispatch(fleet, collector, payload, now_s)

        return collector.report(
            models=self.costs.models(),
            devices=self.devices,
            batch_policy=self.policy.kind,
            max_batch=self.policy.effective_max_batch,
            max_wait_ms=self.policy.max_wait_ms,
            routing=self.routing,
            rate_rps=rate_rps,
            duration_s=workload.duration_s,
            busy_s=[device.busy_s for device in fleet])

    def _follow_up(self, workload, request: Request, now_s: float) -> None:
        follow_up = workload.on_complete(request, now_s)
        if follow_up is not None:
            self._push(follow_up.arrival_s, _ARRIVAL, follow_up)

    def _on_arrival(self, fleet, router, collector, workload,
                    request: Request, now_s: float) -> None:
        collector.note_arrival(sum(len(d.queue) for d in fleet))
        if self.require_verified and not self.costs.is_verified(request.model):
            collector.note_verify_reject(request, now_s)
            self._follow_up(workload, request, now_s)
            return
        index = router.route(fleet, request, now_s)
        device = fleet[index]
        if len(device.queue) >= self.admission.max_queue:
            collector.note_reject(request, now_s)
            self._follow_up(workload, request, now_s)
            return
        device.queue.append(request)
        self._dispatch(fleet, collector, index, now_s)

    def _dispatch(self, fleet, collector, index: int, now_s: float) -> None:
        device = fleet[index]
        if device.busy_until_s > now_s or not device.queue:
            return
        decision = plan_batch(device.queue, now_s, self.policy)
        if isinstance(decision, Wait):
            if device.timer_at_s is None or \
                    device.timer_at_s > decision.until_s:
                device.timer_at_s = decision.until_s
                self._push(decision.until_s, _TIMER, index)
            return
        if not isinstance(decision, Launch):
            return
        batch = device.queue[:decision.count]
        del device.queue[:decision.count]
        model = batch[0].model
        service_s = self.costs.batch_service_s(model, len(batch))
        if model not in device.compiled:
            service_s += self.costs.compile_s(model)
            device.compiled.add(model)
            collector.compiles += 1
        finish_s = now_s + service_s
        device.busy_until_s = finish_s
        device.busy_s += service_s
        collector.note_batch(len(batch))
        self._push(finish_s, _FREE, (index, batch))
