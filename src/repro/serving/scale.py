"""The serving event core: interned request records, one merged stream.

:class:`ScaledFleetSimulator` is the one implementation of the fleet's
serving semantics — routing, admission, dynamic batching, first-touch
compiles, fault injection and the resilience policy, the streaming
monitor, the request-lifecycle trace log, cells and autoscaling.  It is
built for 1000-device fleets:

* **Interned request records** — requests live in parallel arrays
  (arrival time, model index, one status byte), not objects; a request
  *is* its slot index.  Follow-up requests (closed loop) and injected
  queue bursts append slots.  Retries keep per-slot ``born``
  (first-arrival time), ``attempts`` and ``loc`` (device) arrays,
  allocated only under the ``resilient`` policy.
* **One merged event stream** — the initial arrivals are already a
  sorted array, so they are consumed through a pointer instead of being
  materialised as heap entries; only *dynamic* events (batch
  completions, batch timers, follow-up and retry arrivals, crashes,
  recoveries, timeouts, re-admissions) touch the heap.  The merge keeps
  the ``(time, push-order)`` total order: arrival *i* carries implicit
  sequence number *i*, the fault plan's crashes and then its burst
  arrivals take the next numbers, and dynamic events count up from
  there.
* **Batched, incremental accounting** — fleet queue depth, batch-size
  and queue-depth statistics are O(1) running aggregates instead of
  per-arrival fleet scans and per-event list appends.
* **Hierarchical cell routing** — devices are grouped into equal
  contiguous *cells*; routing picks a cell (round-robin over active
  cells, or a stable model hash), then a device inside it, so the
  per-arrival cost is O(cell size), not O(fleet).  While the circuit
  breaker has a device ejected, routing probes for an admitted device
  inside the picked cell and moves on to the next active cell when that
  cell has none; it sheds only when no active cell has one.

Routing policies (chosen at arrival time, deterministically):

* ``round_robin`` — arrival *i* goes to device *i* mod N (per cell).
* ``least_loaded`` — the device whose estimated backlog clears first
  (estimates use isolated latencies, so batching only makes them
  conservative).
* ``model_affinity`` — a stable hash of the model name pins each model
  to one device, maximizing per-device compile-cache hits.

Fault handling is split between the injector (what goes wrong, decided
by the plan + ``REPRO_SEED``) and the
:class:`~repro.serving.scheduler.ResiliencePolicy` (how the fleet
responds: timeouts + retry with exponential backoff and a retry budget,
tile-granularity re-execution, compile retries, verified downloads,
eject/re-admit health tracking).  The ``naive`` policy keeps every
mechanism off.  The monitor and the trace log are observational: with
either on or off, the :class:`~repro.serving.metrics.ServingReport` is
byte-identical.

**Reference contract**: with ``cells=1``, autoscaling off and no fault
plan, a run is *bit-identical* to the per-request-object reference
:class:`~repro.serving.fleet.FleetSimulator` — same event order, same
float arithmetic, byte-identical report JSON (pinned by
``tests/test_scale.py`` and ``BENCH_fleet_scale.json``).  The fault,
resilience, monitor and trace paths are pinned to golden fixtures by
``tests/test_serving_golden.py``.

On top of the core, an optional
:class:`~repro.serving.autoscale.AutoscaleConfig` activates cells on
SLO burn-rate and queue-depth signals and drains them in quiet
troughs; the run then carries a ``repro-fleet-scale-report-v1``
payload with the decision log, cell timeline, and the $/device-hour
cost accounting (:func:`validate_fleet_scale_report` checks its
shape).

:class:`FleetRun` describes one run as the core's own constructor
arguments plus the seeded workload, and :func:`run_fleet` runs it: the
``serving_sweep`` grid, chaos ladders, the monitored runs and the
autoscaled determinism checks are all lists of ``FleetRun`` mapped
through that one picklable function.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..runtime.seed import repro_seed
from ..telemetry import get_telemetry
from ..telemetry.timeseries import percentile
from .autoscale import AUTOSCALE_ACTIONS, AutoscaleConfig, AutoscaleController
from .metrics import (
    DEFAULT_MIN_SLO_S,
    DEFAULT_SLO_MULTIPLIER,
    ServingReport,
)
from .monitor import FleetMonitor, MonitorConfig
from .scheduler import (
    AdmissionPolicy,
    BatchPolicy,
    ResiliencePolicy,
    ServiceCosts,
)
from .workload import Request, Workload

if TYPE_CHECKING:  # the faults package imports this module
    from ..faults.plan import FaultPlan

SCALE_SCHEMA = "repro-fleet-scale-report-v1"

ROUTING_POLICIES = ("round_robin", "least_loaded", "model_affinity")

#: Request status bytes (slot-indexed; 0 = not yet arrived).
_QUEUED, _FLIGHT, _DONE, _REJECTED, _RETRYING, _FAILED = 1, 2, 3, 4, 5, 6

#: Event kinds.  A retry re-arrival is ``_RETRY`` so the arrival branch
#: can tell it from a first attempt with one comparison.
_RETRY, _ARRIVAL, _FREE, _TIMER = -1, 0, 1, 2
_CRASH, _RECOVER, _TIMEOUT, _READMIT = 3, 4, 5, 6

#: Cell states under autoscaling.
_PARKED, _ACTIVE, _DRAINING = 0, 1, 2

#: rid block for injected queue-burst requests (never collides with
#: workload rids, which count up from 0).
_BURST_RID_BASE = -1

_EPS = 1e-9


def check_fleet_shape(devices: int, cells: int, routing: str,
                      autoscale: bool) -> None:
    """Raise ``ValueError`` for a fleet shape the core cannot run."""
    if devices < 1:
        raise ValueError(f"devices must be >= 1, got {devices}")
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    if devices % cells != 0:
        raise ValueError(f"cells must divide devices evenly, got "
                         f"{devices} devices / {cells} cells")
    if routing not in ROUTING_POLICIES:
        raise ValueError(f"unknown routing {routing!r}; "
                         f"known: {', '.join(ROUTING_POLICIES)}")
    if autoscale and cells < 2:
        raise ValueError("autoscaling needs cells >= 2 "
                         "(one cell cannot scale)")


class ScaledFleetSimulator:
    """N devices in C cells under the interned-record event core.

    ``cells`` groups devices for hierarchical routing (it must divide
    ``devices``); ``autoscale`` is an
    :class:`~repro.serving.autoscale.AutoscaleConfig`, or ``None`` for a
    static fleet.  ``fault_plan`` (a
    :class:`~repro.faults.plan.FaultPlan`) and ``resilience`` choose
    what goes wrong and how the fleet responds; ``monitor_config`` (a
    :class:`~repro.serving.monitor.MonitorConfig`) streams the run into
    a :class:`~repro.serving.monitor.FleetMonitor`; ``collect_trace``
    keeps the request-lifecycle log for the trace exporter.

    After :meth:`run`: :attr:`payload` holds the
    ``repro-fleet-scale-report-v1`` dictionary, :attr:`monitor_payload`
    the ``repro-monitor-report-v1`` dictionary (monitored runs), and
    :attr:`trace_log` the lifecycle entries (traced runs).
    """

    def __init__(self, costs: ServiceCosts, devices: int = 1,
                 cells: int = 1,
                 batch_policy: Optional[BatchPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 routing: str = "least_loaded",
                 slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
                 min_slo_s: float = DEFAULT_MIN_SLO_S,
                 require_verified: bool = True,
                 autoscale: Optional[AutoscaleConfig] = None,
                 collect_trace: bool = False,
                 fault_plan=None,
                 resilience: Optional[ResiliencePolicy] = None,
                 monitor_config=None):
        check_fleet_shape(devices, cells, routing, autoscale is not None)
        self.costs = costs
        self.devices = devices
        self.cells = cells
        self.policy = batch_policy or BatchPolicy()
        self.admission = admission or AdmissionPolicy()
        self.routing = routing
        self.slo_multiplier = slo_multiplier
        self.min_slo_s = min_slo_s
        #: Admission control refuses models whose cached static
        #: verification record is missing or dirty — a program the
        #: verifier never blessed must not reach a device.
        self.require_verified = require_verified
        self.autoscale = autoscale
        self.collect_trace = collect_trace
        #: The fault plan to inject (None = nothing ever fails) and the
        #: response discipline (default: ``naive``).
        self.fault_plan = fault_plan
        self.resilience = resilience or ResiliencePolicy.naive()
        self.monitor_config = monitor_config
        #: ``repro-fleet-scale-report-v1`` payload of the last run.
        self.payload: Optional[Dict[str, Any]] = None
        self.monitor_payload: Optional[Dict[str, Any]] = None
        self.trace_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def run(self, workload: Workload, rate_rps: float = 0.0
            ) -> ServingReport:
        """Simulate the workload; return the fleet's report.

        The hot loop is deliberately monolithic: device state lives in
        flat parallel lists, every per-event step is a handful of list
        index operations, and the only per-request allocations are one
        latency float and (amortised 1/batch) the completion event.
        Faults, the monitor and the trace log add work only when they
        are configured.
        """
        costs = self.costs
        models = costs.models()
        midx = {m: i for i, m in enumerate(models)}
        lat = [costs.latency_s(m) for m in models]
        comp = [costs.compile_s(m) for m in models]
        verified = [costs.is_verified(m) for m in models]
        crc = [zlib.crc32(m.encode("utf-8")) for m in models]
        # batch_service_s(model, b) == fixed + (latency - fixed) * b;
        # precomputing the two terms reproduces those floats bit for
        # bit (same multiply, same subtraction).
        fixed = [costs.amortized_fraction * v for v in lat]
        var = [v - f for v, f in zip(lat, fixed)]
        slo = [max(self.min_slo_s, self.slo_multiplier * v) for v in lat]

        ndev = self.devices
        ncell = self.cells
        csize = ndev // ncell
        policy = self.policy
        limit = policy.effective_max_batch
        launch_now = policy.kind in ("single", "greedy")
        wait_s = policy.max_wait_ms * 1e-3
        max_queue = self.admission.max_queue
        require_verified = self.require_verified
        routing = self.routing
        one_cell = ncell == 1
        route_rr = routing == "round_robin"
        route_ll = routing == "least_loaded"
        resilience = self.resilience
        res_active = resilience.active
        breaker = res_active and resilience.eject_threshold > 0
        tracing = self.collect_trace

        # -- device state: flat parallel lists -------------------------
        dq: List[List[int]] = [[] for _ in range(ndev)]
        qlen = [0] * ndev
        busy_until = [0.0] * ndev
        busy_acc = [0.0] * ndev
        timer_at: List[Optional[float]] = [None] * ndev
        backlog = [0.0] * ndev
        compiled: List[set] = [set() for _ in range(ndev)]
        healthy = bytearray(b"\x01") * ndev
        admitted = bytearray(b"\x01") * ndev

        # -- interned request records ----------------------------------
        # Open workloads hand over their sorted arrival columns; a
        # workload with follow-ups (closed loop) needs the Request
        # objects to pass back to ``on_complete``, and the trace log
        # needs their rids.
        has_follow = type(workload).on_complete is not Workload.on_complete
        if has_follow or tracing:
            from operator import attrgetter
            req_of = sorted(workload.initial(),
                            key=attrgetter("arrival_s", "rid"))
            arr_t = [r.arrival_s for r in req_of]
            names = [r.model for r in req_of]
        else:
            req_of = None
            arr_t, names = workload.arrivals()
            arr_t = list(arr_t)
        try:
            arr_m = [midx[m] for m in names]
        except KeyError as err:
            raise ValueError(f"workload model {err} not in ServiceCosts")
        n0 = len(arr_t)
        status = bytearray(n0)
        # A retry re-arrives with its own ``arr_t`` (its batching
        # deadline); latency still runs from the first arrival.
        born = list(arr_t) if res_active else arr_t
        attempts = [0] * n0 if res_active else None
        loc = [0] * n0 if res_active else None

        # -- running aggregates (the interned MetricsCollector) --------
        offered = rejected = verify_rejected = 0
        queue_sum = queue_max = 0
        batches_sum = batches_n = compiles = 0
        slo_met = 0
        latencies: List[float] = []
        last_finish = 0.0
        queued_total = 0
        failed = bad_completions = timeouts = retries = 0
        compile_retries = ejected_total = readmitted_total = 0
        n_ejected = 0
        faults: Dict[str, int] = {}

        # -- routing state ---------------------------------------------
        rr_next = 0                  # cells == 1: the round-robin pointer
        rr_cell = 0                  # cells > 1: active-cell pointer
        ll_cell = 0                  # least_loaded cell pointer
        rr_in = [0] * ncell          # per-cell device pointer

        # -- cells + autoscaling ---------------------------------------
        auto = self.autoscale
        auto_on = auto is not None
        if auto_on:
            ctrl = AutoscaleController(auto, ncell)
            start_cells = ctrl.min_cells
            interval = auto.interval_s
        else:
            ctrl = None
            start_cells = ncell
            interval = 0.0
        cell_state = bytearray(ncell)
        for c in range(start_cells):
            cell_state[c] = _ACTIVE
        active_list = list(range(start_cells))
        # Cost windows: per cell, [activate_s, park_s] pairs (park_s is
        # None while the window is open).
        cost_windows: List[List[List[Optional[float]]]] = [
            [[0.0, None]] if c < start_cells else [] for c in range(ncell)]
        # The autoscaler's per-boundary feed is the change in the SLO
        # counters since the last boundary (good = met, bad = rejected or
        # completed late/bad).
        good_seen = bad_seen = 0
        boundary = 0
        next_b = interval if auto_on else float("inf")
        tl_t: List[float] = []
        tl_cells: List[int] = []
        tl_queue: List[int] = []
        tl_burn: List[float] = []
        burn_rule = auto.rules[0].name if auto_on else None

        # -- observers -------------------------------------------------
        mon = None
        if self.monitor_config is not None:
            mon = FleetMonitor(self.monitor_config, dict(zip(models, slo)),
                               ndev)
        self.monitor_payload = None
        tlog: List[Dict[str, Any]] = []
        self.trace_log = tlog

        def trace(kind: str, t_s: float, **extra) -> None:
            if tracing:
                tlog.append({"kind": kind, "t_s": t_s, **extra})

        def note_fault(kind: str, count: int = 1) -> None:
            faults[kind] = faults.get(kind, 0) + count

        heap: List[tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = n0
        ai = 0

        def new_slot(t_s: float, m: int, request: Optional[Request]) -> int:
            """Intern one more request (follow-up or burst) as a slot."""
            slot = len(arr_t)
            arr_t.append(t_s)
            arr_m.append(m)
            status.append(0)
            if born is not arr_t:
                born.append(t_s)
            if res_active:
                attempts.append(0)
                loc.append(0)
            if req_of is not None:
                req_of.append(request)
            return slot

        # -- the fault plan --------------------------------------------
        plan = self.fault_plan
        inj = None
        if plan is not None and not plan.quiet:
            from ..faults import FaultInjector
            horizon = workload.duration_s or (arr_t[-1] if n0 else 1.0)
            inj = FaultInjector(plan, ndev, horizon)
            # Crashes, then bursts, take the sequence numbers right
            # after the initial arrivals.
            for t_s, device in inj.crashes:
                push(heap, (t_s, seq, _CRASH, device, None))
                seq += 1
            if inj.slowdowns:
                note_fault("device_slowdown", len(inj.slowdowns))
            rid = _BURST_RID_BASE
            for t_s in inj.bursts:
                note_fault("queue_burst")
                trace("queue-burst", t_s, size=plan.burst.size)
                for i in range(plan.burst.size):
                    m = i % len(models)
                    slot = new_slot(t_s, m, Request(rid, models[m], t_s))
                    push(heap, (t_s, seq, _ARRIVAL, slot, None))
                    seq += 1
                    rid -= 1
        launches = [0] * ndev
        bad_models: List[set] = [set() for _ in range(ndev)]
        inflight: List[Optional[list]] = [None] * ndev
        compile_tries: Dict[Tuple[int, int], int] = {}
        failures = [0] * ndev
        ejects = [0] * ndev
        timeout_s = [resilience.timeout_slo_multiple * v + wait_s
                     for v in slo]

        def follow_up(s: int, now: float) -> None:
            """Closed-loop feedback: intern the next request as a slot."""
            nonlocal seq
            nxt = workload.on_complete(req_of[s], now)
            if nxt is None:
                return
            m = midx.get(nxt.model)
            if m is None:
                raise ValueError(f"workload model {nxt.model!r} "
                                 f"not in ServiceCosts")
            push(heap, (nxt.arrival_s, seq, _ARRIVAL,
                        new_slot(nxt.arrival_s, m, nxt), None))
            seq += 1

        def first_touch(dev: int, m: int, now: float) -> Optional[float]:
            """Compile + download time for a first touch (None = fails).

            Under a fault plan the compile may flake (retried in place
            when resilient, fatal to the batch when naive) and the
            downloaded program may arrive corrupted (caught by the
            static verifier and re-compiled when resilient; silently
            resident — and poisoning every completion — when not).
            """
            nonlocal compile_retries
            name = models[m]
            spent = comp[m]
            key = (dev, m)
            attempt = compile_tries.get(key, 0)
            while inj.flaky_compile(dev, name, attempt):
                note_fault("flaky_compile")
                attempt += 1
                compile_tries[key] = attempt
                if not res_active or attempt > resilience.max_retries:
                    trace("compile-fail", now, device=dev, model=name)
                    return None
                compile_retries += 1
                trace("compile-retry", now, device=dev, model=name)
                spent += comp[m]
            compile_tries[key] = attempt + 1
            download = attempt
            while inj.corrupt_download(dev, name, download):
                note_fault("corrupt_program")
                if not (res_active and resilience.verify_downloads) or \
                        not inj.corruption_detected(dev, name, download):
                    # Undetected (or unverified) corruption: the resident
                    # program silently produces garbage from now on.
                    bad_models[dev].add(m)
                    trace("corrupt-undetected", now, device=dev, model=name)
                    break
                note_fault("corrupt_detected")
                trace("corrupt-detected", now, device=dev, model=name)
                download += 1
                if download - attempt > resilience.max_retries:
                    trace("compile-fail", now, device=dev, model=name)
                    return None
                spent += comp[m]   # re-compile + re-download
            return spent

        def dispatch(dev: int, now: float) -> None:
            """The batching rule for an idle device with a queue.

            Same-model FIFO prefix capped at the batch limit; launch at
            once for single/greedy policies or a full batch, otherwise
            arm a deadline timer for the head request.  A batch lost to
            a failed first-touch compile leaves the device idle, so the
            rule runs again on what is left of the queue.
            """
            nonlocal seq, queued_total, batches_sum, batches_n, compiles
            nonlocal failed
            q = dq[dev]
            while q and healthy[dev]:
                head = q[0]
                hm = arr_m[head]
                n = 1
                lq = qlen[dev]
                top = limit if limit < lq else lq
                while n < top and arr_m[q[n]] == hm:
                    n += 1
                if n < limit and not launch_now:
                    deadline = arr_t[head] + wait_s
                    if now < deadline:
                        t = timer_at[dev]
                        if t is None or t > deadline:
                            timer_at[dev] = deadline
                            push(heap, (deadline, seq, _TIMER, dev, None))
                            seq += 1
                        return
                batch = q[:n]
                del q[:n]
                qlen[dev] = lq - n
                queued_total -= n
                if mon is not None:
                    mon.note_launch_reason("full" if n >= limit else
                                           policy.kind if launch_now else
                                           "deadline")
                    mon.note_queue(-n)
                service = fixed[hm] + var[hm] * n
                first = hm not in compiled[dev]
                if inj is None:
                    if first:
                        service += comp[hm]
                else:
                    launches[dev] += 1
                    service *= inj.slow_factor(dev, now)
                    base = service
                    if first:
                        touch = first_touch(dev, hm, now)
                        if touch is None:
                            # Compile never succeeded: the batch is lost.
                            for r in batch:
                                status[r] = _FAILED
                            failed += n
                            continue
                        service += touch
                    if inj.tile_fault(dev, models[hm], launches[dev]):
                        note_fault("tile_fault")
                        total = costs.tiles(models[hm])
                        faulted = min(plan.tile_fault.tiles, total)
                        if res_active and resilience.tile_retry:
                            # Tile-granularity re-execution: only the
                            # faulted tiles re-run (the paper's Fig. 10
                            # unit of in-tandem work).
                            penalty = base * faulted / total
                        else:
                            # No tile scoping: the whole invocation re-runs.
                            penalty = base
                        service += penalty
                        trace("tile-fault", now, device=dev, model=models[hm],
                              tiles=faulted, penalty_s=penalty)
                    inflight[dev] = batch
                if first:
                    compiled[dev].add(hm)
                    compiles += 1
                finish = now + service
                busy_until[dev] = finish
                busy_acc[dev] += service
                batches_sum += n
                batches_n += 1
                if mon is not None:
                    mon.note_launch(dev, now, finish, n)
                if tracing:
                    trace("batch", now, device=dev, model=models[hm], batch=n,
                          start_s=now, finish_s=finish, compile=first)
                if n == 1:
                    status[head] = _FLIGHT
                else:
                    for x in batch:
                        status[x] = _FLIGHT
                push(heap, (finish, seq, _FREE, dev, batch))
                seq += 1
                return

        def route_probe(m: int) -> int:
            """Routing while the breaker has a device ejected (-1 = shed).

            The admitted-device probe inside the picked cell; a cell with
            no admitted device passes the request to the next active
            cell.
            """
            nonlocal rr_next, rr_cell, ll_cell
            na = len(active_list)
            if one_cell:
                k = 0
            elif route_rr:
                k = rr_cell % na
                rr_cell += 1
            elif route_ll:
                k = ll_cell % na
                ll_cell += 1
            else:
                k = crc[m] % na
            for j in range(na):
                ci = active_list[(k + j) % na]
                base = ci * csize
                if route_ll:
                    best = -1
                    for d in range(base, base + csize):
                        if admitted[d] and (
                                best < 0 or backlog[d] < backlog[best]
                                or (backlog[d] == backlog[best]
                                    and qlen[d] < qlen[best])):
                            best = d
                    if best >= 0:
                        return best
                    continue
                if route_rr:
                    start = rr_next if one_cell else rr_in[ci]
                else:  # model_affinity
                    start = crc[m] % csize
                for p in range(csize):
                    o = (start + p) % csize
                    if admitted[base + o]:
                        if route_rr:
                            if one_cell:
                                rr_next = (o + 1) % csize
                            else:
                                rr_in[ci] = (o + 1) % csize
                        return base + o
            return -1

        def note_failure(dev: int, now: float) -> None:
            """Circuit-breaker bookkeeping for one observed failure."""
            nonlocal seq, ejected_total, n_ejected
            if not breaker:
                return
            failures[dev] += 1
            if admitted[dev] and \
                    failures[dev] >= resilience.eject_threshold:
                admitted[dev] = 0
                n_ejected += 1
                ejects[dev] += 1
                ejected_total += 1
                if mon is not None:
                    mon.note_eject(dev)
                cooldown_s = resilience.cooldown_s * (
                    resilience.cooldown_growth ** (ejects[dev] - 1))
                trace("eject", now, device=dev, cooldown_s=cooldown_s)
                push(heap, (now + cooldown_s, seq, _READMIT, dev, None))
                seq += 1

        def fault_event(kind: int, s: int, attempt, now: float) -> None:
            """Crash, recovery, request timeout or breaker re-admission."""
            nonlocal seq, queued_total, failed, timeouts, retries
            nonlocal readmitted_total, n_ejected
            if kind == _CRASH:
                if not healthy[s]:
                    return   # overlapping crash on an already-dead device
                note_fault("device_crash")
                trace("crash", now, device=s)
                if mon is not None:
                    mon.note_crash(s, now)
                healthy[s] = 0
                inflight[s] = None   # its completion event is now stale
                if busy_until[s] > now:
                    # Refund the un-served remainder of the batch.
                    busy_acc[s] -= busy_until[s] - now
                    busy_until[s] = now
                end_s = inj.outage_end(now)
                if end_s is not None:
                    push(heap, (end_s, seq, _RECOVER, s, None))
                    seq += 1
            elif kind == _RECOVER:
                if healthy[s]:
                    return
                healthy[s] = 1
                trace("recover", now, device=s)
                if mon is not None:
                    mon.note_recover(s)
                if dq[s] and busy_until[s] <= now:
                    dispatch(s, now)
            elif kind == _READMIT:
                if admitted[s]:
                    return
                admitted[s] = 1
                n_ejected -= 1
                failures[s] = 0
                readmitted_total += 1
                trace("readmit", now, device=s)
                if mon is not None:
                    mon.note_readmit(s)
            else:  # _TIMEOUT of slot s's attempt number ``attempt``
                state = status[s]
                if attempts[s] != attempt or (state != _QUEUED
                                              and state != _FLIGHT):
                    return   # a newer attempt owns it, or it settled
                dev = loc[s]
                name = models[arr_m[s]]
                rid = req_of[s].rid if req_of is not None else s
                timeouts += 1
                trace("timeout", now, device=dev, model=name, rid=rid)
                if mon is not None:
                    mon.note_timeout()
                note_failure(dev, now)
                if state == _FLIGHT and healthy[dev]:
                    # Still executing on a live device: it will finish —
                    # retrying now would complete it twice.  The timeout
                    # only feeds the health tracker (latency breach).
                    return
                if state == _QUEUED:
                    dq[dev].remove(s)
                    qlen[dev] -= 1
                    queued_total -= 1
                    if mon is not None:
                        mon.note_queue(-1)
                budget = int(resilience.retry_budget_fraction * offered)
                attempts[s] = attempt + 1
                if attempt >= resilience.max_retries or retries >= budget:
                    status[s] = _FAILED
                    failed += 1
                    trace("retry-exhausted", now, model=name, rid=rid)
                    return
                retries += 1
                if mon is not None:
                    mon.note_retry()
                backoff_s = resilience.backoff_base_s * (2 ** attempt)
                arr_t[s] = now + backoff_s
                status[s] = _RETRYING
                trace("retry", now, model=name, rid=rid,
                      attempt=attempt + 1, backoff_s=backoff_s)
                push(heap, (arr_t[s], seq, _RETRY, s, None))
                seq += 1

        def activate_cell(t_s: float) -> int:
            """Bring one more cell into routing (drainers first)."""
            for c in range(ncell):
                if cell_state[c] == _DRAINING:
                    cell_state[c] = _ACTIVE
                    active_list.append(c)
                    active_list.sort()
                    return c
            for c in range(ncell):
                if cell_state[c] == _PARKED:
                    cell_state[c] = _ACTIVE
                    cost_windows[c].append([t_s, None])
                    active_list.append(c)
                    active_list.sort()
                    return c
            raise AssertionError("scale-out with no cell available")

        def drain_cell() -> int:
            """Close the highest-index active cell to routing."""
            c = active_list.pop()
            cell_state[c] = _DRAINING
            return c

        def close_boundary(t_b: float) -> None:
            """One autoscale decision boundary at simulated ``t_b``."""
            nonlocal good_seen, bad_seen, boundary, next_b
            bad_total = rejected + len(latencies) - slo_met
            decision = ctrl.decide(t_b, slo_met - good_seen,
                                   bad_total - bad_seen,
                                   queued_total, len(active_list),
                                   len(active_list) * csize)
            good_seen, bad_seen = slo_met, bad_total
            if decision is not None:
                action, reason = decision
                cell = (activate_cell(t_b) if action == "scale-out"
                        else drain_cell())
                ctrl.record(t_b, action, reason, cell, len(active_list))
            # Draining cells whose devices have gone idle park (and stop
            # costing money) at this boundary.
            for c in range(ncell):
                if cell_state[c] != _DRAINING:
                    continue
                base = c * csize
                idle = True
                for d in range(base, base + csize):
                    if qlen[d] or busy_until[d] > t_b:
                        idle = False
                        break
                if idle:
                    cell_state[c] = _PARKED
                    cost_windows[c][-1][1] = t_b
                    ctrl.decisions.append({
                        "t_s": t_b, "action": "park", "reason": "drained",
                        "cell": c, "cells_active": len(active_list)})
            tl_t.append(t_b)
            tl_cells.append(len(active_list))
            tl_queue.append(queued_total)
            tl_burn.append(ctrl.engine.burn_rates(burn_rule)[0])
            boundary += 1
            next_b = (boundary + 1) * interval

        # ------------------------------------------------------------------
        # The merged event loop: sorted-arrival pointer vs dynamic heap.
        # ------------------------------------------------------------------
        while True:
            if heap:
                if ai < n0 and arr_t[ai] <= heap[0][0]:
                    now = arr_t[ai]
                    kind = _ARRIVAL
                    s = ai
                    ai += 1
                else:
                    now, _, kind, s, batch = pop(heap)
            elif ai < n0:
                now = arr_t[ai]
                kind = _ARRIVAL
                s = ai
                ai += 1
            else:
                break
            if now + _EPS >= next_b:
                while next_b <= now + _EPS:
                    close_boundary(next_b)
            if mon is not None:
                # Close monitor intervals BEFORE applying the event, so
                # each boundary samples the state as simulated time
                # actually passed it.
                mon.advance(now)
            if kind <= _ARRIVAL:
                # ---- arrival (or retry re-arrival) of slot s -----------
                m = arr_m[s]
                if kind == _ARRIVAL:
                    offered += 1
                    qt = queued_total
                    queue_sum += qt
                    if qt > queue_max:
                        queue_max = qt
                    if mon is not None:
                        mon.note_arrival(s, models[m], now)
                if require_verified and not verified[m]:
                    rejected += 1
                    verify_rejected += 1
                    status[s] = _REJECTED
                    if tracing:
                        trace("verify-reject", now, model=models[m])
                    if mon is not None:
                        mon.note_reject(s, now)
                    if has_follow:
                        follow_up(s, now)
                    continue
                if n_ejected:
                    dev = route_probe(m)
                    if dev < 0:
                        # The breaker has every device ejected: shed
                        # instead of queueing against a black hole.
                        rejected += 1
                        status[s] = _REJECTED
                        if tracing:
                            trace("shed", now, model=models[m])
                        if mon is not None:
                            mon.note_reject(s, now)
                        if has_follow:
                            follow_up(s, now)
                        continue
                elif route_rr:
                    if one_cell:
                        dev = rr_next
                        rr_next = dev + 1
                        if rr_next == ndev:
                            rr_next = 0
                    else:
                        ci = active_list[rr_cell % len(active_list)]
                        rr_cell += 1
                        o = rr_in[ci]
                        dev = ci * csize + o
                        o += 1
                        rr_in[ci] = 0 if o == csize else o
                elif route_ll:
                    if one_cell:
                        base, top = 0, ndev
                    else:
                        ci = active_list[ll_cell % len(active_list)]
                        ll_cell += 1
                        base = ci * csize
                        top = base + csize
                    dev = base
                    bb = backlog[base]
                    bq = qlen[base]
                    for d in range(base + 1, top):
                        v = backlog[d]
                        if v < bb or (v == bb and qlen[d] < bq):
                            dev = d
                            bb = v
                            bq = qlen[d]
                else:  # model_affinity
                    h = crc[m]
                    if one_cell:
                        dev = h % ndev
                    else:
                        ci = active_list[h % len(active_list)]
                        dev = ci * csize + h % csize
                b = backlog[dev]
                backlog[dev] = (b if b > now else now) + lat[m]
                if qlen[dev] >= max_queue:
                    rejected += 1
                    status[s] = _REJECTED
                    if tracing:
                        trace("queue-reject", now, model=models[m])
                    if mon is not None:
                        mon.note_reject(s, now)
                    if has_follow:
                        follow_up(s, now)
                    continue
                status[s] = _QUEUED
                dq[dev].append(s)
                qlen[dev] += 1
                queued_total += 1
                if mon is not None:
                    mon.note_queue(1)
                if res_active:
                    loc[s] = dev
                    push(heap, (now + timeout_s[m], seq, _TIMEOUT, s,
                                attempts[s]))
                    seq += 1
                if busy_until[dev] <= now:
                    dispatch(dev, now)
            elif kind == _FREE:
                # ---- batch completion on device s --------------------
                if inj is not None:
                    if inflight[s] is not batch:
                        continue   # the device crashed mid-batch
                    bad = arr_m[batch[0]] in bad_models[s]
                else:
                    bad = False
                if breaker:
                    failures[s] = 0
                    ejects[s] = 0
                if now > last_finish:
                    last_finish = now
                for r in batch:
                    status[r] = _DONE
                    lt = now - born[r]
                    latencies.append(lt * 1e3)
                    if bad:
                        bad_completions += 1
                    elif lt <= slo[arr_m[r]]:
                        slo_met += 1
                    if mon is not None:
                        mon.note_complete(r, now, lt * 1e3, bad=bad)
                    if has_follow:
                        follow_up(r, now)
                if dq[s] and busy_until[s] <= now:
                    dispatch(s, now)
            elif kind == _TIMER:
                # ---- batch timer on device s -------------------------
                timer_at[s] = None
                if dq[s] and busy_until[s] <= now:
                    dispatch(s, now)
            else:
                fault_event(kind, s, batch, now)

        # Requests still queued or in flight when the event heap drains
        # never completed (stuck on a dead device with no retry policy).
        failed += sum(1 for b in status if b == _QUEUED or b == _FLIGHT)
        makespan = max(last_finish, workload.duration_s)
        if auto_on:
            # Keep closing (empty) boundaries through the tail so the
            # trough after the last completion can still scale in/park
            # — that idle capacity release is exactly the cost win.
            while next_b <= makespan + _EPS:
                close_boundary(next_b)
            for c in range(ncell):
                for window in cost_windows[c]:
                    if window[1] is None:
                        window[1] = makespan
            device_seconds = sum(
                (end - start) * csize
                for windows in cost_windows for start, end in windows)
        else:
            device_seconds = float(ndev) * makespan

        if mon is not None:
            mon.finish(makespan)
            self.monitor_payload = mon.payload(context={
                "models": list(models),
                "devices": ndev,
                "routing": routing,
                "batch_policy": policy.kind,
                "resilience": resilience.kind,
                "fault_plan": plan.name if plan is not None else None,
                "rate_rps": rate_rps,
                "duration_s": workload.duration_s,
            })

        horizon = makespan if makespan > 0 else 1.0
        latencies.sort()
        completed = len(latencies)
        report = ServingReport(
            models=models,
            devices=ndev,
            batch_policy=policy.kind,
            max_batch=policy.effective_max_batch,
            max_wait_ms=policy.max_wait_ms,
            routing=routing,
            rate_rps=rate_rps,
            duration_s=workload.duration_s,
            offered=offered,
            completed=completed,
            rejected=rejected,
            verify_rejected=verify_rejected,
            failed=failed,
            bad_completions=bad_completions,
            retries=retries,
            timeouts=timeouts,
            compile_retries=compile_retries,
            devices_ejected=ejected_total,
            devices_readmitted=readmitted_total,
            faults=dict(sorted(faults.items())),
            makespan_s=makespan,
            throughput_rps=completed / horizon,
            goodput_rps=slo_met / horizon,
            mean_latency_ms=(sum(latencies) / completed
                             if completed else 0.0),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            mean_queue_depth=(queue_sum / offered if offered else 0.0),
            max_queue_depth=queue_max,
            mean_batch_size=(batches_sum / batches_n
                             if batches_n else 0.0),
            device_utilization=(sum(busy_acc) / (ndev * horizon)),
            per_device_utilization=[v / horizon for v in busy_acc],
            compiles=compiles,
            compile_cache_hit_rate=(1.0 - compiles / batches_n
                                    if batches_n else 0.0),
            slo_multiplier=self.slo_multiplier,
            slo_ms={m: s * 1e3 for m, s in zip(models, slo)},
            slo_attainment=(slo_met / offered if offered else 0.0),
        )
        self._emit_telemetry(report, batches_n, batches_sum)
        # Every heap entry is popped before the loop ends, so the events
        # processed are the n0 pointer arrivals plus one per push: the
        # final sequence number.
        self.payload = self._build_payload(
            report, ctrl, events=seq, device_seconds=device_seconds,
            slo_met=slo_met,
            timeline={"t_s": tl_t, "cells_active": tl_cells,
                      "queue_depth": tl_queue, "burn_long": tl_burn})
        return report

    # ------------------------------------------------------------------
    def _emit_telemetry(self, report: ServingReport, batches_n: int,
                        batches_sum: int) -> None:
        """The ``serving.*`` and ``faults.*`` counters of one run."""
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.count("serving.requests.offered", report.offered)
        tel.count("serving.requests.completed", report.completed)
        tel.count("serving.requests.rejected", report.rejected)
        tel.count("serving.requests.verify_rejected",
                  report.verify_rejected)
        tel.count("serving.requests.failed", report.failed)
        tel.count("serving.batches.launched", batches_n)
        tel.count("serving.batches.requests", batches_sum)
        tel.count("serving.compiles", report.compiles)
        tel.count("serving.retries.requests", report.retries)
        tel.count("serving.retries.compile", report.compile_retries)
        tel.count("serving.timeouts", report.timeouts)
        tel.count("serving.completions.bad", report.bad_completions)
        tel.count("serving.circuit.ejects", report.devices_ejected)
        tel.count("serving.circuit.readmits", report.devices_readmitted)
        for fault_kind, count in report.faults.items():
            name = ("faults.detected.corrupt_program"
                    if fault_kind == "corrupt_detected"
                    else f"faults.injected.{fault_kind}")
            tel.count(name, count)

    def _build_payload(self, report: ServingReport,
                       ctrl: Optional[AutoscaleController], *,
                       events: int, device_seconds: float, slo_met: int,
                       timeline: Dict[str, List]) -> Dict[str, Any]:
        """Assemble the ``repro-fleet-scale-report-v1`` dictionary."""
        auto = self.autoscale
        if ctrl is not None:
            dollars = ctrl.cost.dollars(device_seconds)
            price = ctrl.cost.price_per_device_hour
        else:
            from .autoscale import CostModel
            cost = CostModel()
            dollars = cost.dollars(device_seconds)
            price = cost.price_per_device_hour
        static_seconds = float(self.devices) * report.makespan_s
        static_dollars = dollars if device_seconds == static_seconds else (
            dollars * static_seconds / device_seconds
            if device_seconds else 0.0)
        bounded = tail_bounded_throughput(report)
        return {
            "schema": SCALE_SCHEMA,
            "seed": repro_seed(),
            "devices": self.devices,
            "cells": self.cells,
            "cell_size": self.devices // self.cells,
            "routing": self.routing,
            "autoscale": auto.as_dict() if auto is not None else None,
            "serving": report.as_dict(),
            "sim": {"events": events, "requests": report.offered},
            "cost": {
                "price_per_device_hour": price,
                "device_seconds": device_seconds,
                "dollars": dollars,
                "static_device_seconds": static_seconds,
                "static_dollars": static_dollars,
                "savings_fraction": (1.0 - device_seconds / static_seconds
                                     if static_seconds else 0.0),
            },
            "slo": {
                "good": slo_met,
                "bad": report.offered - slo_met,
                "p99_ms": report.p99_ms,
                "goodput_rps": report.goodput_rps,
                "tail_bounded_throughput_rps": bounded,
                "bounded_throughput_per_dollar": (bounded / dollars
                                                  if dollars else 0.0),
            },
            "autoscale_events": (list(ctrl.decisions)
                                 if ctrl is not None else []),
            "alerts": ([e.as_dict() for e in ctrl.engine.events]
                       if ctrl is not None else []),
            "timeline": timeline,
        }


@dataclass(frozen=True)
class FleetRun:
    """One run of the event core: self-contained and picklable.

    The fields are :class:`ScaledFleetSimulator`'s own constructor
    arguments, with its defaults, plus the seeded ``workload`` (an
    :class:`~repro.serving.workload.OpenLoopPoisson`,
    :class:`~repro.serving.workload.DiurnalTrace` or trace replay, whose
    ``rate_rps`` labels the report).  Every fleet sweep (the
    ``serving_sweep`` grid, chaos ladders, monitored and autoscaled
    runs) is a list of these mapped through :func:`run_fleet` by
    :func:`repro.runtime.parallel.parallel_map`; a run is a pure
    function of ``(REPRO_SEED, run)``, so serial and ``--jobs N``
    sweeps are byte-identical.
    """

    costs: ServiceCosts
    workload: Workload
    devices: int = 1
    cells: int = 1
    batch_policy: BatchPolicy = BatchPolicy()
    admission: AdmissionPolicy = AdmissionPolicy()
    routing: str = "least_loaded"
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER
    autoscale: Optional[AutoscaleConfig] = None
    fault_plan: Optional[FaultPlan] = None
    resilience: ResiliencePolicy = ResiliencePolicy.naive()
    monitor_config: Optional[MonitorConfig] = None


def run_fleet(run: FleetRun) -> Tuple[ServingReport, Dict[str, Any],
                                      Optional[Dict[str, Any]]]:
    """Simulate one :class:`FleetRun` (module-level, so pools pickle it).

    Returns the :class:`~repro.serving.metrics.ServingReport`, the
    ``repro-fleet-scale-report-v1`` payload and the
    ``repro-monitor-report-v1`` payload (``None`` when unmonitored).
    """
    sim = ScaledFleetSimulator(
        run.costs, devices=run.devices, cells=run.cells,
        batch_policy=run.batch_policy, admission=run.admission,
        routing=run.routing, slo_multiplier=run.slo_multiplier,
        autoscale=run.autoscale, fault_plan=run.fault_plan,
        resilience=run.resilience, monitor_config=run.monitor_config)
    report = sim.run(run.workload, rate_rps=run.workload.rate_rps)
    return report, sim.payload, sim.monitor_payload


def tail_bounded_throughput(report: ServingReport) -> float:
    """Tail-latency-bounded throughput of one run (req/s).

    The In-Datacenter-TPU metric: a run's throughput only counts in
    full while its p99 latency respects the (tightest per-model) SLO
    bound; past the bound, credit falls back to the SLO-met goodput —
    so saturating a fleet beyond its tail budget cannot inflate the
    headline number.
    """
    if not report.completed:
        return 0.0
    bound_ms = min(report.slo_ms.values()) if report.slo_ms else 0.0
    if report.p99_ms <= bound_ms:
        return report.throughput_rps
    return report.goodput_rps


def validate_fleet_scale_report(payload: Dict[str, Any]) -> List[str]:
    """Structural checks on a fleet-scale report; returns problems."""
    problems: List[str] = []
    if payload.get("schema") != SCALE_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {SCALE_SCHEMA!r}")
    for key in ("devices", "cells", "cell_size"):
        value = payload.get(key)
        if not isinstance(value, int) or value < 1:
            problems.append(f"{key} is {value!r}")
    devices = payload.get("devices")
    cells = payload.get("cells")
    if isinstance(devices, int) and isinstance(cells, int) and cells >= 1:
        if payload.get("cell_size") != devices // cells:
            problems.append("cell_size != devices // cells")
    serving = payload.get("serving")
    if not isinstance(serving, dict):
        problems.append("serving block missing")
    else:
        for key in ("offered", "completed", "rejected", "p99_ms",
                    "throughput_rps", "goodput_rps", "slo_attainment",
                    "makespan_s"):
            if key not in serving:
                problems.append(f"serving.{key} missing")
    sim = payload.get("sim")
    if not isinstance(sim, dict) or not all(
            isinstance(sim.get(k), int) and sim.get(k) >= 0
            for k in ("events", "requests")):
        problems.append(f"sim block malformed: {sim!r}")
    cost = payload.get("cost")
    if not isinstance(cost, dict):
        problems.append("cost block missing")
    else:
        for key in ("price_per_device_hour", "device_seconds", "dollars",
                    "static_device_seconds", "static_dollars",
                    "savings_fraction"):
            if not isinstance(cost.get(key), (int, float)):
                problems.append(f"cost.{key} missing or non-numeric")
        if isinstance(cost.get("device_seconds"), (int, float)) and \
                isinstance(cost.get("static_device_seconds"), (int, float)) \
                and cost["device_seconds"] > cost["static_device_seconds"] \
                + 1e-6:
            problems.append("cost.device_seconds exceeds the static fleet")
    slo = payload.get("slo")
    if not isinstance(slo, dict):
        problems.append("slo block missing")
    else:
        for key in ("good", "bad", "p99_ms", "goodput_rps",
                    "tail_bounded_throughput_rps",
                    "bounded_throughput_per_dollar"):
            if key not in slo:
                problems.append(f"slo.{key} missing")
    events = payload.get("autoscale_events")
    if not isinstance(events, list):
        problems.append("autoscale_events list missing")
        events = []
    last_t = float("-inf")
    for event in events:
        action = event.get("action")
        if action not in AUTOSCALE_ACTIONS:
            problems.append(f"autoscale action {action!r}")
        t_s = event.get("t_s")
        if not isinstance(t_s, (int, float)) or t_s < last_t:
            problems.append(f"autoscale event out of order at {t_s!r}")
        else:
            last_t = t_s
        active = event.get("cells_active")
        if isinstance(cells, int) and (not isinstance(active, int)
                                       or not 0 <= active <= cells):
            problems.append(f"cells_active {active!r} outside [0, {cells}]")
    timeline = payload.get("timeline")
    if not isinstance(timeline, dict):
        problems.append("timeline block missing")
    else:
        lengths = {key: len(timeline.get(key, []))
                   for key in ("t_s", "cells_active", "queue_depth",
                               "burn_long")}
        if len(set(lengths.values())) > 1:
            problems.append(f"timeline series lengths differ: {lengths}")
    return problems


def scale_table(payload: Dict[str, Any]) -> str:
    """Fixed-width summary of a fleet-scale report for the CLI."""
    from ..harness.report import render_table
    serving = payload["serving"]
    cost = payload["cost"]
    slo = payload["slo"]
    rows = [
        ("devices (cells x size)",
         f"{payload['devices']} ({payload['cells']} x "
         f"{payload['cell_size']})"),
        ("routing", payload["routing"]),
        ("autoscale", "on" if payload["autoscale"] else "off"),
        ("events processed", payload["sim"]["events"]),
        ("offered / completed", f"{serving['offered']} / "
                                f"{serving['completed']}"),
        ("p99 latency (ms)", serving["p99_ms"]),
        ("tail-bounded throughput (req/s)",
         slo["tail_bounded_throughput_rps"]),
        ("device-hours", round(cost["device_seconds"] / 3600.0, 4)),
        ("cost ($)", round(cost["dollars"], 4)),
        ("static-fleet cost ($)", round(cost["static_dollars"], 4)),
        ("cost savings", f"{cost['savings_fraction']:.1%}"),
        ("bounded throughput per $",
         round(slo["bounded_throughput_per_dollar"], 3)),
        ("scale events", len(payload["autoscale_events"])),
    ]
    title = (f"fleet scale: {payload['devices']} devices, "
             f"autoscale {'on' if payload['autoscale'] else 'off'}")
    return render_table(("metric", "value"), rows, title=title)
