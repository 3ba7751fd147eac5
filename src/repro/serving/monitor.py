"""Streaming fleet monitoring, read out of a finished run's columns.

The fleet core (:mod:`repro.serving.scale`) and the LLM batchers
(:mod:`repro.serving.continuous`) keep what a run did anyway: each
request's first arrival, model, and reject or completion time with
its bad flag; the lifecycle log of launches, crashes, recoveries,
ejects, re-admissions, timeouts and retries; the batchers' per-step
clock, batch, KV and pending columns and their completion records.
After the run, :func:`fleet_monitor_payload` and
:func:`llm_monitor_payload` evaluate those columns on a fixed
simulated-time grid with numpy: every series is sampled per interval,
Google-SRE multi-window burn-rate rules are evaluated over the SLO
error budget, and the result is a versioned ``repro-monitor-report-v1``
payload that the CLI renders as a terminal dashboard
(``repro serve --monitor`` / ``repro monitor <report>``) or exports as
Chrome-trace counter tracks.  Nothing sits in the event loops, so an
instrumented run produces a byte-identical
:class:`~repro.serving.metrics.ServingReport` — asserted by
``tests/test_monitoring.py``.

The interval grid
-----------------
Boundary *k* sits at ``k * interval_s``.  An event at time *t* belongs
to the interval its boundary count says: one ``searchsorted`` of
``t + _EPS`` against the boundaries, so an event stamped exactly on a
boundary lands in the interval that boundary opens.  Rates count the
events of an interval per second, gauges take the level after the
interval's last event, and the latency windows are nearest-rank
percentiles of a (intervals x histogram bins) count matrix summed over
the last ``window_intervals`` rows.

The streaming error signal
--------------------------
End-of-run accounting learns that a request stuck on a crashed device
"failed" only when the event heap drains — useless for alerting.  The
monitor instead gives every first-attempt arrival a deadline
``arrival + slo_s(model)``: a request not completed by the first
boundary at or after its deadline becomes a **bad** event in that
interval — so a crash shows up in the burn rate one SLO after it
happens, while the fleet is still running.  A request settles exactly
once, in the earlier of its settle event's interval (rejection or
completion) and its deadline's, so good/bad totals never double count.

Everything is a pure function of ``(REPRO_SEED, inputs)``: sample and
alert streams are byte-identical between serial and ``--jobs N`` runs,
which ``benchmarks/test_perf_monitoring.py`` asserts by mapping
monitored :class:`~repro.serving.scale.FleetRun` descriptions (a
:class:`MonitorConfig` in ``monitor_config``) through
:func:`~repro.serving.scale.run_fleet`.
"""

from __future__ import annotations

import math
import os
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.seed import repro_seed
from ..telemetry.alerts import AlertEngine
from ..telemetry.slo import (
    BurnRateRule,
    SLOObjective,
    default_objective,
    default_rules,
)
from ..telemetry.timeseries import StreamingHistogram, TimeSeries, nearest_rank

MONITOR_SCHEMA = "repro-monitor-report-v1"

#: Boundary comparison slack: an event stamped exactly on a boundary
#: must land deterministically despite float accumulation.
_EPS = 1e-9

#: Batch-launch trigger reasons recorded at each launch.
LAUNCH_REASONS = ("full", "deadline", "greedy", "single")


def monitoring_enabled(flag: bool = False) -> bool:
    """Whether monitoring is on: ``--monitor`` or ``REPRO_MONITOR=1``.

    ``REPRO_MONITOR=0`` force-disables even when the flag is passed —
    the kill switch the overhead benchmark uses to prove a disabled
    run is byte-identical to a never-instrumented one.
    """
    raw = os.environ.get("REPRO_MONITOR", "").strip()
    if raw == "0":
        return False
    return bool(flag) or raw == "1"


def env_float(name: str, default: float) -> float:
    """A float environment knob, falling back on unset/garbage values.

    Shared by the monitor's ``REPRO_MONITOR_*`` and the autoscaler's
    ``REPRO_AUTOSCALE_*`` configuration surfaces so every knob parses
    (and fails soft) the same way.
    """
    raw = os.environ.get(name, "").strip()
    try:
        return float(raw)
    except ValueError:
        return default


def env_int(name: str, default: int) -> int:
    """An integer environment knob; see :func:`env_float`."""
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class MonitorConfig:
    """Frozen monitoring parameters (picklable; env-overridable).

    ``interval_s`` is the sampling grid in *simulated* seconds;
    ``window_intervals`` sizes the sliding latency window (so the
    windowed p99 spans ``interval_s * window_intervals`` of sim time).
    ``drain`` keeps sampling empty intervals after the workload ends
    until every firing rule resolves (bounded by the longest rule
    window), so a run that ends mid-incident still records the
    resolve edge.
    """

    interval_s: float = 0.1
    window_intervals: int = 10
    objective: SLOObjective = field(default_factory=SLOObjective)
    rules: Tuple[BurnRateRule, ...] = field(default_factory=default_rules)
    drain: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.interval_s) and self.interval_s > 0.0):
            raise ValueError(f"interval_s must be finite and positive, "
                             f"got {self.interval_s}")
        if self.window_intervals < 1:
            raise ValueError("window_intervals must be >= 1")
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")

    @classmethod
    def from_env(cls, interval_s: Optional[float] = None,
                 window_intervals: Optional[int] = None,
                 drain: bool = True) -> "MonitorConfig":
        """Build a config from ``REPRO_MONITOR_*`` with CLI overrides."""
        return cls(
            interval_s=(interval_s if interval_s is not None
                        else env_float("REPRO_MONITOR_INTERVAL", 0.1)),
            window_intervals=(window_intervals if window_intervals is not None
                              else env_int("REPRO_MONITOR_WINDOW", 10)),
            objective=default_objective(),
            rules=default_rules(),
            drain=drain,
        )


# ---------------------------------------------------------------------------
# The interval grid
# ---------------------------------------------------------------------------
#: Settle-event interval of a request that never had a settle event.
_NEVER = np.iinfo(np.int64).max


def _bounds(interval_s: float, last_s: float) -> np.ndarray:
    """Boundary times ``k * interval_s`` for ``k = 1..`` past ``last_s``."""
    count = int(max(last_s, 0.0) / interval_s) + 2
    return np.arange(1, count + 1) * interval_s


def _event_at(bounds: np.ndarray, t_s) -> np.ndarray:
    """Interval of each event: the boundaries at or before ``t + _EPS``."""
    return np.searchsorted(bounds, np.asarray(t_s, float) + _EPS,
                           side="right")


def _due_at(bounds: np.ndarray, t_s) -> np.ndarray:
    """Interval closed by the first boundary at or after each time."""
    return np.searchsorted(bounds + _EPS, np.asarray(t_s, float),
                           side="left")


def _counts(at: np.ndarray, intervals: int,
            weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-interval event counts (weighted sums), past-the-end dropped."""
    keep = at < intervals
    return np.bincount(at[keep], minlength=intervals,
                       weights=None if weights is None else weights[keep])


def _rate(at: np.ndarray, intervals: int, interval_s: float,
          weights: Optional[np.ndarray] = None) -> List[float]:
    """Events (or their weights) per second of each interval."""
    return (_counts(at, intervals, weights) / interval_s).tolist()


def _level(up: np.ndarray, down: np.ndarray, intervals: int,
           down_weights: Optional[np.ndarray] = None) -> List[float]:
    """A gauge moved +1 by each ``up`` event and -1 (or -weight) by each
    ``down`` event, sampled after each interval's last event."""
    delta = _counts(up, intervals) - _counts(down, intervals, down_weights)
    return np.cumsum(delta).astype(float).tolist()


def _windows(series: Dict[str, TimeSeries], name: str, at: np.ndarray,
             values: np.ndarray, intervals: int, window: int,
             weights: Optional[np.ndarray] = None) -> None:
    """Add ``name.p50/p95/p99``: sliding-window nearest-rank percentiles.

    Values (each seen ``weights`` times, default once) bin through the
    scalar :class:`StreamingHistogram` rule, once per distinct value, so
    the bins are those of a histogram fed one sample at a time.  Each
    interval's window is its row of the cumulative (intervals x
    occupied bins) count matrix minus the row ``window`` intervals back;
    an empty window is ``None``, never 0.
    """
    keep = at < intervals
    at, values = at[keep], values[keep]
    if weights is not None:
        weights = weights[keep]
    hist = StreamingHistogram()
    distinct, value_col = np.unique(values, return_inverse=True)
    occupied, bin_col = np.unique(
        [hist._bin(v) for v in distinct.tolist()], return_inverse=True)
    reps = [hist._representative(int(b)) for b in occupied]
    width = len(occupied)
    cumulative = np.cumsum(np.bincount(
        at * width + bin_col[value_col].astype(int), weights,
        intervals * width).astype(np.int64).reshape(intervals, width),
        axis=0)
    windowed = cumulative.copy()
    windowed[window:] -= cumulative[:-window]
    total = windowed.sum(axis=1)
    running = np.cumsum(windowed, axis=1)
    for q in (50, 95, 99):
        rank = np.array([nearest_rank(n, q) if n else 0
                         for n in total.tolist()], int)
        pick = (running > rank[:, None]).argmax(axis=1) if width else total
        key = f"{name}.p{q}"
        series[key] = TimeSeries(key, "percentile", "ms", [
            reps[b] if n else None
            for b, n in zip(pick.tolist(), total.tolist())])


# ---------------------------------------------------------------------------
# Settle-once SLO accounting, the alert engine, the payload
# ---------------------------------------------------------------------------
def _settle(config: MonitorConfig, bounds: np.ndarray,
            deadline: np.ndarray, rejected: np.ndarray,
            reject_at: np.ndarray, done: np.ndarray, done_at: np.ndarray,
            on_time: np.ndarray, closed: int, horizon_s: float):
    """Settle every request once and run the alert engine over the grid.

    Requests ``rejected`` settle bad in interval ``reject_at``, requests
    ``done`` in ``done_at`` — good when ``on_time``, an SLO miss when
    not — unless their deadline's interval comes first: then they are a
    bad miss there.  ``closed`` intervals passed while events were still
    arriving; the grid then runs on to cover ``horizon_s`` and every
    deadline still armed, and — when ``config.drain`` — keeps closing
    empty intervals until every firing rule resolves, capped at the
    longest rule window plus its resolve streak.

    Returns the engine, its burn-rate series and the interval of every
    SLO miss.
    """
    event_at = np.full(len(deadline), _NEVER)
    event_at[rejected] = reject_at
    event_at[done] = done_at
    good = np.zeros(len(deadline), bool)
    good[done] = on_time
    due = _due_at(bounds, deadline)
    by_event = event_at <= due
    at = np.where(by_event, event_at, due)
    good &= by_event
    miss = ~by_event
    miss[done] |= by_event[done] & ~on_time
    armed = ~by_event & (due >= closed)
    last = (max(horizon_s, float(deadline[armed].max())) if armed.any()
            else horizon_s)
    interval = config.interval_s
    target = max(closed, -(-int(last * 1e9) // int(interval * 1e9)))
    span = target + max(
        -(-int(rule.long_window_s * 1e9) // int(interval * 1e9))
        + rule.resolve_intervals for rule in config.rules) + 1
    good_n = _counts(at[good], span)
    bad_n = _counts(at[~good], span)
    engine = AlertEngine(config.objective, config.rules, interval)
    burns: Dict[str, List[float]] = {
        f"burn.{rule.name}.{window}": []
        for rule in config.rules for window in ("long", "short")}
    while engine.intervals < target or (
            config.drain and engine.any_firing and engine.intervals < span):
        i = engine.intervals
        engine.observe(int(good_n[i]), int(bad_n[i]), (i + 1) * interval)
        for rule in config.rules:
            burn_long, burn_short = engine.burn_rates(rule.name)
            burns[f"burn.{rule.name}.long"].append(burn_long)
            burns[f"burn.{rule.name}.short"].append(burn_short)
    return engine, {name: TimeSeries(name, "burn_rate", "x", samples)
                    for name, samples in burns.items()}, at[miss]


def _payload(kind: str, config: MonitorConfig, engine: AlertEngine,
             series: Dict[str, TimeSeries],
             context: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``repro-monitor-report-v1`` JSON payload."""
    objective = config.objective
    total = engine.good_total + engine.bad_total
    error_rate = engine.bad_total / total if total else 0.0
    return {
        "schema": MONITOR_SCHEMA,
        "kind": kind,
        "seed": repro_seed(),
        "interval_s": config.interval_s,
        "window_intervals": config.window_intervals,
        "intervals": engine.intervals,
        "duration_s": engine.intervals * config.interval_s,
        "context": dict(context or {}),
        "slo": {
            "name": objective.name,
            "target": objective.target,
            "budget": objective.budget,
            "good": engine.good_total,
            "bad": engine.bad_total,
            "total": total,
            "error_rate": error_rate,
            "budget_burned": error_rate / objective.budget,
        },
        "rules": [rule.as_dict() for rule in config.rules],
        "series": {name: ts.as_dict() for name, ts in series.items()},
        "alerts": [event.as_dict() for event in engine.events],
        "active_alerts": engine.firing_rules(),
        "counts": engine.counts(),
    }


# ---------------------------------------------------------------------------
# The two monitors
# ---------------------------------------------------------------------------
#: Lifecycle-log kinds kept for the monitor only, never exported as
#: trace entries: a batch's completion, a launch lost to a failed
#: first-touch compile, a queued request pulled by its timeout.
MONITOR_LOG_KINDS = ("complete", "lost", "dequeue")


def fleet_monitor_payload(config: MonitorConfig, *, slo_s: Sequence[float],
                          devices: int, max_batch: int, policy_kind: str,
                          born: Sequence[float], arr_t: Sequence[float],
                          arr_m: Sequence[int], rejected: Sequence[bool],
                          log: Sequence[Dict[str, Any]],
                          last_event_s: Optional[float], horizon_s: float,
                          context: Optional[Dict[str, Any]] = None
                          ) -> Dict[str, Any]:
    """The fleet core's monitor report, from one finished run.

    Per slot: first arrival ``born``, latest (re-)arrival ``arr_t`` —
    the reject time of a ``rejected`` slot — and model index ``arr_m``
    into ``slo_s``.  ``log`` is the core's lifecycle log in event order
    (``batch``, ``crash``, ``recover``, ``eject``, ``readmit``,
    ``timeout``, ``retry`` and the :data:`MONITOR_LOG_KINDS`);
    ``last_event_s`` is the time of the last event processed (``None``
    for an empty run) and ``horizon_s`` the makespan.

    Series: fleet queue depth, devices down / circuit-breaker-ejected,
    arrival/completion/rejection/SLO-miss/timeout/retry/batch rates,
    the batcher's launch-trigger mix (full, deadline, greedy, single),
    windowed p50/p95/p99 end-to-end latency, per-rule burn rates, and
    per-device and fleet-mean utilization with crash-truncated busy
    windows, matching the simulator's refund accounting.
    """
    interval = config.interval_s
    born = np.asarray(born, float)
    deadline = born + np.asarray(slo_s, float)[np.asarray(arr_m, int)]
    bounds = _bounds(interval, max(horizon_s, last_event_s or 0.0,
                                   deadline.max(initial=0.0)))
    times: Dict[str, List[float]] = defaultdict(list)
    sizes: List[int] = []             # batch size of each launch
    lost: List[int] = []              # ... of each launch lost instead
    busy: List[List[List[float]]] = [[] for _ in range(devices)]
    done: List[Tuple[List[int], bool]] = []
    for entry in log:
        kind, t_s = entry["kind"], entry["t_s"]
        times[kind].append(t_s)
        if kind == "batch":
            sizes.append(entry["batch"])
            busy[entry["device"]].append([t_s, entry["finish_s"]])
        elif kind == "lost":
            lost.append(entry["batch"])
        elif kind == "complete":
            done.append((entry["slots"], entry["bad"]))
        elif kind == "retry":
            times["rearrive"].append(t_s + entry["backoff_s"])
        elif kind == "crash":
            # The refund: truncate the device's in-flight window.
            windows = busy[entry["device"]]
            if windows and windows[-1][1] > t_s:
                windows[-1][1] = max(windows[-1][0], t_s)

    def at(kind: str) -> np.ndarray:
        return _event_at(bounds, times[kind])

    rejects = np.flatnonzero(np.asarray(rejected, bool))
    reject_at = _event_at(bounds, np.asarray(arr_t, float)[rejects])
    counts = [len(slots) for slots, _ in done]
    slot = np.fromiter(chain.from_iterable(s for s, _ in done), int,
                       sum(counts))
    finish = np.repeat(times["complete"], counts).astype(float)
    bad = np.repeat([b for _, b in done], counts).astype(bool)
    done_at = _event_at(bounds, finish)
    engine, series, miss_at = _settle(
        config, bounds, deadline, rejects, reject_at, slot, done_at,
        ~bad & (finish <= deadline[slot] + _EPS),
        int(_event_at(bounds, last_event_s)) if last_event_s is not None
        else 0, horizon_s)
    n = engine.intervals

    arrive_at = _event_at(bounds, born)
    launch_at = np.concatenate([at("batch"), at("lost")])
    sizes = np.asarray(sizes + lost, int)
    series["queue.depth"] = TimeSeries("queue.depth", "gauge", "requests",
                                       _level(
        np.concatenate([arrive_at, at("rearrive")]),
        np.concatenate([reject_at, launch_at, at("dequeue")]), n,
        np.concatenate([np.ones(len(reject_at)), sizes,
                        np.ones(len(times["dequeue"]))])))
    for name, up, down in (("devices.down", "crash", "recover"),
                           ("devices.ejected", "eject", "readmit")):
        series[name] = TimeSeries(name, "gauge", "devices",
                                  _level(at(up), at(down), n))
    launch_now = policy_kind in ("single", "greedy")
    reasons = np.where(sizes >= max_batch, "full",
                       policy_kind if launch_now else "deadline")
    for name, unit, event in (
            ("rate.arrivals", "req/s", arrive_at),
            ("rate.completions", "req/s", done_at),
            ("rate.rejections", "req/s", reject_at),
            ("rate.slo_misses", "req/s", miss_at),
            ("rate.timeouts", "req/s", at("timeout")),
            ("rate.retries", "req/s", at("retry")),
            ("rate.batches", "batch/s", at("batch")),
            *((f"rate.launch.{reason}", "batch/s",
               launch_at[reasons == reason]) for reason in LAUNCH_REASONS)):
        series[name] = TimeSeries(name, "rate", unit,
                                  _rate(event, n, interval))
    _windows(series, "latency", done_at, (finish - born[slot]) * 1e3, n,
             config.window_intervals)

    # Utilization from the busy windows, accumulated in event order.
    per_device: List[List[float]] = []
    for windows in busy:
        load = [0.0] * n
        for start_s, end_s in windows:
            for i in range(max(0, int(start_s / interval)), n):
                left = i * interval
                if left >= end_s:
                    break
                overlap = min(end_s, left + interval) - max(start_s, left)
                if overlap > 0.0:
                    load[i] += overlap
        per_device.append([b / interval for b in load])
    series["util.mean"] = TimeSeries("util.mean", "gauge", "fraction", [
        sum(col) / devices for col in zip(*per_device)
    ] if per_device and n else [])
    for index, samples in enumerate(per_device):
        name = f"util.d{index}"
        series[name] = TimeSeries(name, "gauge", "fraction", samples)
    return _payload("fleet", config, engine, series, context)


#: The columns of one LLM engine step (a continuous decode step, a
#: one-shot batch): the engine state from ``start_s`` (active slots, KV
#: tokens reserved, requests waiting), and what it delivered at
#: ``end_s`` — ``tokens`` tokens, among them ``gaps`` inter-token gaps
#: of ``gap_s`` seconds each (every slot that also emitted at the
#: previous step waited the same gap; a one-shot batch hands over its
#: members' padded decode steps).
LLM_STEP_COLUMNS = ("start_s", "end_s", "slots", "kv_tokens", "pending",
                    "tokens", "gap_s", "gaps")
#: One packed row of :data:`LLM_STEP_COLUMNS` (native doubles).
LLM_STEP_ROW = struct.Struct(f"{len(LLM_STEP_COLUMNS)}d")


def llm_monitor_payload(config: MonitorConfig, *,
                        requests: Sequence[Any],
                        slo_s: Callable[[Any], float],
                        steps: bytes,
                        rejects: Sequence[Tuple[float, Any]],
                        completions: Sequence[Any], horizon_s: float,
                        context: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
    """An LLM batcher's monitor report, from one finished run.

    ``steps`` packs one :data:`LLM_STEP_ROW` per engine step;
    ``rejects`` are ``(t_s, request)`` pairs; each completion's first
    token came with step ``first_step``.  Every request arms its
    deadline ``arrival + slo_s(request)`` up front; the engine is idle
    when it stops.

    Series: active decode slots, KV tokens reserved, requests waiting,
    arrival/completion/rejection/SLO-miss/token rates, windowed TTFT /
    ITL / end-to-end latency percentiles, and the burn-rate pairs.
    """
    interval = config.interval_s
    row = {request.rid: i for i, request in enumerate(requests)}
    arrival = np.array([r.arrival_s for r in requests], float)
    deadline = arrival + np.array([slo_s(r) for r in requests], float)
    start, end, slots, kv, pending, tokens, gap, gaps = np.frombuffer(
        steps, float).reshape(-1, len(LLM_STEP_COLUMNS)).T
    reject_t = np.array([t for t, _ in rejects], float)
    stop_s = max(end.max(initial=0.0), reject_t.max(initial=0.0))
    bounds = _bounds(interval, max(horizon_s, stop_s,
                                   deadline.max(initial=0.0)))
    closed = (int(_event_at(bounds, stop_s))
              if len(end) or len(reject_t) else 0)
    end_at = _event_at(bounds, end)
    reject_at = _event_at(bounds, reject_t)
    done = np.array([row[c.request.rid] for c in completions], int)
    finish = np.array([c.finish_s for c in completions], float)
    done_at = _event_at(bounds, finish)
    engine, series, miss_at = _settle(
        config, bounds, deadline,
        np.array([row[r.rid] for _, r in rejects], int), reject_at, done,
        done_at, finish <= deadline[done] + _EPS, closed, horizon_s)
    n = engine.intervals

    # Gauges hold the state of the last step begun by each boundary.
    pick = np.searchsorted(np.append(_event_at(bounds, start), closed),
                           np.arange(n), side="right")
    for name, unit, column in (("slots.active", "slots", slots),
                               ("kv.reserved", "tokens", kv),
                               ("queue.pending", "requests", pending)):
        series[name] = TimeSeries(name, "gauge", unit, np.concatenate(
            [[0.0], column, [0.0]])[pick].tolist())
    for name, unit, event, weights in (
            ("rate.arrivals", "req/s", _due_at(bounds, arrival), None),
            ("rate.completions", "req/s", done_at, None),
            ("rate.rejections", "req/s", reject_at, None),
            ("rate.slo_misses", "req/s", miss_at, None),
            ("rate.tokens", "tok/s", end_at, tokens)):
        series[name] = TimeSeries(name, "rate", unit,
                                  _rate(event, n, interval, weights))

    window = config.window_intervals
    _windows(series, "ttft",
             end_at[np.array([c.first_step for c in completions], int)],
             np.array([c.ttft_s for c in completions], float) * 1e3, n,
             window)
    _windows(series, "itl", end_at, gap * 1e3, n, window, gaps)
    _windows(series, "latency", done_at, (finish - arrival[done]) * 1e3, n,
             window)
    return _payload("llm", config, engine, series, context)


# ---------------------------------------------------------------------------
# Report validation + rendering
# ---------------------------------------------------------------------------
def validate_monitor_report(payload: Dict[str, Any]) -> List[str]:
    """Structural checks on a monitor report; returns problem strings."""
    problems: List[str] = []
    if payload.get("schema") != MONITOR_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {MONITOR_SCHEMA!r}")
    if payload.get("kind") not in ("fleet", "llm"):
        problems.append(f"kind is {payload.get('kind')!r}")
    intervals = payload.get("intervals")
    if not isinstance(intervals, int) or intervals < 0:
        problems.append(f"intervals is {intervals!r}")
        intervals = None
    if not (isinstance(payload.get("interval_s"), (int, float))
            and payload.get("interval_s", 0) > 0):
        problems.append(f"interval_s is {payload.get('interval_s')!r}")
    slo = payload.get("slo")
    if not isinstance(slo, dict):
        problems.append("slo block missing")
    else:
        for key in ("name", "target", "budget", "good", "bad", "total",
                    "error_rate", "budget_burned"):
            if key not in slo:
                problems.append(f"slo.{key} missing")
        if isinstance(slo.get("good"), int) and isinstance(
                slo.get("bad"), int) and \
                slo.get("total") != slo["good"] + slo["bad"]:
            problems.append("slo.total != good + bad")
    rules = payload.get("rules")
    rule_names = set()
    if not isinstance(rules, list) or not rules:
        problems.append("rules list missing or empty")
    else:
        for rule in rules:
            for key in ("name", "severity", "factor", "long_window_s",
                        "short_window_s"):
                if key not in rule:
                    problems.append(f"rule missing {key}: {rule}")
            rule_names.add(rule.get("name"))
    series = payload.get("series")
    if not isinstance(series, dict) or not series:
        problems.append("series block missing or empty")
    else:
        for name, column in series.items():
            for key in ("kind", "unit", "samples"):
                if key not in column:
                    problems.append(f"series {name!r} missing {key}")
            samples = column.get("samples")
            if not isinstance(samples, list):
                problems.append(f"series {name!r} samples not a list")
            elif intervals is not None and len(samples) != intervals:
                problems.append(f"series {name!r} has {len(samples)} "
                                f"samples, expected {intervals}")
    alerts = payload.get("alerts")
    if not isinstance(alerts, list):
        problems.append("alerts list missing")
        alerts = []
    state: Dict[str, bool] = {}
    for event in alerts:
        if event.get("kind") not in ("fire", "resolve"):
            problems.append(f"alert kind {event.get('kind')!r}")
            continue
        rule = event.get("rule")
        if rule_names and rule not in rule_names:
            problems.append(f"alert references unknown rule {rule!r}")
        firing = state.get(rule, False)
        if event["kind"] == "fire" and firing:
            problems.append(f"rule {rule!r} fired twice without resolve")
        if event["kind"] == "resolve" and not firing:
            problems.append(f"rule {rule!r} resolved without firing")
        state[rule] = event["kind"] == "fire"
    active = payload.get("active_alerts")
    if not isinstance(active, list):
        problems.append("active_alerts list missing")
    else:
        expected = sorted(rule for rule, firing in state.items() if firing)
        if sorted(active) != expected:
            problems.append(f"active_alerts {active!r} inconsistent with "
                            f"alert stream (expected {expected!r})")
    return problems


def monitor_table(payload: Dict[str, Any]) -> str:
    """Fixed-width per-series summary table for a monitor report."""
    from ..harness.report import render_table
    rows = []
    for name, column in payload.get("series", {}).items():
        present = [s for s in column["samples"] if s is not None]
        rows.append((
            name,
            column["kind"],
            len(present),
            f"{max(present):.3f}" if present else "n/a",
            (f"{present[-1]:.3f}" if present else "n/a"),
        ))
    title = (f"monitor: {payload.get('kind')} · "
             f"{payload.get('intervals')} intervals · "
             f"{len(payload.get('alerts', []))} alert events")
    return render_table(("series", "kind", "samples", "max", "last"),
                        rows, title=title)
