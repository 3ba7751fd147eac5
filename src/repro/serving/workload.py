"""Load generators for the serving simulator.

Three request sources, all pure functions of their parameters under the
shared ``REPRO_SEED`` discipline (:mod:`repro.runtime.seed`):

* :class:`OpenLoopPoisson` — open-loop arrivals with exponential
  inter-arrival times at a fixed offered rate; arrivals do not react to
  the system (the datacenter "heavy traffic" regime).
* :class:`ClosedLoop` — N clients that each keep exactly one request in
  flight, issuing the next one ``think_s`` after the previous response;
  the arrival rate self-limits to what the fleet sustains.
* :class:`TraceReplay` — replays an explicit ``(arrival_s, model)``
  trace, e.g. a recorded mix over the 7 zoo entries
  (:func:`zoo_mix_trace`).
* :class:`DiurnalTrace` — a day-cycle trace with a cosine rate envelope
  between a trough and a peak, plus optional square-wave bursts; the
  datacenter-scale workload the autoscaler is evaluated against.  It is
  drawn in fixed numpy blocks and stored, like every trace replay, as
  two columns (arrival times, model names) rather than ``Request``
  objects.

Traces round-trip through JSON (:func:`save_trace` /
:func:`load_trace`, schema ``repro-request-trace-v1``) so a generated
diurnal day can be replayed byte-identically by ``repro serve
--trace``.

The simulators drive a workload through three hooks: :meth:`initial`
yields the requests known up front, :meth:`arrivals` yields the same
arrivals as sorted ``(times, models)`` columns (what the scaled core
interns), and :meth:`on_complete` lets closed-loop clients react to
their own completions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import seeded_rng

#: Schema tag for serialized request traces.
TRACE_SCHEMA = "repro-request-trace-v1"

#: Candidates :class:`DiurnalTrace` draws per block.  Part of the seeded
#: sequence: changing it changes every generated day.
_BLOCK = 4096

#: ``(arrival times, model names)``, parallel and in ``(arrival_s, rid)``
#: order.
Columns = Tuple[Sequence[float], Sequence[str]]


@dataclass(frozen=True)
class Request:
    """One inference request against a zoo model."""
    rid: int
    model: str
    arrival_s: float
    client: int = -1


class Workload:
    """Base protocol: pre-known arrivals + a completion feedback hook."""

    #: Nominal traffic horizon; metrics normalize throughput against it.
    duration_s: float = 0.0

    def initial(self) -> List[Request]:
        raise NotImplementedError

    def arrivals(self) -> Columns:
        """The initial arrivals as columns, sorted by ``(arrival_s, rid)``."""
        ordered = sorted(self.initial(), key=attrgetter("arrival_s", "rid"))
        return ([r.arrival_s for r in ordered],
                [r.model for r in ordered])

    def on_complete(self, request: Request,
                    finish_s: float) -> Optional[Request]:
        """Next request triggered by this completion (closed loop only)."""
        return None


class OpenLoopPoisson(Workload):
    """Open-loop Poisson arrivals over a fixed model mix.

    Models are drawn uniformly from ``models`` per request (a single
    entry gives a single-model stream). The stream is fully determined
    by ``(REPRO_SEED, models, rate_rps, duration_s, stream)``.
    """

    def __init__(self, models: Sequence[str], rate_rps: float,
                 duration_s: float, stream: object = 0):
        _check_generator(models, "rate_rps", rate_rps, duration_s)
        self.models = tuple(models)
        self.rate_rps = float(rate_rps)
        self.duration_s = float(duration_s)
        rng = seeded_rng("poisson", self.models, self.rate_rps,
                         self.duration_s, stream)
        requests: List[Request] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.rate_rps))
            if t >= self.duration_s:
                break
            model = self.models[int(rng.integers(len(self.models)))]
            requests.append(Request(len(requests), model, t))
        self._requests = requests

    def initial(self) -> List[Request]:
        return list(self._requests)


class ClosedLoop(Workload):
    """``clients`` concurrent clients, one outstanding request each.

    Client ``c`` always requests ``models[c % len(models)]``; its next
    request arrives ``think_s`` after (and never before) its previous
    response. Initial arrivals are staggered by one think time spread
    evenly so clients do not all hit an empty fleet at t=0.
    """

    def __init__(self, models: Sequence[str], clients: int,
                 duration_s: float, think_s: float = 0.0):
        if clients <= 0:
            raise ValueError(f"clients must be positive, got {clients}")
        self.models = tuple(models)
        self.clients = clients
        self.duration_s = float(duration_s)
        self.think_s = float(think_s)
        self._next_rid = clients

    def initial(self) -> List[Request]:
        stagger = self.think_s / self.clients if self.think_s else 0.0
        return [Request(c, self.models[c % len(self.models)], c * stagger,
                        client=c)
                for c in range(self.clients)]

    def on_complete(self, request: Request,
                    finish_s: float) -> Optional[Request]:
        arrival = finish_s + self.think_s
        if arrival >= self.duration_s:
            return None
        rid = self._next_rid
        self._next_rid += 1
        return replace(request, rid=rid, arrival_s=arrival)


def _check_generator(models: Sequence[str], rate_name: str, rate: float,
                     duration_s: float) -> None:
    """Reject inputs a generator's horizon loop could never finish."""
    if not models:
        raise ValueError("models must name at least one model")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"{rate_name} must be finite and positive, "
                         f"got {rate}")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration_s must be finite and >= 0, "
                         f"got {duration_s}")


class TraceReplay(Workload):
    """Replay an explicit ``(arrival_s, model)`` trace, in time order.

    The trace is held as two time-sorted columns; request *i* is the
    *i*-th entry after a stable sort on arrival time.
    """

    def __init__(self, entries: Iterable[Tuple[float, str]]):
        ordered = sorted(entries, key=lambda e: e[0])
        self._set_columns(tuple(float(t) for t, _ in ordered),
                          tuple(model for _, model in ordered))

    def _set_columns(self, times: Tuple[float, ...],
                     models: Tuple[str, ...]) -> None:
        self._times = times
        self._models = models
        self.duration_s = times[-1] if times else 0.0

    def arrivals(self) -> Columns:
        return self._times, self._models

    def initial(self) -> List[Request]:
        return [Request(i, model, t) for i, (t, model)
                in enumerate(zip(self._times, self._models))]


def zoo_mix_trace(models: Sequence[str], rate_rps: float,
                  duration_s: float, stream: object = 0) -> TraceReplay:
    """A canned Poisson trace over a model mix, as a replayable trace."""
    source = OpenLoopPoisson(models, rate_rps, duration_s, stream=stream)
    return TraceReplay((r.arrival_s, r.model) for r in source.initial())


class DiurnalTrace(TraceReplay):
    """Diurnal load: a cosine rate envelope between trough and peak.

    Arrivals are Poisson candidates at ``peak_rps``, each accepted with
    probability ``trough_fraction + (1 - trough_fraction) * 0.5 * (1 -
    cos(2*pi*t / period_s))`` — the instantaneous rate starts at the
    trough, crests at ``peak_rps`` mid-period, and returns to the trough,
    like a compressed day of datacenter traffic.  Optional square-wave
    *bursts* (every ``burst_every_s``, lasting ``burst_len_s``) force
    acceptance to 1, modelling flash crowds the autoscaler must absorb.

    Candidates are drawn in blocks of 4,096: per block, all exponential
    gaps, then all acceptance uniforms, then all model picks.  The
    running time is carried into the block's first gap and accumulated
    with ``np.cumsum`` (sequential adds, as a scalar ``t +=`` would do);
    a candidate is kept when its uniform is below its acceptance and it
    lies before ``duration_s``.  The trace is a pure function of
    ``(REPRO_SEED, models, peak_rps, duration_s, trough_fraction,
    period_s, burst_every_s, burst_len_s, stream)``.
    """

    def __init__(self, models: Sequence[str], peak_rps: float,
                 duration_s: float, trough_fraction: float = 0.25,
                 period_s: Optional[float] = None,
                 burst_every_s: float = 0.0, burst_len_s: float = 0.0,
                 stream: object = 0):
        _check_generator(models, "peak_rps", peak_rps, duration_s)
        if not 0.0 <= trough_fraction <= 1.0:
            raise ValueError(f"trough_fraction must be in [0, 1], "
                             f"got {trough_fraction}")
        self.models = tuple(models)
        self.peak_rps = float(peak_rps)
        self.trough_fraction = float(trough_fraction)
        self.period_s = float(period_s) if period_s else float(duration_s)
        self.burst_every_s = float(burst_every_s)
        self.burst_len_s = float(burst_len_s)
        duration = float(duration_s)
        rng = seeded_rng("diurnal", self.models, self.peak_rps,
                         duration, self.trough_fraction,
                         self.period_s, self.burst_every_s,
                         self.burst_len_s, stream)
        swing = (1.0 - self.trough_fraction) * 0.5
        two_pi = 2.0 * math.pi
        kept_t: List[np.ndarray] = []
        kept_m: List[np.ndarray] = []
        t = 0.0
        while t < duration:
            gaps = rng.exponential(1.0 / self.peak_rps, _BLOCK)
            gaps[0] += t
            cand = np.cumsum(gaps)
            u = rng.random(_BLOCK)
            picks = rng.integers(len(self.models), size=_BLOCK)
            accept = self.trough_fraction + swing * (
                1.0 - np.cos(two_pi * cand / self.period_s))
            if self.burst_every_s > 0.0:
                accept[cand % self.burst_every_s < self.burst_len_s] = 1.0
            keep = (u < accept) & (cand < duration)
            kept_t.append(cand[keep])
            kept_m.append(picks[keep])
            t = float(cand[-1])
        times = np.concatenate(kept_t) if kept_t else np.empty(0)
        picks = np.concatenate(kept_m) if kept_m else np.empty(0, int)
        self._set_columns(tuple(times.tolist()),
                          tuple(self.models[i] for i in picks.tolist()))
        # The envelope's horizon, not the last accepted arrival: the
        # quiet tail after the final request is part of the day (and is
        # where the autoscaler earns its cost savings).
        self.duration_s = duration


def save_trace(workload: Workload, path: str) -> int:
    """Serialize a workload's initial arrivals as a JSON trace file.

    Returns the number of requests written.  The file round-trips
    through :func:`load_trace` into a :class:`TraceReplay` that yields
    the identical arrival sequence.
    """
    requests = workload.initial()
    payload = {
        "schema": TRACE_SCHEMA,
        "duration_s": workload.duration_s,
        "requests": [[r.arrival_s, r.model] for r in requests],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
        fh.write("\n")
    return len(requests)


def load_trace(path: str) -> TraceReplay:
    """Load a ``repro-request-trace-v1`` JSON file as a trace replay."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"{path}: schema {schema!r}, "
                         f"expected {TRACE_SCHEMA!r}")
    entries = [(float(t), str(model)) for t, model in payload["requests"]]
    trace = TraceReplay(entries)
    duration = payload.get("duration_s")
    if isinstance(duration, (int, float)) and duration > trace.duration_s:
        trace.duration_s = float(duration)
    return trace
