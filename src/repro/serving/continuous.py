"""Prefill/decode-aware LLM batching: continuous vs one-shot dynamic.

Autoregressive requests are not one-invocation jobs: each owns a prompt
(prefill phase) and a token budget (decode phase), and its KV-cache
occupies device memory for its whole lifetime. Two schedulers over the
same frozen :class:`LLMServiceCosts`:

* :class:`ContinuousBatcher` — iteration-level scheduling. Slots join
  at decode-step boundaries as requests arrive (prefill briefly stalls
  the engine, the documented join cost), leave on EOS, and the KV-cache
  token budget is the admission constraint: a request is admitted only
  when its worst-case footprint (``prompt + output`` tokens) fits in
  the unreserved budget.
* :class:`OneShotBatcher` — the classic dynamic-batching baseline: form
  a batch once, pad every member to the longest prompt and the longest
  output, and return all results when the whole batch finishes. Short
  requests pay for long ones; empty slots decode padding.

Both simulations are pure functions of ``(REPRO_SEED, inputs)`` — the
workload generator draws from :func:`repro.runtime.seeded_rng` — so
serial and ``--jobs N`` sweeps stay byte-identical.

Service times follow the scheduler module's amortized-cost discipline
(:data:`~repro.serving.scheduler.DEFAULT_AMORTIZED_FRACTION`): a step
over ``B`` slots costs ``unit * (f + (1 - f) * B)``, so ``B = 1``
reproduces the isolated latency and batching amortizes exactly the
fixed fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime import seeded_rng
from .metrics import LLMServingReport, percentile
from .monitor import env_int
from .scheduler import DEFAULT_AMORTIZED_FRACTION
from .workload import _check_generator

#: SLO multiple over a request's *ideal* (isolated, unbatched) latency.
DEFAULT_LLM_SLO_MULTIPLIER = 5.0


def default_kv_budget() -> int:
    """KV-cache admission budget in tokens (``REPRO_LLM_KV_BUDGET``)."""
    return max(1, env_int("REPRO_LLM_KV_BUDGET", 1024))


def default_max_slots() -> int:
    """Decode-batch slot count (``REPRO_LLM_MAX_SLOTS``)."""
    return max(1, env_int("REPRO_LLM_MAX_SLOTS", 8))


@dataclass(frozen=True)
class LLMRequest:
    """One generation request: a prompt and an output-token budget."""
    rid: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int

    @property
    def kv_footprint(self) -> int:
        """Worst-case KV-cache tokens this request ever occupies."""
        return self.prompt_tokens + self.output_tokens


def llm_poisson_requests(rate_rps: float, duration_s: float,
                         prompt_range: Tuple[int, int] = (8, 64),
                         output_range: Tuple[int, int] = (4, 64),
                         stream: object = 0) -> List[LLMRequest]:
    """Open-loop Poisson arrivals with uniform prompt/output lengths."""
    _check_generator("rate_rps", rate_rps, duration_s)
    rng = seeded_rng("llm-poisson", rate_rps, duration_s,
                     tuple(prompt_range), tuple(output_range), stream)
    requests: List[LLMRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_rps))
        if t >= duration_s:
            break
        prompt = int(rng.integers(prompt_range[0], prompt_range[1] + 1))
        output = int(rng.integers(output_range[0], output_range[1] + 1))
        requests.append(LLMRequest(len(requests), t, prompt, output))
    return requests


@dataclass(frozen=True)
class LLMServiceCosts:
    """Frozen per-config LLM service costs (plain data, picklable)."""
    config: str
    prefill_token_s: float
    decode_step_s: float
    kv_budget_tokens: int
    amortized_fraction: float = DEFAULT_AMORTIZED_FRACTION
    slo_multiplier: float = DEFAULT_LLM_SLO_MULTIPLIER

    @classmethod
    def resolve(cls, config: str = "gpt2_rms",
                kv_budget_tokens: Optional[int] = None,
                slo_multiplier: float = DEFAULT_LLM_SLO_MULTIPLIER,
                npu=None) -> "LLMServiceCosts":
        """Freeze one config's costs from content-cached NPU evaluations."""
        from ..llm import decode_step_costs
        costs = decode_step_costs(config, npu=npu)
        budget = (default_kv_budget() if kv_budget_tokens is None
                  else kv_budget_tokens)
        return cls(config=costs.config,
                   prefill_token_s=costs.prefill_token_s,
                   decode_step_s=costs.decode_step_s,
                   kv_budget_tokens=budget,
                   slo_multiplier=slo_multiplier)

    def batched_s(self, unit_s: float, batch: int) -> float:
        """Amortized time for one phase over ``batch`` slots."""
        if batch <= 0:
            return 0.0
        f = self.amortized_fraction
        return unit_s * (f + (1.0 - f) * batch)

    def prefill_s(self, prompt_tokens: int, batch: int = 1) -> float:
        return self.batched_s(self.prefill_token_s * prompt_tokens, batch)

    def ideal_latency_s(self, request: LLMRequest) -> float:
        """Isolated run-to-completion latency (batch 1, no queueing)."""
        return (self.prefill_token_s * request.prompt_tokens
                + self.decode_step_s * request.output_tokens)

    def slo_s(self, request: LLMRequest) -> float:
        return self.slo_multiplier * self.ideal_latency_s(request)

    def saturation_rps(self, max_slots: int, mean_prompt: float,
                       mean_output: float) -> float:
        """Rough full-batch request capacity (anchors sweep rate ladders)."""
        token_rate = max_slots / self.batched_s(self.decode_step_s,
                                                max_slots)
        per_request_s = (mean_output / token_rate
                         + self.prefill_token_s * mean_prompt)
        return 1.0 / per_request_s


@dataclass
class _Completion:
    request: LLMRequest
    finish_s: float
    ttft_s: float
    itls_s: List[float]


@dataclass
class _Collector:
    """Shared outcome accumulator for both schedulers."""
    completions: List[_Completion] = field(default_factory=list)
    rejected: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    kv_peak_tokens: int = 0
    trace: List[Dict[str, Any]] = field(default_factory=list)

    def report(self, costs: LLMServiceCosts, scheduler: str,
               max_slots: int, rate_rps: float,
               duration_s: float) -> LLMServingReport:
        done = self.completions
        offered = len(done) + self.rejected
        makespan = max((c.finish_s for c in done), default=duration_s)
        makespan = max(makespan, duration_s)
        good = sum(1 for c in done
                   if c.finish_s - c.request.arrival_s
                   <= costs.slo_s(c.request))
        latencies = sorted((c.finish_s - c.request.arrival_s) * 1e3
                           for c in done)
        ttfts = sorted(c.ttft_s * 1e3 for c in done)
        itls = sorted(itl * 1e3 for c in done for itl in c.itls_s)
        tokens = sum(c.request.output_tokens for c in done)
        return LLMServingReport(
            scheduler=scheduler,
            config=costs.config,
            max_slots=max_slots,
            kv_budget_tokens=costs.kv_budget_tokens,
            rate_rps=rate_rps,
            duration_s=duration_s,
            slo_multiplier=costs.slo_multiplier,
            offered=offered,
            completed=len(done),
            rejected=self.rejected,
            makespan_s=makespan,
            throughput_rps=len(done) / makespan if makespan else 0.0,
            goodput_rps=good / makespan if makespan else 0.0,
            slo_attainment=good / offered if offered else 0.0,
            tokens_generated=tokens,
            tokens_per_s=tokens / makespan if makespan else 0.0,
            mean_batch_size=(sum(self.batch_sizes) / len(self.batch_sizes)
                            if self.batch_sizes else 0.0),
            kv_peak_tokens=self.kv_peak_tokens,
            mean_latency_ms=(sum(latencies) / len(latencies)
                             if latencies else 0.0),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            ttft_p50_ms=percentile(ttfts, 50),
            ttft_p95_ms=percentile(ttfts, 95),
            ttft_p99_ms=percentile(ttfts, 99),
            itl_p50_ms=percentile(itls, 50),
            itl_p95_ms=percentile(itls, 95),
            itl_p99_ms=percentile(itls, 99),
        )


@dataclass
class _Slot:
    request: LLMRequest
    emitted: int = 0
    ttft_s: Optional[float] = None
    last_token_s: float = 0.0
    itls_s: List[float] = field(default_factory=list)


class ContinuousBatcher:
    """Iteration-level scheduler with KV-budget admission control.

    The engine advances in decode steps. At every step boundary it
    admits arrived requests in FIFO order while (a) a slot is free and
    (b) the request's worst-case KV footprint fits in the unreserved
    budget; admission runs the joiner's prefill immediately (stalling
    the other slots — the join cost continuous batching pays). Each step
    then emits one token for every active slot; slots whose output
    budget is spent leave at the step boundary and release their KV
    reservation. A request whose footprint alone exceeds the whole
    budget can never run and is rejected outright.
    """

    def __init__(self, costs: LLMServiceCosts,
                 max_slots: Optional[int] = None,
                 collect_trace: bool = False,
                 monitor=None):
        self.costs = costs
        self.max_slots = (default_max_slots() if max_slots is None
                          else max_slots)
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        self.collect_trace = collect_trace
        #: Optional :class:`~repro.serving.monitor.LLMMonitor`. Purely
        #: observational — the hooks never change admission or stepping,
        #: so the LLMServingReport is identical with or without it.
        self.monitor = monitor

    def run(self, requests: Sequence[LLMRequest],
            rate_rps: float = 0.0,
            duration_s: float = 0.0) -> LLMServingReport:
        costs = self.costs
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        collector = _Collector()
        monitor = self.monitor
        if monitor is not None:
            monitor.start(pending, costs.slo_s)
        active: List[_Slot] = []
        kv_reserved = 0
        clock = 0.0
        head = 0
        while head < len(pending) or active:
            if not active:
                if head >= len(pending):
                    break
                clock = max(clock, pending[head].arrival_s)
                if monitor is not None:
                    monitor.advance(clock)
            # Join at the step boundary, FIFO, budget permitting.
            while (head < len(pending)
                   and pending[head].arrival_s <= clock
                   and len(active) < self.max_slots):
                request = pending[head]
                if request.kv_footprint > costs.kv_budget_tokens:
                    head += 1
                    collector.rejected += 1
                    if monitor is not None:
                        monitor.note_reject(request.rid)
                    if self.collect_trace:
                        collector.trace.append(
                            {"kind": "reject", "rid": request.rid,
                             "t_s": clock})
                    continue
                if kv_reserved + request.kv_footprint \
                        > costs.kv_budget_tokens:
                    break   # head-of-line waits for KV space
                head += 1
                kv_reserved += request.kv_footprint
                prefill = costs.prefill_s(request.prompt_tokens)
                if self.collect_trace:
                    collector.trace.append(
                        {"kind": "prefill", "rid": request.rid,
                         "start_s": clock, "finish_s": clock + prefill,
                         "slot": len(active),
                         "tokens": request.prompt_tokens})
                clock += prefill
                if monitor is not None:
                    monitor.advance(clock)
                active.append(_Slot(request, last_token_s=clock))
            if not active:
                # Every arrival so far was rejected; take the next one.
                continue
            batch = len(active)
            collector.batch_sizes.append(batch)
            collector.kv_peak_tokens = max(collector.kv_peak_tokens,
                                           kv_reserved)
            step = costs.batched_s(costs.decode_step_s, batch)
            if self.collect_trace:
                collector.trace.append(
                    {"kind": "step", "start_s": clock,
                     "finish_s": clock + step, "batch": batch,
                     "rids": [s.request.rid for s in active]})
            if monitor is not None:
                monitor.note_state(batch, kv_reserved, len(pending) - head)
            clock += step
            if monitor is not None:
                monitor.advance(clock)
                monitor.note_tokens(batch)
            still_active: List[_Slot] = []
            for slot in active:
                slot.emitted += 1
                if slot.ttft_s is None:
                    slot.ttft_s = clock - slot.request.arrival_s
                    if monitor is not None:
                        monitor.note_ttft(slot.ttft_s)
                else:
                    itl = clock - slot.last_token_s
                    slot.itls_s.append(itl)
                    if monitor is not None:
                        monitor.note_itl(itl)
                slot.last_token_s = clock
                if slot.emitted >= slot.request.output_tokens:
                    kv_reserved -= slot.request.kv_footprint
                    collector.completions.append(_Completion(
                        slot.request, clock, slot.ttft_s, slot.itls_s))
                    if monitor is not None:
                        monitor.note_complete(
                            slot.request.rid, clock,
                            (clock - slot.request.arrival_s) * 1e3)
                    if self.collect_trace:
                        collector.trace.append(
                            {"kind": "complete", "rid": slot.request.rid,
                             "t_s": clock})
                else:
                    still_active.append(slot)
            active = still_active
        if monitor is not None:
            monitor.note_state(0, kv_reserved, 0)
            monitor.finish(max(clock, duration_s))
        self.trace_log = collector.trace
        return collector.report(costs, "continuous", self.max_slots,
                                rate_rps, duration_s)


class OneShotBatcher:
    """Batch-at-arrival baseline: padded batches run to completion.

    An idle device holds the head request up to ``max_wait_s`` (dynamic
    batching), takes up to ``max_slots`` arrived requests whose *padded*
    KV footprint fits the budget, prefills them as one padded batch and
    decodes ``max(output)`` steps at constant batch size. Everyone —
    including members that finished their own tokens long ago — gets
    their result when the batch retires.
    """

    def __init__(self, costs: LLMServiceCosts,
                 max_slots: Optional[int] = None,
                 max_wait_s: float = 2e-3,
                 collect_trace: bool = False,
                 monitor=None):
        self.costs = costs
        self.max_slots = (default_max_slots() if max_slots is None
                          else max_slots)
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        self.max_wait_s = max_wait_s
        self.collect_trace = collect_trace
        self.monitor = monitor

    def run(self, requests: Sequence[LLMRequest],
            rate_rps: float = 0.0,
            duration_s: float = 0.0) -> LLMServingReport:
        costs = self.costs
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        collector = _Collector()
        monitor = self.monitor
        if monitor is not None:
            monitor.start(pending, costs.slo_s)
        clock = 0.0
        head = 0
        while head < len(pending):
            request = pending[head]
            if request.kv_footprint > costs.kv_budget_tokens:
                head += 1
                collector.rejected += 1
                if monitor is not None:
                    monitor.advance(max(clock, request.arrival_s))
                    monitor.note_reject(request.rid)
                if self.collect_trace:
                    collector.trace.append(
                        {"kind": "reject", "rid": request.rid,
                         "t_s": max(clock, request.arrival_s)})
                continue
            start = max(clock, request.arrival_s + self.max_wait_s)
            # Greedy padded batch: members must all fit the KV budget
            # at the padded (max prompt + max output) footprint.
            members: List[LLMRequest] = []
            max_prompt = 0
            max_output = 0
            scan = head
            while scan < len(pending) and len(members) < self.max_slots:
                cand = pending[scan]
                if cand.arrival_s > start:
                    break
                if cand.kv_footprint > costs.kv_budget_tokens:
                    scan += 1
                    collector.rejected += 1
                    if monitor is not None:
                        monitor.advance(start)
                        monitor.note_reject(cand.rid)
                    if self.collect_trace:
                        collector.trace.append(
                            {"kind": "reject", "rid": cand.rid,
                             "t_s": start})
                    continue
                padded_prompt = max(max_prompt, cand.prompt_tokens)
                padded_output = max(max_output, cand.output_tokens)
                padded = ((len(members) + 1)
                          * (padded_prompt + padded_output))
                if members and padded > costs.kv_budget_tokens:
                    break
                members.append(cand)
                max_prompt, max_output = padded_prompt, padded_output
                scan += 1
            head = scan
            batch = len(members)
            collector.batch_sizes.append(batch)
            collector.kv_peak_tokens = max(
                collector.kv_peak_tokens,
                batch * (max_prompt + max_output))
            prefill = costs.prefill_s(max_prompt, batch)
            step = costs.batched_s(costs.decode_step_s, batch)
            finish = start + prefill + max_output * step
            if monitor is not None:
                monitor.advance(start)
                monitor.note_state(batch,
                                   batch * (max_prompt + max_output),
                                   len(pending) - head)
            if self.collect_trace:
                collector.trace.append(
                    {"kind": "prefill", "rid": members[0].rid,
                     "start_s": start, "finish_s": start + prefill,
                     "slot": 0, "tokens": max_prompt, "batch": batch})
                collector.trace.append(
                    {"kind": "step", "start_s": start + prefill,
                     "finish_s": finish, "batch": batch,
                     "rids": [m.rid for m in members]})
            if monitor is not None:
                monitor.advance(finish)
                monitor.note_tokens(sum(m.output_tokens for m in members))
            for member in members:
                first = start + prefill + step
                itls = [step] * (member.output_tokens - 1)
                collector.completions.append(_Completion(
                    member, finish, first - member.arrival_s, itls))
                if monitor is not None:
                    monitor.note_ttft(first - member.arrival_s)
                    for itl in itls:
                        monitor.note_itl(itl)
                    monitor.note_complete(member.rid, finish,
                                          (finish - member.arrival_s) * 1e3)
                if self.collect_trace:
                    collector.trace.append(
                        {"kind": "complete", "rid": member.rid,
                         "t_s": finish})
            clock = finish
        if monitor is not None:
            monitor.note_state(0, 0, 0)
            monitor.finish(max(clock, duration_s))
        self.trace_log = collector.trace
        return collector.report(costs, "oneshot", self.max_slots,
                                rate_rps, duration_s)


#: Scheduler registry used by the sweep, the CLI, and the experiment.
LLM_SCHEDULERS = ("oneshot", "continuous")


def make_llm_batcher(kind: str, costs: LLMServiceCosts,
                     max_slots: Optional[int] = None,
                     collect_trace: bool = False,
                     monitor=None):
    if kind == "continuous":
        return ContinuousBatcher(costs, max_slots=max_slots,
                                 collect_trace=collect_trace,
                                 monitor=monitor)
    if kind == "oneshot":
        return OneShotBatcher(costs, max_slots=max_slots,
                              collect_trace=collect_trace,
                              monitor=monitor)
    raise ValueError(f"unknown LLM scheduler {kind!r}; "
                     f"known: {', '.join(LLM_SCHEDULERS)}")
