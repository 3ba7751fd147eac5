"""The benchmark workloads: set-up, timed body and correctness checks.

Each workload is a closed batch driven from one process: the body makes
one call, waits for it and returns. Arrivals inside the serving workloads
are simulated time generated by ``repro.serving.workload`` from
``REPRO_SEED``. Every compile cache lives in a fresh directory under the
run's scratch directory, never in the working directory's
``.repro_cache``.

A workload's methods:

* ``prepare(ctx)`` makes the inputs from the seed; it touches no cache;
* ``fill()`` is the cache fill the workload's start-up makes, as
  ``repro serve``/``repro decode`` make it. :func:`timed_fill` runs it
  into an empty cache in one process and again in a fresh process over
  the same directory;
* ``record(result)`` turns a fill's result into a comparable value and
  the problems it shows (an unverified model); the warm fill's value
  must equal the cold fill's;
* ``body(ctx, index)`` is one timed iteration; it returns an
  :class:`Outcome` whose ``output`` must repeat between iterations;
* ``check(ctx, outcomes)`` runs once per benchmark run, outside the timed
  region, and returns ``(problems, counts)``: correctness problems and
  the deterministic counts of one iteration.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from calibrate import calibrate
from repro.cli import main as repro_main
from repro.runtime import EvalCache, set_cache


@dataclass
class Outcome:
    """What one timed iteration did."""
    ops: int                       # operations attempted
    output: Any                    # must equal between iterations
    failed: int = 0                # operations that raised or failed
    parts: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Context:
    scratch: Path                  # this process's own files
    cache_dir: Path                # the compile cache of this set-up
    seed: int
    tiny: bool
    #: Every calibration taken so far (see :meth:`calibrate`).
    marks: List[float] = field(default_factory=list)
    #: Host seconds those calibrations took, which are not set-up.
    spent_s: float = 0.0

    def calibrate(self) -> float:
        """:func:`calibrate`, remembered so set-up can discount it."""
        start = time.monotonic()
        mark = calibrate()
        self.spent_s += time.monotonic() - start
        self.marks.append(mark)
        return mark


def install_cache(directory: Path) -> EvalCache:
    """A fresh process-wide cache (empty memory tier) over ``directory``."""
    cache = EvalCache(directory=directory)
    set_cache(cache)
    return cache


def timed(fn, *args) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """``repro <argv>`` in-process with stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro_main(list(argv))
    return code, buffer.getvalue()


def without_wrote(text: str) -> str:
    """CLI stdout minus the ``wrote FILE`` lines that output flags add."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wrote "))


def busy_seconds(report: dict) -> float:
    """Simulated device-busy seconds of a serving report's fleet.

    It depends on the cost model, so it is pinned as a count only; the
    serving workloads' ``sim_cycles`` is the simulated span the inputs
    fix, so a cost-model fix does not move ``sim_cycles_per_s``.
    """
    return sum(report["per_device_utilization"]) * report["makespan_s"]


def hit_ratio(cache: EvalCache) -> float:
    """Share of ``cache``'s lookups so far that hit."""
    lookups = cache.stats.hits + cache.stats.misses
    return cache.stats.hits / lookups if lookups else 0.0


def clock_hz() -> float:
    from repro.npu import NPUTandem
    return NPUTandem().config.frequency_hz


def timed_fill(ctx: Context, workload, kind: str
               ) -> Tuple[Dict[str, float], Any]:
    """``workload.fill()`` through a fresh cache over ``ctx.cache_dir``.

    ``kind`` is ``"cold"`` for the fill into the empty directory and
    ``"warm"`` for the one over the cold fill's. The cache stays
    installed, so later calls hit its memory tier. Returns the timing, the
    calibration next to it (see :meth:`Context.calibrate`) and the share
    of the fill's lookups that hit, and the fill's result.
    """
    cache = install_cache(ctx.cache_dir)
    before = ctx.calibrate()
    seconds, result = timed(workload.fill)
    after = ctx.calibrate()
    return {kind + "_s": seconds,
            kind + "_calibration_s": (before + after) / 2,
            kind + "_hit_ratio": hit_ratio(cache)}, result


def unverified(costs) -> List[str]:
    """Problems for the models ``costs`` holds as not cleanly verified."""
    return [f"{model}: verification record missing or not clean"
            for model, cost in costs.costs.items() if not cost.verified]


# ---------------------------------------------------------------------------
class FleetDay:
    """The pinned 1000-device, 125-cell diurnal day, autoscaler on."""

    name = "fleet-day"

    def prepare(self, ctx: Context) -> None:
        if ctx.tiny:
            self.models, devices, cells, rate, duration = (
                ["bert"], 20, 4, 200.0, 2.0)
        else:
            self.models, devices, cells, rate, duration = (
                ["bert", "resnet50"], 1000, 125, 4000.0, 20.0)
        self.shape = (rate, duration)
        self.argv = ["serve", "--scale", "--autoscale", "--diurnal",
                     "--model", ",".join(self.models),
                     "--devices", str(devices), "--cells", str(cells),
                     "--rate", f"{rate:g}", "--duration", f"{duration:g}",
                     "--trough", "0.2", "--routing", "least_loaded"]

    def fill(self):
        from repro.serving import ServiceCosts
        return ServiceCosts.resolve(self.models)

    def record(self, costs):
        return costs, unverified(costs)

    def body(self, ctx: Context, index: int) -> Outcome:
        code, out = run_cli(self.argv)
        return Outcome(ops=1, output=(code, out), failed=int(code != 0))

    def check(self, ctx: Context, outcomes: List[Outcome]):
        from repro.serving import DiurnalTrace, validate_fleet_scale_report
        scale_out = ctx.scratch / "fleet-scale.json"
        report_out = ctx.scratch / "fleet-report.json"
        code, out = run_cli(self.argv + ["--scale-out", str(scale_out),
                                         "--json", str(report_out)])
        problems = []
        if code != 0:
            return [f"repro serve exited {code}"], {}
        if (0, without_wrote(out)) != outcomes[0].output:
            problems.append("timed stdout differs from the checked run")
        payload = json.loads(scale_out.read_text())
        report = json.loads(report_out.read_text())
        problems += validate_fleet_scale_report(payload)
        rate, duration = self.shape
        generated = len(DiurnalTrace(self.models, rate, duration,
                                     trough_fraction=0.2).initial())
        handled = report["completed"] + report["rejected"]
        if handled != generated:
            problems.append(f"completed + rejected = {handled}, "
                            f"generated {generated}")
        counts = {
            "sim_requests": handled,
            "sim_cycles": round(duration * clock_hz()),
            "busy_cycles": round(busy_seconds(report) * clock_hz()),
            "events": payload["sim"]["events"],
            "scale_events": len(payload["autoscale_events"]),
            "report_bytes": len(outcomes[0].output[1]),
            "sim_p99_ms": report["p99_ms"],
            "sim_dollars": payload["cost"]["dollars"],
        }
        return problems, counts


# ---------------------------------------------------------------------------
class ServeObserved:
    """A monitored, crash-injected small fleet plus a monitored LLM run."""

    name = "serve-observed"

    def prepare(self, ctx: Context) -> None:
        duration, crash_s = (2.0, 0.5) if ctx.tiny else (20.0, 4.0)
        # Shaped like the ``mon-crash-a`` plan: a 1 %/s-per-device crash
        # hazard with 6 s outages, plus one scheduled crash so that every
        # seed has an outage to page on.
        plan = {"name": "mon-crash-a",
                "device_crash": {"p_per_device_s": 0.01, "outage_s": 6.0,
                                 "at": [[0, crash_s]]}}
        plan_path = ctx.scratch / "mon-crash-a.json"
        plan_path.write_text(json.dumps(plan))
        self.duration = duration
        self.fleet_argv = ["serve", "--model", "bert", "--devices", "6",
                           "--rate", "120", "--duration", f"{duration:g}",
                           "--faults", str(plan_path),
                           "--resilience", "resilient"]
        self.llm_argv = ["serve", "--llm", "--llm-config", "gpt2_rms",
                         "--schedulers", "continuous"]
        if ctx.tiny:
            self.llm_argv += ["--rates", "20", "--duration", "1"]

    def fill(self):
        from repro.serving import LLMServiceCosts, ServiceCosts
        return (ServiceCosts.resolve(["bert"]),
                LLMServiceCosts.resolve("gpt2_rms"))

    def record(self, costs):
        return costs, unverified(costs[0])

    def body(self, ctx: Context, index: int) -> Outcome:
        fleet = run_cli(self.fleet_argv + ["--monitor"])
        llm = run_cli(self.llm_argv + ["--monitor"])
        return Outcome(ops=2, output=(fleet, llm),
                       failed=int(fleet[0] != 0) + int(llm[0] != 0))

    def check(self, ctx: Context, outcomes: List[Outcome]):
        from repro.serving import validate_monitor_report
        files = {name: ctx.scratch / f"observed-{name}.json"
                 for name in ("fleet", "fleet-monitor", "plain", "llm",
                              "llm-monitor")}
        runs = [
            (self.fleet_argv + ["--monitor", "--json", str(files["fleet"]),
                                "--monitor-out", str(files["fleet-monitor"])]),
            self.fleet_argv + ["--json", str(files["plain"])],
            (self.llm_argv + ["--monitor", "--json", str(files["llm"]),
                              "--monitor-out", str(files["llm-monitor"])]),
        ]
        results = [run_cli(argv) for argv in runs]
        failed = [argv[:3] for argv, (code, _) in zip(runs, results) if code]
        if failed:
            return [f"repro {' '.join(a)} failed" for a in failed], {}
        problems = []
        timed_fleet, timed_llm = outcomes[0].output
        if (0, without_wrote(results[0][1])) != timed_fleet or \
                (0, without_wrote(results[2][1])) != timed_llm:
            problems.append("timed stdout differs from the checked runs")
        data = {name: json.loads(path.read_text())
                for name, path in files.items()}
        for name in ("fleet-monitor", "llm-monitor"):
            problems += [f"{name}: {p}"
                         for p in validate_monitor_report(data[name])]
        pages = [e for e in data["fleet-monitor"]["alerts"]
                 if e["severity"] == "page" and e["kind"] == "fire"]
        if not pages:
            problems.append("the crash plan fired no page")
        if data["fleet"] != data["plain"]:
            problems.append("monitored serving report differs from an "
                            "unmonitored run")
        fleet, rows = data["fleet"], data["llm"]["rows"]
        # Every LLM row simulates one rate of the ladder for the run's
        # duration.
        span_s = self.duration + len(rows) * data["llm"]["duration_s"]
        counts = {
            "sim_requests": (fleet["completed"] + fleet["rejected"]
                             + sum(r["completed"] + r["rejected"]
                                   for r in rows)),
            "sim_cycles": round(span_s * clock_hz()),
            "busy_cycles": round((busy_seconds(fleet)
                                  + sum(r["makespan_s"] for r in rows))
                                 * clock_hz()),
            "fleet_retries": fleet["retries"],
            "fleet_ejects": fleet["devices_ejected"],
            "fleet_crashes": fleet["faults"].get("device_crash", 0),
            "alerts": len(data["fleet-monitor"]["alerts"]),
            "llm_tokens": sum(r["tokens_generated"] for r in rows),
            "report_bytes": len(timed_fleet[1]) + len(timed_llm[1]),
            "sim_p99_ms": fleet["p99_ms"],
        }
        return problems, counts


# ---------------------------------------------------------------------------
class DecodeFunctional:
    """Seeded tinyllm sessions on the functional runner's fast path."""

    name = "decode-functional"
    config = "tinyllm"
    prompts_per_run = 4

    def prepare(self, ctx: Context) -> None:
        from repro.llm import get_llm_config
        cfg = get_llm_config(self.config)
        self.prompt_len, self.tokens = ((2, 2) if ctx.tiny else
                                        (4, cfg.max_context - 4))
        rng = np.random.default_rng([ctx.seed, 0x6465636f6465])
        self.prompts = [[int(t) for t in rng.integers(0, cfg.vocab,
                                                      self.prompt_len)]
                        for _ in range(self.prompts_per_run)]
        self.shapes = [(0, self.prompt_len)] + [
            (self.prompt_len + i, 1) for i in range(self.tokens)]

    def fill(self):
        from repro.compiler import compile_model
        from repro.llm import build_step, get_llm_config
        cfg = get_llm_config(self.config)
        return [compile_model(build_step(cfg, past, new).graph)
                for past, new in self.shapes]

    def record(self, models):
        from repro.compiler import dump_model, verify_record_for
        problems = [f"{model.graph.name}: verification record not clean"
                    for model in models
                    if not verify_record_for(model.graph).get("clean")]
        return [dump_model(model) for model in models], problems

    def session(self, prompt, **kwargs):
        from repro.llm import DecodeSession
        session = DecodeSession(self.config, **kwargs)
        session.prefill(prompt)
        generated = session.decode(self.tokens)
        return generated, [r.machine_cycles for r in session.records]

    def body(self, ctx: Context, index: int) -> Outcome:
        # Each ``repro decode`` process starts with an empty memory tier
        # over the warm disk cache.
        install_cache(ctx.cache_dir)
        prompt = self.prompts[index % len(self.prompts)]
        tokens, cycles = self.session(prompt)
        return Outcome(ops=1 + self.tokens, output=cycles,
                       parts={"tokens": (tuple(prompt), tuple(tokens))})

    def check(self, ctx: Context, outcomes: List[Outcome]):
        problems = []
        seen = {o.parts["tokens"] for o in outcomes}
        for prompt, tokens in sorted(seen):
            reference, _ = self.session(list(prompt), executor="reference")
            if list(tokens) != reference:
                problems.append(f"prompt {list(prompt)}: tokens {tokens} "
                                f"!= reference {reference}")
        prompt = self.prompts[0]
        install_cache(ctx.cache_dir)
        start = time.perf_counter()
        _, scalar = self.session(prompt, fast=False)
        self.scalar_replay_s = time.perf_counter() - start
        if scalar != outcomes[0].output:
            problems.append(f"fast cycles {outcomes[0].output} != scalar "
                            f"replay {scalar}")
        counts = {"sim_requests": 1 + self.tokens,
                  "sim_cycles": sum(outcomes[0].output),
                  "steps": 1 + self.tokens}
        return problems, counts


WORKLOADS = {w.name: w for w in (FleetDay, ServeObserved,
                                 DecodeFunctional)}
