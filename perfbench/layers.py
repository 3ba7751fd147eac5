"""Which ``repro`` calls belong to which layer, and the per-layer metrics.

Every target names the attribute its callers resolve at call time: a
module imported by name at the top of another module is patched in the
importing module (``repro.npu.npu:compile_model``), one imported inside a
function is patched in its package (``repro.compiler:compile_model``).
"""

from __future__ import annotations

import os
from typing import Dict, List

from ledger import Ledger, public_methods


# -- after hooks: counts read from arguments and return values -------------
def _lowered(ledger, args, kwargs, model):
    ledger.count("compiler.tiles",
                 sum(1 for block in model.blocks if block.tile is not None))
    ledger.count("compiler.instructions", model.total_instructions())


def _evaluated(ledger, args, kwargs, result):
    npu = args[0]
    ledger.count("npu.simulated_cycles",
                 round(result.total_seconds * npu.config.frequency_hz))


def _machine_ran(ledger, args, kwargs, result):
    ledger.count("machine.cycles", result.cycles)
    ledger.count("machine.vector_issues", result.vector_issues)
    ledger.count("machine.instructions_decoded", result.instructions_decoded)


def _nest_checked(ledger, args, kwargs, supported):
    ledger.count("fastexec.nests")
    if not supported:
        ledger.count("fastexec.fallback_nests")


def _generated(ledger, args, kwargs, result):
    requests = result if isinstance(result, list) else getattr(
        args[0], "_requests", ())
    ledger.count("workload.requests", len(requests))


def _scaled(ledger, args, kwargs, report):
    payload = getattr(args[0], "payload", None) or {}
    ledger.count("scale.events", payload.get("sim", {}).get("events", 0))
    ledger.count("autoscale.scale_events",
                 len(payload.get("autoscale_events", ())))
    ledger.values["fleet.sim_p99_ms"] = report.p99_ms
    ledger.values["fleet.sim_dollars"] = payload.get(
        "cost", {}).get("dollars", 0.0)


def _fleet_ran(ledger, args, kwargs, report):
    ledger.count("fleet.requests", report.completed + report.rejected)
    ledger.count("fleet.retries", report.retries)
    ledger.count("fleet.ejects", report.devices_ejected)
    ledger.values["fleet.sim_p99_ms"] = report.p99_ms


def _injected(ledger, args, kwargs, _result):
    ledger.count("faults.crashes", len(args[0].crashes))


def _monitored(ledger, args, kwargs, payload):
    ledger.count("monitor.intervals", payload.get("intervals", 0))
    ledger.count("monitor.alerts", len(payload.get("alerts", ())))


def _batched(ledger, args, kwargs, report):
    ledger.count("continuous.requests", report.completed + report.rejected)
    if report.mean_batch_size:
        # Every decode step emits one token per active slot.
        ledger.count("continuous.decode_steps",
                     round(report.tokens_generated / report.mean_batch_size))


# -- shims: counts that need the cache's state before the call -------------
def _entry_bytes(cache, kind, key) -> int:
    try:
        return os.path.getsize(cache._path(kind, key))
    except (AttributeError, TypeError, OSError):
        return 0


def _cache_get(ledger: Ledger, fn):
    def get(self, kind, key, *args, **kwargs):
        from_disk = (kind, key) not in getattr(self, "_memory", {})
        value = fn(self, kind, key, *args, **kwargs)
        if value is None:
            ledger.count("cache.misses")
        else:
            ledger.count("cache.hits")
            if from_disk:
                ledger.count("cache.bytes_read",
                             _entry_bytes(self, kind, key))
        return value
    return get


def _cache_put(ledger: Ledger, fn):
    def put(self, kind, key, *args, **kwargs):
        fn(self, kind, key, *args, **kwargs)
        if getattr(self, "persist", False):
            ledger.count("cache.bytes_written", _entry_bytes(self, kind, key))
    return put


def targets() -> List[tuple]:
    """(owner, attribute, layer[, calls counter, after hook, shim])."""
    cache = "repro.runtime.cache"
    found = [
        # runtime.cache
        (cache, "fingerprint", "cache.key"),
        (cache, "graph_fingerprint", "cache.key"),
        (cache, "object_fingerprint", "cache.key"),
        (cache, "result_key", "cache.key"),
        ("repro.compiler.compiler", "_compile_key", "cache.key"),
        (cache + ":EvalCache", "get", "cache.get", None, None, _cache_get),
        (cache + ":EvalCache", "put", "cache.put", None, None, _cache_put),
        (cache, "get_result", "cache.get"),
        (cache, "put_result", "cache.put"),
        # compiler.serialize
        ("repro.compiler.serialize", "dump_model", "serialize.encode"),
        ("repro.compiler.serialize", "load_model", "serialize.decode"),
        # compiler: the cached entry points, lowering and tiling
        ("repro.npu.npu", "compile_model", "compiler.compile"),
        ("repro.compiler", "compile_model", "compiler.compile"),
        ("repro.compiler.compiler", "compile_model", "compiler.compile"),
        ("repro.compiler.compiler", "_compile_model_uncached",
         "compiler.lower", None, _lowered),
        ("repro.compiler.compiler", "_compile_block_tile", "compiler.lower",
         "compiler.tile_attempts"),
        # analysis.verifier + analysis.deps
        ("repro.analysis.verifier", "verify_model", "verifier.verify"),
        ("repro.analysis.verifier.pipeline", "verify_program",
         "verifier.verify", "verifier.programs"),
        ("repro.analysis.deps", "validate_tile", "verifier.deps"),
        ("repro.analysis.deps", "check_model", "verifier.deps"),
        ("repro.npu.npu:NPUTandem", "verify_record", "verifier.verify"),
        # npu + simulator.analytic
        ("repro.npu.npu:NPUTandem", "evaluate", "npu.evaluate", None,
         _evaluated),
        ("repro.npu.npu:NPUTandem", "compile", "npu.evaluate"),
        ("repro.npu.controller:ExecutionController", "schedule",
         "npu.evaluate", "npu.blocks"),
        ("repro.npu.npu", "build_model", "models.build"),
        # serving cost resolution
        ("repro.serving.scheduler:ServiceCosts", "resolve", "serving.costs"),
        ("repro.serving.continuous:LLMServiceCosts", "resolve",
         "serving.costs"),
        ("repro.llm", "decode_step_costs", "serving.costs"),
        # serving.workload
        ("repro.serving.workload:DiurnalTrace", "__init__",
         "workload.generate", None, _generated),
        ("repro.serving.workload:OpenLoopPoisson", "__init__",
         "workload.generate", None, _generated),
        ("repro.serving.workload:TraceReplay", "__init__",
         "workload.generate"),
        ("repro.llm.sweep", "llm_poisson_requests", "workload.generate",
         None, _generated),
        ("repro.serving", "llm_poisson_requests", "workload.generate",
         None, _generated),
        # serving.scale + serving.autoscale
        ("repro.serving.scale:ScaledFleetSimulator", "run", "scale.run",
         None, _scaled),
        ("repro.serving.autoscale:AutoscaleController", "decide",
         "autoscale.decide", "autoscale.decisions"),
        ("repro.serving.autoscale:AutoscaleController", "record",
         "autoscale.decide"),
        # reporting: serving.metrics, telemetry.dashboard, the LLM report
        ("repro.serving.metrics:ServingReport", "table", "report.render"),
        ("repro.serving.metrics:ServingReport", "to_json", "report.render"),
        ("repro.serving", "scale_table", "report.render"),
        ("repro.telemetry.dashboard", "render_dashboard", "report.render"),
        ("repro.llm", "llm_report", "report.render"),
        ("repro.llm", "llm_table", "report.render"),
        ("repro.serving", "validate_fleet_scale_report", "report.validate"),
        ("repro.serving", "validate_monitor_report", "report.validate"),
        ("repro.llm", "validate_llm_report", "report.validate"),
        # serving.fleet + faults
        ("repro.serving.fleet:FleetSimulator", "run", "fleet.run", None,
         _fleet_ran),
        ("repro.faults.injector:FaultInjector", "__init__", "faults", None,
         _injected),
        # serving.continuous
        ("repro.serving.continuous:ContinuousBatcher", "run",
         "continuous.run", None, _batched),
        ("repro.serving.continuous:OneShotBatcher", "run", "continuous.run",
         None, _batched),
        ("repro.llm", "llm_grid", "continuous.run"),
        ("repro.llm", "run_llm_sweep", "continuous.run"),
        # llm.decode
        ("repro.llm.decode", "build_step", "llm.build_step", "llm.steps"),
        ("repro.llm.decode", "step_weights", "llm.weights"),
        ("repro.llm.decode", "embed_table", "llm.weights"),
        # npu.runner + simulator.machine / simulator.fastexec
        ("repro.npu:FunctionalRunner", "__init__", "runner.run"),
        ("repro.npu:FunctionalRunner", "bind", "runner.run"),
        ("repro.npu:FunctionalRunner", "run", "runner.run"),
        ("repro.simulator.machine:TandemMachine", "run", "machine.run",
         None, _machine_ran),
        ("repro.simulator.fastexec:FastNestExecutor", "supported",
         "fastexec.run", None, _nest_checked),
        ("repro.simulator.fastexec:FastNestExecutor", "run", "fastexec.run"),
    ]
    fault_queries = [t for t in public_methods(
        "repro.faults.injector:FaultInjector", "faults")]
    monitors = []
    for cls in ("_MonitorBase", "FleetMonitor", "LLMMonitor"):
        for target in public_methods("repro.serving.monitor:" + cls,
                                     "monitor.observe"):
            if target[1] == "payload":
                target = target + (None, _monitored)
            monitors.append(target)
    return found + fault_queries + monitors


#: Per-layer time metrics: metric name -> ledger layer.
TIME_METRICS = {
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "cache.key_s": "cache.key",
    "serialize.encode_s": "serialize.encode",
    "serialize.decode_s": "serialize.decode",
    "compiler.compile_s": "compiler.compile",
    "compiler.lower_s": "compiler.lower",
    "verifier.verify_s": "verifier.verify",
    "verifier.deps_s": "verifier.deps",
    "npu.evaluate_s": "npu.evaluate",
    "models.build_s": "models.build",
    "serving.costs_s": "serving.costs",
    "workload.generate_s": "workload.generate",
    "scale.run_s": "scale.run",
    "autoscale.decide_s": "autoscale.decide",
    "report.render_s": "report.render",
    "report.validate_s": "report.validate",
    "fleet.run_s": "fleet.run",
    "faults.inject_s": "faults",
    "monitor.observe_s": "monitor.observe",
    "continuous.run_s": "continuous.run",
    "llm.build_step_s": "llm.build_step",
    "llm.weights_s": "llm.weights",
    "runner.run_s": "runner.run",
    "machine.run_s": "machine.run",
    "fastexec.run_s": "fastexec.run",
}

#: Per-layer counts, which must repeat exactly between iterations.
COUNT_METRICS = (
    "cache.hits", "cache.misses", "cache.bytes_written", "cache.bytes_read",
    "compiler.tile_attempts", "compiler.tiles", "compiler.instructions",
    "verifier.programs", "npu.blocks", "npu.simulated_cycles",
    "workload.requests", "scale.events", "autoscale.decisions",
    "autoscale.scale_events", "fleet.requests", "fleet.retries",
    "fleet.ejects", "faults.crashes", "monitor.intervals", "monitor.alerts",
    "continuous.requests", "continuous.decode_steps", "llm.steps",
    "fastexec.nests", "fastexec.fallback_nests", "machine.cycles",
    "machine.vector_issues", "machine.instructions_decoded",
)

#: Simulated outputs recorded as values; they must repeat exactly too.
VALUE_METRICS = ("fleet.sim_p99_ms", "fleet.sim_dollars")

#: Compile-side metrics also taken from the traced set-up: its cache fill
#: is where the workloads compile, verify, serialize and store.
SETUP_METRICS = (
    "cache.get_s", "cache.put_s", "cache.key_s", "cache.bytes_written",
    "cache.bytes_read", "serialize.encode_s", "serialize.decode_s",
    "compiler.lower_s", "compiler.tile_attempts", "compiler.tiles",
    "compiler.tile_accept_ratio", "compiler.instructions",
    "verifier.verify_s", "verifier.deps_s", "verifier.programs",
    "npu.evaluate_s", "npu.blocks",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_metrics(ledger: Ledger) -> Dict[str, float]:
    """Counts and simulated values of one traced iteration."""
    metrics = {name: ledger.counts.get(name, 0) for name in COUNT_METRICS}
    metrics.update({name: ledger.values.get(name, 0.0)
                    for name in VALUE_METRICS})
    return metrics


def time_metrics(ledger: Ledger, wall_s: float) -> Dict[str, float]:
    """Self times, derived ratios and trace coverage of one iteration."""
    metrics = {name: ledger.self_s.get(layer, 0.0)
               for name, layer in TIME_METRICS.items()}
    counts = ledger.counts
    metrics["cache.hit_ratio"] = _ratio(
        counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"])
    metrics["compiler.tile_accept_ratio"] = _ratio(
        counts["compiler.tiles"], counts["compiler.tile_attempts"])
    metrics["fastexec.coverage"] = _ratio(
        counts["fastexec.nests"] - counts["fastexec.fallback_nests"],
        counts["fastexec.nests"])
    metrics["scale.events_per_s"] = _ratio(counts["scale.events"],
                                           metrics["scale.run_s"])
    metrics["trace.coverage"] = _ratio(sum(ledger.self_s.values()), wall_s)
    return metrics


def setup_metrics(ledger: Ledger) -> Dict[str, float]:
    """``SETUP_METRICS`` of the traced set-up, as ``setup.<name>``."""
    every = dict(time_metrics(ledger, 0.0), **exact_metrics(ledger))
    return {"setup." + name: every[name] for name in SETUP_METRICS}
