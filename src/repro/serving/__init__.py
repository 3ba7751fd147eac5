"""Serving layer: a multi-device NPU-Tandem fleet simulator.

Layers a discrete-event serving simulation on top of the ``npu`` /
``runtime`` stack: load generators (:mod:`~repro.serving.workload`),
admission control + dynamic batching (:mod:`~repro.serving.scheduler`),
the one serving event core (:mod:`~repro.serving.scale`: interned
request records, cell routing, faults + resilience, the streaming
monitor, the trace log, 1000+ devices; one run of it is a picklable
:class:`~repro.serving.scale.FleetRun`), burn-rate/queue-depth cell
autoscaling (:mod:`~repro.serving.autoscale`), SLO metrics
(:mod:`~repro.serving.metrics`) and the ``serving_sweep`` grid
(:mod:`~repro.serving.sweep`). :mod:`~repro.serving.fleet` keeps a
fault-free per-request-object reference the core is checked against.
Entry points: ``python -m repro serve`` and the ``serving_sweep``
harness experiment; see ``docs/operations.md`` for the
capacity-planning guide.
"""

from .autoscale import (
    AUTOSCALE_ACTIONS,
    AutoscaleConfig,
    AutoscaleController,
    CostModel,
    autoscaling_enabled,
)
from .continuous import (
    DEFAULT_LLM_SLO_MULTIPLIER,
    LLM_SCHEDULERS,
    ContinuousBatcher,
    LLMRequest,
    LLMServiceCosts,
    OneShotBatcher,
    default_kv_budget,
    default_max_slots,
    llm_poisson_requests,
    make_llm_batcher,
)
from .fleet import (
    DeviceState,
    FleetSimulator,
    Router,
)
from .metrics import (
    DEFAULT_SLO_MULTIPLIER,
    LLMServingReport,
    MetricsCollector,
    ServingReport,
    percentile,
)
from .monitor import (
    MONITOR_SCHEMA,
    MonitorConfig,
    fleet_monitor_payload,
    llm_monitor_payload,
    monitor_table,
    monitoring_enabled,
    validate_monitor_report,
)
from .scale import (
    ROUTING_POLICIES,
    SCALE_SCHEMA,
    FleetRun,
    ScaledFleetSimulator,
    run_fleet,
    scale_table,
    tail_bounded_throughput,
    validate_fleet_scale_report,
)
from .scheduler import (
    BATCH_POLICIES,
    RESILIENCE_POLICIES,
    AdmissionPolicy,
    BatchPolicy,
    Launch,
    ModelCost,
    ResiliencePolicy,
    ServiceCosts,
    Wait,
    plan_batch,
)
from .sweep import (
    by_config,
    default_grid,
    knee_sharpness,
    max_throughput_at_slo,
    sweep_table,
)
from .workload import (
    TRACE_SCHEMA,
    ClosedLoop,
    DiurnalTrace,
    OpenLoopPoisson,
    Request,
    TraceReplay,
    Workload,
    load_trace,
    save_trace,
    zoo_mix_trace,
)

__all__ = [
    "AUTOSCALE_ACTIONS",
    "BATCH_POLICIES",
    "DEFAULT_LLM_SLO_MULTIPLIER",
    "DEFAULT_SLO_MULTIPLIER",
    "LLM_SCHEDULERS",
    "RESILIENCE_POLICIES",
    "ROUTING_POLICIES",
    "SCALE_SCHEMA",
    "TRACE_SCHEMA",
    "AdmissionPolicy",
    "AutoscaleConfig",
    "AutoscaleController",
    "BatchPolicy",
    "ClosedLoop",
    "ContinuousBatcher",
    "CostModel",
    "DeviceState",
    "DiurnalTrace",
    "FleetRun",
    "FleetSimulator",
    "LLMRequest",
    "LLMServiceCosts",
    "LLMServingReport",
    "Launch",
    "MONITOR_SCHEMA",
    "MetricsCollector",
    "ModelCost",
    "MonitorConfig",
    "OneShotBatcher",
    "OpenLoopPoisson",
    "Request",
    "ResiliencePolicy",
    "Router",
    "ScaledFleetSimulator",
    "ServiceCosts",
    "ServingReport",
    "TraceReplay",
    "Wait",
    "Workload",
    "autoscaling_enabled",
    "default_kv_budget",
    "default_max_slots",
    "fleet_monitor_payload",
    "llm_monitor_payload",
    "llm_poisson_requests",
    "make_llm_batcher",
    "monitor_table",
    "monitoring_enabled",
    "by_config",
    "default_grid",
    "knee_sharpness",
    "load_trace",
    "max_throughput_at_slo",
    "percentile",
    "plan_batch",
    "run_fleet",
    "save_trace",
    "scale_table",
    "sweep_table",
    "tail_bounded_throughput",
    "validate_fleet_scale_report",
    "validate_monitor_report",
    "zoo_mix_trace",
]
