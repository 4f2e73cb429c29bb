"""Shared execution helpers for the experiment drivers.

These are thin delegating wrappers: the canonical implementations
moved to :mod:`repro.api` (the unified public surface), and the
wrappers here keep every existing experiment byte-identical.  New code
should call :mod:`repro.api` directly.
"""

from __future__ import annotations

from typing import Callable

from repro.api import (
    SCHEDULER_KINDS,
    ServeConfig,
    Session,
    build_trace,
    default_tier_names,
    engine_scheduler_stats,
    make_scheduler,
)
from repro.cluster.capacity import CapacityResult, find_max_goodput
from repro.engine.interface import Scheduler
from repro.engine.replica import ReplicaEngine
from repro.metrics.summary import RunSummary
from repro.obs.observer import Observer
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers import QoServeConfig
from repro.workload.datasets import DatasetSpec
from repro.workload.tiers import TierMix
from repro.workload.trace import Trace

__all__ = [
    "SCHEDULER_KINDS",
    "make_scheduler",
    "scheduler_factory",
    "build_trace",
    "run_replica_trace",
    "engine_scheduler_stats",
    "goodput_search",
    "default_tier_names",
]


def scheduler_factory(
    kind: str, execution_model: ExecutionModel, **kwargs
) -> Callable[[], Scheduler]:
    """A zero-argument factory for deployments needing one per replica."""
    return lambda: make_scheduler(kind, execution_model, **kwargs)


def run_replica_trace(
    execution_model: ExecutionModel,
    scheduler: Scheduler,
    trace: Trace,
    record_iterations: bool = False,
    max_events: int = 50_000_000,
    observer: Observer | None = None,
    audit: bool = False,
) -> tuple[RunSummary, ReplicaEngine]:
    """Simulate one replica over a trace and summarize.

    The simulation runs to drain (all requests complete); the summary
    is taken at the drain time so every deadline verdict is final.
    ``observer`` forwards to :class:`ReplicaEngine` (``None`` adopts
    the process-wide default, usually the no-op observer).

    ``audit`` additionally records the run's trace events in memory and
    attributes every completed request's latency to named phases
    (:mod:`repro.obs.audit`); the resulting
    :class:`~repro.obs.audit.AttributionReport` lands in
    ``summary.attribution``.  The audit collector chains with — never
    displaces — whatever observer is in effect, and the summary's
    serialized form is unchanged (attribution is not exported).

    Delegates to :class:`repro.api.Session`; outputs are byte-identical
    to the pre-facade implementation.
    """
    session = Session(
        ServeConfig(
            record_iterations=record_iterations,
            audit=audit,
            max_events=max_events,
        ),
        execution_model=execution_model,
        scheduler=scheduler,
        observer=observer,
    )
    for request in trace:
        session.submit(request)
    session.advance(max_events=max_events)
    return session.summary(requests=list(trace)), session.engines[0]


def goodput_search(
    kind: str,
    execution_model: ExecutionModel,
    dataset: DatasetSpec,
    num_requests: int,
    seed: int = 42,
    mix: TierMix | None = None,
    chunk_size: int = 256,
    qoserve_config: QoServeConfig | None = None,
    qps_high: float = 16.0,
    tolerance: float = 0.15,
    min_duration: float = 420.0,
    scheduler_kwargs: dict | None = None,
) -> CapacityResult:
    """Max per-replica goodput for one (scheduler, dataset) pair.

    Every probe's trace spans at least ``min_duration`` simulated
    seconds: a short burst at high QPS would hide beyond-capacity
    operation inside the long-TTLT tiers and the drain phase, so the
    probe size grows with the probed rate (the base trace is built
    once at the largest size and prefix-truncated per probe, keeping
    request bodies comparable across rates).
    """
    num_requests = max(num_requests, int(3.5 * 180))
    max_requests = max(num_requests, int(qps_high * min_duration))
    base = build_trace(dataset, qps=1.0, num_requests=max_requests,
                       seed=seed, mix=mix)

    def evaluate(qps: float) -> RunSummary:
        needed = max(num_requests, int(qps * min_duration))
        trace = base.scaled_arrivals(qps)
        if needed < len(trace):
            trace = Trace(
                trace.requests[:needed],
                dataset_name=trace.dataset_name,
                seed=trace.seed,
            )
        scheduler = make_scheduler(
            kind,
            execution_model,
            chunk_size=chunk_size,
            qoserve_config=qoserve_config,
            **(scheduler_kwargs or {}),
        )
        summary, _ = run_replica_trace(execution_model, scheduler, trace)
        return summary

    return find_max_goodput(
        evaluate, qps_high=qps_high, tolerance=tolerance
    )
