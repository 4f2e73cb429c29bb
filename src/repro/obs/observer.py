"""The observability seam between the engine and the recorders.

:class:`Observer` is the single protocol the engine, schedulers,
chunker and relegation policy call into.  The base class is a no-op on
every hook, so instrumentation costs one dynamic dispatch when
observability is off, and — critically — an observer can never change
scheduling behaviour: hooks receive read-only facts *after* each
decision and return nothing, keeping the simulation deterministic with
or without tracing.

:class:`TracingObserver` is the production implementation: it turns
hooks into typed :mod:`~repro.obs.events` pushed at a
:class:`~repro.obs.trace.TraceRecorder`, and into series in a
:class:`~repro.obs.metrics.MetricsRegistry`.

A process-wide default (see :func:`set_default_observer`) lets the
experiment CLI enable tracing for *every* engine built during a run
without threading an argument through each experiment driver.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.obs.events import (
    ChunkSized,
    DecodeEvicted,
    FaultSkipped,
    FleetResized,
    GatewayAdmitted,
    GatewayShed,
    IterationScheduled,
    KVCacheSnapshot,
    Preempted,
    PrefixHit,
    Relegated,
    RelegationServed,
    ReplicaCrashed,
    ReplicaRecovered,
    ReplicaSlowdown,
    RequestCancelled,
    RequestCompleted,
    RequestRetried,
    RequestShed,
    SpanEnd,
    SpanStart,
)
from repro.obs.metrics import (
    DEFAULT_CHUNK_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.sketch import BurnRateTracker
from repro.obs.trace import RingSink, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.chunking import ChunkDecision
    from repro.core.relegation import RelegationPlan
    from repro.core.request import Request
    from repro.engine.batch import PrefillAssignment
    from repro.engine.rows import ArrayKVLedger


class Observer:
    """No-op observability hooks; subclass and override what you need.

    Hooks fire *after* the decision they describe.  Implementations
    must not mutate any argument: requests, prefill assignments and
    the KV ledger are the engine's live state, shared for cheapness,
    and tracing is required to be side-effect-free (the determinism
    regression test pins this).
    """

    def on_iteration_start(
        self,
        replica_id: int,
        now: float,
        exec_time: float,
        assignments: "list[PrefillAssignment]",
        num_decodes: int,
        decode_context_total: int,
        iteration: int,
        queue_depth: int = -1,
    ) -> None:
        """An iteration was planned; it will finish at ``now + exec_time``.

        It runs the prefill chunks ``assignments`` next to
        ``num_decodes`` decodes holding ``decode_context_total`` KV
        tokens.  ``queue_depth`` is the scheduler backlog at dispatch
        (-1 when the caller does not know it).
        """

    def on_iteration_end(
        self,
        replica_id: int,
        now: float,
        start_time: float,
        exec_time: float,
        kv_cache: "ArrayKVLedger",
    ) -> None:
        """The iteration dispatched at ``start_time`` completed."""

    def on_chunk_sized(
        self, now: float, decision: "ChunkDecision", num_decodes: int
    ) -> None:
        """The dynamic chunker converted slack into a token budget."""

    def on_relegated(self, request: "Request", now: float) -> None:
        """Eager relegation demoted ``request``."""

    def on_relegation_scan(
        self, now: float, plan: "RelegationPlan"
    ) -> None:
        """A relegation feasibility scan finished (may be empty)."""

    def on_relegation_served(
        self,
        replica_id: int,
        request: "Request",
        now: float,
        tokens: int,
    ) -> None:
        """A relegated request received its first opportunistic chunk."""

    def on_preempted(
        self,
        replica_id: int,
        request: "Request",
        now: float,
        prefill_tokens_lost: int,
    ) -> None:
        """A partial prefill lost its KV to break a memory deadlock."""

    def on_decode_evicted(
        self,
        replica_id: int,
        request: "Request",
        now: float,
        context_tokens_lost: int,
    ) -> None:
        """A decode was evicted (recompute) under KV pressure."""

    def on_request_completed(
        self, replica_id: int, request: "Request", now: float
    ) -> None:
        """``request`` produced its final output token."""

    # --- prefix reuse hooks (repro.engine.prefix) -------------------------

    def on_prefix_lookup(
        self,
        replica_id: int,
        request: "Request",
        now: float,
        hit_tokens: int,
        cached_tokens: int,
    ) -> None:
        """The radix cache was consulted at admission; ``hit_tokens``
        prefill tokens were skipped (0 = miss).  ``cached_tokens`` is
        the tree's resident footprint after the lookup."""

    def on_prefix_insert(
        self,
        replica_id: int,
        now: float,
        new_blocks: int,
        deduped_blocks: int,
        cached_tokens: int,
    ) -> None:
        """A finished prefill published its prompt blocks into the
        radix tree: ``new_blocks`` transferred ownership,
        ``deduped_blocks`` freed duplicates of already-shared blocks."""

    def on_prefix_evicted(
        self,
        replica_id: int,
        now: float,
        blocks: int,
        cached_tokens: int,
    ) -> None:
        """Memory pressure reclaimed ``blocks`` unreferenced prefix
        blocks (LRU order)."""

    # --- fault hooks (repro.faults) --------------------------------------

    def on_replica_crashed(
        self,
        replica_id: int,
        now: float,
        lost_requests: int,
        kv_blocks_dropped: int,
    ) -> None:
        """A replica failed, losing its KV cache and in-flight batch."""

    def on_replica_recovered(
        self, replica_id: int, now: float, downtime: float
    ) -> None:
        """A crashed replica rejoined with a cold cache."""

    def on_replica_slowdown(
        self, replica_id: int, now: float, factor: float
    ) -> None:
        """A replica's straggler multiplier changed (1.0 = nominal)."""

    def on_request_retried(
        self,
        request: "Request",
        now: float,
        attempt: int,
        backoff: float,
        from_replica: int,
    ) -> None:
        """A crash-lost request was scheduled for re-dispatch."""

    def on_request_shed(
        self, request: "Request", now: float, alive_fraction: float
    ) -> None:
        """Admission control refused an arrival under degraded capacity."""

    def on_request_cancelled(
        self, replica_id: int, request: "Request", now: float, reason: str
    ) -> None:
        """An unfinished request was abandoned (timeout / retry budget).

        ``replica_id`` is -1 when the request was not resident on any
        replica (e.g. cancelled while awaiting re-dispatch).
        """

    def on_fault_skipped(
        self, replica_id: int, now: float, fault_kind: str, reason: str
    ) -> None:
        """A fault plan event targeting ``replica_id`` resolved to a
        no-op (the slot was drained, released or never provisioned)."""

    # --- fleet hooks (repro.cluster.fleet) --------------------------------

    def on_fleet_resized(
        self,
        now: float,
        action: str,
        replica_id: int,
        hardware: str,
        fleet_size: int,
        reason: str = "",
        by_hardware: "dict[str, int] | None" = None,
    ) -> None:
        """The elastic fleet changed size: ``action`` is ``provision``,
        ``ready``, ``drain`` or ``release``; ``fleet_size`` counts
        replicas provisioned and not yet released after the action.
        ``by_hardware`` is the full post-action per-class composition
        (for gauges; not part of the trace event)."""

    # --- gateway hooks (repro.serve) --------------------------------------

    def on_gateway_admitted(
        self, request: "Request", now: float, queue_depth: int
    ) -> None:
        """The online gateway accepted ``request`` into a replica."""

    def on_gateway_shed(
        self,
        request: "Request",
        now: float,
        reason: str,
        queue_depth: int,
    ) -> None:
        """The gateway refused or evicted ``request`` (``reason`` is
        ``"rate_limit"`` or ``"backpressure"``)."""

    def on_token_streamed(self, request: "Request", now: float) -> None:
        """One output token was delivered to a streaming consumer."""

    # --- span hooks (repro.obs.spans) -------------------------------------

    def on_span_start(
        self,
        name: str,
        request: "Request",
        now: float,
        replica_id: int = -1,
    ) -> None:
        """``request`` entered lifecycle stage ``name`` (``gateway``,
        ``admission``, ``dispatch``, ``queue``, ``prefill``,
        ``decode``).  ``replica_id`` is -1 outside any replica."""

    def on_span_end(
        self,
        name: str,
        request: "Request",
        now: float,
        replica_id: int = -1,
    ) -> None:
        """``request`` left the stage opened by :meth:`on_span_start`."""


#: Shared no-op instance — the default everywhere an observer plugs in.
NULL_OBSERVER = Observer()


def fleet_gauges(
    registry: MetricsRegistry,
) -> tuple[MetricFamily, MetricFamily]:
    """``repro_fleet_size`` and ``repro_fleet_replicas`` in ``registry``.

    The one registration of the two fleet gauges: the observer's hooks
    and the gateway's scrape both set them, so a registry renders the
    same HELP text whichever registers first.
    """
    return (
        registry.gauge(
            "repro_fleet_size",
            "Replicas provisioned and not yet released",
        ),
        registry.gauge(
            "repro_fleet_replicas",
            "Provisioned replicas by hardware class", ("hardware",),
        ),
    )


class _BoundSeries(dict):
    """One metric family's child series, keyed by raw label value(s).

    Each key is resolved through :meth:`MetricFamily.labels` once, on
    first use (``()`` for an unlabeled family, a tuple for several
    labels), and the child is reused from then on.  Binding lazily
    keeps the exported series set exactly the one the hooks touched.
    """

    __slots__ = ("family",)

    def __init__(self, family: MetricFamily) -> None:
        super().__init__()
        self.family = family

    def __missing__(self, key):
        if isinstance(key, tuple):
            child = self.family.labels(*key)
        else:
            child = self.family.labels(key)
        self[key] = child
        return child


class TracingObserver(Observer):
    """Records typed events and metric series from the hook stream.

    Args:
        recorder: Destination for trace events; a fresh recorder with
            no sinks is created when omitted (metrics-only mode).
        registry: Metrics registry; created when omitted.
    """

    def __init__(
        self,
        recorder: TraceRecorder | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.registry = registry if registry is not None else MetricsRegistry()

        reg = self.registry
        self._iterations = _BoundSeries(reg.counter(
            "repro_iterations_total",
            "Engine iterations executed", ("replica",),
        ))
        self._prefill_tokens = _BoundSeries(reg.counter(
            "repro_prefill_tokens_total",
            "Prompt tokens processed", ("replica",),
        ))
        self._decode_tokens = _BoundSeries(reg.counter(
            "repro_decode_tokens_total",
            "Output tokens produced by batched decodes", ("replica",),
        ))
        self._exec_seconds = _BoundSeries(reg.histogram(
            "repro_iteration_exec_seconds",
            "Per-iteration batch execution time",
            buckets=DEFAULT_LATENCY_BUCKETS,
        ))
        self._chunk_hist = _BoundSeries(reg.histogram(
            "repro_chunk_size_tokens",
            "Prefill token budget chosen per iteration",
            buckets=DEFAULT_CHUNK_BUCKETS,
        ))
        self._kv_utilization = _BoundSeries(reg.gauge(
            "repro_kv_utilization",
            "KV-cache block utilization (gauge; max tracked)",
            ("replica",),
        ))
        self._relegations = _BoundSeries(reg.counter(
            "repro_relegations_total",
            "Requests demoted by eager relegation", ("tier",),
        ))
        self._relegation_scans = _BoundSeries(reg.counter(
            "repro_relegation_scans_total",
            "Relegation feasibility scans run",
        ))
        self._important_saved = _BoundSeries(reg.counter(
            "repro_relegation_important_saved_total",
            "Important requests saved by demoting free-tier work",
        ))
        self._preemptions = _BoundSeries(reg.counter(
            "repro_preemptions_total",
            "Prefill preemptions (stall-recovery KV reclaims)",
            ("replica",),
        ))
        self._decode_evictions = _BoundSeries(reg.counter(
            "repro_decode_evictions_total",
            "Decode evictions under KV pressure", ("replica",),
        ))
        self._completed = _BoundSeries(reg.counter(
            "repro_requests_completed_total",
            "Requests that produced their final token",
            ("tier",),
        ))
        self._violations = _BoundSeries(reg.counter(
            "repro_deadline_violations_total",
            "Completed requests that missed their governing SLO",
            ("tier",),
        ))
        self._crashes = _BoundSeries(reg.counter(
            "repro_replica_crashes_total",
            "Replica failures injected", ("replica",),
        ))
        self._recoveries = _BoundSeries(reg.counter(
            "repro_replica_recoveries_total",
            "Replica recoveries after a crash", ("replica",),
        ))
        self._slowdowns = _BoundSeries(reg.counter(
            "repro_replica_slowdowns_total",
            "Straggler windows started on a replica", ("replica",),
        ))
        self._retries = _BoundSeries(reg.counter(
            "repro_request_retries_total",
            "Crash-lost requests re-enqueued for dispatch", ("tier",),
        ))
        self._shed = _BoundSeries(reg.counter(
            "repro_requests_shed_total",
            "Arrivals refused by degraded-capacity admission control",
            ("tier",),
        ))
        self._cancellations = _BoundSeries(reg.counter(
            "repro_requests_cancelled_total",
            "Requests abandoned before completion", ("tier", "reason"),
        ))
        self._relegations_served = _BoundSeries(reg.counter(
            "repro_relegations_served_total",
            "Relegated requests that received opportunistic service",
            ("tier",),
        ))
        self._prefix_hits = _BoundSeries(reg.counter(
            "repro_kv_prefix_hits_total",
            "Arrivals whose prompt matched a radix-cached prefix",
            ("replica",),
        ))
        self._prefix_misses = _BoundSeries(reg.counter(
            "repro_kv_prefix_misses_total",
            "Radix-cache lookups that matched no blocks", ("replica",),
        ))
        self._prefix_evictions = _BoundSeries(reg.counter(
            "repro_kv_prefix_evictions_total",
            "Shared prefix blocks reclaimed under memory pressure",
            ("replica",),
        ))
        self._prefix_hit_tokens = _BoundSeries(reg.counter(
            "repro_kv_prefix_hit_tokens_total",
            "Prefill tokens skipped via shared-prefix matches",
            ("replica",),
        ))
        self._prefix_cached_tokens = _BoundSeries(reg.gauge(
            "repro_kv_prefix_cached_tokens",
            "Tokens resident in the shared radix prefix tree",
            ("replica",),
        ))
        self._events_dropped = _BoundSeries(reg.counter(
            "repro_trace_events_dropped_total",
            "Trace events shed by bounded-memory ring sinks",
        ))
        self._gateway_admitted = _BoundSeries(reg.counter(
            "repro_gateway_admitted_total",
            "Requests admitted by the serving gateway", ("tier",),
        ))
        self._gateway_shed = _BoundSeries(reg.counter(
            "repro_gateway_shed_total",
            "Requests refused or evicted by the serving gateway",
            ("tier", "reason"),
        ))
        self._gateway_tokens_streamed = _BoundSeries(reg.counter(
            "repro_gateway_tokens_streamed_total",
            "Output tokens delivered to streaming consumers", ("tier",),
        ))
        self._faults_skipped = _BoundSeries(reg.counter(
            "repro_faults_skipped_total",
            "Fault plan events resolved to no-ops on absent replicas",
            ("fault_kind", "reason"),
        ))
        self._fleet_resizes = _BoundSeries(reg.counter(
            "repro_fleet_resizes_total",
            "Fleet provisioning actions", ("action", "hardware"),
        ))
        size_gauge, hardware_gauge = fleet_gauges(reg)
        self._fleet_size_gauge = _BoundSeries(size_gauge)
        self._fleet_hardware_gauge = _BoundSeries(hardware_gauge)
        # Per-tier latency sketches: mergeable percentiles replacing
        # fixed-bucket histograms for the three governing latencies.
        self._ttft_sketch = _BoundSeries(reg.sketch(
            "repro_request_ttft_seconds",
            "Time to first token per completed request", ("tier",),
        ))
        self._tbt_sketch = _BoundSeries(reg.sketch(
            "repro_request_tbt_seconds",
            "Mean time between tokens per completed request", ("tier",),
        ))
        self._ttlt_sketch = _BoundSeries(reg.sketch(
            "repro_request_ttlt_seconds",
            "Time to last token per completed request", ("tier",),
        ))
        #: Windowed SLO burn rate over simulated time (one verdict per
        #: completion, at completion time).
        self.burn_rate = BurnRateTracker()
        # Bounded ring sinks silently shed their oldest events; surface
        # the loss as a counter so lossy traces are visible in scrapes.
        for sink in self.recorder.sinks:
            if isinstance(sink, RingSink) and sink.on_drop is None:
                sink.on_drop = self._count_dropped_event

    def _count_dropped_event(self) -> None:
        self._events_dropped[()].inc()

    # --- engine hooks ----------------------------------------------------

    def on_iteration_start(
        self, replica_id, now, exec_time, assignments, num_decodes,
        decode_context_total, iteration, queue_depth: int = -1,
    ) -> None:
        prefill_tokens = sum(a.tokens for a in assignments)
        self.recorder.emit(IterationScheduled(
            ts=now,
            replica_id=replica_id,
            iteration=iteration,
            dur=exec_time,
            prefill_tokens=prefill_tokens,
            num_prefills=len(assignments),
            num_decodes=num_decodes,
            decode_context_tokens=decode_context_total,
            prefill_request_ids=tuple(
                a.request.request_id for a in assignments
            ),
            queue_depth=queue_depth,
        ))
        self._iterations[replica_id].inc()
        self._prefill_tokens[replica_id].inc(prefill_tokens)
        self._decode_tokens[replica_id].inc(num_decodes)
        self._exec_seconds[()].observe(exec_time)
        self._chunk_hist[()].observe(prefill_tokens)

    def on_iteration_end(
        self, replica_id, now, start_time, exec_time, kv_cache
    ) -> None:
        utilization = kv_cache.utilization
        self._kv_utilization[replica_id].set(utilization)
        self.recorder.emit(KVCacheSnapshot(
            ts=now,
            replica_id=replica_id,
            used_blocks=kv_cache.used_blocks,
            capacity_blocks=kv_cache.capacity_blocks,
            utilization=utilization,
        ))

    # --- scheduler / core hooks ------------------------------------------

    def on_chunk_sized(self, now, decision, num_decodes) -> None:
        self.recorder.emit(ChunkSized(
            ts=now,
            chunk_budget=decision.prefill_budget,
            latency_budget=decision.latency_budget,
            predicted_latency=decision.predicted_latency,
            num_decodes=num_decodes,
        ))

    def on_relegated(self, request, now) -> None:
        self.recorder.emit(Relegated(
            ts=now,
            request_id=request.request_id,
            tier=request.qos.name,
            important=request.important,
            remaining_prefill=request.remaining_prefill,
        ))
        self._relegations[request.qos.name].inc()

    def on_relegation_scan(self, now, plan) -> None:
        self._relegation_scans[()].inc()
        if plan.important_saved:
            self._important_saved[()].inc(plan.important_saved)

    def on_relegation_served(
        self, replica_id, request, now, tokens
    ) -> None:
        relegated_at = request.relegated_time
        self.recorder.emit(RelegationServed(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            tier=request.qos.name,
            tokens=tokens,
            waited=(
                now - relegated_at if relegated_at is not None else 0.0
            ),
        ))
        self._relegations_served[request.qos.name].inc()

    def on_preempted(
        self, replica_id, request, now, prefill_tokens_lost
    ) -> None:
        self.recorder.emit(Preempted(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            prefill_tokens_lost=prefill_tokens_lost,
        ))
        self._preemptions[replica_id].inc()

    def on_decode_evicted(
        self, replica_id, request, now, context_tokens_lost
    ) -> None:
        self.recorder.emit(DecodeEvicted(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            context_tokens_lost=context_tokens_lost,
        ))
        self._decode_evictions[replica_id].inc()

    def on_request_completed(self, replica_id, request, now) -> None:
        violated = request.violated_deadline
        self.recorder.emit(RequestCompleted(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            tier=request.qos.name,
            arrival_time=request.arrival_time,
            scheduled_first_time=request.scheduled_first_time,
            first_token_time=request.first_token_time,
            completion_time=(
                request.completion_time
                if request.completion_time is not None
                else now
            ),
            relegated=request.relegated,
            violated=violated,
            evictions=request.evictions,
            qos_class=request.qos.qos_class.value,
        ))
        tier = request.qos.name
        self._completed[tier].inc()
        if violated:
            self._violations[tier].inc()
        ttft = request.ttft
        if ttft is not None:
            self._ttft_sketch[tier].observe(ttft)
        ttlt = request.ttlt
        if ttlt is not None:
            self._ttlt_sketch[tier].observe(ttlt)
        if (
            request.first_token_time is not None
            and request.completion_time is not None
            and request.decoded > 1
        ):
            self._tbt_sketch[tier].observe(
                (request.completion_time - request.first_token_time)
                / (request.decoded - 1)
            )
        self.burn_rate.observe(now, violated)

    # --- prefix reuse hooks -----------------------------------------------

    def on_prefix_lookup(
        self, replica_id, request, now, hit_tokens, cached_tokens
    ) -> None:
        if hit_tokens > 0:
            self.recorder.emit(PrefixHit(
                ts=now,
                replica_id=replica_id,
                request_id=request.request_id,
                tier=request.qos.name,
                hit_tokens=hit_tokens,
                prompt_tokens=request.prompt_tokens,
                cached_tokens=cached_tokens,
            ))
            self._prefix_hits[replica_id].inc()
            self._prefix_hit_tokens[replica_id].inc(hit_tokens)
        else:
            self._prefix_misses[replica_id].inc()
        self._prefix_cached_tokens[replica_id].set(cached_tokens)

    def on_prefix_insert(
        self, replica_id, now, new_blocks, deduped_blocks, cached_tokens
    ) -> None:
        self._prefix_cached_tokens[replica_id].set(cached_tokens)

    def on_prefix_evicted(
        self, replica_id, now, blocks, cached_tokens
    ) -> None:
        self._prefix_evictions[replica_id].inc(blocks)
        self._prefix_cached_tokens[replica_id].set(cached_tokens)

    # --- fault hooks ------------------------------------------------------

    def on_replica_crashed(
        self, replica_id, now, lost_requests, kv_blocks_dropped
    ) -> None:
        self.recorder.emit(ReplicaCrashed(
            ts=now,
            replica_id=replica_id,
            lost_requests=lost_requests,
            kv_blocks_dropped=kv_blocks_dropped,
        ))
        self._crashes[replica_id].inc()

    def on_replica_recovered(self, replica_id, now, downtime) -> None:
        self.recorder.emit(ReplicaRecovered(
            ts=now, replica_id=replica_id, downtime=downtime,
        ))
        self._recoveries[replica_id].inc()

    def on_replica_slowdown(self, replica_id, now, factor) -> None:
        self.recorder.emit(ReplicaSlowdown(
            ts=now, replica_id=replica_id, factor=factor,
        ))
        if factor != 1.0:  # 1.0 closes a window, it does not open one
            self._slowdowns[replica_id].inc()

    def on_request_retried(
        self, request, now, attempt, backoff, from_replica
    ) -> None:
        self.recorder.emit(RequestRetried(
            ts=now,
            request_id=request.request_id,
            tier=request.qos.name,
            attempt=attempt,
            backoff=backoff,
            from_replica=from_replica,
        ))
        self._retries[request.qos.name].inc()

    def on_request_shed(self, request, now, alive_fraction) -> None:
        self.recorder.emit(RequestShed(
            ts=now,
            request_id=request.request_id,
            tier=request.qos.name,
            important=request.important,
            alive_fraction=alive_fraction,
        ))
        self._shed[request.qos.name].inc()

    def on_request_cancelled(self, replica_id, request, now, reason) -> None:
        self.recorder.emit(RequestCancelled(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            tier=request.qos.name,
            reason=reason,
            waited=now - request.arrival_time,
        ))
        self._cancellations[request.qos.name, reason].inc()

    def on_fault_skipped(self, replica_id, now, fault_kind, reason) -> None:
        self.recorder.emit(FaultSkipped(
            ts=now,
            replica_id=replica_id,
            fault_kind=fault_kind,
            reason=reason,
        ))
        self._faults_skipped[fault_kind, reason].inc()

    # --- fleet hooks ------------------------------------------------------

    def on_fleet_resized(
        self, now, action, replica_id, hardware, fleet_size, reason="",
        by_hardware=None,
    ) -> None:
        self.recorder.emit(FleetResized(
            ts=now,
            action=action,
            replica_id=replica_id,
            hardware=hardware,
            fleet_size=fleet_size,
            reason=reason,
        ))
        self._fleet_resizes[action, hardware].inc()
        self._fleet_size_gauge[()].set(fleet_size)
        for name, count in (by_hardware or {}).items():
            self._fleet_hardware_gauge[name].set(count)

    # --- gateway hooks ----------------------------------------------------

    def on_gateway_admitted(self, request, now, queue_depth) -> None:
        self.recorder.emit(GatewayAdmitted(
            ts=now,
            request_id=request.request_id,
            tier=request.qos.name,
            important=request.important,
            queue_depth=queue_depth,
        ))
        self._gateway_admitted[request.qos.name].inc()

    def on_gateway_shed(self, request, now, reason, queue_depth) -> None:
        self.recorder.emit(GatewayShed(
            ts=now,
            request_id=request.request_id,
            tier=request.qos.name,
            important=request.important,
            reason=reason,
            queue_depth=queue_depth,
        ))
        self._gateway_shed[request.qos.name, reason].inc()

    def on_token_streamed(self, request, now) -> None:
        self._gateway_tokens_streamed[request.qos.name].inc()

    # --- span hooks -------------------------------------------------------

    def on_span_start(self, name, request, now, replica_id=-1) -> None:
        self.recorder.emit(SpanStart(
            ts=now,
            name=name,
            request_id=request.request_id,
            replica_id=replica_id,
            tier=request.qos.name,
        ))

    def on_span_end(self, name, request, now, replica_id=-1) -> None:
        self.recorder.emit(SpanEnd(
            ts=now,
            name=name,
            request_id=request.request_id,
            replica_id=replica_id,
            tier=request.qos.name,
        ))

    def close(self) -> None:
        self.recorder.close()


class MultiObserver(Observer):
    """Fan every hook out to a list of observers, in order.

    Lets an audited :class:`repro.api.Session` chain an in-memory
    audit collector with whatever observer is already installed (e.g.
    the CLI's tracing observer) without displacing either: both see
    the identical hook stream, and neither can perturb the simulation
    — the same read-only contract as any single observer.
    """

    def __init__(self, observers: "Iterable[Observer]") -> None:
        self.observers: tuple[Observer, ...] = tuple(observers)

    def __getattribute__(self, name: str):
        if name.startswith("on_"):
            observers = object.__getattribute__(self, "observers")

            def fan_out(*args, **kwargs) -> None:
                for observer in observers:
                    getattr(observer, name)(*args, **kwargs)

            return fan_out
        return object.__getattribute__(self, name)


# --- process-wide default observer ------------------------------------

_DEFAULT_OBSERVER: Observer = NULL_OBSERVER


def get_default_observer() -> Observer:
    """The observer engines adopt when none is passed explicitly."""
    return _DEFAULT_OBSERVER


def set_default_observer(observer: Observer | None) -> Observer:
    """Install a process-wide default observer; returns the previous one.

    Pass ``None`` to restore the no-op default.
    """
    global _DEFAULT_OBSERVER
    previous = _DEFAULT_OBSERVER
    _DEFAULT_OBSERVER = observer if observer is not None else NULL_OBSERVER
    return previous


@contextmanager
def default_observer(observer: Observer) -> Iterator[Observer]:
    """Scoped :func:`set_default_observer` (restores on exit)."""
    previous = set_default_observer(observer)
    try:
        yield observer
    finally:
        set_default_observer(previous)
