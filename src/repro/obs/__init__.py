"""Iteration-level observability: tracing, metrics and forensics.

The subsystem's legs (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — a zero-dependency metrics registry
  (counters / gauges / histograms / quantile sketches, labeled series)
  with Prometheus-text and JSON exporters;
* :mod:`repro.obs.events` / :mod:`repro.obs.trace` — typed trace
  events with schema validation, recorded through bounded-memory ring
  or streaming-JSONL sinks;
* :mod:`repro.obs.sketch` — mergeable DDSketch-style quantile sketches
  and windowed SLO burn-rate counters;
* :mod:`repro.obs.audit` — per-request latency attribution (phase
  decomposition + dominant-cause classification of SLO violations);
* :mod:`repro.obs.spans` — request-scoped causal span trees over the
  attribution segments, exported as OTLP/JSON and Chrome-trace flows;
* :mod:`repro.obs.live` — live telemetry frames for ``/v1/live`` and
  the ``repro top`` dashboard;
* :mod:`repro.obs.recorder` — the SLO flight recorder (always-on
  bounded ring that dumps incident windows around violations);
* :mod:`repro.obs.dashboard` — the ``repro dashboard`` report
  (terminal summary + single-file HTML with inline SVG);
* :mod:`repro.obs.diff` — differential run forensics (``repro diff``):
  request-aligned deltas over the attribution phases, cause-delta
  goodput accounting that sums exactly to the observed gap, and
  first-divergence detection with flight-recorder-style context;
* :mod:`repro.obs.chrome` — a Chrome trace-event exporter
  (``chrome://tracing`` / Perfetto): replicas as processes, batch
  slots as tracks.

Everything hangs off the :class:`Observer` protocol, whose no-op
default (:data:`NULL_OBSERVER`) keeps instrumentation free when
disabled and guarantees tracing never perturbs scheduling.
"""

from repro.obs.audit import (
    PHASES,
    AttributionReport,
    RequestAudit,
    audit_events,
    audit_requests,
)
from repro.obs.chrome import (
    per_request_timeline,
    render_timeline,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.dashboard import (
    build_dashboard_data,
    render_html,
    render_terminal,
)
from repro.obs.diff import (
    Divergence,
    RequestDelta,
    RunDiff,
    diff_runs,
    find_first_divergence,
    render_diff_html,
    render_diff_terminal,
)
from repro.obs.events import (
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    ChunkSized,
    DecodeEvicted,
    FaultSkipped,
    FleetResized,
    GatewayAdmitted,
    GatewayShed,
    IterationScheduled,
    KVCacheSnapshot,
    Preempted,
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
    TraceEvent,
    TraceSchemaError,
    validate_event,
)
from repro.obs.live import (
    build_live_snapshot,
    render_incidents,
    render_top,
)
from repro.obs.metrics import (
    DEFAULT_CHUNK_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    bucket_counts,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    MultiObserver,
    Observer,
    TracingObserver,
    default_observer,
    get_default_observer,
    set_default_observer,
)
from repro.obs.recorder import (
    FlightRecorder,
    read_incidents,
    record_incidents,
)
from repro.obs.sketch import (
    BurnRateTracker,
    QuantileSketch,
    merge_sketches,
)
from repro.obs.spans import (
    LIFECYCLE_STAGES,
    Span,
    build_span_trees,
    conservation_error,
    phase_durations,
    reconciliation_error,
    spans_to_chrome,
    spans_to_otlp,
    write_spans,
)
from repro.obs.trace import (
    JSONLSink,
    ListSink,
    RingSink,
    TraceRecorder,
    read_jsonl_trace,
)

__all__ = [
    "EVENT_TYPES",
    "TRACE_SCHEMA_VERSION",
    "PHASES",
    "AttributionReport",
    "RequestAudit",
    "audit_events",
    "audit_requests",
    "BurnRateTracker",
    "QuantileSketch",
    "merge_sketches",
    "build_dashboard_data",
    "render_html",
    "render_terminal",
    "Divergence",
    "RequestDelta",
    "RunDiff",
    "diff_runs",
    "find_first_divergence",
    "render_diff_html",
    "render_diff_terminal",
    "MultiObserver",
    "RelegationServed",
    "ChunkSized",
    "DecodeEvicted",
    "FaultSkipped",
    "FleetResized",
    "GatewayAdmitted",
    "GatewayShed",
    "IterationScheduled",
    "KVCacheSnapshot",
    "Preempted",
    "Relegated",
    "ReplicaCrashed",
    "ReplicaRecovered",
    "ReplicaSlowdown",
    "RequestCancelled",
    "RequestCompleted",
    "RequestRetried",
    "RequestShed",
    "SpanEnd",
    "SpanStart",
    "TraceEvent",
    "TraceSchemaError",
    "validate_event",
    "LIFECYCLE_STAGES",
    "Span",
    "build_span_trees",
    "conservation_error",
    "phase_durations",
    "reconciliation_error",
    "spans_to_chrome",
    "spans_to_otlp",
    "write_spans",
    "build_live_snapshot",
    "render_incidents",
    "render_top",
    "FlightRecorder",
    "read_incidents",
    "record_incidents",
    "DEFAULT_CHUNK_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "bucket_counts",
    "NULL_OBSERVER",
    "Observer",
    "TracingObserver",
    "default_observer",
    "get_default_observer",
    "set_default_observer",
    "JSONLSink",
    "ListSink",
    "RingSink",
    "TraceRecorder",
    "read_jsonl_trace",
    "per_request_timeline",
    "render_timeline",
    "to_chrome_trace",
    "write_chrome_trace",
]
