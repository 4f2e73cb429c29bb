"""Typed trace events: the vocabulary of iteration-level telemetry.

Every scheduling-relevant occurrence in a simulated run maps to one of
the dataclasses below.  Events serialize to flat JSON objects via
:meth:`TraceEvent.to_dict` (one object per JSONL line) and the same
schema drives :func:`validate_event`, which the CI smoke test and the
``repro trace --validate`` command use to keep recorded traces honest.

Design constraints:

* events are immutable and carry only plain scalars / tuples, so
  recording can never alias mutable engine state;
* non-finite floats are serialized as ``null`` (JSON has no ``NaN``);
* the ``kind`` discriminator is stable across versions — downstream
  tooling switches on it.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass
from typing import Any, ClassVar


#: Trace format version, written by tooling that needs to gate on
#: capabilities rather than sniff fields.  History:
#:
#: * **1** — initial event vocabulary (13 kinds).
#: * **2** — ``IterationScheduled.queue_depth`` (scheduler backlog at
#:   dispatch), ``RequestCompleted.qos_class`` (governing-SLO class for
#:   latency attribution) and the ``relegation_served`` kind.  All
#:   additions are defaulted, and :func:`validate_event` only requires
#:   fields without defaults, so v1 traces remain valid.
#: * **3** — the ``gateway_admitted`` and ``gateway_shed`` kinds
#:   (online serving gateway admission decisions).  New kinds only;
#:   every v1/v2 trace remains valid.
#: * **4** — the ``span_start`` and ``span_end`` kinds (request-scoped
#:   lifecycle spans emitted by the gateway, router and engine; see
#:   :mod:`repro.obs.spans`).  New kinds only; every v1/v2/v3 trace
#:   remains valid.
#: * **5** — the ``fault_skipped`` kind (a fault plan event targeting a
#:   replica that no longer exists or has been drained from an elastic
#:   fleet resolved to a well-defined no-op) and the ``fleet_resized``
#:   kind (the heterogeneous fleet provisioned, drained or released a
#:   replica; see :mod:`repro.cluster.fleet`).  New kinds only; every
#:   v1–v4 trace remains valid.
#: * **6** — the ``prefix_hit`` kind (a new request's prompt matched a
#:   shared radix-cached prefix and skipped that prefill work; see
#:   :mod:`repro.engine.prefix`).  New kinds only; every v1–v5 trace
#:   remains valid.
TRACE_SCHEMA_VERSION = 6


class TraceSchemaError(ValueError):
    """A serialized event does not match the declared schema."""


def _event(cls: type) -> type:
    """``@dataclass(frozen=True)`` with a cheaper ``__init__``.

    Hooks build an event per engine iteration.  The frozen dataclass
    ``__init__`` stores each field through its own
    ``object.__setattr__`` call; the one compiled here fills the
    instance dict in a single ``update``, bypassing the frozen
    ``__setattr__`` the same way.  Signature, defaults, equality,
    hashing and immutability are the dataclass's own.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    namespace: dict[str, Any] = {}
    params = []
    for field in fields:
        if field.default is dataclasses.MISSING:
            params.append(field.name)
        else:
            namespace[f"_default_{field.name}"] = field.default
            params.append(f"{field.name}=_default_{field.name}")
    assigns = ", ".join(f"{field.name}={field.name}" for field in fields)
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        f"    self.__dict__.update({assigns})\n",
        namespace,
    )
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_event
class TraceEvent:
    """Base class: every event has a simulated timestamp ``ts``."""

    kind: ClassVar[str] = "event"

    ts: float

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe payload with the ``kind`` discriminator.

        Keys follow the dataclass field order, read from a per-class
        cache of field names rather than :func:`dataclasses.fields`.
        """
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(
                field.name for field in dataclasses.fields(cls)
            )
        payload: dict[str, Any] = {"kind": self.kind}
        for name in names:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            elif isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        return payload


#: Event class -> its dataclass field names, in declaration order.
_FIELD_NAMES: dict[type[TraceEvent], tuple[str, ...]] = {}


@_event
class IterationScheduled(TraceEvent):
    """One engine iteration was planned and dispatched.

    ``dur`` is the execution model's batch time, known at dispatch
    (the simulator advances by exactly this much), so the event doubles
    as a complete span for the Chrome-trace exporter.
    """

    kind: ClassVar[str] = "iteration_scheduled"

    replica_id: int
    iteration: int
    dur: float
    prefill_tokens: int
    num_prefills: int
    num_decodes: int
    decode_context_tokens: int
    prefill_request_ids: tuple[int, ...] = ()
    #: Scheduler backlog (pending requests) when the iteration was
    #: planned; -1 in schema-v1 traces recorded before the field existed.
    queue_depth: int = -1


@_event
class ChunkSized(TraceEvent):
    """The dynamic chunker converted decode slack into a token budget."""

    kind: ClassVar[str] = "chunk_sized"

    chunk_budget: int
    latency_budget: float | None
    predicted_latency: float
    num_decodes: int


@_event
class Relegated(TraceEvent):
    """Eager relegation demoted a request behind all regular work."""

    kind: ClassVar[str] = "relegated"

    request_id: int
    tier: str
    important: bool
    remaining_prefill: int


@_event
class RelegationServed(TraceEvent):
    """A relegated request finally received opportunistic service.

    Emitted at the first prefill assignment after demotion; ``waited``
    is the time spent parked behind regular work (now minus relegation
    time).  Together with :class:`Relegated` this brackets the
    relegation stall that latency attribution charges to the eager
    relegation mechanism.
    """

    kind: ClassVar[str] = "relegation_served"

    replica_id: int
    request_id: int
    tier: str
    tokens: int
    waited: float


@_event
class Preempted(TraceEvent):
    """A partial prefill lost its KV to break a memory deadlock."""

    kind: ClassVar[str] = "preempted"

    replica_id: int
    request_id: int
    prefill_tokens_lost: int


@_event
class DecodeEvicted(TraceEvent):
    """A decoding request was evicted under KV pressure (recompute)."""

    kind: ClassVar[str] = "decode_evicted"

    replica_id: int
    request_id: int
    context_tokens_lost: int


@_event
class RequestCompleted(TraceEvent):
    """A request produced its final token.

    Carries the full latency anchor set so the Chrome exporter can
    render the request's lifetime span without joining other events.
    """

    kind: ClassVar[str] = "request_completed"

    replica_id: int
    request_id: int
    tier: str
    arrival_time: float
    scheduled_first_time: float | None
    first_token_time: float | None
    completion_time: float
    relegated: bool
    violated: bool
    evictions: int
    #: "interactive" (TTFT/TBT-governed) or "non-interactive"
    #: (TTLT-governed); "" in schema-v1 traces, where consumers fall
    #: back to tier-name conventions.
    qos_class: str = ""


@_event
class KVCacheSnapshot(TraceEvent):
    """Point-in-time KV occupancy of one replica."""

    kind: ClassVar[str] = "kv_cache_snapshot"

    replica_id: int
    used_blocks: int
    capacity_blocks: int
    utilization: float


@_event
class ReplicaCrashed(TraceEvent):
    """A replica failed: KV cache and in-flight batch lost."""

    kind: ClassVar[str] = "replica_crashed"

    replica_id: int
    lost_requests: int
    kv_blocks_dropped: int


@_event
class ReplicaRecovered(TraceEvent):
    """A crashed replica came back with a cold cache."""

    kind: ClassVar[str] = "replica_recovered"

    replica_id: int
    downtime: float


@_event
class ReplicaSlowdown(TraceEvent):
    """A replica's iteration time changed by a straggler multiplier.

    ``factor`` 1.0 marks the end of a slowdown window.
    """

    kind: ClassVar[str] = "replica_slowdown"

    replica_id: int
    factor: float


@_event
class RequestRetried(TraceEvent):
    """A request lost to a crash was re-enqueued after backoff."""

    kind: ClassVar[str] = "request_retried"

    request_id: int
    tier: str
    attempt: int
    backoff: float
    from_replica: int


@_event
class RequestShed(TraceEvent):
    """Admission control refused an arrival under degraded capacity."""

    kind: ClassVar[str] = "request_shed"

    request_id: int
    tier: str
    important: bool
    alive_fraction: float


@_event
class RequestCancelled(TraceEvent):
    """A request was abandoned (deadline timeout or retry budget)."""

    kind: ClassVar[str] = "request_cancelled"

    replica_id: int
    request_id: int
    tier: str
    reason: str
    waited: float


@_event
class FaultSkipped(TraceEvent):
    """A fault plan event resolved to a no-op instead of firing.

    Elastic fleets resize while a fault plan (armed against the
    maximum pool size) keeps firing; a crash or slowdown aimed at a
    replica slot that has since been drained, released, or never
    provisioned is recorded here instead of raising mid-run.
    ``fault_kind`` mirrors :class:`repro.faults.plan.FaultEvent.kind`
    (``"crash"`` / ``"recover"`` / ``"slowdown"``); ``reason`` says why
    the target was invalid (``"drained"``, ``"released"``,
    ``"not_provisioned"``).
    """

    kind: ClassVar[str] = "fault_skipped"

    replica_id: int
    fault_kind: str
    reason: str


@_event
class FleetResized(TraceEvent):
    """The heterogeneous fleet changed size or composition.

    ``action`` is ``"provision"`` (cold-start begun), ``"ready"`` (a
    provisioned replica came online), ``"drain"`` (a replica stopped
    accepting work) or ``"release"`` (a drained replica finished its
    backlog and left the pool).  ``fleet_size`` counts replicas that
    are provisioned and not yet released after the action.
    """

    kind: ClassVar[str] = "fleet_resized"

    action: str
    replica_id: int
    hardware: str
    fleet_size: int
    reason: str = ""


@_event
class PrefixHit(TraceEvent):
    """An arrival's prompt matched a shared radix-cached prefix.

    ``hit_tokens`` prefill tokens were skipped (the scheduler only
    ever plans the uncached suffix); ``cached_tokens`` is the tree's
    resident footprint after locking the matched path.  Misses emit no
    event — they only bump the ``repro_kv_prefix_misses_total``
    counter.
    """

    kind: ClassVar[str] = "prefix_hit"

    replica_id: int
    request_id: int
    tier: str
    hit_tokens: int
    prompt_tokens: int
    cached_tokens: int


@_event
class GatewayAdmitted(TraceEvent):
    """The online gateway accepted an arrival into a replica."""

    kind: ClassVar[str] = "gateway_admitted"

    request_id: int
    tier: str
    important: bool
    queue_depth: int


@_event
class GatewayShed(TraceEvent):
    """The online gateway refused or evicted a request.

    ``reason`` is ``"rate_limit"`` (per-tier token bucket empty) or
    ``"backpressure"`` (queue depth cap; the victim follows the
    relegation demotable ordering).
    """

    kind: ClassVar[str] = "gateway_shed"

    request_id: int
    tier: str
    important: bool
    reason: str
    queue_depth: int


@_event
class SpanStart(TraceEvent):
    """A request entered a lifecycle stage (see :mod:`repro.obs.spans`).

    ``name`` is the stage: ``gateway`` (offered to the serving front
    door), ``admission`` (admission decision), ``dispatch`` (router
    chose a replica), ``queue`` (enqueued on a scheduler), ``prefill``
    (first chunk scheduled) or ``decode`` (first output token).
    ``replica_id`` is -1 for stages outside any replica.
    """

    kind: ClassVar[str] = "span_start"

    name: str
    request_id: int
    replica_id: int = -1
    tier: str = ""


@_event
class SpanEnd(TraceEvent):
    """A request left a lifecycle stage opened by :class:`SpanStart`."""

    kind: ClassVar[str] = "span_end"

    name: str
    request_id: int
    replica_id: int = -1
    tier: str = ""


#: kind -> event class, the closed registry of trace event types.
EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        IterationScheduled,
        ChunkSized,
        Relegated,
        RelegationServed,
        Preempted,
        DecodeEvicted,
        RequestCompleted,
        KVCacheSnapshot,
        ReplicaCrashed,
        ReplicaRecovered,
        ReplicaSlowdown,
        RequestRetried,
        RequestShed,
        RequestCancelled,
        FaultSkipped,
        FleetResized,
        PrefixHit,
        GatewayAdmitted,
        GatewayShed,
        SpanStart,
        SpanEnd,
    )
}


def _checkers(cls: type[TraceEvent]) -> dict[str, tuple[type, ...]]:
    """Per-field accepted runtime types, derived from annotations."""
    out: dict[str, tuple[type, ...]] = {}
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        origin = typing.get_origin(hint)
        accepted: tuple[type, ...]
        if origin is typing.Union or origin is types.UnionType:
            members = [a for a in typing.get_args(hint)
                       if a is not type(None)]
            accepted = tuple(
                t for m in members for t in _scalar_types(m)
            ) + (type(None),)
        else:
            accepted = _scalar_types(hint)
        out[field.name] = accepted
    return out


def _scalar_types(hint: Any) -> tuple[type, ...]:
    origin = typing.get_origin(hint)
    if hint is float:
        return (int, float)
    if hint is int:
        return (int,)
    if hint is bool:
        return (bool,)
    if hint is str:
        return (str,)
    if origin in (tuple, list) or hint in (tuple, list):
        return (list, tuple)
    return (object,)


_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    kind: _checkers(cls) for kind, cls in EVENT_TYPES.items()
}


def _required_fields(cls: type[TraceEvent]) -> frozenset[str]:
    """Fields without a dataclass default.

    Defaulted fields are the schema-evolution seam: new fields must
    ship with defaults, so older traces (which lack them) still
    validate, and the reader reconstructs the default.
    """
    return frozenset(
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )


_REQUIRED: dict[str, frozenset[str]] = {
    kind: _required_fields(cls) for kind, cls in EVENT_TYPES.items()
}


def validate_event(payload: dict[str, Any]) -> None:
    """Raise :class:`TraceSchemaError` unless ``payload`` is a valid
    serialized event.

    Fields without dataclass defaults are required; defaulted fields
    may be absent (older schema versions), but when present must
    type-check.  Unknown fields are always rejected.
    """
    if not isinstance(payload, dict):
        raise TraceSchemaError(f"event must be an object, got {payload!r}")
    kind = payload.get("kind")
    if kind not in _SCHEMA:
        raise TraceSchemaError(f"unknown event kind {kind!r}")
    schema = _SCHEMA[kind]
    missing = _REQUIRED[kind] - set(payload)
    if missing:
        raise TraceSchemaError(f"{kind}: missing fields {sorted(missing)}")
    extra = set(payload) - set(schema) - {"kind"}
    if extra:
        raise TraceSchemaError(f"{kind}: unexpected fields {sorted(extra)}")
    for name, accepted in schema.items():
        if name not in payload:
            continue
        value = payload[name]
        # bool passes isinstance(..., int); keep them distinct except
        # where bool is the declared type.
        if isinstance(value, bool) and bool not in accepted:
            raise TraceSchemaError(
                f"{kind}.{name}: bool not accepted, got {value!r}"
            )
        if not isinstance(value, accepted):
            raise TraceSchemaError(
                f"{kind}.{name}: expected {accepted}, got {value!r}"
            )
        if (
            isinstance(value, float)
            and not isinstance(value, bool)
            and not math.isfinite(value)
        ):
            raise TraceSchemaError(
                f"{kind}.{name}: non-finite float {value!r}"
            )
