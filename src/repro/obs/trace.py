"""Trace recording: bounded-memory and streaming-JSONL sinks.

A :class:`TraceRecorder` fans events out to any number of sinks.  The
two built-ins cover the common deployments:

* :class:`RingSink` keeps the last N events in memory (flight-recorder
  mode — always on, negligible cost, inspect after an anomaly);
* :class:`JSONLSink` streams every event to disk as one JSON object
  per line, the format ``repro trace`` converts to Chrome trace JSON.

Every sink implements one protocol, ``append(event)``, and receives the
immutable :class:`~repro.obs.events.TraceEvent` itself.  Buffering
sinks (:class:`RingSink`, :class:`ListSink`) hold the events and
serialize them only when ``.events`` is read, so events a ring sheds
are never serialized at all; writing sinks (:class:`JSONLSink`, the
flight recorder) call :meth:`~repro.obs.events.TraceEvent.to_dict` in
``append``.  Events carry only scalars and tuples, so holding them can
never alias mutable engine state, and every read of ``.events``
returns fresh dicts a consumer may mutate freely.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol

from repro.obs.events import TraceEvent, validate_event


class TraceSink(Protocol):
    """Anything that can accept trace events."""

    def append(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class RingSink:
    """Keep the most recent ``capacity`` events; count what was shed.

    ``on_drop`` (if given) fires once per event shed from the front of
    the ring — :class:`~repro.obs.observer.TracingObserver` wires it to
    the ``repro_trace_events_dropped_total`` counter so bounded-memory
    tracing is never *silently* lossy.
    """

    def __init__(
        self,
        capacity: int = 4096,
        on_drop: Callable[[], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: deque[TraceEvent] = deque(maxlen=self.capacity)
        self.appended = 0
        self.on_drop = on_drop

    def append(self, event: TraceEvent) -> None:
        self._ring.append(event)
        self.appended += 1
        # A full ring stays full, so every append past capacity sheds.
        if self.appended > self.capacity and self.on_drop is not None:
            self.on_drop()

    @property
    def dropped(self) -> int:
        """Events shed from the front of the ring."""
        return self.appended - len(self._ring)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The retained events, oldest first, serialized on each read."""
        return [event.to_dict() for event in self._ring]

    def close(self) -> None:  # nothing buffered outside the ring
        pass


class ListSink:
    """Unbounded in-memory sink (tests and short runs)."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[dict[str, Any]]:
        """Every event, in emission order, serialized on each read."""
        return [event.to_dict() for event in self._events]

    def close(self) -> None:
        pass


class JSONLSink:
    """Stream events to ``path``, one compact JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = self.path.open("w")
        self.written = 0

    def append(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceRecorder:
    """Counts events by kind and fans them out to every sink."""

    def __init__(self, sinks: Iterable[TraceSink] = ()) -> None:
        self.sinks: list[TraceSink] = list(sinks)
        self.counts: Counter[str] = Counter()

    def emit(self, event: TraceEvent) -> None:
        self.counts[event.kind] += 1
        for sink in self.sinks:
            sink.append(event)

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl_trace(
    path: str | Path, validate: bool = False
) -> list[dict[str, Any]]:
    """Load a JSONL trace back into event dicts.

    Args:
        path: File written by :class:`JSONLSink`.
        validate: Check every event against the schema
            (:func:`~repro.obs.events.validate_event`); raises
            :class:`~repro.obs.events.TraceSchemaError` with the
            offending line number on mismatch.
    """
    events: list[dict[str, Any]] = []
    with Path(path).open() as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {error}"
                ) from error
            if validate:
                try:
                    validate_event(payload)
                except Exception as error:
                    raise type(error)(
                        f"{path}:{lineno}: {error}"
                    ) from error
            events.append(payload)
    return events
