"""SLO flight recorder: always-on incident capture around violations.

A million-request run cannot retain its full trace, but the moments
that matter — a request missing its deadline, a burn-rate window
spending the error budget too fast — are rare and local.
:class:`FlightRecorder` is a :class:`~repro.obs.trace.TraceSink` that
keeps only a bounded ring of recent events; when a trigger fires it
freezes the ring (pre-context), keeps collecting for a fixed number of
further events (post-context), and dumps the full-fidelity window as
one JSONL *incident* with the dominant cause from
:mod:`repro.obs.audit`.  Like every writing sink it serializes each
event in ``append``; steady-state cost is that plus one deque append,
and the incident file only ever holds windows around anomalies.

Triggers:

* **deadline_violation** — a ``request_completed`` event with
  ``violated=True``;
* **burn_rate** — the completed request's burn-rate window (a
  :class:`~repro.obs.sketch.BurnRateTracker` bucket) crosses
  ``burn_threshold`` with at least ``min_window_total`` verdicts; each
  window trips at most once.

All timing is virtual (event timestamps), so incident capture is
deterministic: replaying the same trace produces byte-identical
incident files.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.audit import audit_events
from repro.obs.events import TraceEvent
from repro.obs.sketch import BurnRateTracker

__all__ = ["FlightRecorder", "record_incidents", "read_incidents"]


class FlightRecorder:
    """Bounded ring of recent events + triggered incident dumps.

    Args:
        path: JSONL incident file (one incident object per line).
            Created lazily on the first incident, so an uneventful run
            leaves no file behind.
        capacity: Ring size — the maximum pre-context per incident.
        post_context: Events collected *after* the trigger before the
            incident is sealed (the recorder's ``close`` seals any
            still-open incident early).
        burn_window: Burn-rate window width in virtual seconds.
        slo_budget: Allowed violation fraction (paper bar: 1%).
        burn_threshold: Window burn rate at or above which the
            burn-rate trigger fires (1.0 = spending the budget
            exactly; the SRE-workbook fast-burn page is 14.4).
        min_window_total: Verdicts a window needs before its rate is
            trusted — stops a single early violation from reading as
            an infinite burn.
        max_incidents: Stop opening new incidents after this many
            (``None`` = unbounded); the counter still advances so the
            truncation is visible.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        capacity: int = 2048,
        post_context: int = 256,
        burn_window: float = 60.0,
        slo_budget: float = 0.01,
        burn_threshold: float = 2.0,
        min_window_total: int = 10,
        max_incidents: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if post_context < 0:
            raise ValueError("post_context must be >= 0")
        if not math.isfinite(burn_threshold) or burn_threshold <= 0:
            raise ValueError("burn_threshold must be finite and > 0")
        self.path = Path(path)
        self.capacity = int(capacity)
        self.post_context = int(post_context)
        self.burn_threshold = float(burn_threshold)
        self.min_window_total = int(min_window_total)
        self.max_incidents = max_incidents
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._burn = BurnRateTracker(
            window=burn_window, slo_budget=slo_budget
        )
        self._tripped_windows: set[int] = set()
        self._open: list[dict[str, Any]] = []
        self._file = None
        #: Incidents triggered (including any suppressed past
        #: ``max_incidents``).
        self.triggered = 0
        #: Incidents actually written to ``path``.
        self.incidents_written = 0

    # --- TraceSink protocol --------------------------------------------

    def append(self, event: TraceEvent) -> None:
        self.append_payload(event.to_dict())

    def append_payload(self, payload: dict[str, Any]) -> None:
        """Consume one already serialized event (offline replay)."""
        self._ring.append(payload)
        for incident in self._open:
            incident["events"].append(payload)
            incident["remaining"] -= 1
        sealed = [i for i in self._open if i["remaining"] <= 0]
        if sealed:
            self._open = [i for i in self._open if i["remaining"] > 0]
            for incident in sealed:
                self._write(incident)

        if payload.get("kind") != "request_completed":
            return
        ts = payload["ts"]
        violated = bool(payload.get("violated"))
        self._burn.observe(ts, violated)
        if violated:
            self._trigger({
                "trigger": "deadline_violation",
                "ts": ts,
                "request_id": payload.get("request_id"),
                "tier": payload.get("tier", ""),
            })
        window = math.floor(ts / self._burn.window)
        total = self._burn._totals.get(window, 0)
        bad = self._burn._violations.get(window, 0)
        if (
            total >= self.min_window_total
            and window not in self._tripped_windows
        ):
            rate = (bad / total) / self._burn.slo_budget
            if rate >= self.burn_threshold:
                self._tripped_windows.add(window)
                self._trigger({
                    "trigger": "burn_rate",
                    "ts": ts,
                    "window_start": window * self._burn.window,
                    "window_end": (window + 1) * self._burn.window,
                    "burn_rate": rate,
                })

    def close(self) -> None:
        """Seal any open incidents with the context collected so far."""
        for incident in self._open:
            self._write(incident)
        self._open = []
        if self._file is not None and not self._file.closed:
            self._file.close()

    # --- internals ------------------------------------------------------

    def _trigger(self, meta: dict[str, Any]) -> None:
        self.triggered += 1
        if (
            self.max_incidents is not None
            and self.triggered > self.max_incidents
        ):
            return
        # Pre-context is the ring as of the trigger (which has already
        # absorbed the triggering event itself).
        self._open.append({
            "meta": meta,
            "events": list(self._ring),
            "remaining": self.post_context,
        })

    def _write(self, incident: dict[str, Any]) -> None:
        meta = incident["meta"]
        events = incident["events"]
        report = audit_events(events)
        if meta["trigger"] == "deadline_violation":
            cause = next(
                (
                    audit.dominant_cause for audit in report.requests
                    if audit.request_id == meta.get("request_id")
                ),
                None,
            )
        else:
            causes = report.dominant_causes()
            cause = (
                max(sorted(causes), key=lambda c: causes[c])
                if causes else None
            )
        line = {
            **meta,
            "dominant_cause": cause,
            "num_events": len(events),
            "events": events,
        }
        if self._file is None:
            self._file = self.path.open("w")
        self._file.write(json.dumps(line, separators=(",", ":")))
        self._file.write("\n")
        self._file.flush()
        self.incidents_written += 1


def record_incidents(
    events: Iterable[Mapping[str, Any]],
    path: str | Path,
    **kwargs: Any,
) -> int:
    """Replay a recorded trace through a fresh flight recorder.

    Returns the number of incidents written — the offline counterpart
    of attaching the recorder to a live gateway.
    """
    recorder = FlightRecorder(path, **kwargs)
    for event in events:
        recorder.append_payload(dict(event))
    recorder.close()
    return recorder.incidents_written


def read_incidents(path: str | Path) -> list[dict[str, Any]]:
    """Load an incident JSONL file back into incident dicts."""
    incidents: list[dict[str, Any]] = []
    with Path(path).open() as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                incidents.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {error}"
                ) from error
    return incidents
