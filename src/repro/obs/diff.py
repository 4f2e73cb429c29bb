"""Differential run forensics: request-aligned diffing of two runs.

The paper's central claim is comparative — QoServe beats siloed
baselines on deadline attainment — but every tool in :mod:`repro.obs`
so far looks at one run in isolation.  This module closes that gap:
given two recorded traces over the *same workload* (different
scheduler, engine core, fleet config or seed), it aligns requests by
id and answers three questions a single-run dashboard cannot:

* **Where did the runs first disagree?**  The earliest trace event at
  which the two streams diverge, with the shared pre-context ring
  (the flight-recorder pattern from :mod:`repro.obs.recorder`) and a
  few following events from each side.  For two runs that should be
  byte-identical this pinpoints the first diverging decision; for two
  schedulers it shows the first choice they made differently.
* **Who got better, who got worse, and why?**  Per aligned request:
  deltas over the auditor's attribution phases
  (:data:`repro.obs.audit.PHASES`), TTFT/TTLT deltas, governing
  deadline-slack deltas, and violation *flips* (ok → violated =
  regressed, violated → ok = fixed) with the dominant cause charged
  on the violating side.
* **Does the explanation add up?**  Every change in goodput is
  attributed to exactly one cause (the dominant cause of the flip, or
  a ``missing_in_*`` bucket for requests only one run completed), so
  the per-cause deltas sum to the observed goodput gap *exactly* —
  the same conservation discipline :mod:`repro.obs.audit` applies
  within one run, lifted to the difference between two.

Aggregates reuse :mod:`repro.obs.sketch`: per-tier, per-phase delta
distributions are :class:`~repro.obs.sketch.QuantileSketch`\\ es, so
arena drivers can merge diffs across a load sweep without holding raw
samples, byte-identically at any ``--jobs`` count.

Everything here is a pure function of serialized event lists — no
imports from the engine or API layers — so it works on live
``ListSink`` buffers, ``--trace-out`` JSONL files and flight-recorder
incident windows alike.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.qos import DEFAULT_TIERS
from repro.obs.audit import (
    PHASES,
    AttributionReport,
    RequestAudit,
    audit_events,
    is_interactive,
)
from repro.obs.sketch import QuantileSketch

__all__ = [
    "ATTRIBUTION_TOL",
    "Divergence",
    "RequestDelta",
    "RunDiff",
    "diff_runs",
    "find_first_divergence",
    "render_diff_html",
    "render_diff_terminal",
]

#: Tolerance on the cause-delta/goodput-gap conservation identity.
#: The sum is integer arithmetic, so any residual at all is a bug;
#: the tolerance exists only to state the invariant in the same
#: 1e-9 currency as the audit's conservation bound.
ATTRIBUTION_TOL = 1e-9

#: Cause buckets for requests that only one run completed.
MISSING_IN_OTHER = "missing_in_other"
MISSING_IN_BASE = "missing_in_base"

#: Latency deltas sketched alongside the attribution phases.
_LATENCY_KEYS = ("ttft", "ttlt")

_TIER_SPECS = {spec.name: spec for spec in DEFAULT_TIERS}


def _canonical(event: Mapping[str, Any]) -> str:
    """Byte-stable identity of one serialized event."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def governing_slack(audit: RequestAudit) -> float | None:
    """Seconds of headroom against the request's governing SLO.

    Interactive tiers are governed by TTFT, non-interactive by TTLT
    (the same rule :func:`repro.obs.audit.is_interactive` applies to
    dominant-cause candidates).  Positive = met with room to spare,
    negative = missed by that much.  ``None`` when the tier is not one
    of the Table 3 presets (the trace does not record SLO targets).
    """
    spec = _TIER_SPECS.get(audit.tier)
    if spec is None:
        return None
    if is_interactive(audit.tier, audit.qos_class):
        if spec.ttft_slo is None:
            return None
        return spec.ttft_slo - (audit.first_token_time - audit.arrival_time)
    if spec.ttlt_slo is None:
        return None
    return spec.ttlt_slo - (audit.completion_time - audit.arrival_time)


@dataclass(frozen=True)
class Divergence:
    """The earliest event at which two runs disagree.

    ``index`` is the position in both streams (they are identical
    before it).  ``base_event`` / ``other_event`` is ``None`` when
    that stream simply ended — a length divergence.  ``context``
    holds the last few *shared* events before the split (the
    flight-recorder ring frozen at the trigger), and
    ``base_after`` / ``other_after`` the first few events each run
    emitted instead of the other's.
    """

    index: int
    base_event: Mapping[str, Any] | None
    other_event: Mapping[str, Any] | None
    context: tuple[Mapping[str, Any], ...] = ()
    base_after: tuple[Mapping[str, Any], ...] = ()
    other_after: tuple[Mapping[str, Any], ...] = ()

    @property
    def ts(self) -> float | None:
        """Timestamp of the divergence (base side, else other)."""
        for event in (self.base_event, self.other_event):
            if event is not None and isinstance(
                event.get("ts"), (int, float)
            ):
                return float(event["ts"])
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "ts": self.ts,
            "base_event": (
                dict(self.base_event)
                if self.base_event is not None else None
            ),
            "other_event": (
                dict(self.other_event)
                if self.other_event is not None else None
            ),
            "context": [dict(e) for e in self.context],
            "base_after": [dict(e) for e in self.base_after],
            "other_after": [dict(e) for e in self.other_after],
        }


def find_first_divergence(
    base_events: Iterable[Mapping[str, Any]],
    other_events: Iterable[Mapping[str, Any]],
    context: int = 8,
) -> Divergence | None:
    """First position where the two event streams disagree.

    Events compare by canonical JSON (sorted keys), so agreement means
    byte-identity after normalization — the same bar the engine's
    trace pins hold it to.  Returns ``None`` for fully
    identical streams.  A bounded ring (the flight-recorder pattern)
    keeps the shared pre-context without buffering either stream.
    """
    base_events = list(base_events)
    other_events = list(other_events)
    ring: deque[Mapping[str, Any]] = deque(maxlen=max(0, context))
    for index in range(max(len(base_events), len(other_events))):
        base = base_events[index] if index < len(base_events) else None
        other = other_events[index] if index < len(other_events) else None
        if (
            base is None
            or other is None
            or _canonical(base) != _canonical(other)
        ):
            after = max(0, context) // 2 + 1
            return Divergence(
                index=index,
                base_event=base,
                other_event=other,
                context=tuple(ring),
                base_after=tuple(
                    base_events[index + 1:index + 1 + after]
                ),
                other_after=tuple(
                    other_events[index + 1:index + 1 + after]
                ),
            )
        ring.append(base)
    return None


@dataclass
class RequestDelta:
    """One request's change between the two runs (other - base).

    ``status`` is ``"aligned"`` when both runs completed the request,
    else ``"only_base"`` / ``"only_other"``.  Delta fields are only
    populated for aligned requests.  ``goodput_delta`` is this
    request's contribution to the good-request count change (+1 the
    other run turned it good, -1 it lost a good request, 0 no change)
    and ``cause`` the single attribution bucket charged for it.
    """

    request_id: int
    tier: str
    status: str
    violated_base: bool | None = None
    violated_other: bool | None = None
    cause_base: str | None = None
    cause_other: str | None = None
    flip: str = ""
    phase_deltas: dict[str, float] = field(default_factory=dict)
    ttft_delta: float | None = None
    ttlt_delta: float | None = None
    slack_base: float | None = None
    slack_other: float | None = None
    goodput_delta: int = 0
    cause: str | None = None

    @property
    def slack_delta(self) -> float | None:
        if self.slack_base is None or self.slack_other is None:
            return None
        return self.slack_other - self.slack_base

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "tier": self.tier,
            "status": self.status,
            "violated_base": self.violated_base,
            "violated_other": self.violated_other,
            "cause_base": self.cause_base,
            "cause_other": self.cause_other,
            "flip": self.flip,
            "phase_deltas": {
                name: self.phase_deltas[name]
                for name in PHASES if name in self.phase_deltas
            },
            "ttft_delta": self.ttft_delta,
            "ttlt_delta": self.ttlt_delta,
            "slack_base": self.slack_base,
            "slack_other": self.slack_other,
            "slack_delta": self.slack_delta,
            "goodput_delta": self.goodput_delta,
            "cause": self.cause,
        }


def _run_goodput(report: AttributionReport) -> dict[str, Any]:
    completed = sum(report.completed.values())
    violated = sum(report.violated.values())
    good = completed - violated
    return {
        "completed": completed,
        "violated": violated,
        "good": good,
        "goodput_pct": 100.0 * good / completed if completed else 0.0,
    }


@dataclass
class RunDiff:
    """The full differential picture of two runs over one workload.

    Attributes:
        base_label / other_label: Names shown in every rendering.
        num_events: ``(base, other)`` event counts.
        first_divergence: Earliest disagreeing event, ``None`` when
            the streams are byte-identical.
        requests: Per-request deltas ordered by request id.
        cause_goodput_delta: Attribution bucket -> signed good-request
            delta (other - base); sums to ``goodput["good_delta"]``
            exactly (:data:`ATTRIBUTION_TOL` states the invariant).
        tier_cause_goodput_delta: The same, split per tier.
        phase_total_deltas: Tier -> phase -> summed seconds delta over
            aligned requests.
        phase_delta_sketches: Tier -> phase (plus ``ttft``/``ttlt``)
            -> :class:`~repro.obs.sketch.QuantileSketch` of the
            per-request deltas — mergeable across a sweep.
        goodput: Per-run goodput counts plus ``good_delta`` and
            ``goodput_gap_pct`` (other - base, percentage points).
        flips: Counts of ``regressed`` / ``fixed`` / ``cause_changed``.
    """

    base_label: str
    other_label: str
    num_events: tuple[int, int]
    first_divergence: Divergence | None
    requests: list[RequestDelta]
    cause_goodput_delta: dict[str, int]
    tier_cause_goodput_delta: dict[str, dict[str, int]]
    phase_total_deltas: dict[str, dict[str, float]]
    phase_delta_sketches: dict[str, dict[str, QuantileSketch]]
    goodput: dict[str, Any]
    flips: dict[str, int]
    aligned: int
    only_base: list[int]
    only_other: list[int]

    @property
    def identical(self) -> bool:
        """True iff the two event streams are byte-identical."""
        return (
            self.first_divergence is None
            and self.num_events[0] == self.num_events[1]
        )

    @property
    def attribution_residual(self) -> float:
        """|sum of cause deltas - observed good-request delta|.

        Zero by construction; exported so reports (and the acceptance
        test) can show the conservation identity holding.
        """
        return abs(
            sum(self.cause_goodput_delta.values())
            - self.goodput["good_delta"]
        )

    def top_cause(self) -> tuple[str, float] | None:
        """The bucket explaining most of the goodput gap.

        Returns ``(cause, share)`` where ``share`` is the fraction of
        the summed |cause deltas| carried by that bucket, or ``None``
        when nothing changed.  Ties break on bucket name so reruns
        agree byte-for-byte.
        """
        weights = {
            cause: abs(delta)
            for cause, delta in self.cause_goodput_delta.items()
            if delta != 0
        }
        total = sum(weights.values())
        if not total:
            return None
        cause = max(sorted(weights), key=lambda c: weights[c])
        return cause, weights[cause] / total

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-safe form (keys sorted, stable order)."""
        return {
            "base_label": self.base_label,
            "other_label": self.other_label,
            "identical": self.identical,
            "events": {
                "base": self.num_events[0],
                "other": self.num_events[1],
            },
            "first_divergence": (
                self.first_divergence.to_dict()
                if self.first_divergence is not None else None
            ),
            "requests": {
                "aligned": self.aligned,
                "only_base": list(self.only_base),
                "only_other": list(self.only_other),
            },
            "goodput": dict(self.goodput),
            "cause_goodput_delta": {
                cause: self.cause_goodput_delta[cause]
                for cause in sorted(self.cause_goodput_delta)
            },
            "attribution_residual": self.attribution_residual,
            "tier_cause_goodput_delta": {
                tier: {
                    cause: deltas[cause] for cause in sorted(deltas)
                }
                for tier, deltas in sorted(
                    self.tier_cause_goodput_delta.items()
                )
            },
            "flips": {
                name: self.flips.get(name, 0)
                for name in ("regressed", "fixed", "cause_changed")
            },
            "phase_total_deltas": {
                tier: {name: totals.get(name, 0.0) for name in PHASES}
                for tier, totals in sorted(
                    self.phase_total_deltas.items()
                )
            },
            "phase_delta_sketches": {
                tier: {
                    name: sketches[name].to_dict()
                    for name in sorted(sketches)
                }
                for tier, sketches in sorted(
                    self.phase_delta_sketches.items()
                )
            },
            "request_deltas": [
                delta.to_dict() for delta in self.requests
            ],
        }


def diff_runs(
    base_events: Iterable[Mapping[str, Any]],
    other_events: Iterable[Mapping[str, Any]],
    *,
    base_label: str = "base",
    other_label: str = "other",
    context: int = 8,
) -> RunDiff:
    """Diff two recorded runs of the same workload.

    Args:
        base_events / other_events: Serialized trace events (the
            output of :func:`repro.obs.trace.read_jsonl_trace`, a
            ``ListSink`` buffer, or a flight-recorder incident's
            ``events``), in recorded order.
        base_label / other_label: Display names for the two runs.
        context: Shared pre-context events kept around the first
            divergence (flight-recorder ring size).

    The result is a pure deterministic function of the inputs:
    serializing ``diff_runs(a, b).to_dict()`` with sorted keys is
    byte-identical across reruns and process counts.
    """
    base_events = list(base_events)
    other_events = list(other_events)
    divergence = find_first_divergence(
        base_events, other_events, context=context
    )
    base_report = audit_events(base_events)
    other_report = audit_events(other_events)
    base_by_id = {a.request_id: a for a in base_report.requests}
    other_by_id = {a.request_id: a for a in other_report.requests}

    only_base = sorted(set(base_by_id) - set(other_by_id))
    only_other = sorted(set(other_by_id) - set(base_by_id))
    aligned_ids = sorted(set(base_by_id) & set(other_by_id))

    requests: list[RequestDelta] = []
    cause_deltas: dict[str, int] = {}
    tier_cause_deltas: dict[str, dict[str, int]] = {}
    phase_totals: dict[str, dict[str, float]] = {}
    sketches: dict[str, dict[str, QuantileSketch]] = {}
    flips = {"regressed": 0, "fixed": 0, "cause_changed": 0}

    def charge(tier: str, cause: str, delta: int) -> None:
        cause_deltas[cause] = cause_deltas.get(cause, 0) + delta
        per_tier = tier_cause_deltas.setdefault(tier, {})
        per_tier[cause] = per_tier.get(cause, 0) + delta

    def sketch(tier: str, name: str, value: float) -> None:
        sketches.setdefault(tier, {}).setdefault(
            name, QuantileSketch()
        ).add(value)

    for request_id in aligned_ids:
        base = base_by_id[request_id]
        other = other_by_id[request_id]
        delta = RequestDelta(
            request_id=request_id,
            tier=base.tier,
            status="aligned",
            violated_base=base.violated,
            violated_other=other.violated,
            cause_base=base.dominant_cause,
            cause_other=other.dominant_cause,
            slack_base=governing_slack(base),
            slack_other=governing_slack(other),
        )
        delta.phase_deltas = {
            name: other.phases[name] - base.phases[name]
            for name in PHASES
        }
        delta.ttft_delta = (
            (other.first_token_time - other.arrival_time)
            - (base.first_token_time - base.arrival_time)
        )
        delta.ttlt_delta = (
            (other.completion_time - other.arrival_time)
            - (base.completion_time - base.arrival_time)
        )
        if base.violated and not other.violated:
            delta.flip = "fixed"
            delta.goodput_delta = 1
            delta.cause = base.dominant_cause
            flips["fixed"] += 1
        elif other.violated and not base.violated:
            delta.flip = "regressed"
            delta.goodput_delta = -1
            delta.cause = other.dominant_cause
            flips["regressed"] += 1
        elif (
            base.violated
            and other.violated
            and base.dominant_cause != other.dominant_cause
        ):
            delta.flip = "cause_changed"
            flips["cause_changed"] += 1
        if delta.cause is not None:
            charge(base.tier, delta.cause, delta.goodput_delta)
        totals = phase_totals.setdefault(
            base.tier, {name: 0.0 for name in PHASES}
        )
        for name in PHASES:
            totals[name] += delta.phase_deltas[name]
            sketch(base.tier, name, delta.phase_deltas[name])
        sketch(base.tier, "ttft", delta.ttft_delta)
        sketch(base.tier, "ttlt", delta.ttlt_delta)
        requests.append(delta)

    for request_id in only_base:
        base = base_by_id[request_id]
        delta = RequestDelta(
            request_id=request_id,
            tier=base.tier,
            status="only_base",
            violated_base=base.violated,
            cause_base=base.dominant_cause,
        )
        if not base.violated:
            delta.goodput_delta = -1
            delta.cause = MISSING_IN_OTHER
            charge(base.tier, MISSING_IN_OTHER, -1)
        requests.append(delta)

    for request_id in only_other:
        other = other_by_id[request_id]
        delta = RequestDelta(
            request_id=request_id,
            tier=other.tier,
            status="only_other",
            violated_other=other.violated,
            cause_other=other.dominant_cause,
        )
        if not other.violated:
            delta.goodput_delta = 1
            delta.cause = MISSING_IN_BASE
            charge(other.tier, MISSING_IN_BASE, 1)
        requests.append(delta)

    requests.sort(key=lambda d: d.request_id)

    base_goodput = _run_goodput(base_report)
    other_goodput = _run_goodput(other_report)
    goodput = {
        "base": base_goodput,
        "other": other_goodput,
        "good_delta": other_goodput["good"] - base_goodput["good"],
        "goodput_gap_pct": (
            other_goodput["goodput_pct"] - base_goodput["goodput_pct"]
        ),
    }
    return RunDiff(
        base_label=base_label,
        other_label=other_label,
        num_events=(len(base_events), len(other_events)),
        first_divergence=divergence,
        requests=requests,
        cause_goodput_delta=cause_deltas,
        tier_cause_goodput_delta=tier_cause_deltas,
        phase_total_deltas=phase_totals,
        phase_delta_sketches=sketches,
        goodput=goodput,
        flips=flips,
        aligned=len(aligned_ids),
        only_base=only_base,
        only_other=only_other,
    )


# --- terminal rendering ------------------------------------------------


def _fmt_delta_s(value: float | None) -> str:
    """Signed humanized seconds ('-' for unknown)."""
    if value is None or value != value:
        return "-"
    sign = "+" if value >= 0 else "-"
    magnitude = abs(value)
    if magnitude < 1.0:
        return f"{sign}{magnitude * 1e3:.0f}ms"
    if magnitude < 120.0:
        return f"{sign}{magnitude:.2f}s"
    return f"{sign}{magnitude / 60.0:.1f}min"


def _summarize_event(event: Mapping[str, Any] | None) -> str:
    if event is None:
        return "(stream ended)"
    parts = [f"{event.get('kind', '?')} ts={event.get('ts')}"]
    for key in ("request_id", "replica_id", "iteration", "tier"):
        if key in event:
            parts.append(f"{key}={event[key]}")
    return " ".join(parts)


def render_diff_terminal(diff: RunDiff, top: int = 5) -> str:
    """Plain-text differential report (the ``repro diff`` stdout)."""
    base, other = diff.base_label, diff.other_label
    goodput = diff.goodput
    lines = [
        f"== run diff: {base} vs {other} ==",
        f"events: {diff.num_events[0]} vs {diff.num_events[1]}  "
        f"aligned requests: {diff.aligned}  "
        f"only-{base}: {len(diff.only_base)}  "
        f"only-{other}: {len(diff.only_other)}",
        f"goodput: {goodput['base']['goodput_pct']:.2f}% -> "
        f"{goodput['other']['goodput_pct']:.2f}% "
        f"({goodput['goodput_gap_pct']:+.2f} pp, "
        f"{goodput['good_delta']:+d} good requests)",
        f"flips: {diff.flips.get('regressed', 0)} regressed, "
        f"{diff.flips.get('fixed', 0)} fixed, "
        f"{diff.flips.get('cause_changed', 0)} cause-changed",
    ]
    if diff.identical:
        lines += ["", "runs are byte-identical: empty delta"]
        return "\n".join(lines) + "\n"

    divergence = diff.first_divergence
    if divergence is not None:
        lines += ["", f"first divergence at event #{divergence.index}"
                      + (f" (t={divergence.ts:.3f}s)"
                         if divergence.ts is not None else "")]
        for event in divergence.context:
            lines.append(f"    = {_summarize_event(event)}")
        lines.append(f"  {base:>6}> {_summarize_event(divergence.base_event)}")
        lines.append(
            f"  {other:>6}> {_summarize_event(divergence.other_event)}"
        )

    lines += ["", f"goodput change by cause ({other} - {base}):"]
    if any(diff.cause_goodput_delta.values()):
        for cause in sorted(
            diff.cause_goodput_delta,
            key=lambda c: (-abs(diff.cause_goodput_delta[c]), c),
        ):
            delta = diff.cause_goodput_delta[cause]
            if delta == 0:
                continue
            lines.append(f"  {cause:<20}{delta:>+6d}")
        lines.append(
            f"  {'total':<20}{goodput['good_delta']:>+6d}  "
            f"(residual {diff.attribution_residual:.1e})"
        )
    else:
        lines.append("  no goodput change")

    lines += ["", f"where the time moved ({other} - {base}, summed):"]
    for tier in sorted(diff.phase_total_deltas):
        totals = diff.phase_total_deltas[tier]
        moved = ", ".join(
            f"{name} {_fmt_delta_s(totals[name])}"
            for name in PHASES if abs(totals[name]) > 1e-12
        )
        lines.append(f"  {tier:<6}{moved or 'unchanged'}")

    movers = [
        d for d in diff.requests
        if d.status == "aligned" and d.ttlt_delta is not None
    ]
    movers.sort(key=lambda d: (-abs(d.ttlt_delta), d.request_id))
    if movers and top > 0:
        lines += ["", f"biggest per-request TTLT moves (top {top}):"]
        lines.append(
            f"  {'id':>6} {'tier':<5} {'ttlt':>9} {'ttft':>9} "
            f"{'slack':>9}  flip"
        )
        for delta in movers[:top]:
            lines.append(
                f"  {delta.request_id:>6} {delta.tier:<5} "
                f"{_fmt_delta_s(delta.ttlt_delta):>9} "
                f"{_fmt_delta_s(delta.ttft_delta):>9} "
                f"{_fmt_delta_s(delta.slack_delta):>9}  "
                f"{delta.flip or '-'}"
            )
    return "\n".join(lines) + "\n"


# --- HTML rendering ----------------------------------------------------


def _svg_phase_deltas(diff: RunDiff, width: int = 640,
                      row_h: int = 26) -> str:
    """Signed per-tier phase-delta bars (time moved, not time spent)."""
    import html as _html

    tiers = sorted(diff.phase_total_deltas)
    if not tiers:
        return "<p>no aligned requests</p>"
    from repro.obs.dashboard import _PHASE_COLORS

    peak = max(
        (
            abs(value)
            for totals in diff.phase_total_deltas.values()
            for value in totals.values()
        ),
        default=0.0,
    )
    if peak <= 0.0:
        return "<p>no phase movement</p>"
    pad = 56
    plot_w = width - pad - 12
    half = plot_w / 2.0
    rows = [
        (tier, name)
        for tier in tiers
        for name in PHASES
        if abs(diff.phase_total_deltas[tier].get(name, 0.0)) > 1e-12
    ]
    height = row_h * len(rows) + 16
    mid = pad + half
    parts = [
        f'<svg viewBox="0 0 {width} {height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" '
        f'aria-label="Phase-delta bars by tier">',
        f'<line x1="{mid:.1f}" y1="0" x2="{mid:.1f}" '
        f'y2="{height}" stroke="#999"/>',
    ]
    for i, (tier, name) in enumerate(rows):
        value = diff.phase_total_deltas[tier][name]
        y = 4 + i * row_h
        w = half * abs(value) / peak
        x = mid if value >= 0 else mid - w
        parts.append(
            f'<text x="{pad - 8}" y="{y + row_h / 2:.1f}" '
            f'text-anchor="end" font-size="11">'
            f"{_html.escape(tier)}·{_html.escape(name.split('_')[0])}"
            "</text>"
            f'<rect x="{x:.1f}" y="{y}" width="{max(w, 1.0):.1f}" '
            f'height="{row_h - 8}" fill="{_PHASE_COLORS[name]}">'
            f"<title>{tier} {name}: {value:+.3f}s</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def render_diff_html(
    diff: RunDiff, title: str = "repro diff"
) -> str:
    """Single-file HTML diff report (inline SVG, no scripts)."""
    import html as _html

    goodput = diff.goodput
    cause_rows = "".join(
        f"<tr><td>{_html.escape(cause)}</td>"
        f"<td>{diff.cause_goodput_delta[cause]:+d}</td></tr>"
        for cause in sorted(
            diff.cause_goodput_delta,
            key=lambda c: (-abs(diff.cause_goodput_delta[c]), c),
        )
        if diff.cause_goodput_delta[cause] != 0
    ) or '<tr><td colspan="2">no goodput change</td></tr>'

    divergence = diff.first_divergence
    if divergence is None:
        divergence_html = (
            "<p>the two event streams are <b>byte-identical</b>.</p>"
        )
    else:
        context_rows = "".join(
            f"<tr><td>=</td><td><code>"
            f"{_html.escape(_summarize_event(event))}</code></td></tr>"
            for event in divergence.context
        )
        divergence_html = (
            f"<p>first divergence at event <b>#{divergence.index}</b>"
            + (f" (t={divergence.ts:.3f}s)"
               if divergence.ts is not None else "")
            + ":</p><table>"
            + context_rows
            + f"<tr><td>{_html.escape(diff.base_label)}</td><td><code>"
            + _html.escape(_summarize_event(divergence.base_event))
            + f"</code></td></tr>"
            + f"<tr><td>{_html.escape(diff.other_label)}</td><td><code>"
            + _html.escape(_summarize_event(divergence.other_event))
            + "</code></td></tr></table>"
        )

    flip_rows = "".join(
        f"<tr><td>{delta.request_id}</td>"
        f"<td>{_html.escape(delta.tier)}</td>"
        f"<td>{_html.escape(delta.flip)}</td>"
        f"<td>{_html.escape(delta.cause or '-')}</td>"
        f"<td>{_fmt_delta_s(delta.ttlt_delta)}</td>"
        f"<td>{_fmt_delta_s(delta.slack_delta)}</td></tr>"
        for delta in diff.requests if delta.flip
    ) or '<tr><td colspan="6">no violation flips</td></tr>'

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{_html.escape(title)}</title>
<style>
body {{ font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 720px; color: #222; }}
h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.05em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ text-align: left; padding: 4px 10px;
          border-bottom: 1px solid #ddd; }}
code {{ font-size: 12px; }}
.kpi {{ display: inline-block; margin-right: 2.5em; }}
.kpi b {{ font-size: 1.5em; display: block; }}
</style></head><body>
<h1>{_html.escape(title)}</h1>
<p>{_html.escape(diff.base_label)} &rarr;
{_html.escape(diff.other_label)}</p>
<p>
<span class="kpi"><b>{goodput['goodput_gap_pct']:+.2f}pp</b>goodput gap</span>
<span class="kpi"><b>{goodput['good_delta']:+d}</b>good requests</span>
<span class="kpi"><b>{diff.flips.get('regressed', 0)}</b>regressed</span>
<span class="kpi"><b>{diff.flips.get('fixed', 0)}</b>fixed</span>
<span class="kpi"><b>{diff.aligned}</b>aligned</span>
</p>
<h2>First divergence</h2>
{divergence_html}
<h2>Goodput change by cause
({_html.escape(diff.other_label)} - {_html.escape(diff.base_label)})</h2>
<table><tr><th>cause</th><th>&Delta; good requests</th></tr>
{cause_rows}</table>
<p>cause deltas sum to the observed gap exactly
(residual {diff.attribution_residual:.1e} &le; {ATTRIBUTION_TOL:.0e}).</p>
<h2>Where the time moved</h2>
{_svg_phase_deltas(diff)}
<h2>Violation flips</h2>
<table><tr><th>request</th><th>tier</th><th>flip</th><th>cause</th>
<th>&Delta;TTLT</th><th>&Delta;slack</th></tr>{flip_rows}</table>
</body></html>
"""
