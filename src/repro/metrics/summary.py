"""Run-level summaries combining latency and violation views."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.request import Request
from repro.metrics.latency import latency_percentiles
from repro.metrics.slo import ViolationReport, violation_report


@dataclass
class RunSummary:
    """Everything the experiment tables need from one simulation run.

    Attributes:
        num_requests: Requests included in the measurement.
        finished: How many completed.
        violations: Full violation breakdown.
        latency_percentiles_by_tier: ``{tier: {q: seconds}}`` of the
            governing latency per QoS bucket.
        overall_percentiles: Governing-latency quantiles over all
            requests (mixing TTFT and TTLT, as Figure 2 does for the
            strictest class comparisons).
        qps_served: Completed requests per second of measured span.
        mean_ttft / mean_tbt: Auxiliary aggregate latencies.
    """

    num_requests: int
    finished: int
    violations: ViolationReport
    latency_percentiles_by_tier: dict[str, dict[float, float]] = field(
        default_factory=dict
    )
    overall_percentiles: dict[float, float] = field(default_factory=dict)
    qps_served: float = 0.0
    mean_ttft: float = float("nan")
    mean_tbt: float = float("nan")
    #: Simulated time between the last arrival and full completion.
    #: A stable (non-divergent) system drains quickly; a run operating
    #: beyond capacity accumulates backlog that shows up here.  Set by
    #: :meth:`repro.api.Session.summary`, 0 when unknown.
    drain_time: float = 0.0
    #: Span of the arrival process in simulated seconds.
    arrival_span: float = 0.0
    #: Growth of mean queueing delay between the second and fourth
    #: quarters of the arrival stream (seconds).  Near zero in steady
    #: state; ramps linearly when the offered load exceeds capacity.
    queue_delay_trend: float = 0.0
    #: Scheduler-decision counters collected by the engine during the
    #: run (relegations by tier, preemptions, decode evictions, KV
    #: high-water utilization, chunk-size histogram).  Filled in by
    #: :meth:`repro.api.Session.summary`; empty for summaries built
    #: straight from a request list.
    scheduler_stats: dict = field(default_factory=dict)
    #: Per-request latency attribution
    #: (:class:`repro.obs.audit.AttributionReport`), filled in by
    #: :meth:`repro.api.Session.summary` when the run is audited
    #: (``ServeConfig(audit=True)``); ``None`` otherwise.
    #: Deliberately excluded from
    #: :func:`repro.metrics.export.summary_to_dict` so audited and
    #: unaudited runs serialize identically (the determinism pin).
    attribution: object | None = None

    def tier_percentile(self, tier: str, q: float) -> float:
        return self.latency_percentiles_by_tier.get(tier, {}).get(
            q, float("nan")
        )

    @property
    def meets_goodput_bar(self) -> bool:
        """The paper's goodput criterion: <= 1% deadline violations."""
        return (
            self.violations.total_requests > 0
            and self.violations.overall_pct <= 1.0
        )


def summarize_run(
    requests: Iterable[Request],
    now: float | None = None,
    quantiles: tuple[float, ...] = (0.50, 0.95, 0.99),
) -> RunSummary:
    """Build a :class:`RunSummary` from simulated requests."""
    requests = list(requests)
    finished = [r for r in requests if r.is_finished]

    by_tier: dict[str, list[Request]] = {}
    for request in requests:
        by_tier.setdefault(request.qos.name, []).append(request)
    tier_percentiles = {
        tier: latency_percentiles(rs, quantiles, now=now)
        for tier, rs in sorted(by_tier.items())
    }

    ttfts = [r.ttft for r in finished if r.ttft is not None]
    tbts = [r.max_tbt for r in finished if r.decoded > 1]

    if finished:
        span_start = min(r.arrival_time for r in requests)
        span_end = max(
            r.completion_time for r in finished if r.completion_time
        )
        span = max(1e-9, span_end - span_start)
        qps = len(finished) / span
    else:
        qps = 0.0

    trend = _queue_delay_trend(requests, now)

    return RunSummary(
        num_requests=len(requests),
        finished=len(finished),
        violations=violation_report(requests, now=now),
        latency_percentiles_by_tier=tier_percentiles,
        overall_percentiles=latency_percentiles(requests, quantiles, now=now),
        qps_served=qps,
        mean_ttft=(sum(ttfts) / len(ttfts)) if ttfts else float("nan"),
        mean_tbt=(sum(tbts) / len(tbts)) if tbts else float("nan"),
        queue_delay_trend=trend,
    )


def _queue_delay_trend(requests: list[Request], now: float | None) -> float:
    """Mean sojourn growth from mid-run to late-run arrivals.

    The delay proxy is the request's governing latency: TTFT for
    interactive requests, TTLT for non-interactive (elapsed wait for
    unfinished ones).  Comparing the 25-50% arrival window against the
    final 25% cancels warm-up effects and intrinsic service costs,
    leaving the linear ramp that a beyond-capacity run exhibits — even
    when chunk-sharing lets every request *start* quickly.
    """
    if len(requests) < 8:
        return 0.0

    from repro.metrics.latency import governing_latency

    def delay(r: Request) -> float:
        value = governing_latency(r, now)
        if value == float("inf"):
            return 0.0  # unfinished and no clock: no information
        return value

    ordered = sorted(requests, key=lambda r: r.arrival_time)
    n = len(ordered)
    early = ordered[n // 4 : n // 2]
    late = ordered[3 * n // 4 :]
    mean_early = sum(delay(r) for r in early) / len(early)
    mean_late = sum(delay(r) for r in late) / len(late)
    return mean_late - mean_early
