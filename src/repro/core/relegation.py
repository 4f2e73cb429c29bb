"""Violation checking and eager relegation (Section 3.4).

The violation checker answers "has this request already violated, or
will it violate, its TTFT/TTLT deadline?" using cheap linearized
service-time estimates.  The relegation policy runs a feasibility scan
over the priority-ordered prefill queue each scheduling round and
demotes the *minimal* set of requests needed to keep the rest on time:

1. Low-priority (free-tier) requests standing in front of an important
   request that would otherwise miss its deadline are demoted first,
   largest remaining work first.
2. Requests whose own deadline is unreachable even if served
   immediately are demoted regardless of priority — keeping them in
   the main queue only cascades violations onto others (Figure 5).

Relegated requests are never rejected: they sort behind all
non-relegated work and complete opportunistically during lulls.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.decode_estimator import DecodeLengthEstimator
from repro.core.request import Request
from repro.obs.observer import NULL_OBSERVER, Observer


class ViolationChecker:
    """Projects deadlines using linearized service-time estimates."""

    def __init__(
        self,
        seconds_per_prefill_token: float,
        seconds_per_decode_token: float = 0.030,
        decode_estimator: DecodeLengthEstimator | None = None,
    ) -> None:
        """Args:
        seconds_per_prefill_token: Marginal prefill cost (from
            :meth:`ExecutionModel.seconds_per_prefill_token`).
        seconds_per_decode_token: Expected iteration latency — each
            decode token costs one iteration of wall-clock time.
        decode_estimator: Decode-length source for TTLT projections;
            ``None`` falls back to the ground-truth length.
        """
        if seconds_per_prefill_token <= 0 or seconds_per_decode_token <= 0:
            raise ValueError("per-token costs must be positive")
        self.seconds_per_prefill_token = float(seconds_per_prefill_token)
        self.seconds_per_decode_token = float(seconds_per_decode_token)
        self.decode_estimator = decode_estimator

    def prefill_service_time(self, request: Request) -> float:
        """Estimated time to finish the request's remaining prefill."""
        return request.remaining_prefill * self.seconds_per_prefill_token

    def decode_service_time(self, request: Request) -> float:
        """Estimated time to produce the request's remaining tokens."""
        if self.decode_estimator is not None:
            estimate = self.decode_estimator.estimate(request)
            remaining = max(0.0, estimate - request.decoded)
        else:
            remaining = float(request.remaining_decode)
        return remaining * self.seconds_per_decode_token

    def deadline_slack(self, request: Request, now: float) -> float:
        """Headroom before the request's governing deadline.

        Interactive: TTFT deadline minus now minus remaining prefill.
        Non-interactive: TTLT deadline minus now minus remaining
        prefill and estimated decode time.  Negative slack means the
        deadline is unreachable even with immediate service.
        """
        if request.is_interactive:
            deadline = request.first_token_deadline
            service = self.prefill_service_time(request)
        else:
            deadline = request.total_deadline
            service = self.prefill_service_time(
                request
            ) + self.decode_service_time(request)
        return deadline - now - service

    def will_violate(
        self, request: Request, now: float, queue_delay: float = 0.0
    ) -> bool:
        """True if the deadline is missed assuming ``queue_delay`` wait."""
        return self.deadline_slack(request, now) < queue_delay


@dataclass
class RelegationPlan:
    """Outcome of one relegation scan."""

    to_relegate: list[Request] = field(default_factory=list)
    important_saved: int = 0
    scanned: int = 0


class RelegationPolicy:
    """Eager relegation with application hints (Section 3.4)."""

    def __init__(
        self,
        checker: ViolationChecker,
        use_hints: bool = True,
        max_scan: int = 2048,
    ) -> None:
        """Args:
        checker: Deadline projector shared with the scheduler.
        use_hints: Honour the important/free-tier hint.  When False,
            only hopeless requests are demoted (the no-hints mode used
            in single-tenant experiments).
        max_scan: Cap on queue positions examined per round; requests
            deeper than this are revisited as they advance.
        """
        self.checker = checker
        self.use_hints = use_hints
        self.max_scan = int(max_scan)
        #: Observability hooks; each scan reports its outcome via
        #: :meth:`Observer.on_relegation_scan` (no-op by default).
        self.observer: Observer = NULL_OBSERVER

    def plan(self, queue: list[Request], now: float) -> RelegationPlan:
        """Select the requests to demote from a priority-ordered queue.

        Walks the queue front-to-back accumulating projected service
        time.  A low-priority request projected to violate is demoted
        on the spot.  When an *important* request is projected to
        violate, preceding low-priority requests (largest service
        first) are demoted until the important one fits; if it still
        cannot fit and its own deadline is already unreachable, it too
        is demoted to stop the cascade.
        """
        plan = RelegationPlan()
        removed: set[int] = set()
        cumulative = 0.0
        # Max-heap (by service time) of demotable low-priority requests
        # seen so far and not yet removed.
        demotable: list[tuple[float, int, Request]] = []

        for position, request in enumerate(queue):
            if position >= self.max_scan:
                break
            plan.scanned += 1
            service = self.checker.prefill_service_time(request)
            slack = self.checker.deadline_slack(request, now)
            projected_wait = cumulative

            if projected_wait <= slack:
                # On time; low-priority requests become candidates for
                # later demotion in favour of important ones.
                cumulative += service
                if self.use_hints and not request.important:
                    heapq.heappush(
                        demotable, (-service, request.request_id, request)
                    )
                continue

            if not request.important and self.use_hints:
                # A violating free-tier request: demote immediately.
                plan.to_relegate.append(request)
                removed.add(request.request_id)
                continue

            # Important (or hints disabled): try to save it by demoting
            # queued low-priority work ahead of it.
            saved = False
            while demotable and projected_wait > slack:
                neg_service, _, victim = heapq.heappop(demotable)
                if victim.request_id in removed:
                    continue
                plan.to_relegate.append(victim)
                removed.add(victim.request_id)
                projected_wait += neg_service  # neg_service is negative
                cumulative += neg_service
                saved = True
            if projected_wait <= slack:
                if saved:
                    plan.important_saved += 1
                cumulative += service
                continue

            # Still violating.  If its own deadline is unreachable even
            # with immediate service, demote it; otherwise leave it in
            # place — it may still be saved by completions ahead of it.
            if slack < 0.0:
                plan.to_relegate.append(request)
                removed.add(request.request_id)
            else:
                cumulative += service
        self.observer.on_relegation_scan(now, plan)
        return plan
