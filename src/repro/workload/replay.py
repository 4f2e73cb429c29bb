"""Open-loop live replay: drive a gateway from a recorded trace.

An *open-loop* driver submits each request at its trace arrival time
(scaled through the gateway's virtual clock) and never waits for
completions — arrival pressure is independent of service rate, the
property that makes closed-loop load generators understate tail
latency.  This is the live-traffic counterpart of
:meth:`repro.serve.gateway.ServeGateway.replay`, which is the
deterministic ``speed=inf`` path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle: serve imports api
    # imports workload, so the gateway types stay lazy at runtime.
    from repro.serve.gateway import ServeGateway


@dataclass
class ReplayReport:
    """What happened to an open-loop replay's offered requests."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    #: trace request id -> gateway request id for admitted requests.
    request_ids: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
        }


class OpenLoopReplay:
    """Replays a trace against a running gateway at wall pace.

    Args:
        trace: Requests to offer, in any order (sorted internally).
        limit: Offer only the first N arrivals (None = all).
    """

    def __init__(
        self, trace: Iterable[Request], *, limit: int | None = None
    ) -> None:
        self.requests = sorted(trace, key=lambda r: r.arrival_time)
        if limit is not None:
            self.requests = self.requests[:limit]

    async def drive(self, gateway: "ServeGateway") -> ReplayReport:
        """Offer every request at its arrival time; returns the tally.

        The gateway must be started.  Each trace request is re-issued
        as a fresh gateway submission (the originals are not mutated),
        with the trace arrival time as the latency anchor.
        """
        from repro.serve.gateway import AdmissionRefused

        report = ReplayReport()
        for original in self.requests:
            # Unknown tier specs ride along with the trace.
            gateway.tiers.setdefault(original.qos.name, original.qos)
            delay = gateway.clock.wall_delay_until(original.arrival_time)
            if delay > 0:
                await asyncio.sleep(delay)
            report.offered += 1
            try:
                admitted = await gateway.submit(
                    prompt_tokens=original.prompt_tokens,
                    decode_tokens=original.decode_tokens,
                    tier=original.qos.name,
                    important=original.important,
                    app_id=original.app_id,
                    arrival_time=original.arrival_time,
                )
            except AdmissionRefused as refused:
                reason = refused.reason
            except ValueError:
                # Larger than every replica's KV cache: the gateway
                # refuses it before recording anything.
                reason = "exceeds_kv_capacity"
            else:
                report.admitted += 1
                report.request_ids[original.request_id] = (
                    admitted.request_id
                )
                continue
            report.shed += 1
            report.shed_by_reason[reason] = (
                report.shed_by_reason.get(reason, 0) + 1
            )
        return report


async def wait_drained(
    gateway: "ServeGateway", poll: float = 0.05
) -> None:
    """Block until the gateway's simulator has no pending events."""
    while (
        gateway.running
        and gateway.session.next_event_time() is not None
    ):
        await asyncio.sleep(poll)
