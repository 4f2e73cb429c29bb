"""ConServe-style binary collocation baseline (Section 5, related work).

ConServe [Qiao et al. 2024] "advocates collocated serving by
prioritizing interactive jobs and adding offline tasks when latency
permits, using reactive preemption during load surges.  However, its
binary interactive-offline classification is inadequate for multi-QoS
scenarios where all requests have definite SLO requirements."

This re-implementation captures that design point on the shared
engine:

* **Binary classes** — interactive requests are served strictly first
  (FCFS within the class); everything else is "offline" background
  work with no deadline awareness at all.
* **Latency-permitting admission** — offline prefill runs only when no
  interactive prefill is pending.
* **Reactive chunking** — with interactive work in flight the chunk
  stays at the latency-safe size; when only offline work remains the
  budget opens up to the throughput chunk (harvesting idle capacity).

What it lacks — by construction, and measurably (see
``experiments.ext_conserve``) — is any notion of the offline tiers'
own TTLT deadlines, so under sustained load Q2's 600 s target is
sacrificed indiscriminately while Q3's 1800 s slack goes unexploited.
"""

from __future__ import annotations

from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.interface import EngineView
from repro.schedulers.base import FixedChunkScheduler


class ConServeScheduler(FixedChunkScheduler):
    """Interactive-first binary collocation with reactive chunking."""

    name = "ConServe"

    def __init__(
        self,
        interactive_chunk_size: int = 256,
        offline_chunk_size: int = 2048,
        **kwargs,
    ) -> None:
        """Args:
        interactive_chunk_size: Token budget while any interactive
            request is in the system (protects TBT).
        offline_chunk_size: Token budget when only offline work
            remains (throughput harvesting).
        """
        super().__init__(chunk_size=interactive_chunk_size, **kwargs)
        if offline_chunk_size < interactive_chunk_size:
            raise ValueError(
                "offline_chunk_size must be >= interactive_chunk_size"
            )
        self.interactive_chunk_size = int(interactive_chunk_size)
        self.offline_chunk_size = int(offline_chunk_size)

    def priority(self, request: Request, now: float) -> float:
        # Binary class first, arrival order within the class.  The
        # large constant keeps the classes disjoint for any realistic
        # simulated timespan.
        cls = 0.0 if request.is_interactive else 1.0
        return cls * 1e12 + request.arrival_time

    def _interactive_active(self, view: EngineView) -> bool:
        if view.has_interactive_decode():
            return True
        return any(r.is_interactive for r in self._member.values())

    def prefill_token_budget(self, view: EngineView) -> int:
        chunk = (
            self.interactive_chunk_size
            if self._interactive_active(view)
            else self.offline_chunk_size
        )
        return max(0, chunk - view.num_decodes)

    def plan_prefill(self, view: EngineView) -> list[PrefillAssignment]:
        # Latency-permitting admission: offline prefill is withheld
        # while interactive prefill is pending (reactive preemption of
        # in-flight offline chunks follows from the class priority).
        assignments = super().plan_prefill(view)
        if any(
            r.is_interactive and r.remaining_prefill > 0
            for r in self._member.values()
        ):
            assignments = [
                a for a in assignments if a.request.is_interactive
            ]
        return assignments
