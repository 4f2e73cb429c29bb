"""Medha's adaptive chunking, re-implemented per Section 4.5.1.

Medha [6] "uses adaptive chunking that starts with large chunks and
progressively shrinks to maintain consistent TBT as attention overhead
increases in later chunked iterations".  Concretely: the per-iteration
token budget is the largest chunk whose predicted latency stays under a
*fixed* TBT target, given the prefill request's current context.  As
context grows, attention gets costlier, so the admitted chunk shrinks.
Unlike QoServe, the budget never grows with accumulated slack — Medha
is unaware of the deadlines of the requests in the batch.

Requests are served FCFS, matching the comparison setup of Figure 15a
("we evaluate QoServe with only dynamic chunking under FCFS scheduling
... compared to Medha's adaptive chunking (also under FCFS)").
"""

from __future__ import annotations

from repro.core.chunking import DynamicChunker
from repro.core.predictor import (
    BatchLatencyPredictor,
    OracleBatchPredictor,
)
from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.interface import EngineView
from repro.obs.observer import Observer
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers.base import FixedChunkScheduler, pack_prefill_assignments


class MedhaScheduler(FixedChunkScheduler):
    """FCFS ordering with fixed-TBT-target adaptive chunking."""

    name = "Medha"

    def __init__(
        self,
        execution_model: ExecutionModel,
        tbt_target: float = 0.050,
        max_chunk_size: int = 2500,
        predictor: BatchLatencyPredictor | None = None,
        **kwargs,
    ) -> None:
        """Args:
        execution_model: Deployment cost model (for the predictor).
        tbt_target: The fixed per-iteration latency target the chunk
            is fitted to (Medha assumes one TBT SLO for everyone).
        max_chunk_size: Chunk ceiling; the floor is
            :data:`~repro.core.chunking.MIN_CHUNK`.
        predictor: Batch latency predictor; defaults to the oracle.
        """
        super().__init__(chunk_size=max_chunk_size, **kwargs)
        if tbt_target <= 0:
            raise ValueError("tbt_target must be positive")
        self.tbt_target = float(tbt_target)
        self.predictor = predictor or OracleBatchPredictor(execution_model)
        # Reuse the chunk-search machinery, but feed it the fixed
        # target instead of decode slack.
        self._chunker = DynamicChunker(
            self.predictor,
            max_chunk=max_chunk_size,
        )
        self.chunk_history: list[int] = []

    def set_observer(self, observer: Observer) -> None:
        super().set_observer(observer)
        self._chunker.observer = observer

    def priority(self, request: Request, now: float) -> float:
        return request.arrival_time

    def plan_prefill(self, view: EngineView) -> list[PrefillAssignment]:
        if not self._member:
            return []
        ordered = self._pop_candidates()
        try:
            head_context = ordered[0].prefill_done if ordered else 0
            decision = self._chunker.prefill_budget(
                view.now,
                view.num_decodes,
                view.decode_context_total,
                latency_budget=self.tbt_target,
                prefill_context_before=head_context,
            )
            # Medha ignores slack: cap the budget by the fixed target
            # even when the decode queue could tolerate more.
            budget = decision.prefill_budget
            if budget <= 0:
                return []
            assignments = pack_prefill_assignments(
                ordered, budget, view, self.kv_start_watermark
            )
            if assignments:
                self.chunk_history.append(sum(a.tokens for a in assignments))
            return assignments
        finally:
            for request in ordered:
                if request.request_id in self._member:
                    self._push_entry(request, view.now)
