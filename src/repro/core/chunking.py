"""Dynamic chunk sizing from decode slack (Sections 3.3 and 3.6.1).

Each scheduling iteration must finish before the tightest deadline among
the decodes it carries, otherwise a TBT (or TTLT pace) violation occurs.
The chunker turns that *latency budget* into a *prefill token budget*:
the largest chunk whose predicted batch latency stays within budget.
When slack accumulates (decodes finished ahead of their deadlines, or
no strict-TBT request is active), the budget grows and throughput rises
opportunistically — the behaviour of Figures 6 and 9.

The chunker takes the iteration's decodes as numbers (their count,
summed context and slack), never as request objects; the engine's
:class:`~repro.engine.interface.EngineView` computes the slack as a
sweep over its decode rows (``decode_slack(NI_PACE_FLOOR)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.predictor import BatchLatencyPredictor
from repro.obs.observer import NULL_OBSERVER, Observer

#: Smallest prefill budget granted when any prefill work is pending,
#: so progress never stalls completely (QoServe's and Medha's floor).
MIN_CHUNK = 32
#: Lower bound (seconds) on the per-token pace budget derived from
#: non-interactive TTLT slack, so one late batch request cannot
#: strangle the whole iteration.
NI_PACE_FLOOR = 0.025
#: Binary-search resolution of the chunk search, in tokens.
SEARCH_TOLERANCE = 16

@dataclass(frozen=True)
class ChunkDecision:
    """Outcome of one dynamic-chunking computation.

    Attributes:
        prefill_budget: Prefill tokens the iteration may carry.
        latency_budget: The slack-derived time budget in seconds.
        predicted_latency: Predictor output at the chosen budget.
    """

    prefill_budget: int
    latency_budget: float
    predicted_latency: float


class DynamicChunker:
    """Maximizes the prefill chunk under the decode-slack budget (a
    binary search to :data:`SEARCH_TOLERANCE` tokens)."""

    def __init__(
        self,
        predictor: BatchLatencyPredictor,
        min_chunk: int = MIN_CHUNK,
        max_chunk: int = 2500,
    ) -> None:
        """Args:
        predictor: Batch latency predictor (forest or oracle).
        min_chunk: Smallest prefill budget granted when any prefill
            work is pending, so progress never stalls completely.
        max_chunk: Saturation point of the throughput curve; the paper
            picks 2500 from the Figure 4 profile.
        """
        if min_chunk < 1 or max_chunk < min_chunk:
            raise ValueError("need 1 <= min_chunk <= max_chunk")
        self.predictor = predictor
        self.min_chunk = int(min_chunk)
        self.max_chunk = int(max_chunk)
        #: Observability hooks; every chosen budget is reported via
        #: :meth:`Observer.on_chunk_sized` (no-op by default).
        self.observer: Observer = NULL_OBSERVER
        # Warm-start state: the (lo, hi) bracket the previous binary
        # search converged to.  The predictor is monotone in chunk
        # size (the same assumption the binary search itself rests
        # on), so when the new budget still falls in this bracket the
        # search would converge to the identical cell — we verify the
        # bracket with two predictions and skip the search.
        self._warm_bracket: tuple[int, int] | None = None

    def prefill_budget(
        self,
        now: float,
        num_decodes: int,
        decode_context_total: int,
        latency_budget: float,
        prefill_context_before: int = 0,
    ) -> ChunkDecision:
        """Choose the prefill token budget for the next iteration.

        Args:
            now: Current simulated time.
            num_decodes: Requests that will decode this iteration.
            decode_context_total: Sum of their context lengths.
            latency_budget: Time budget of the iteration: the decode
                slack (``EngineView.decode_slack(NI_PACE_FLOOR)``) for
                QoServe, or Medha's fixed TBT target.
            prefill_context_before: Context already processed for the
                prefill request that will consume the budget (affects
                attention cost, hence the prediction).

        Returns:
            The chosen budget; ``prefill_budget`` is 0 only when even
            ``min_chunk`` does not fit the latency budget.
        """
        predict = self.predictor.chunk_predictor(
            prefill_context_before, num_decodes, decode_context_total
        )
        decision = self._decide(latency_budget, predict)
        self.observer.on_chunk_sized(now, decision, num_decodes)
        return decision

    def _decide(self, budget: float, predict) -> ChunkDecision:
        top = self.max_chunk
        # One evaluation per distinct chunk size: the binary search
        # re-visits its final point and both bracket ends, and the
        # oracle predictor has no memo of its own to absorb that.
        evaluated: dict[int, float] = {}

        def latency(chunk: int) -> float:
            value = evaluated.get(chunk)
            if value is None:
                value = evaluated[chunk] = predict(chunk)
            return value

        top_latency = latency(top)
        if budget == float("inf") or top_latency <= budget:
            return ChunkDecision(top, budget, top_latency)
        low_latency = latency(self.min_chunk)
        if low_latency > budget:
            # Even the floor chunk busts the budget; grant the floor
            # anyway so prefill work cannot be starved forever, and let
            # the violation checker deal with the fallout.
            return ChunkDecision(self.min_chunk, budget, low_latency)

        # Warm start: consecutive iterations carry nearly the same
        # batch, so the previous search's bracket usually still
        # straddles the new budget.  The bracket cells are leaves of
        # the fixed bisection lattice over [min_chunk, max_chunk], and
        # the predictor is monotone in chunk size, so a verified
        # bracket pins the exact cell a full search would land on —
        # two predictions instead of ~log2(range/tolerance).
        bracket = self._warm_bracket
        if bracket is not None:
            warm_lo, warm_hi = bracket
            if latency(warm_lo) <= budget < latency(warm_hi):
                return ChunkDecision(warm_lo, budget, latency(warm_lo))

        # Binary search for the largest chunk within budget.  The
        # forest is piecewise constant so we verify the final choice.
        lo, hi = self.min_chunk, top
        while hi - lo > SEARCH_TOLERANCE:
            mid = (lo + hi) // 2
            if latency(mid) <= budget:
                lo = mid
            else:
                hi = mid
        self._warm_bracket = (lo, hi)
        return ChunkDecision(lo, budget, latency(lo))
