"""The QoServe scheduler (Section 3, Algorithm 1).

Each iteration:

1. **Hybrid prioritization** orders the prefill queue by the EDF/SRPF
   interpolation of Eqs. 4-5, with load-adaptive alpha tuning.
2. **Eager relegation** demotes requests that have violated — or are
   about to violate — their TTFT/TTLT deadline, preferring free-tier
   victims via application hints; relegated work sorts behind all
   non-relegated work and completes opportunistically.
3. **Dynamic chunking** converts the minimum decode slack into the
   largest prefill token budget the batch-latency predictor deems safe.
4. **Selective preemption** lets a higher-priority arrival take the
   prefill slot of an in-flight request, but never preempts decodes
   and never when the delay would itself cause a violation (such
   requests are pinned to the queue front for one iteration).

Every technique can be toggled via :class:`QoServeConfig`, which is how
the Table 5 ablation is produced.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.core.chunking import NI_PACE_FLOOR, DynamicChunker
from repro.core.decode_estimator import (
    DecodeLengthEstimator,
    HistoryDecodeEstimator,
)
from repro.core.predictor import (
    BatchLatencyPredictor,
    OracleBatchPredictor,
    cached_forest_predictor,
)
from repro.core.priority import MS_PER_TOKEN, HybridPriority, LoadAdaptiveAlpha
from repro.core.relegation import RelegationPolicy, ViolationChecker
from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.interface import EngineView
from repro.obs.observer import Observer
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers.base import FixedChunkScheduler, pack_prefill_assignments

#: Conservative aggregation quantile across the forest's trees
#: (Section 3.6.1's under-prediction tuning).
PREDICTOR_QUANTILE = 0.75
#: Seconds of queue backlog treated as pressure 1.0 by the
#: load-adaptive alpha.
PRESSURE_HORIZON = 6.0


@dataclass(frozen=True)
class QoServeConfig:
    """Feature toggles and tuning knobs for :class:`QoServeScheduler`.

    Attributes:
        dynamic_chunking: Enable slack-driven chunk sizing (Sec. 3.3).
        eager_relegation: Enable the relegation policy (Sec. 3.4).
        hybrid_prioritization: Enable the alpha-weighted SRPF term;
            when False the priority degenerates to pure EDF.
        selective_preemption: Pin in-flight prefills that one more
            iteration of delay would push past their deadline.
        use_hints: Let relegation prefer free-tier victims.
        alpha: Fixed alpha in seconds/token; ``None`` enables the
            load-adaptive tuning of Section 3.6.
        fixed_chunk_size: Token budget when dynamic chunking is off.
        max_chunk_size: Dynamic chunking ceiling (the paper saturates
            throughput at 2500, Figure 4); the floor is
            :data:`~repro.core.chunking.MIN_CHUNK`.
        use_forest_predictor: Predict batch latency with the trained
            random forest (paper's design), aggregated at
            :data:`PREDICTOR_QUANTILE`; False uses the oracle.
        kv_start_watermark: Admission watermark inherited from the
            base scheduler.
        replan_interval: Iterations between full queue re-sorts and
            relegation scans.  Priority scores only move with arrivals,
            chunk progress and (slow) alpha drift, so re-planning every
            iteration is wasted work; arrivals force a re-plan anyway.
    """

    dynamic_chunking: bool = True
    eager_relegation: bool = True
    hybrid_prioritization: bool = True
    selective_preemption: bool = True
    use_hints: bool = True
    alpha: float | None = None
    fixed_chunk_size: int = 256
    max_chunk_size: int = 2500
    use_forest_predictor: bool = True
    kv_start_watermark: float = 0.90
    replan_interval: int = 8


class QoServeScheduler(FixedChunkScheduler):
    """Algorithm 1: hybrid priority queue + violation check + budget."""

    name = "QoServe"

    def __init__(
        self,
        execution_model: ExecutionModel,
        config: QoServeConfig | None = None,
        decode_estimator: DecodeLengthEstimator | None = None,
        predictor: BatchLatencyPredictor | None = None,
    ) -> None:
        self.config = config or QoServeConfig()
        super().__init__(
            chunk_size=self.config.fixed_chunk_size,
            kv_start_watermark=self.config.kv_start_watermark,
        )
        self.execution_model = execution_model
        self.decode_estimator = decode_estimator or HistoryDecodeEstimator()

        if predictor is None:
            if self.config.use_forest_predictor:
                predictor = cached_forest_predictor(
                    execution_model,
                    quantile=PREDICTOR_QUANTILE,
                )
            else:
                predictor = OracleBatchPredictor(execution_model)
        self.predictor = predictor
        self.chunker = DynamicChunker(
            predictor,
            max_chunk=self.config.max_chunk_size,
        )

        # Linearize prefill cost at the throughput the scheduler will
        # actually achieve: the saturated dynamic chunk when dynamic
        # chunking is on, the fixed chunk otherwise.  Over-estimating
        # service here would relegate requests that were still savable.
        reference_chunk = (
            self.config.max_chunk_size
            if self.config.dynamic_chunking
            else self.config.fixed_chunk_size
        )
        seconds_per_token = execution_model.seconds_per_prefill_token(
            reference_chunk
        )
        # Typical iteration latency under the strict tier's chunk; used
        # to linearize decode service time in deadline projections.
        typical_iteration = execution_model.decode_batch_time(48, 48 * 1024)
        self.checker = ViolationChecker(
            seconds_per_prefill_token=seconds_per_token,
            seconds_per_decode_token=max(0.015, typical_iteration),
            decode_estimator=self.decode_estimator,
        )
        self.relegation = RelegationPolicy(
            self.checker, use_hints=self.config.use_hints
        )

        if self.config.hybrid_prioritization:
            if self.config.alpha is not None:
                self._adaptive_alpha = None
                initial_alpha = self.config.alpha
            else:
                self._adaptive_alpha = LoadAdaptiveAlpha()
                initial_alpha = self._adaptive_alpha.alpha
        else:
            self._adaptive_alpha = None
            initial_alpha = 0.0  # pure EDF
        self.hybrid = HybridPriority(
            alpha=initial_alpha, decode_estimator=self.decode_estimator
        )

        self._last_iteration_estimate = typical_iteration
        self.relegation_events = 0
        self._order_cache: list[Request] = []
        self._order_keys: list[float] = []
        self._order_dirty = True
        self._iterations_since_replan = 0

    def set_observer(self, observer: Observer) -> None:
        """Propagate hooks to the chunker and relegation policy so
        their decisions land in the same trace as the scheduler's."""
        super().set_observer(observer)
        self.chunker.observer = observer
        self.relegation.observer = observer

    # --- priority ---------------------------------------------------------

    def priority(self, request: Request, now: float) -> float:
        """Relegated requests sort behind everything (Algorithm 1's
        comparator orders first on drop status, then on Eq. 4/5)."""
        base = self.hybrid.score(request)
        if request.relegated:
            return 1e12 + base
        return base

    # --- planning -----------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        # QoServe manages its own priority-ordered cache instead of the
        # base class's lazy heap: relegation and load-adaptive alpha
        # re-rank the whole queue, which a heap cannot express.  A new
        # arrival is bisect-inserted into the cached order (its score
        # is stable between the periodic full replans).
        self._member[request.request_id] = request
        if self._order_dirty:
            return
        key = self.priority(request, now)
        index = bisect.bisect_right(self._order_keys, key)
        self._order_keys.insert(index, key)
        self._order_cache.insert(index, request)

    def on_prefill_complete(self, request: Request, now: float) -> None:
        # Departed requests stay in the cached order until the next
        # periodic replan; the packer skips them (no prefill left).
        self._member.pop(request.request_id, None)

    def remove(self, request: Request, now: float) -> None:
        # A withdrawn request may still have prefill work left (crash
        # resets its progress), so the stale cached order would keep
        # offering it to the packer; force a replan to purge it.
        self._member.pop(request.request_id, None)
        self._order_dirty = True

    def plan_prefill(self, view: EngineView) -> list[PrefillAssignment]:
        now = view.now
        if not self._member:
            return []

        self._iterations_since_replan += 1
        if (
            self._order_dirty
            or self._iterations_since_replan >= self.config.replan_interval
        ):
            self._replan(now)

        ordered = self._order_cache
        if self.config.selective_preemption:
            ordered = self._pin_at_risk_inflight(ordered, now)

        budget = self._token_budget(view, ordered)
        if budget <= 0:
            return []
        return pack_prefill_assignments(
            ordered, budget, view, self.kv_start_watermark
        )

    def _replan(self, now: float) -> None:
        """Refresh alpha, the priority order and the relegation plan."""
        self._update_alpha(now)
        keyed = sorted(
            ((self.priority(r, now), r) for r in self._member.values()),
            key=lambda kr: (kr[0], kr[1].request_id),
        )
        if self.config.eager_relegation:
            active = [r for _, r in keyed if not r.relegated]
            plan = self.relegation.plan(active, now)
            if plan.to_relegate:
                for victim in plan.to_relegate:
                    victim.relegated = True
                    victim.relegated_time = now
                    self.relegation_events += 1
                    self.observer.on_relegated(victim, now)
                keyed = sorted(
                    ((self.priority(r, now), r) for r in self._member.values()),
                    key=lambda kr: (kr[0], kr[1].request_id),
                )
        self._order_keys = [k for k, _ in keyed]
        self._order_cache = [r for _, r in keyed]
        self._order_dirty = False
        self._iterations_since_replan = 0

    def _token_budget(
        self, view: EngineView, ordered: list[Request]
    ) -> int:
        if not self.config.dynamic_chunking:
            return max(0, self.chunk_size - view.num_decodes)
        head_context = ordered[0].prefill_done if ordered else 0
        decision = self.chunker.prefill_budget(
            view.now,
            view.num_decodes,
            view.decode_context_total,
            latency_budget=view.decode_slack(NI_PACE_FLOOR),
            prefill_context_before=head_context,
        )
        self._last_iteration_estimate = decision.predicted_latency
        return decision.prefill_budget

    def _pin_at_risk_inflight(
        self, ordered: list[Request], now: float
    ) -> list[Request]:
        """Selective preemption guard (Section 3.4).

        An in-flight (partially prefilled) request may lose its slot to
        a higher-priority arrival only if the one-iteration delay does
        not push it past its deadline; otherwise it is pinned ahead.
        Only in-flight requests are examined — decodes are never
        preempted by construction (the engine batches all of them).
        """
        horizon = self._last_iteration_estimate
        pinned: list[Request] = []
        pinned_ids: set[int] = set()
        for request in ordered:
            if request.scheduled_first_time is None:
                continue
            if request.prefill_done <= 0 or request.relegated:
                continue
            if request.remaining_prefill <= 0:
                continue
            if self.checker.deadline_slack(request, now) < horizon:
                pinned.append(request)
                pinned_ids.add(request.request_id)
        if not pinned:
            return ordered
        pinned.sort(key=lambda r: self.checker.deadline_slack(r, now))
        rest = [r for r in ordered if r.request_id not in pinned_ids]
        return pinned + rest

    def _update_alpha(self, now: float) -> None:
        if self._adaptive_alpha is None:
            return
        backlog = sum(
            self.checker.prefill_service_time(r)
            for r in self._member.values()
            if not r.relegated
        )
        pressure = backlog / PRESSURE_HORIZON
        self.hybrid.alpha = self._adaptive_alpha.update(pressure)

    # --- notifications -----------------------------------------------------

    def on_request_complete(self, request: Request, now: float) -> None:
        self.decode_estimator.observe(request)


def make_ablation_config(
    dynamic_chunking: bool = False,
    eager_relegation: bool = False,
    hybrid_prioritization: bool = False,
    **overrides,
) -> QoServeConfig:
    """Table 5 helper: start from Sarathi-EDF and add techniques.

    With all three flags False the scheduler degenerates to fixed-chunk
    EDF (the ablation baseline); each flag layers one technique on.
    """
    return QoServeConfig(
        dynamic_chunking=dynamic_chunking,
        eager_relegation=eager_relegation,
        hybrid_prioritization=hybrid_prioritization,
        selective_preemption=hybrid_prioritization,
        **overrides,
    )
