"""The replica engine: iteration-level chunked-prefill serving loop.

One :class:`ReplicaEngine` models one model replica (a TP group of
GPUs).  Each iteration it batches *all* running decodes with the
prefill chunks its scheduler selects (Section 3.1), asks the execution
model how long the batch takes, and advances simulated time.  KV-cache
growth is accounted before execution; if a decode step cannot fit, the
engine preempts the decode request with the slackest deadline and
recomputes it later, mirroring vLLM's recompute-on-eviction.

In ``prefill_only`` mode (PD disaggregation, Section 4.1.3) completed
prefills are handed to a caller-provided sink instead of entering the
local decode queue, and their KV is released (shipped to the decode
node).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

from repro.core.request import Request
from repro.engine.batch import BatchPlan, IterationRecord, PrefillAssignment
from repro.engine.interface import EngineView, Scheduler
from repro.engine.kvcache import KVCacheManager
from repro.engine.prefix import RadixPrefixCache
from repro.obs.observer import NULL_OBSERVER, Observer, get_default_observer
from repro.obs.timing import timed
from repro.perfmodel.execution import BatchShape, ExecutionModel
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class ReplicaConfig:
    """Engine knobs.

    Attributes:
        max_decode_slots: Cap on concurrently running requests
            (vLLM's ``max_num_seqs``); prefill admission respects it.
        kv_block_size: Paged-attention block size in tokens.
        record_iterations: Keep an :class:`IterationRecord` per batch
            (Figure 9 telemetry); off by default to save memory.
        prefill_only: PD-disaggregation prefill-node mode.
        kv_reuse: Prefix-aware KV reuse policy — ``"radix"`` shares
            prompt-prefix blocks across requests via
            :class:`repro.engine.prefix.RadixPrefixCache`; ``"off"``
            (the default) is byte-identical to a reuse-free engine.
    """

    KV_REUSE_KINDS = ("off", "radix")

    max_decode_slots: int = 256
    kv_block_size: int = 16
    record_iterations: bool = False
    prefill_only: bool = False
    kv_reuse: str = "off"

    def __post_init__(self) -> None:
        if self.kv_reuse not in self.KV_REUSE_KINDS:
            raise ValueError(
                f"kv_reuse must be one of {self.KV_REUSE_KINDS}, "
                f"got {self.kv_reuse!r}"
            )


class ReplicaEngine:
    """Serves requests on one simulated replica."""

    def __init__(
        self,
        simulator: Simulator,
        execution_model: ExecutionModel,
        scheduler: Scheduler,
        config: ReplicaConfig | None = None,
        replica_id: int = 0,
        prefill_sink: Callable[[Request, float], None] | None = None,
        observer: Observer | None = None,
    ) -> None:
        """Args:
        simulator: Shared event loop.
        execution_model: Ground-truth iteration cost model.
        scheduler: Prefill-selection policy.
        config: Engine knobs; defaults to :class:`ReplicaConfig`.
        replica_id: Identifier used in multi-replica deployments.
        prefill_sink: Required in ``prefill_only`` mode — receives
            ``(request, now)`` when a prompt finishes prefilling.
        observer: Observability hooks (tracing/metrics); ``None``
            adopts the process default (no-op unless the CLI enabled
            tracing).  Installed on the scheduler too, so scheduler
            events land in the same trace.
        """
        self.simulator = simulator
        self.execution_model = execution_model
        self.scheduler = scheduler
        self.config = config or ReplicaConfig()
        self.replica_id = replica_id
        if self.config.prefill_only and prefill_sink is None:
            raise ValueError("prefill_only mode requires a prefill_sink")
        self.prefill_sink = prefill_sink
        self.observer = (
            observer if observer is not None else get_default_observer()
        )
        if self.observer is not NULL_OBSERVER:
            scheduler.set_observer(self.observer)

        self.kv_cache = KVCacheManager(
            capacity_tokens=execution_model.kv_capacity_tokens,
            block_size=self.config.kv_block_size,
        )
        #: Radix prefix index (``kv_reuse="radix"``), or None; every
        #: prefix code path in the engine is guarded on it so the
        #: ``"off"`` mode stays byte-identical to a reuse-free engine.
        #: Prefill-only nodes ship their KV away at prefill finish, so
        #: they never populate (and therefore never consult) a tree.
        self.prefix_cache: RadixPrefixCache | None = None
        if self.config.kv_reuse == "radix" and not self.config.prefill_only:
            self._install_prefix_cache()
        self.decode_queue: list[Request] = []
        # Incremental mirror of sum(r.context_length for r in
        # decode_queue): adjusted on admit/evict/finish so the hot
        # loop never re-aggregates the whole queue.
        self._decode_context_total = 0
        self.completed: list[Request] = []
        self.submitted: list[Request] = []
        #: Requests refused at admission: their prompt plus decode
        #: tokens can never fit this replica's KV cache (vLLM rejects
        #: over-length prompts the same way).
        self.rejected: list[Request] = []
        #: Arrivals that found the replica crashed (bare-engine use
        #: only; a cluster router never dispatches to a down replica).
        self.dropped: list[Request] = []
        self.iteration_records: list[IterationRecord] = []
        self.iterations_run = 0
        self.busy_time = 0.0
        #: Always-on cheap decision counters (one int/dict bump per
        #: occurrence) feeding ``RunSummary.scheduler_stats`` without
        #: requiring a tracing observer.
        self.decode_evictions = 0
        self.stall_preemptions = 0
        self.chunk_tokens_hist: Counter[int] = Counter()
        #: Relegated requests already reported served (each request
        #: gets exactly one relegation_served event per demotion).
        self._relegation_served_ids: set[int] = set()
        #: False while the replica is crashed (see :meth:`crash`); a
        #: down replica accepts no work and runs no iterations.
        self.healthy = True
        #: Transient-straggler multiplier applied to every iteration's
        #: execution time (1.0 = nominal speed).
        self.slowdown_factor = 1.0
        self.crash_count = 0
        self.cancelled: list[Request] = []
        self._crashed_at = 0.0
        self._busy = False
        # Handle of the scheduled end-of-iteration event, so a crash
        # can abort the batch in flight.
        self._inflight_event = None
        #: Optional ``(request, now)`` callback fired on completion;
        #: a fault-tolerant cluster uses it to disarm deadline watchdogs.
        self.completion_hook: Callable[[Request, float], None] | None = None
        #: Optional ``(request, now)`` callback fired once per output
        #: token; the serving gateway uses it to stream tokens to
        #: clients.  Must never mutate engine state.
        self.token_hook: Callable[[Request, float], None] | None = None
        # Requests whose prefill has started but not finished; counts
        # against decode slots so admission cannot overshoot.
        self._inflight_prefills: set[int] = set()
        # Prefilled handoffs (disaggregation) waiting for KV or slots.
        self._pending_handoffs: deque[Request] = deque()
        # Requests evicted by stall recovery: parked outside the
        # scheduler until a completion frees memory, so they cannot
        # immediately re-consume the blocks they just released.
        self._stalled_requests: list[Request] = []

    # --- prefix reuse -----------------------------------------------------

    def _install_prefix_cache(self) -> None:
        """Bind a fresh radix cache to the current KV ledger.

        Called from ``__init__`` and again by the array engine after it
        swaps in its own ledger (the tree is empty at both points).
        """
        self.prefix_cache = RadixPrefixCache(self.kv_cache)
        self.kv_cache.set_reclaimer(self.prefix_cache)
        self.prefix_cache.on_evict = self._notify_prefix_evicted

    def _notify_prefix_evicted(self, blocks: int) -> None:
        assert self.prefix_cache is not None
        self.observer.on_prefix_evicted(
            self.replica_id,
            self.simulator.now,
            blocks,
            self.prefix_cache.cached_tokens,
        )

    # --- submission ------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Register a request; it arrives at ``request.arrival_time``."""
        self.submitted.append(request)
        self.simulator.schedule(
            max(request.arrival_time, self.simulator.now),
            lambda: self._on_arrival(request),
        )

    def submit_now(self, request: Request) -> None:
        """Hand a request over immediately (disaggregation handoff,
        cluster dispatch)."""
        if not self.healthy:
            raise RuntimeError(
                f"replica {self.replica_id} is down; router must not "
                "dispatch to it"
            )
        self.submitted.append(request)
        self._on_arrival(request)

    def submit_prefilled(self, request: Request) -> None:
        """Admit an already-prefilled request straight into decode.

        This is the decode-node entry point of a disaggregated
        deployment: the prompt's KV arrives with the request (grown
        here), and the first output token is produced by this
        replica's next iteration.  Requests that do not fit (KV or
        decode slots) wait in an admission queue and are admitted as
        completions free resources.
        """
        if request.remaining_prefill != 0:
            raise ValueError(
                f"request {request.request_id} still has prefill work"
            )
        if request.is_finished:
            raise ValueError(f"request {request.request_id} is finished")
        self.submitted.append(request)
        self._pending_handoffs.append(request)
        self._admit_handoffs()
        self._maybe_start()

    def _admit_handoffs(self) -> None:
        while self._pending_handoffs:
            request = self._pending_handoffs[0]
            if self.running_requests >= self.config.max_decode_slots:
                return
            context = request.context_length
            if not self.kv_cache.can_grow(request.request_id, context):
                return
            self.kv_cache.grow(request.request_id, context)
            self._attach_decode(request, context)
            if request.scheduled_first_time is None:
                request.scheduled_first_time = self.simulator.now
            self._pending_handoffs.popleft()

    def _on_arrival(self, request: Request) -> None:
        if not self.healthy:
            # The arrival was scheduled before the crash (direct
            # engine use); a cluster router re-dispatches via its own
            # retry path, a bare engine records the drop.
            self.dropped.append(request)
            return
        max_tokens = self.kv_cache.capacity_tokens
        if request.prefill_target + request.remaining_decode > max_tokens:
            self.rejected.append(request)
            return
        if (
            self.prefix_cache is not None
            and request.token_ids is not None
            and request.prefill_done == 0
            and request.folded == 0
        ):
            # A matched prefix counts as already-prefilled work: the
            # scheduler only ever plans the uncached suffix, and the
            # final chunk (>= 1 token, hence the cap) still emits the
            # first output token.
            hit = self.prefix_cache.match_and_lock(
                request.request_id,
                request.token_ids,
                request.prompt_tokens - 1,
            )
            if hit:
                request.prefill_done = hit
            self.observer.on_prefix_lookup(
                self.replica_id,
                request,
                self.simulator.now,
                hit,
                self.prefix_cache.cached_tokens,
            )
        self.scheduler.enqueue(request, self.simulator.now)
        self.observer.on_span_start(
            "queue", request, self.simulator.now, self.replica_id
        )
        self._maybe_start()

    # --- derived state ----------------------------------------------------

    @property
    def running_requests(self) -> int:
        """Requests occupying decode slots (decoding or mid-prefill)."""
        return len(self.decode_queue) + len(self._inflight_prefills)

    @property
    def free_decode_slots(self) -> int:
        return max(0, self.config.max_decode_slots - self.running_requests)

    def has_work(self) -> bool:
        return bool(self.decode_queue) or self.scheduler.has_pending_prefill()

    def holds(self, request: Request) -> bool:
        """Whether ``request`` is resident on this replica: decoding,
        mid-prefill, queued, parked by stall recovery or waiting for a
        handoff slot."""
        request_id = request.request_id
        return (
            request_id in self._inflight_prefills
            or request in self.decode_queue
            or request in self._stalled_requests
            or request in self._pending_handoffs
            or any(
                r.request_id == request_id
                for r in self.scheduler.pending_requests()
            )
        )

    # --- decode set --------------------------------------------------------
    #
    # Every lifecycle transition moves requests into and out of the
    # decode set through these three primitives; the array engine
    # overrides only them to keep the set in its row store.

    def _attach_decode(self, request: Request, context: int) -> None:
        """Append ``request`` (holding ``context`` KV tokens) to the
        decode set."""
        self.decode_queue.append(request)
        self._decode_context_total += context

    def _detach_decode(self, request: Request) -> int | None:
        """Remove ``request`` from the decode set and release its KV.

        Returns the context it held, or None if it was not decoding
        (its KV, if any, is then left alone).
        """
        if request not in self.decode_queue:
            return None
        context = request.context_length
        self.kv_cache.release(request.request_id)
        self.decode_queue.remove(request)
        self._decode_context_total -= context
        return context

    def _clear_decodes(self) -> None:
        """Empty the decode set (crash; KV already released)."""
        self.decode_queue.clear()
        self._decode_context_total = 0

    # --- iteration loop ----------------------------------------------------

    def _maybe_start(self) -> None:
        if self._busy or not self.healthy:
            return
        if self.has_work():
            self._start_iteration()

    @timed("engine.start_iteration")
    def _start_iteration(self) -> None:
        now = self.simulator.now
        self._reserve_decode_growth()
        # One snapshot serves both the scheduler's view and the batch
        # plan: plan_prefill never mutates the decode queue (the view
        # is read-only by contract), so the lists would be identical.
        decode_snapshot = list(self.decode_queue)
        decode_context_total = self._decode_context_total
        view = EngineView(
            now=now,
            decode_requests=decode_snapshot,
            kv_cache=self.kv_cache,
            execution_model=self.execution_model,
            max_decode_slots=self.config.max_decode_slots,
            inflight_prefill_ids=frozenset(self._inflight_prefills),
            decode_context_total=decode_context_total,
        )
        assignments = self.scheduler.plan_prefill(view)
        plan = BatchPlan(
            prefill_assignments=assignments,
            decode_requests=decode_snapshot,
        )
        if plan.is_empty:
            # Nothing is decoding and the prefill queue is blocked
            # (e.g. on KV memory): free KV by evicting a partial
            # prefill and plan again, or idle until the next arrival
            # or completion.
            if self._recover_prefill_stall():
                self._start_iteration()
            return
        self._start_prefills(assignments, now)

        # Token counts of snapshot members cannot change while the
        # batch is in flight (they only move in _finish_iteration), so
        # the shape computed here is also the one _finish_iteration
        # records.
        shape = plan.to_shape(decode_context_total)
        exec_time = self.execution_model.batch_time(shape)
        if self.slowdown_factor != 1.0:
            # Transient straggler (fault injection): the replica runs,
            # just slower.  Guarded so the nominal path stays
            # bit-exact with no fault layer attached.
            exec_time *= self.slowdown_factor
        self._busy = True
        self.busy_time += exec_time
        if plan.prefill_tokens > 0:
            # Decode-only iterations carry no chunk; counting their
            # zeros would drown the histogram's smallest bucket.
            self.chunk_tokens_hist[plan.prefill_tokens] += 1
        self.observer.on_iteration_start(
            self.replica_id, now, exec_time, plan, self.iterations_run,
            queue_depth=self.scheduler.queue_length(),
        )
        self._inflight_event = self.simulator.schedule_after(
            exec_time,
            lambda: self._finish_iteration(plan, shape, exec_time, now),
        )

    def _start_prefills(
        self, assignments: list[PrefillAssignment], now: float
    ) -> None:
        """Reserve KV for the iteration's prefill chunks and open the
        requests' prefill phase."""
        observer = self.observer
        replica_id = self.replica_id
        for assignment in assignments:
            request = assignment.request
            request_id = request.request_id
            self.kv_cache.grow(request_id, assignment.tokens)
            self._inflight_prefills.add(request_id)
            if request.scheduled_first_time is None:
                request.scheduled_first_time = now
                observer.on_span_end("queue", request, now, replica_id)
                observer.on_span_start("prefill", request, now, replica_id)
            if (
                request.relegated
                and request_id not in self._relegation_served_ids
            ):
                # First opportunistic chunk after demotion: the end of
                # the relegation stall, which latency attribution needs
                # as an explicit anchor.
                self._relegation_served_ids.add(request_id)
                observer.on_relegation_served(
                    replica_id, request, now, assignment.tokens
                )

    def _credit_prefills(
        self, assignments: list[PrefillAssignment], now: float
    ) -> None:
        """Credit the finished iteration's prefill chunks."""
        for assignment in assignments:
            request = assignment.request
            if request.cancelled:
                continue  # cancelled mid-iteration; KV already freed
            request.prefill_done += assignment.tokens
            if request.remaining_prefill == 0:
                self._on_prefill_finished(request, now)

    def _reserve_decode_growth(self) -> None:
        """Grow KV by one token per decode request, evicting on pressure.

        Eviction victims are the decode requests with the largest
        next-token slack (they can best afford recompute); evicted
        requests return to the prefill queue with recompute pending.
        """
        for request in list(self.decode_queue):
            if self.kv_cache.can_grow(request.request_id, 1):
                self.kv_cache.grow(request.request_id, 1)
                continue
            victim = self._pick_eviction_victim(exclude=request)
            while victim is not None and not self.kv_cache.can_grow(
                request.request_id, 1
            ):
                self._evict_decode(victim)
                victim = self._pick_eviction_victim(exclude=request)
            if self.kv_cache.can_grow(request.request_id, 1):
                self.kv_cache.grow(request.request_id, 1)
            else:
                # Last resort: evict this request itself.
                self._evict_decode(request)

    def _recover_prefill_stall(self) -> bool:
        """Break a mutual-prefill KV deadlock by recomputation.

        With no decodes running and prefill work pending but no plan,
        the cache is wedged by partially-prefilled requests that each
        need more blocks than remain.  Evicting the least-progressed
        holder (losing the least work) lets the most advanced one
        finish and the evicted one recompute later — vLLM's
        recompute-on-preemption, applied to the prefill phase.

        Returns True if a victim was evicted.
        """
        holders = [
            r
            for r in self.scheduler.pending_requests()
            if r.remaining_prefill > 0
            and self.kv_cache.holding(r.request_id) > 0
        ]
        if len(holders) < 2:
            return False  # a lone holder gains nothing from eviction
        victim = min(holders, key=lambda r: r.prefill_done)
        prefill_lost = victim.prefill_done
        self.kv_cache.release(victim.request_id)
        if self.prefix_cache is not None:
            # The victim recomputes from scratch; its shared prefix
            # stays resident for others until memory pressure evicts it.
            self.prefix_cache.unlock(victim.request_id)
        self._inflight_prefills.discard(victim.request_id)
        victim.evict()
        self.stall_preemptions += 1
        self.observer.on_preempted(
            self.replica_id, victim, self.simulator.now, prefill_lost
        )
        # Park the victim outside the scheduler: re-admitting it right
        # away would let it re-consume the freed blocks before the
        # surviving holder finishes, thrashing forever.  ``remove``:
        # after ``on_prefill_complete`` QoServe keeps feeding it chunks.
        self.scheduler.remove(victim, self.simulator.now)
        self._stalled_requests.append(victim)
        return True

    def _pick_eviction_victim(self, exclude: Request) -> Request | None:
        candidates = [r for r in self.decode_queue if r is not exclude]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.next_token_deadline)

    def _evict_decode(self, request: Request) -> None:
        context_lost = self._detach_decode(request)
        if self.prefix_cache is not None:
            self.prefix_cache.unlock(request.request_id)
        request.evict()
        self.decode_evictions += 1
        self.observer.on_decode_evicted(
            self.replica_id, request, self.simulator.now, context_lost
        )
        self.scheduler.enqueue(request, self.simulator.now)

    @timed("engine.finish_iteration")
    def _finish_iteration(
        self,
        plan: BatchPlan,
        shape: BatchShape,
        exec_time: float,
        start_time: float,
    ) -> None:
        now = self.simulator.now
        self._inflight_event = None
        self.iterations_run += 1
        if self.config.record_iterations:
            self.iteration_records.append(
                IterationRecord(
                    start_time=start_time,
                    exec_time=exec_time,
                    prefill_tokens=shape.prefill_tokens,
                    num_decodes=shape.num_decodes,
                    decode_context_total=shape.decode_context_total,
                    kv_utilization=self.kv_cache.utilization,
                )
            )

        # Decode side: every running request emitted one token.
        for request in plan.decode_requests:
            if request not in self.decode_queue:
                continue  # evicted while this iteration was in flight
            request.record_output_token(now)
            self._decode_context_total += 1
            if self.token_hook is not None:
                self.token_hook(request, now)
            if request.is_finished:
                self._complete(request, now)

        self._credit_prefills(plan.prefill_assignments, now)
        self.observer.on_iteration_end(
            self.replica_id, now, start_time, exec_time, plan, self.kv_cache
        )
        self._busy = False
        self._maybe_start()

    def _on_prefill_finished(self, request: Request, now: float) -> None:
        self._inflight_prefills.discard(request.request_id)
        self.scheduler.on_prefill_complete(request, now)
        self.observer.on_span_end(
            "prefill", request, now, self.replica_id
        )
        if self.config.prefill_only:
            # First token is produced by the decode node after handoff;
            # the prefill node's job (and its KV holding) ends here.
            self.kv_cache.release(request.request_id)
            assert self.prefill_sink is not None
            self.prefill_sink(request, now)
            return
        if self.prefix_cache is not None and request.token_ids is not None:
            # Publish the finished prompt's blocks: privately-held
            # blocks transfer to (or dedupe against) the shared tree,
            # and the request keeps its path locked until completion.
            created, deduped = self.prefix_cache.insert_and_lock(
                request.request_id, request.token_ids
            )
            self.observer.on_prefix_insert(
                self.replica_id,
                now,
                created,
                deduped,
                self.prefix_cache.cached_tokens,
            )
        if request.decoded == 0:
            # The final prefill chunk yields output token 1 (Sec. 2.1).
            request.record_output_token(now)
            self.observer.on_span_start(
                "decode", request, now, self.replica_id
            )
            if self.token_hook is not None:
                self.token_hook(request, now)
        if request.is_finished:
            self._complete(request, now)
        else:
            self._attach_decode(request, request.context_length)

    def _complete(self, request: Request, now: float) -> None:
        if self._detach_decode(request) is None:
            self.kv_cache.release(request.request_id)
        if self.prefix_cache is not None:
            self.prefix_cache.unlock(request.request_id)
        self.completed.append(request)
        self.observer.on_span_end(
            "decode", request, now, self.replica_id
        )
        self.observer.on_request_completed(self.replica_id, request, now)
        self.scheduler.on_request_complete(request, now)
        if self.completion_hook is not None:
            self.completion_hook(request, now)
        if self._pending_handoffs:
            self._admit_handoffs()
        if self._stalled_requests:
            for stalled in self._stalled_requests:
                self.scheduler.enqueue(stalled, now)
            self._stalled_requests.clear()

    # --- faults (repro.faults) --------------------------------------------

    def crash(self) -> list[Request]:
        """Fail the replica: drop its KV cache and in-flight batch.

        Mirrors a process/host failure: the batch being executed never
        completes, every cached KV block is lost, and each resident
        request's generation state must be recomputed from scratch
        (``Request.evict``).  The engine stops serving until
        :meth:`recover` is called.

        Returns:
            The unfinished requests that were resident (decoding,
            prefilling, queued, parked, or awaiting handoff), in a
            deterministic order, for the cluster's retry layer to
            re-dispatch.
        """
        now = self.simulator.now
        if self._inflight_event is not None:
            self._inflight_event.cancel()
            self._inflight_event = None
        self._busy = False

        lost: list[Request] = []
        seen: set[int] = set()

        def take(request: Request) -> None:
            if request.request_id not in seen and not request.is_finished:
                seen.add(request.request_id)
                lost.append(request)

        for request in self.decode_queue:
            take(request)
        for request in self.scheduler.pending_requests():
            take(request)
        for request in self._stalled_requests:
            take(request)
        for request in self._pending_handoffs:
            take(request)

        kv_blocks_dropped = 0
        for request in lost:
            self.scheduler.remove(request, now)
            # Before the decode set is cleared: the array engine's
            # decode holdings live in its rows.
            kv_blocks_dropped += self.kv_cache.release(request.request_id)
            request.evict()
        self._clear_decodes()
        self._stalled_requests.clear()
        self._pending_handoffs.clear()
        self._inflight_prefills.clear()
        if self.prefix_cache is not None:
            # Shared prefix blocks die with the replica too; flushing
            # (all node blocks released, every lock dropped) is what
            # lets the no-leak assertion below keep holding.
            kv_blocks_dropped += self.prefix_cache.flush()
        # No-leak invariant: every block belonged to a resident
        # request, so dropping them all must empty the cache.
        leaked = self.kv_cache.holders()
        assert not leaked and self.kv_cache.used_blocks == 0, (
            f"KV blocks leaked across crash of replica "
            f"{self.replica_id}: {leaked}"
        )

        self.healthy = False
        self.crash_count += 1
        self._crashed_at = now
        self.observer.on_replica_crashed(
            self.replica_id, now, len(lost), kv_blocks_dropped
        )
        return lost

    def recover(self) -> None:
        """Bring a crashed replica back with a cold (empty) cache."""
        if self.healthy:
            return
        now = self.simulator.now
        self.healthy = True
        self.observer.on_replica_recovered(
            self.replica_id, now, now - self._crashed_at
        )
        self._maybe_start()

    def set_slowdown(self, factor: float) -> None:
        """Set the straggler multiplier on iteration execution time."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.slowdown_factor = float(factor)

    def cancel_request(self, request: Request, reason: str) -> bool:
        """Withdraw an unfinished request (client disconnect/timeout).

        Frees its KV and removes it from every engine structure; the
        in-flight batch keeps executing (the work is simply discarded
        when the iteration completes).

        Returns:
            True if the request was resident on this replica.
        """
        if request.is_finished:
            return False
        now = self.simulator.now
        resident = self.holds(request)
        self._detach_decode(request)
        self._inflight_prefills.discard(request.request_id)
        self.scheduler.remove(request, now)
        if request in self._stalled_requests:
            self._stalled_requests.remove(request)
        if request in self._pending_handoffs:
            self._pending_handoffs.remove(request)
        self.kv_cache.release(request.request_id)
        if self.prefix_cache is not None:
            self.prefix_cache.unlock(request.request_id)
        request.cancel(now, reason)
        self.cancelled.append(request)
        self.observer.on_request_cancelled(self.replica_id, request, now,
                                           reason)
        # Freed KV/slots may unblock queued work.
        if self._pending_handoffs:
            self._admit_handoffs()
        self._maybe_start()
        return resident

    # --- driving ----------------------------------------------------------

    def run_until_drained(self, max_events: int | None = None) -> float:
        """Run the simulator until all submitted work completes."""
        self.simulator.run(max_events=max_events)
        return self.simulator.now

    def advance(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Process events incrementally, up to virtual time ``until``.

        The online gateway's step API: unlike
        :meth:`run_until_drained`, the engine stays mid-flight and more
        requests may be injected (:meth:`submit_now`) between calls.
        """
        return self.simulator.run(until=until, max_events=max_events)

    def next_event_time(self) -> float | None:
        """When this replica's simulator fires next (None if idle)."""
        return self.simulator.next_event_time()
