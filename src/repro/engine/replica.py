"""The replica engine: iteration-level chunked-prefill serving loop.

One :class:`ReplicaEngine` models one model replica (a TP group of
GPUs).  Each iteration it batches *all* running decodes with the
prefill chunks its scheduler selects (Section 3.1), asks the execution
model how long the batch takes, and advances simulated time.  KV-cache
growth is accounted before execution; if a decode step cannot fit, the
engine preempts the decode request with the slackest deadline and
recomputes it later, mirroring vLLM's recompute-on-eviction.

The decode batch is struct-of-arrays: it lives in a
:class:`~repro.engine.rows._RowStore`, and KV accounting in an
:class:`~repro.engine.rows.ArrayKVLedger` whose decode holdings are
row columns too.  No iteration touches every row.  Finishing one
appends its finish time to the row store's iteration log and bumps
its iteration counter, from which every row's ``decoded`` and ``ctx``
follow; it completes only the rows in that iteration's completion
bucket, in row order.  Reserving the batch's KV growth is one
phase-count lookup.  A row's token timestamps and TBT gap and deadline
misses are folded over the log when they are read: when a row leaves
the batch, when a token hook fires, when a caller reads
``decode_queue``, and when a deployment's run returns
(:meth:`ReplicaEngine.sync_rows`).  Schedulers read the rows
themselves through the :class:`~repro.engine.interface.EngineView`.
The float expressions are those of :class:`~repro.core.request.Request`
(e.g. the Eq. 2 token deadline ``(arrival + ttft) + k * tbt`` is kept
as a scalar ``ttft_base`` so the vector fold performs the same IEEE
operations), and ``tests/test_engine_pins.py`` pins the results.

Runs of pure-decode iterations that no event can interrupt collapse
into one logged window (:meth:`ReplicaEngine._decode_stretch`) when
nothing observes individual iterations, which saves their heap
events.

A replica whose :class:`ReplicaConfig` carries a ``prefill_sink`` is
a prefill-only node (PD disaggregation, Section 4.1.3): completed
prefills are handed to the sink instead of entering the local decode
queue, and their KV is released (shipped to the decode node).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.interface import EngineView, Scheduler
from repro.engine.prefix import RadixPrefixCache
from repro.engine.rows import ArrayKVLedger, _RowStore
from repro.obs.observer import NULL_OBSERVER, Observer, get_default_observer
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class ReplicaConfig:
    """Engine knobs.

    Per-iteration telemetry (Figure 9's chunk sizes and batch times) is
    not a knob: an attached observer sees every iteration through
    ``on_iteration_start``/``on_iteration_end``, which a
    :class:`~repro.obs.observer.TracingObserver` records as
    ``iteration_scheduled`` and ``kv_cache_snapshot`` events.  Nor is
    the KV page size: every ledger uses
    :data:`~repro.engine.rows.KV_BLOCK_SIZE` tokens per block.

    Attributes:
        max_decode_slots: Cap on concurrently running requests
            (vLLM's ``max_num_seqs``); prefill admission respects it.
        prefill_sink: Makes the replica a PD-disaggregation prefill
            node when set: receives ``(request, now)`` when a prompt
            finishes prefilling, e.g.
            :meth:`repro.cluster.decode_pool.DecodePool.accept`.
        kv_reuse: Prefix-aware KV reuse policy — ``"radix"`` shares
            prompt-prefix blocks across requests via
            :class:`repro.engine.prefix.RadixPrefixCache`; ``"off"``
            (the default) is byte-identical to a reuse-free engine.
    """

    KV_REUSE_KINDS = ("off", "radix")

    max_decode_slots: int = 256
    prefill_sink: Callable[[Request, float], None] | None = None
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
        observer: Observer | None = None,
    ) -> None:
        """Args:
        simulator: Shared event loop.
        execution_model: Ground-truth iteration cost model.
        scheduler: Prefill-selection policy.
        config: Engine knobs; defaults to :class:`ReplicaConfig`.
        replica_id: Identifier used in multi-replica deployments.
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
        self.observer = (
            observer if observer is not None else get_default_observer()
        )
        if self.observer is not NULL_OBSERVER:
            scheduler.set_observer(self.observer)

        self._rows = _RowStore()
        # Request objects lag their rows after an iteration finishes
        # until the rows are synced back (see sync_rows).
        self._rows_dirty = False

        self.kv_cache = ArrayKVLedger(
            capacity_tokens=execution_model.kv_capacity_tokens,
            rows=self._rows,
        )
        #: Radix prefix index (``kv_reuse="radix"``), or None; every
        #: prefix code path in the engine is guarded on it so the
        #: ``"off"`` mode stays byte-identical to a reuse-free engine.
        #: Prefill-only nodes ship their KV away at prefill finish, so
        #: they never populate (and therefore never consult) a tree.
        self.prefix_cache: RadixPrefixCache | None = None
        if (
            self.config.kv_reuse == "radix"
            and self.config.prefill_sink is None
        ):
            self.prefix_cache = RadixPrefixCache(self.kv_cache)
            self.kv_cache.set_reclaimer(self.prefix_cache)
            self.prefix_cache.on_evict = self._notify_prefix_evicted
        self.completed: list[Request] = []
        self.submitted: list[Request] = []
        #: Requests refused at admission: their prompt plus decode
        #: tokens can never fit this replica's KV cache (vLLM rejects
        #: over-length prompts the same way).
        self.rejected: list[Request] = []
        #: Arrivals that found the replica crashed (bare-engine use
        #: only; a cluster router never dispatches to a down replica).
        self.dropped: list[Request] = []
        self.busy_time = 0.0
        #: Always-on cheap decision counters (one int/dict bump per
        #: occurrence) feeding ``RunSummary.scheduler_stats`` without
        #: requiring a tracing observer.
        self.decode_evictions = 0
        #: Iterations whose decode growth took the per-row pressure
        #: path: the batch needed more blocks than free plus
        #: reclaimable, so a decode had to be evicted.
        self.kv_pressure_iterations = 0
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
        # Decode-stretch telemetry: attempts, attempts rejected by the
        # cheap bound, stretches that fired and iterations collapsed.
        self.stretch_attempts = 0
        self.stretch_rejected_cheap = 0
        self.stretch_hits = 0
        self.stretch_iterations = 0

    # --- prefix reuse -----------------------------------------------------

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
            self._attach_decode(request)
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
    def iterations_run(self) -> int:
        """Iterations finished, a decode stretch's collapsed ones
        included: the row store's iteration counter ``K``."""
        return self._rows.iterations

    @property
    def _decode_context_total(self) -> int:
        """The decode rows' summed context length, in O(1)."""
        return self._rows.context_total

    @property
    def decode_queue(self) -> list[Request]:
        """The decoding requests in batch order, synced from their rows
        (a fresh list)."""
        self.sync_rows()
        return list(self._rows.req)

    def decode_load(self) -> tuple[list[Request], int]:
        """The decoding requests and their summed context length,
        read without syncing rows: the request objects may lag their
        rows, so callers read only what decoding never changes (QoS)."""
        rows = self._rows
        return rows.req[: rows.n], self._decode_context_total

    @property
    def running_requests(self) -> int:
        """Requests occupying decode slots (decoding or mid-prefill)."""
        return self._rows.n + len(self._inflight_prefills)

    def has_work(self) -> bool:
        return self._rows.n > 0 or self.scheduler.has_pending_prefill()

    def holds(self, request: Request) -> bool:
        """Whether ``request`` is resident on this replica: decoding,
        mid-prefill, queued, parked by stall recovery or waiting for a
        handoff slot."""
        request_id = request.request_id
        return (
            request_id in self._inflight_prefills
            or request_id in self._rows.index
            or request in self._stalled_requests
            or request in self._pending_handoffs
            or self.scheduler.is_pending(request)
        )

    def sync_rows(self) -> None:
        """Fold every decode row's stats back into its request (a no-op
        when no iteration finished since the last sync)."""
        if not self._rows_dirty:
            return
        self._rows_dirty = False
        rows = self._rows
        for i in range(rows.n):
            rows.sync_row(i)

    # --- decode set --------------------------------------------------------
    #
    # Every lifecycle transition moves requests into and out of the
    # decode rows through these three primitives.

    def _attach_decode(self, request: Request) -> None:
        """Append ``request`` to the decode rows; its KV holding becomes
        row-backed."""
        tokens, blocks = self.kv_cache.attach_row(request.request_id)
        self._rows.add(request, tokens, blocks)

    def _detach_decode(self, request: Request) -> int | None:
        """Remove ``request`` from the decode rows and release its KV.

        Returns the context it held, or None if it was not decoding
        (its KV, if any, is then left alone).
        """
        rows = self._rows
        i = rows.index.get(request.request_id)
        if i is None:
            return None
        rows.sync_row(i)
        context = rows.context(i)
        # The row-backed holding must be released while its row lives.
        self.kv_cache.release(request.request_id)
        rows.remove_at(i)
        return context

    def _clear_decodes(self) -> None:
        """Empty the decode rows (crash; KV already released)."""
        self._rows.clear()

    # --- iteration loop ----------------------------------------------------

    def _maybe_start(self) -> None:
        if self._busy or not self.healthy:
            return
        if self.has_work():
            self._start_iteration()

    def _start_iteration(self) -> None:
        now = self.simulator.now
        observed = self.observer is not NULL_OBSERVER
        rows = self._rows
        # (num_decodes, decode_context_total) of the decode-only batch
        # time probed for the stretch, reused below when the iteration
        # turns out to be exactly that batch.
        probe = None
        if (
            rows.n > 0
            and not observed
            and self.token_hook is None
            and not self._inflight_prefills
            and not self.scheduler.has_pending_prefill()
        ):
            probe = (rows.n, self._decode_context_total)
            probe_time = self.execution_model.batch_time_flat((), *probe)
            now = self._decode_stretch(now, probe_time)
        self._reserve_decode_growth()
        n_live = rows.n
        decode_context_total = self._decode_context_total
        assignments = (
            self._plan_qoserve_fast(now)
            if self.scheduler.has_pending_prefill()
            else []
        )
        if not assignments and n_live == 0:
            # Nothing is decoding and the prefill queue is blocked
            # (e.g. on KV memory): free KV by evicting a partial
            # prefill and plan again, or idle until the next arrival
            # or completion.
            if self._recover_prefill_stall():
                self._start_iteration()
            return
        # Chunk shapes (tokens, prompt offset) price the batch; offsets
        # only move when _finish_iteration credits the chunks.
        chunks = [(a.tokens, a.request.prefill_done) for a in assignments]
        prefill_tokens = 0
        if assignments:
            self._start_prefills(assignments, now)
            prefill_tokens = sum(tokens for tokens, _ in chunks)
        if not chunks and probe == (n_live, decode_context_total):
            exec_time = probe_time
        else:
            exec_time = self.execution_model.batch_time_flat(
                chunks, n_live, decode_context_total
            )
        if self.slowdown_factor != 1.0:
            # Transient straggler (fault injection): the replica runs,
            # just slower.  Guarded so the nominal path stays
            # bit-exact with no fault layer attached.
            exec_time *= self.slowdown_factor
        self._busy = True
        self.busy_time += exec_time
        if prefill_tokens > 0:
            # Decode-only iterations carry no chunk; counting their
            # zeros would drown the histogram's smallest bucket.
            self.chunk_tokens_hist[prefill_tokens] += 1
        if observed:
            self.observer.on_iteration_start(
                self.replica_id, now, exec_time, assignments, n_live,
                decode_context_total, rows.iterations,
                queue_depth=self.scheduler.queue_length(),
            )
        rows.batch_n = n_live
        self._inflight_event = self.simulator.schedule_after(
            exec_time,
            lambda: self._finish_iteration(
                assignments, exec_time, now, observed
            ),
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

    def _finish_iteration(
        self,
        assignments: list[PrefillAssignment],
        exec_time: float,
        start_time: float,
        observed: bool,
    ) -> None:
        now = self.simulator.now
        self._inflight_event = None
        self._finish_decodes(now)
        if assignments:
            self._credit_prefills(assignments, now)
        if observed:
            self.observer.on_iteration_end(
                self.replica_id, now, start_time, exec_time, self.kv_cache
            )
        self._busy = False
        self._maybe_start()

    def _decode_stretch(self, now: float, first_time: float) -> float:
        """Collapse a run of pure-decode iterations into one advance.

        Preconditions (checked by the caller): no observer, no token
        hook, no pending or in-flight prefill work.  ``first_time`` is
        the unscaled batch time of the next iteration, the decode-only
        batch of the current rows.  Finds
        the longest run of ``k >= 2`` future iterations that provably
        (a) complete no request, (b) fit their KV growth in the free
        plus reclaimable blocks, so no decode is evicted, and (c)
        finish strictly before the next simulator event and within
        the simulator's run bound — then logs the ``k`` finish times
        as one window (:meth:`_RowStore.log_window`), grows the KV of
        every row by ``k`` tokens and fast-forwards the clock to the
        last finish time.  Falls back to the
        per-iteration path (returning ``now`` unchanged) whenever any
        bound trims the run below 2.

        For (b), the window's growth reclaims its shortfall from the
        prefix cache in one call (:meth:`ArrayKVLedger.stretch_grow`).
        Nothing else touches the tree inside the window (no prefill,
        no completion), so that evicts the same LRU leaves, in the
        same order, as the per-iteration reclaims it replaces.

        Cheap rejection: at fleet scale the next event is almost
        always another replica's iteration, so (c) fails nearly every
        time.  Before any array work, the run is rejected when
        ``(now + e0) + e0`` already reaches the next event or passes
        the run bound, ``e0`` being ``first_time`` times the slowdown
        factor.  This is exact, not a heuristic: a decode-only batch
        time is monotone non-decreasing in the decode context total
        (every term is a positive-constant product or sum of it,
        ``max`` and ``+ overhead`` preserve order, and IEEE rounding
        is monotone), and the context only grows, so the second
        iteration's time ``e1 >= e0`` and its finish ``c[2] = (now +
        e0) + e1 >= (now + e0) + e0``.  Step (c) needs ``c[2] <
        next_event`` and ``c[2] <= run_bound`` for ``k >= 2``, so the
        cheap bound rejects only runs the full computation rejects.

        Bit-exactness: finish times are the left-associated cumulative
        sum ``((now + e_1) + e_2) + ...`` (``np.add.accumulate``),
        matching the simulator's sequential clock, and the log holds
        them exactly as ``k`` iterations would have appended them.
        The one divergence from running the ``k`` iterations
        one by one is ``Simulator.events_processed``/``max_events``
        accounting: the collapsed finish events are never enqueued
        (the safety valve sees fewer events; no other consumer
        exists).
        """
        self.stretch_attempts += 1
        if self.slowdown_factor != 1.0:
            first_time *= self.slowdown_factor
        second_floor = (now + first_time) + first_time
        next_event = self.simulator.next_event_time()
        bound = self.simulator.run_bound
        if (next_event is not None and second_floor >= next_event) or (
            bound is not None and second_floor > bound
        ):
            self.stretch_rejected_cheap += 1
            return now
        rows = self._rows
        n = rows.n
        # (a) the iteration emitting a request's final token must run
        # on the normal path (completion side effects).
        k_cap = (
            int((rows.target[:n] - rows.dec_off[:n]).min())
            - rows.iterations
            - 1
        )
        if k_cap < 2:
            return now
        # (b) largest run whose cumulative block demand fits in the
        # free plus reclaimable blocks; the demand is monotone in k,
        # so bisect on it.
        ledger = self.kv_cache
        free = ledger.free_blocks + ledger.reclaimable_blocks
        if ledger.stretch_need(k_cap) > free:
            lo, hi = 0, k_cap  # invariant: need(lo) <= free < need(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ledger.stretch_need(mid) <= free:
                    lo = mid
                else:
                    hi = mid
            k_cap = lo
            if k_cap < 2:
                return now
        # (c) cumulative finish times of the candidate run; iteration
        # j (0-based) sees the decode context grown j times.
        exec_times = self.execution_model.decode_batch_times_flat(
            n,
            self._decode_context_total
            + np.arange(k_cap, dtype=np.int64) * n,
        )
        if self.slowdown_factor != 1.0:
            exec_times = exec_times * self.slowdown_factor
        c = np.add.accumulate(np.concatenate(((now,), exec_times)))
        k = k_cap
        if next_event is not None:
            # Strictly before: at equal timestamps the pending event
            # (lower heap seq) fires before an iteration's finish.
            k = min(k, int(np.searchsorted(c[1:], next_event, side="left")))
        if bound is not None:
            k = min(k, int(np.searchsorted(c[1:], bound, side="right")))
        if k < 2:
            return now

        self.stretch_hits += 1
        self.stretch_iterations += k
        self.busy_time = float(
            np.add.accumulate(
                np.concatenate(((self.busy_time,), exec_times[:k]))
            )[-1]
        )
        rows.log_window(c[1 : k + 1])
        self._rows_dirty = True
        ledger.stretch_grow(k)
        end = float(c[k])
        self.simulator.fast_forward(end)
        return end

    # --- completion ----------------------------------------------------------

    def _finish_decodes(self, now: float) -> None:
        """The decode side of a finished iteration.

        Every row of the batch emits one token (rows evicted or
        cancelled mid-flight already left the prefix): the iteration is
        logged, then its completion bucket's rows complete in row
        order, or with a token hook every batch row's hook fires.
        """
        rows = self._rows
        m = rows.batch_n
        finished_rows = rows.finish_iteration(now)
        if m:
            self._rows_dirty = True
            if self.token_hook is not None:
                self._fire_token_hooks(now, m)
            elif finished_rows:
                self._complete_rows(finished_rows, now)

    def _fire_token_hooks(self, now: float, m: int) -> None:
        """Fire the token hook for every row of the finished batch.

        Row by row in batch order, each on its synced object; a
        finished row completes before the next row's hook.  Completion
        side effects touch no state a row's tokens depend on, so this
        equals advancing and completing row by row.
        """
        rows = self._rows
        index = rows.index
        target = rows.target
        hook = self.token_hook
        # A copy of the batch: completions shift the rows.
        for request in rows.req[:m]:
            i = index.get(request.request_id)
            if i is None:
                continue  # removed by an earlier row's completion
            rows.sync_row(i)
            finished = request.decoded >= target.item(i)
            if finished:
                request.completion_time = now
            hook(request, now)
            if finished:
                self._complete(request, now)

    def _complete_rows(self, finished_rows: list[int], now: float) -> None:
        """Complete the rows an iteration finished, in row order.

        Resolves every request before the first completion, because
        each removal shifts the rows behind it.
        """
        rows = self._rows
        finished = []
        for i in finished_rows:
            rows.sync_row(i)
            request = rows.req[i]
            request.completion_time = now
            finished.append(request)
        for request in finished:
            self._complete(request, now)

    # --- KV reservation / eviction ----------------------------------------

    def _reserve_decode_growth(self) -> None:
        """Grow KV by one token per decode row, evicting on pressure.

        Eviction victims are the decode requests with the largest
        next-token deadline (they can best afford recompute); evicted
        requests return to the prefill queue with recompute pending.
        """
        rows = self._rows
        if rows.n == 0:
            return
        if self.kv_cache.bulk_decode_grow():
            return
        # Pressure: the batch does not fit even after reclaiming every
        # unreferenced prefix block.  Grow row by row over a snapshot
        # of the batch, re-selecting the victim after every eviction.
        self.kv_pressure_iterations += 1
        kv_cache = self.kv_cache
        index = rows.index
        for request in list(rows.req):
            request_id = request.request_id
            if request_id not in index:
                continue  # evicted as an earlier row's victim
            if kv_cache.can_grow(request_id, 1):
                kv_cache.grow(request_id, 1)
                continue
            victim = self._pick_eviction_victim(exclude=request)
            while victim is not None and not kv_cache.can_grow(
                request_id, 1
            ):
                self._evict_decode(victim)
                victim = self._pick_eviction_victim(exclude=request)
            if kv_cache.can_grow(request_id, 1):
                kv_cache.grow(request_id, 1)
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
        rows = self._rows
        n = rows.n
        if n == 0:
            return None
        decoded = rows.dec_off[:n] + rows.iterations
        deadline = np.where(
            rows.inter[:n],
            rows.ttft_base[:n] + decoded * rows.tbt[:n],
            rows.ni_ddl[:n],
        )
        excluded = rows.index.get(exclude.request_id)
        if excluded is not None:
            if n == 1:
                return None
            deadline[excluded] = -np.inf
        # argmax returns the first maximum: ties go to the earliest
        # row, i.e. the longest-resident decode.
        return rows.req[int(np.argmax(deadline))]

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

    def _on_prefill_finished(self, request: Request, now: float) -> None:
        self._inflight_prefills.discard(request.request_id)
        self.scheduler.on_prefill_complete(request, now)
        self.observer.on_span_end(
            "prefill", request, now, self.replica_id
        )
        sink = self.config.prefill_sink
        if sink is not None:
            # First token is produced by the decode node after handoff;
            # the prefill node's job (and its KV holding) ends here.
            self.kv_cache.release(request.request_id)
            sink(request, now)
            if request.is_finished:
                # A synchronous sink (DecodePool) generated the whole
                # decode inside the call; no engine of its own reports
                # the completion, so this replica's observer does.
                self.observer.on_request_completed(
                    self.replica_id, request, request.completion_time
                )
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
            self._attach_decode(request)

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
            # Before the decode rows are cleared: decode holdings live
            # in them.
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

    # --- planning ---------------------------------------------------------

    def _plan_qoserve_fast(self, now: float) -> list[PrefillAssignment]:
        """Plan the iteration's prefill chunks: any scheduler, one view.

        The scheduler's own ``plan_prefill`` runs on an
        :class:`EngineView` over the decode rows, so QoServe's chunk
        sizing reads the decode slack from the row columns.  The
        caller skips this when no prefill is pending (every in-tree
        scheduler plans nothing then, before touching any state).
        The name is fixed by the span table of ``simbench/spans.py``,
        which patches it.
        """
        return self.scheduler.plan_prefill(
            EngineView(
                now,
                self._rows,
                self._decode_context_total,
                self.kv_cache,
                self.execution_model,
                self.config.max_decode_slots,
                self._inflight_prefills,
            )
        )
