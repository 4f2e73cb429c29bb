"""Struct-of-arrays engine core (ROADMAP item 1).

:class:`ArrayReplicaEngine` re-implements the hot paths of
:class:`~repro.engine.replica.ReplicaEngine` over flat NumPy arrays:
the decode batch lives in a :class:`_RowStore` (one column per request
field the iteration loop touches), KV accounting lives in
:class:`ArrayKVLedger` (block math hoisted out of the per-request
``grow``/``blocks_needed`` recomputation), and every per-token decode
advance — timestamps, TBT gap/deadline misses, context growth,
completion detection — is a handful of vectorized kernels instead of
per-object method dispatch.

Request-lifecycle transitions (handoff admission, prefill start and
credit, prefill finish, completion, decode eviction, stall recovery,
crash, cancel) are :class:`ReplicaEngine`'s, written against three
decode-set primitives.  This engine overrides only those primitives
(``_attach_decode``, ``_detach_decode``, ``_clear_decodes``), the
iteration loop, the KV fast path (bulk decode growth and the vector
eviction victim) and the scheduler's view of the decode set.

This is the ``forest.fused`` playbook applied to the engine: the
object-based ``engine.replica``/``engine.batch``/``engine.kvcache``
stack remains the bit-identical reference path.  Equivalence is
engineered, not hoped for:

* every float expression mirrors the reference's association order
  (e.g. the Eq. 2 token deadline ``(arrival + ttft) + k * tbt`` is
  precomputed as a scalar ``ttft_base`` so the vector form reproduces
  the exact IEEE operation sequence);
* eviction-victim selection uses ``argmax`` (first maximum), matching
  ``max()``'s tie-breaking over the queue order, which row shifts
  preserve;
* the bulk decode KV growth only takes the vector path when the whole
  batch provably fits (total blocks needed <= free), where it is
  state-identical to the reference's sequential loop; the pressure
  path replays the reference algorithm exactly, including its
  eviction ordering.

One iteration loop serves traced and untraced runs alike.  Every
scheduler plans through its own ``plan_prefill`` on one row-backed
view: the decode requests are a lazy list that syncs rows only when
iterated, and the view's decode slack — what QoServe's dynamic
chunker inverts the predictor's chunk-latency curve against — is a
sweep over the row columns.  Observer hooks fire at the points the
reference fires them; request-level hooks are no-ops on
``NULL_OBSERVER``.  Only two things depend on an observer being
attached: the per-iteration hooks, which need a real ``BatchPlan``
built from synced rows, and the decode-stretch fast-forward, which is
skipped because a collapsed run emits no per-iteration events.

The object path is still required for PD-disaggregation decode pools
(not threaded through the engine switch) and any scheduler whose
planning mutates per-request state mid-view (none in-tree).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.request import Request
from repro.engine.batch import BatchPlan, IterationRecord, PrefillAssignment
from repro.engine.interface import EngineView, Scheduler
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.perfmodel.execution import ExecutionModel
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.simcore.simulator import Simulator

#: Below this batch size the per-row scalar loop beats NumPy kernel
#: launch overhead; both paths execute the identical float operations.
_SMALL_BATCH = 32

#: Ledger marker: the holding's (tokens, blocks) live in the row store.
_ROW_BACKED = None

_ABSENT = object()


class _RowStore:
    """Struct-of-arrays decode batch: one column per hot field.

    Row order *is* the decode-queue order — removals shift rows down
    (never swap), because the order drives per-token advance order,
    completion order (and hence the decode-length estimator's
    observation stream) and eviction-victim tie-breaking.  Rows are
    only ever appended, so the batch stamped at iteration start stays
    the prefix ``[0, batch_n)`` while it is in flight.
    """

    _ARRAY_NAMES = (
        "ids", "decoded", "target", "ctx", "kv_tokens", "kv_blocks",
        "first", "last", "max_tbt", "gap_miss", "ddl_miss", "inter",
        "ttft_base", "tbt", "ni_ddl",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        #: Rows of the in-flight batch: set when an iteration is
        #: stamped, decremented when one of its rows is removed (later
        #: rows joined mid-flight and must not emit a token).
        self.batch_n = 0
        #: Row-aligned request objects (synced lazily).
        self.req: list[Request] = []
        #: request_id -> row index.
        self.index: dict[int, int] = {}
        self.ids = np.zeros(capacity, np.int64)
        self.decoded = np.zeros(capacity, np.int64)
        self.target = np.zeros(capacity, np.int64)  # decode_tokens
        self.ctx = np.zeros(capacity, np.int64)  # context_length mirror
        self.kv_tokens = np.zeros(capacity, np.int64)
        self.kv_blocks = np.zeros(capacity, np.int64)
        self.first = np.full(capacity, np.nan)  # first_token_time
        self.last = np.full(capacity, np.nan)  # last_token_time
        self.max_tbt = np.zeros(capacity)
        self.gap_miss = np.zeros(capacity, np.int64)
        self.ddl_miss = np.zeros(capacity, np.int64)
        self.inter = np.zeros(capacity, bool)
        #: arrival + ttft_slo, precomputed scalar so the vectorized
        #: Eq. 2 deadline reproduces the reference's float association.
        self.ttft_base = np.full(capacity, np.nan)
        self.tbt = np.zeros(capacity)
        #: total_deadline (== arrival + ttlt for non-interactive rows).
        self.ni_ddl = np.zeros(capacity)

    def _grow(self) -> None:
        for name in self._ARRAY_NAMES:
            old = getattr(self, name)
            new = np.empty(len(old) * 2, old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def add(self, request: Request, kv_tokens: int, kv_blocks: int) -> int:
        i = self.n
        if i == len(self.ids):
            self._grow()
        self.n = i + 1
        self.req.append(request)
        self.index[request.request_id] = i
        self.ids[i] = request.request_id
        self.decoded[i] = request.decoded
        self.target[i] = request.decode_tokens
        self.ctx[i] = request.context_length
        self.kv_tokens[i] = kv_tokens
        self.kv_blocks[i] = kv_blocks
        ft = request.first_token_time
        self.first[i] = np.nan if ft is None else ft
        lt = request.last_token_time
        self.last[i] = np.nan if lt is None else lt
        self.max_tbt[i] = request.max_tbt
        self.gap_miss[i] = request.tbt_gap_misses
        self.ddl_miss[i] = request.tbt_deadline_misses
        qos = request.qos
        interactive = qos.is_interactive
        self.inter[i] = interactive
        if interactive:
            self.ttft_base[i] = request.arrival_time + qos.ttft_slo
            self.tbt[i] = qos.tbt_slo
        else:
            self.ttft_base[i] = np.nan
            self.tbt[i] = 0.0
        self.ni_ddl[i] = request.total_deadline
        return i

    def remove_at(self, i: int) -> None:
        if i < self.batch_n:
            self.batch_n -= 1
        n = self.n - 1
        del self.index[self.req[i].request_id]
        del self.req[i]
        if i < n:
            for name in self._ARRAY_NAMES:
                arr = getattr(self, name)
                arr[i:n] = arr[i + 1 : n + 1]
            index = self.index
            req = self.req
            for j in range(i, n):
                index[req[j].request_id] = j
        self.n = n

    def clear(self) -> None:
        self.n = 0
        self.batch_n = 0
        self.req.clear()
        self.index.clear()

    def sync_row(self, i: int) -> None:
        """Write a row's array state back to its request object."""
        r = self.req[i]
        r.decoded = int(self.decoded[i])
        f = self.first[i]
        r.first_token_time = None if f != f else float(f)
        last = self.last[i]
        r.last_token_time = None if last != last else float(last)
        r.max_tbt = float(self.max_tbt[i])
        r.tbt_gap_misses = int(self.gap_miss[i])
        r.tbt_deadline_misses = int(self.ddl_miss[i])


class ArrayKVLedger:
    """Block-granular KV accounting over the SoA row store.

    Implements the exact :class:`~repro.engine.kvcache.KVCacheManager`
    interface (same rounding, same error messages, same
    insertion-order ``holders()``), with two structural changes:

    * holdings of decode-batch members are *row-backed* — their
      (tokens, blocks) live in the row store's columns, so the
      per-iteration +1-token growth of the whole batch is one
      vectorized pass (:meth:`bulk_decode_grow`) instead of a
      ceil-division per request;
    * the block-math invariant ``blocks == ceil(tokens / block_size)``
      (maintained by ``grow`` adding exactly ``blocks_needed`` and
      ``release`` being all-or-nothing) reduces the decode +1-token
      need to the boundary test ``tokens % block_size == 0``.
    """

    def __init__(
        self, capacity_tokens: int, block_size: int, rows: _RowStore
    ) -> None:
        if capacity_tokens < 1:
            raise ValueError("capacity_tokens must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = int(block_size)
        self.capacity_blocks = int(capacity_tokens) // self.block_size
        if self.capacity_blocks < 1:
            raise ValueError("capacity smaller than one block")
        self._used_blocks = 0
        self._used_tokens = 0
        self.high_water_blocks = 0
        # request_id -> (tokens, blocks), or _ROW_BACKED for decode
        # rows (values live in the row store).  Insertion order
        # mirrors KVCacheManager._holdings exactly: attach_row is a
        # value reassignment, release+regrow re-inserts at the end.
        self._holdings: dict[int, tuple[int, int] | None] = {}
        self._rows = rows
        self._reclaimer = None

    # --- KVCacheManager interface ---------------------------------------

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - self._used_blocks

    @property
    def capacity_tokens(self) -> int:
        return self.capacity_blocks * self.block_size

    @property
    def used_tokens(self) -> int:
        # Running counter (every mutator maintains it), so the
        # per-iteration telemetry read is O(1) instead of a sweep over
        # holdings and rows.
        return self._used_tokens

    @property
    def reclaimable_blocks(self) -> int:
        """Blocks the registered reclaimer could free on demand (0
        with none; see :attr:`KVCacheManager.reclaimable_blocks`)."""
        if self._reclaimer is None:
            return 0
        return self._reclaimer.reclaimable_blocks()

    def set_reclaimer(self, reclaimer) -> None:
        """Install a prefix cache to raid when allocation would fail;
        ``None`` keeps every path byte-identical (see
        :meth:`KVCacheManager.set_reclaimer`)."""
        self._reclaimer = reclaimer

    @property
    def utilization(self) -> float:
        return self._used_blocks / self.capacity_blocks

    @property
    def high_water_utilization(self) -> float:
        return self.high_water_blocks / self.capacity_blocks

    def _entry(self, request_id: int) -> tuple[int, int]:
        entry = self._holdings.get(request_id, _ABSENT)
        if entry is _ABSENT:
            return (0, 0)
        if entry is _ROW_BACKED:
            rows = self._rows
            i = rows.index[request_id]
            return (int(rows.kv_tokens[i]), int(rows.kv_blocks[i]))
        return entry

    def holding(self, request_id: int) -> int:
        return self._entry(request_id)[0]

    def holders(self) -> list[int]:
        return list(self._holdings)

    def blocks_needed(self, request_id: int, extra_tokens: int) -> int:
        tokens, blocks = self._entry(request_id)
        new_tokens = tokens + extra_tokens
        new_blocks = -(-new_tokens // self.block_size)  # ceil div
        return max(0, new_blocks - blocks)

    def can_grow(self, request_id: int, extra_tokens: int) -> bool:
        need = self.blocks_needed(request_id, extra_tokens)
        if self._reclaimer is not None:
            return need <= self.free_blocks + self._reclaimer.reclaimable_blocks()
        return need <= self.free_blocks

    def grow(self, request_id: int, extra_tokens: int) -> None:
        if extra_tokens < 0:
            raise ValueError("extra_tokens must be non-negative")
        need = self.blocks_needed(request_id, extra_tokens)
        if need > self.free_blocks and self._reclaimer is not None:
            self._reclaimer.reclaim(need - self.free_blocks)
        if need > self.free_blocks:
            raise MemoryError(
                f"KV cache exhausted: need {need} blocks, "
                f"{self.free_blocks} free"
            )
        entry = self._holdings.get(request_id, _ABSENT)
        if entry is _ROW_BACKED:
            rows = self._rows
            i = rows.index[request_id]
            rows.kv_tokens[i] += extra_tokens
            rows.kv_blocks[i] += need
        else:
            tokens, blocks = (0, 0) if entry is _ABSENT else entry
            self._holdings[request_id] = (
                tokens + extra_tokens,
                blocks + need,
            )
        self._used_blocks += need
        self._used_tokens += extra_tokens
        if self._used_blocks > self.high_water_blocks:
            self.high_water_blocks = self._used_blocks

    def shrink(self, request_id: int, tokens: int, blocks: int) -> None:
        """Give back part of a holding (prefix dedupe / ownership moves).

        Only dict-backed holdings shrink: the prefix cache peels whole
        leading prompt blocks at prefill finish, before the holding is
        attached to a decode row.
        """
        entry = self._holdings.get(request_id, _ABSENT)
        if entry is _ABSENT or entry is _ROW_BACKED:
            raise ValueError(
                f"shrink requires a dict-backed holding for request "
                f"{request_id}"
            )
        held_tokens, held_blocks = entry
        if tokens > held_tokens or blocks > held_blocks:
            raise ValueError(
                f"shrink exceeds holding for request {request_id}: "
                f"({tokens} tok, {blocks} blk) from "
                f"({held_tokens} tok, {held_blocks} blk)"
            )
        remaining = (held_tokens - tokens, held_blocks - blocks)
        if remaining == (0, 0):
            self._holdings.pop(request_id)
        else:
            self._holdings[request_id] = remaining
        self._used_blocks -= blocks
        self._used_tokens -= tokens

    def release(self, request_id: int) -> int:
        entry = self._holdings.pop(request_id, _ABSENT)
        if entry is _ABSENT:
            return 0
        if entry is _ROW_BACKED:
            rows = self._rows
            i = rows.index[request_id]
            tokens = int(rows.kv_tokens[i])
            blocks = int(rows.kv_blocks[i])
        else:
            tokens, blocks = entry
        self._used_blocks -= blocks
        self._used_tokens -= tokens
        return blocks

    # --- SoA extensions ---------------------------------------------------

    def attach_row(self, request_id: int) -> tuple[int, int]:
        """Convert a dict holding to row-backed; returns its values.

        A value reassignment (not pop/re-insert) so ``holders()``
        keeps the reference insertion order.  A missing holding
        attaches as (0, 0): prefix dedupe can empty a holding entirely
        (prompt a multiple of the block size, fully shared), after
        which decode growth re-populates it through the row.
        """
        entry = self._holdings.get(request_id, _ABSENT)
        if entry is _ABSENT:
            self._holdings[request_id] = _ROW_BACKED
            return 0, 0
        tokens, blocks = entry
        self._holdings[request_id] = _ROW_BACKED
        return tokens, blocks

    def bulk_decode_grow(self, n: int) -> bool:
        """Grow every decode row by one token in one vectorized pass.

        Only commits when the whole batch fits (total blocks needed <=
        free), where the result is state-identical to the reference's
        sequential per-request loop; returns False (untouched state)
        otherwise so the caller can replay the exact pressure path.
        """
        rows = self._rows
        bs = self.block_size
        if n < 16:
            # Scalar sweep: below ~16 rows the item reads beat NumPy
            # kernel launches.  Same integer math as the vector path.
            kv_tokens = rows.kv_tokens
            total = 0
            for i in range(n):
                if kv_tokens.item(i) % bs == 0:
                    total += 1
            if total > self.free_blocks:
                return False
            kv_blocks = rows.kv_blocks
            for i in range(n):
                t = kv_tokens.item(i)
                kv_tokens[i] = t + 1
                if t % bs == 0:
                    kv_blocks[i] += 1
            self._used_tokens += n
            if total:
                self._used_blocks += total
                if self._used_blocks > self.high_water_blocks:
                    self.high_water_blocks = self._used_blocks
            return True
        kv_tokens = rows.kv_tokens[:n]
        # blocks == ceil(tokens / block_size) invariant: a +1-token
        # grow needs a new block iff the holding is block-aligned.
        boundary = kv_tokens % bs == 0
        total = int(np.count_nonzero(boundary))
        if total > self.free_blocks:
            return False
        kv_tokens += 1
        self._used_tokens += n
        if total:
            rows.kv_blocks[:n][boundary] += 1
            self._used_blocks += total
            if self._used_blocks > self.high_water_blocks:
                self.high_water_blocks = self._used_blocks
        return True

    def stretch_need(self, n: int, k: int) -> int:
        """Blocks needed to grow every decode row by ``k`` tokens.

        Equals the total over the reference's ``k`` sequential
        +1-token grows of the whole batch (ceil-difference per row),
        and is monotone in ``k``: ``stretch_need(n, k) <= free``
        therefore proves every intermediate per-iteration grow of a
        ``k``-iteration decode stretch fits without eviction.
        """
        rows = self._rows
        bs = self.block_size
        t = rows.kv_tokens[:n]
        return int(((t + (k + bs - 1)) // bs - (t + (bs - 1)) // bs).sum())

    def stretch_grow(self, n: int, k: int) -> None:
        """Commit a ``k``-token growth of every decode row.

        Caller must have proven it fits via :meth:`stretch_need`.
        Because a stretch window has no releases, ``used_blocks`` is
        monotone across its iterations, so taking the high-water mark
        once at the end matches the reference's per-iteration updates.
        """
        rows = self._rows
        bs = self.block_size
        t = rows.kv_tokens[:n]
        added = (t + (k + bs - 1)) // bs - (t + (bs - 1)) // bs
        need = int(added.sum())
        t += k
        rows.kv_blocks[:n] += added
        self._used_blocks += need
        self._used_tokens += n * k
        if self._used_blocks > self.high_water_blocks:
            self.high_water_blocks = self._used_blocks


class _LazyRequestList:
    """Decode-request view that only syncs rows when iterated.

    Schedulers that just need ``len(view.decode_requests)`` (QoServe's
    and Medha's chunk sizing, the fixed-chunk budget) never pay the
    object-sync cost.
    """

    __slots__ = ("_engine", "_n")

    def __init__(self, engine: "ArrayReplicaEngine", n: int) -> None:
        self._engine = engine
        self._n = n

    def __len__(self) -> int:
        return self._n

    def _materialize(self) -> list[Request]:
        self._engine._sync_rows()
        return self._engine._rows.req[: self._n]

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, item):
        return self._materialize()[item]


class _RowView(EngineView):
    """The scheduler's view of the array engine.

    ``decode_requests`` syncs rows only when iterated, the in-flight
    prefill set is shared rather than copied, and the decode slack is
    a sweep over the row columns instead of the request objects.
    """

    def __init__(
        self, engine: "ArrayReplicaEngine", now: float, n_live: int
    ) -> None:
        super().__init__(
            now=now,
            decode_requests=_LazyRequestList(engine, n_live),
            kv_cache=engine.kv_cache,
            execution_model=engine.execution_model,
            max_decode_slots=engine.config.max_decode_slots,
            inflight_prefill_ids=engine._inflight_prefills,
            decode_context_total=engine._decode_context_total,
        )
        self._rows = engine._rows

    def decode_slack(self, floor: float) -> float:
        """Row sweep equivalent to
        :func:`repro.engine.interface.decode_slack`.

        Float-exact: interactive slack is ``(ttft_base + decoded*tbt)
        - now`` (the reference's association), non-interactive pace is
        ``(total_deadline - now) / max(1, remaining)`` floored, and
        the min over rows equals the reference's running minimum.
        """
        rows = self._rows
        now = self.now
        n = rows.n
        if n == 0:
            return float("inf")
        if n < _SMALL_BATCH:
            # Scalar sweep: identical float ops, no kernel launches.
            inter = rows.inter
            decoded = rows.decoded
            ttft_base = rows.ttft_base
            tbt = rows.tbt
            target = rows.target
            ni_ddl = rows.ni_ddl
            best = float("inf")
            for i in range(n):
                if inter.item(i):
                    slack = (
                        ttft_base.item(i) + decoded.item(i) * tbt.item(i)
                    ) - now
                    if slack <= 0.0:
                        slack = floor
                else:
                    remaining = target.item(i) - decoded.item(i)
                    if remaining < 1:
                        remaining = 1
                    slack = (ni_ddl.item(i) - now) / remaining
                    if slack < floor:
                        slack = floor
                if slack < best:
                    best = slack
            return best
        interactive_slack = (
            rows.ttft_base[:n] + rows.decoded[:n] * rows.tbt[:n]
        ) - now
        interactive_slack = np.where(
            interactive_slack <= 0.0, floor, interactive_slack
        )
        remaining = np.maximum(rows.target[:n] - rows.decoded[:n], 1)
        pace = (rows.ni_ddl[:n] - now) / remaining
        np.maximum(pace, floor, out=pace)
        slack = np.where(rows.inter[:n], interactive_slack, pace)
        return float(slack.min())


class ArrayReplicaEngine(ReplicaEngine):
    """Drop-in ReplicaEngine with a struct-of-arrays iteration loop."""

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
        self._rows = _RowStore()
        self._rows_dirty = False
        # Decode-stretch telemetry: attempts, attempts rejected by the
        # cheap bound, stretches that fired and iterations collapsed.
        self.stretch_attempts = 0
        self.stretch_rejected_cheap = 0
        self.stretch_hits = 0
        self.stretch_iterations = 0
        super().__init__(
            simulator,
            execution_model,
            scheduler,
            config=config,
            replica_id=replica_id,
            prefill_sink=prefill_sink,
            observer=observer,
        )
        # Replace the object ledger installed by the parent.
        self.kv_cache = ArrayKVLedger(
            capacity_tokens=execution_model.kv_capacity_tokens,
            block_size=self.config.kv_block_size,
            rows=self._rows,
        )
        if self.prefix_cache is not None:
            # Rebind the (still empty) radix tree to the array ledger.
            self._install_prefix_cache()

    # --- decode queue as a view over the rows -----------------------------

    @property
    def decode_queue(self) -> list[Request]:
        self._sync_rows()
        return list(self._rows.req)

    @decode_queue.setter
    def decode_queue(self, value) -> None:
        # The parent __init__ assigns an empty list; the row store is
        # the real container, so only the vacuous assignment is legal.
        if value:
            raise TypeError(
                "ArrayReplicaEngine's decode queue is array-backed; "
                "mutate it through the engine API"
            )

    @property
    def running_requests(self) -> int:
        return self._rows.n + len(self._inflight_prefills)

    def has_work(self) -> bool:
        return self._rows.n > 0 or self.scheduler.has_pending_prefill()

    def _sync_rows(self) -> None:
        if not self._rows_dirty:
            return
        self._rows_dirty = False
        rows = self._rows
        for i in range(rows.n):
            rows.sync_row(i)

    # --- decode-set primitives ---------------------------------------------

    def _attach_decode(self, request: Request, context: int) -> None:
        tokens, blocks = self.kv_cache.attach_row(request.request_id)
        self._rows.add(request, tokens, blocks)
        self._decode_context_total += context

    def _detach_decode(self, request: Request) -> int | None:
        rows = self._rows
        i = rows.index.get(request.request_id)
        if i is None:
            return None
        rows.sync_row(i)
        context = int(rows.ctx[i])
        # The row-backed holding must be released while its row lives.
        self.kv_cache.release(request.request_id)
        rows.remove_at(i)
        self._decode_context_total -= context
        return context

    def _clear_decodes(self) -> None:
        self._rows.clear()
        self._decode_context_total = 0

    # --- iteration loop ---------------------------------------------------

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
            and not self.config.record_iterations
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
            self._plan_qoserve_fast(now, n_live)
            if self.scheduler.has_pending_prefill()
            else []
        )
        if not assignments and n_live == 0:
            if self._recover_prefill_stall():
                self._start_iteration()
            return
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
            exec_time *= self.slowdown_factor
        self._busy = True
        self.busy_time += exec_time
        if prefill_tokens > 0:
            self.chunk_tokens_hist[prefill_tokens] += 1
        plan = None
        if observed:
            self._sync_rows()
            plan = BatchPlan(
                prefill_assignments=assignments,
                decode_requests=rows.req[:n_live],
            )
            self.observer.on_iteration_start(
                self.replica_id, now, exec_time, plan, self.iterations_run,
                queue_depth=self.scheduler.queue_length(),
            )
        rows.batch_n = n_live
        self._inflight_event = self.simulator.schedule_after(
            exec_time,
            lambda: self._finish_iteration(
                assignments, n_live, decode_context_total,
                prefill_tokens, exec_time, now, plan,
            ),
        )

    def _finish_iteration(
        self,
        assignments: list[PrefillAssignment],
        num_decodes: int,
        decode_context_total: int,
        prefill_tokens: int,
        exec_time: float,
        start_time: float,
        plan: BatchPlan | None,
    ) -> None:
        now = self.simulator.now
        self._inflight_event = None
        self.iterations_run += 1
        if self.config.record_iterations:
            self.iteration_records.append(
                IterationRecord(
                    start_time=start_time,
                    exec_time=exec_time,
                    prefill_tokens=prefill_tokens,
                    num_decodes=num_decodes,
                    decode_context_total=decode_context_total,
                    kv_utilization=self.kv_cache.utilization,
                )
            )
        m = self._rows.batch_n
        if m:
            if self.token_hook is not None:
                self._advance_hooked(now, m)
            elif m < _SMALL_BATCH:
                self._advance_scalar(now, m)
            else:
                self._advance_vector(now, m)
        if assignments:
            self._credit_prefills(assignments, now)
        if plan is not None:
            self.observer.on_iteration_end(
                self.replica_id, now, start_time, exec_time, plan,
                self.kv_cache,
            )
        self._busy = False
        self._maybe_start()

    def _decode_stretch(self, now: float, first_time: float) -> float:
        """Collapse a run of pure-decode iterations into one advance.

        Preconditions (checked by the caller): no observer, no token
        hook, no iteration recording, no pending or in-flight prefill
        work.  ``first_time`` is the unscaled batch time of the next
        iteration, the decode-only batch of the current rows.  Finds
        the longest run of ``k >= 2`` future iterations that provably
        (a) complete no request, (b) fit their KV growth without
        eviction, and (c) finish strictly before the next simulator
        event and within the simulator's run bound — then applies the
        ``k`` per-token advances as closed-form vector updates and
        fast-forwards the clock to the last finish time.  Falls back
        to the per-iteration path (returning ``now`` unchanged)
        whenever any bound trims the run below 2.

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
        matching the simulator's sequential clock; per-iteration gaps
        are differences of those cumulative times (level-synchronous,
        so shared by every row); deadline misses evaluate the exact
        Eq. 2 expression ``ttft_base + (decoded + j) * tbt`` per
        token.  The one accepted divergence from the reference is
        ``Simulator.events_processed``/``max_events`` accounting: the
        ``k`` collapsed finish events are never enqueued (the safety
        valve sees fewer events; no other consumer exists).
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
        k_cap = int((rows.target[:n] - rows.decoded[:n]).min()) - 1
        if k_cap < 2:
            return now
        # (b) largest run whose cumulative block demand fits; the
        # demand is monotone in k, so bisect on it.
        ledger = self.kv_cache
        free = ledger.free_blocks
        if ledger.stretch_need(n, k_cap) > free:
            lo, hi = 0, k_cap  # invariant: need(lo) <= free < need(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ledger.stretch_need(n, mid) <= free:
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
            # Strictly before: at equal timestamps the reference fires
            # the pending event (lower heap seq) before our finish.
            k = min(k, int(np.searchsorted(c[1:], next_event, side="left")))
        if bound is not None:
            k = min(k, int(np.searchsorted(c[1:], bound, side="right")))
        if k < 2:
            return now

        self.stretch_hits += 1
        self.stretch_iterations += k
        times = c[1 : k + 1]
        self._rows_dirty = True
        self.iterations_run += k
        self.busy_time = float(
            np.add.accumulate(
                np.concatenate(((self.busy_time,), exec_times[:k]))
            )[-1]
        )
        d0 = rows.decoded[:n].copy()
        rows.decoded[:n] = d0 + k
        t0 = times[0]
        fresh = d0 == 0
        rows.first[:n][fresh] = t0
        # Gaps: every row shares the k-1 in-window gaps (level-
        # synchronous batch); each row adds one private gap across the
        # window boundary (its previous last-token time), except fresh
        # rows whose first token opens the window.
        shared = times[1:] - times[:-1]
        shared_max = float(shared.max())
        cross = np.where(fresh, -np.inf, t0 - rows.last[:n])
        cand = np.maximum(shared_max, cross)
        np.maximum(rows.max_tbt[:n], cand, out=rows.max_tbt[:n])
        inter = rows.inter[:n]
        inter_rows = np.flatnonzero(inter)
        if inter_rows.size:
            tbt = rows.tbt[:n]
            # Strict gap > tbt count via sorted shared gaps.
            sg = np.sort(shared)
            over = (k - 1) - np.searchsorted(sg, tbt, side="right")
            over = over + (cross > tbt)
            rows.gap_miss[inter_rows] += over[inter_rows]
            # Eq. 2 deadline misses: token j (0-based) of the stretch
            # lands at times[j] against deadline ttft_base +
            # (decoded + j) * tbt — the reference's exact expression.
            base = rows.ttft_base[inter_rows][:, None]
            steps = d0[inter_rows][:, None] + np.arange(k)[None, :]
            deadlines = base + steps * tbt[inter_rows][:, None]
            rows.ddl_miss[inter_rows] += (
                times[None, :] > deadlines
            ).sum(axis=1)
        rows.last[:n] = times[-1]
        rows.ctx[:n] += k
        ledger.stretch_grow(n, k)
        self._decode_context_total += n * k
        end = float(c[k])
        self.simulator.fast_forward(end)
        return end

    # --- decode advance kernels -------------------------------------------
    #
    # Each kernel advances the in-flight batch, rows [0, m).  The two
    # whole-batch kernels apply completions after the sweep: their side
    # effects touch no state the remaining advances read, so the
    # interleaving is equivalent to the reference's per-row loop.

    def _advance_scalar(self, now: float, m: int) -> None:
        """Per-row advance mirroring ``Request.record_output_token``.

        For small batches, where the loop beats NumPy kernel launches;
        same float operations as :meth:`_advance_vector`.
        """
        rows = self._rows
        self._rows_dirty = True
        decoded = rows.decoded
        first = rows.first
        last = rows.last
        max_tbt = rows.max_tbt
        gap_miss = rows.gap_miss
        ddl_miss = rows.ddl_miss
        inter = rows.inter
        ttft_base = rows.ttft_base
        tbt = rows.tbt
        ctx = rows.ctx
        target = rows.target
        finished_rows = None
        for i in range(m):
            d0 = decoded.item(i)
            decoded[i] = d0 + 1
            it = inter.item(i)
            if d0 == 0:
                first[i] = now
            else:
                gap = now - last.item(i)
                if gap > max_tbt.item(i):
                    max_tbt[i] = gap
                if it and gap > tbt.item(i):
                    gap_miss[i] += 1
            if it and now > ttft_base.item(i) + d0 * tbt.item(i):
                ddl_miss[i] += 1
            last[i] = now
            ctx[i] += 1
            if d0 + 1 >= target.item(i):
                if finished_rows is None:
                    finished_rows = []
                finished_rows.append(i)
        self._decode_context_total += m
        if finished_rows is not None:
            self._complete_rows(finished_rows, now)

    def _advance_vector(self, now: float, m: int) -> None:
        """Level-synchronous advance in a handful of slice operations."""
        rows = self._rows
        self._rows_dirty = True
        d0 = rows.decoded[:m].copy()
        rows.decoded[:m] = d0 + 1
        fresh = d0 == 0
        rows.first[:m][fresh] = now
        gap_rows = np.flatnonzero(~fresh)
        if gap_rows.size:
            gaps = now - rows.last[gap_rows]
            worse = gaps > rows.max_tbt[gap_rows]
            rows.max_tbt[gap_rows[worse]] = gaps[worse]
            missed = rows.inter[gap_rows] & (gaps > rows.tbt[gap_rows])
            rows.gap_miss[gap_rows[missed]] += 1
        deadline = rows.ttft_base[:m] + d0 * rows.tbt[:m]
        late = rows.inter[:m] & (now > deadline)
        rows.ddl_miss[:m][late] += 1
        rows.last[:m] = now
        rows.ctx[:m] += 1
        self._decode_context_total += m
        done = np.flatnonzero(rows.decoded[:m] >= rows.target[:m])
        if done.size:
            self._complete_rows(done.tolist(), now)

    def _complete_rows(self, finished_rows: list[int], now: float) -> None:
        """Complete the rows a sweep finished, in row order.

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

    def _advance_hooked(self, now: float, m: int) -> None:
        """Per-row advance firing the token hook.

        Keeps the reference's interleaving: each row's hook sees its
        synced object, and a finished row completes before the next
        row advances.  Iterates a copy of the batch because inline
        completions shift the rows.
        """
        rows = self._rows
        self._rows_dirty = True
        hook = self.token_hook
        index = rows.index
        decoded = rows.decoded
        first = rows.first
        last = rows.last
        max_tbt = rows.max_tbt
        gap_miss = rows.gap_miss
        ddl_miss = rows.ddl_miss
        inter = rows.inter
        ttft_base = rows.ttft_base
        tbt = rows.tbt
        ctx = rows.ctx
        target = rows.target
        for request in rows.req[:m]:
            i = index.get(request.request_id)
            if i is None:
                continue  # removed by an earlier row's completion
            d0 = int(decoded[i])
            d1 = d0 + 1
            decoded[i] = d1
            if d0 == 0:
                first[i] = now
            else:
                gap = now - float(last[i])
                if gap > float(max_tbt[i]):
                    max_tbt[i] = gap
                if inter[i] and gap > float(tbt[i]):
                    gap_miss[i] += 1
            if inter[i] and now > float(ttft_base[i]) + d0 * float(tbt[i]):
                ddl_miss[i] += 1
            last[i] = now
            finished = d1 >= int(target[i])
            self._decode_context_total += 1
            ctx[i] += 1
            rows.sync_row(i)
            if finished:
                request.completion_time = now
            hook(request, now)
            if finished:
                self._complete(request, now)

    # --- KV reservation / eviction ----------------------------------------

    def _reserve_decode_growth(self) -> None:
        rows = self._rows
        n = rows.n
        if n == 0:
            return
        if self.kv_cache.bulk_decode_grow(n):
            return
        # Pressure: replay the reference algorithm exactly, including
        # its snapshot iteration and victim re-selection.  It walks
        # ``rows.req`` directly because ``self.decode_queue`` would
        # sync every row first, and with a radix reclaimer attached
        # this path can run on most iterations.
        for request in list(rows.req):
            request_id = request.request_id
            if self.kv_cache.can_grow(request_id, 1):
                self.kv_cache.grow(request_id, 1)
                continue
            victim = self._pick_eviction_victim(exclude=request)
            while victim is not None and not self.kv_cache.can_grow(
                request_id, 1
            ):
                self._evict_decode(victim)
                victim = self._pick_eviction_victim(exclude=request)
            if self.kv_cache.can_grow(request_id, 1):
                self.kv_cache.grow(request_id, 1)
            else:
                self._evict_decode(request)

    def _pick_eviction_victim(self, exclude: Request) -> Request | None:
        rows = self._rows
        n = rows.n
        if n == 0:
            return None
        deadline = np.where(
            rows.inter[:n],
            rows.ttft_base[:n] + rows.decoded[:n] * rows.tbt[:n],
            rows.ni_ddl[:n],
        )
        excluded = rows.index.get(exclude.request_id)
        if excluded is not None:
            if n == 1:
                return None
            deadline[excluded] = -np.inf
        # argmax returns the first maximum, matching max()'s
        # tie-breaking over the queue order.
        return rows.req[int(np.argmax(deadline))]

    # --- driving ----------------------------------------------------------

    def run_until_drained(self, max_events: int | None = None) -> float:
        result = super().run_until_drained(max_events=max_events)
        self._sync_rows()
        return result

    def advance(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        result = super().advance(until=until, max_events=max_events)
        self._sync_rows()
        return result

    # --- planning ---------------------------------------------------------

    def _plan_qoserve_fast(
        self, now: float, n_live: int
    ) -> list[PrefillAssignment]:
        """Plan the iteration's prefill chunks: any scheduler, one view.

        The scheduler's own ``plan_prefill`` runs on a row-backed
        :class:`_RowView`, so QoServe's chunk sizing reads the decode
        slack from the row columns.  The caller skips this when no
        prefill is pending (every in-tree scheduler plans nothing
        then, before touching any state).  The name is fixed by the
        span table of ``simbench/spans.py``, which patches it.
        """
        return self.scheduler.plan_prefill(_RowView(self, now, n_live))
