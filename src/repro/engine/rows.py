"""The decode batch as struct-of-arrays rows, and the paged KV ledger.

The simulator does not move tensors, but KV memory still gates
scheduling: a replica cannot admit more prefill work than its cache can
hold, and decode batches grow their footprint by one token per request
per iteration.  :class:`ArrayKVLedger` tracks block-granular usage
exactly the way a paged allocator (vLLM's PagedAttention) would,
including the block-rounding waste.

:class:`_RowStore` is the engine's decode batch: one column per request
field the iteration loop touches.  The ledger keeps the holdings of
decode rows in the same columns, so the per-iteration +1-token growth
of the whole batch is one pass over two arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.prefix import PrefixReclaimer

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
        #: Eq. 2 deadline reproduces the float association of
        #: ``Request.token_deadline``.
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
    """Block-granular KV-cache bookkeeping for one replica.

    Allocations round up to ``block_size`` and every holding keeps
    ``blocks == ceil(tokens / block_size)`` (``grow`` adds exactly
    ``blocks_needed`` and ``release`` is all-or-nothing).  Holdings of
    decode-batch members are *row-backed*: their (tokens, blocks) live
    in the row store's columns, so the per-iteration +1-token growth
    of the whole batch is one pass (:meth:`bulk_decode_grow`), and the
    invariant reduces each row's need to the boundary test ``tokens %
    block_size == 0``.  Every other holding lives in a dict.
    """

    def __init__(
        self,
        capacity_tokens: int,
        block_size: int = 16,
        rows: _RowStore | None = None,
    ) -> None:
        """Args:
        capacity_tokens: Cache capacity in tokens (from
            :attr:`ExecutionModel.kv_capacity_tokens`).
        block_size: Tokens per page; allocations round up to this.
        rows: The engine's decode rows; a standalone ledger (no
            engine) gets an empty store of its own.
        """
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
        #: Peak block occupancy over the ledger's lifetime — the
        #: high-water mark observability and capacity planning read.
        self.high_water_blocks = 0
        # request_id -> (tokens, blocks), or _ROW_BACKED for decode
        # rows (values live in the row store).  Insertion order is
        # first-grow order: attach_row is a value reassignment,
        # release+regrow re-inserts at the end.
        self._holdings: dict[int, tuple[int, int] | None] = {}
        self._rows = rows if rows is not None else _RowStore()
        # Optional prefix-cache hook consulted when allocation would
        # otherwise fail; None keeps every code path byte-identical to
        # a reclaimer-free ledger.
        self._reclaimer: PrefixReclaimer | None = None

    # --- ledger interface (repro.engine.interface.KVLedger) ---------------

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - self._used_blocks

    @property
    def capacity_tokens(self) -> int:
        """Usable token capacity (whole blocks only)."""
        return self.capacity_blocks * self.block_size

    @property
    def used_tokens(self) -> int:
        """Tokens actually stored (excludes block-rounding waste).

        A running counter every mutator maintains, so per-iteration
        telemetry stays O(1) instead of sweeping holdings and rows.
        """
        return self._used_tokens

    @property
    def reclaimable_blocks(self) -> int:
        """Blocks the registered reclaimer could free on demand.

        Planners add these to :attr:`free_blocks` when budgeting:
        unreferenced prefix-cache blocks are resident but spendable,
        and :meth:`grow` evicts them before failing.  0 with no
        reclaimer, keeping reuse-off math untouched.
        """
        if self._reclaimer is None:
            return 0
        return self._reclaimer.reclaimable_blocks()

    def set_reclaimer(self, reclaimer: PrefixReclaimer | None) -> None:
        """Install a prefix cache to raid when allocation would fail.

        With a reclaimer installed, :meth:`can_grow` counts its
        evictable blocks as available and :meth:`grow` evicts from it
        before declaring the cache exhausted.  ``None`` (the default)
        leaves every path byte-identical to the reclaimer-free ledger.
        """
        self._reclaimer = reclaimer

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use."""
        return self._used_blocks / self.capacity_blocks

    @property
    def high_water_utilization(self) -> float:
        """Peak fraction of blocks ever in use."""
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
        """Tokens currently cached for ``request_id`` (0 if none)."""
        return self._entry(request_id)[0]

    def holders(self) -> list[int]:
        """Request ids with a live holding, in insertion order."""
        return list(self._holdings)

    def blocks_needed(self, request_id: int, extra_tokens: int) -> int:
        """Additional blocks required to grow a holding."""
        tokens, blocks = self._entry(request_id)
        new_tokens = tokens + extra_tokens
        new_blocks = -(-new_tokens // self.block_size)  # ceil div
        return max(0, new_blocks - blocks)

    def can_grow(self, request_id: int, extra_tokens: int) -> bool:
        """Whether ``extra_tokens`` more tokens fit for this request."""
        need = self.blocks_needed(request_id, extra_tokens)
        if self._reclaimer is not None:
            return need <= self.free_blocks + self._reclaimer.reclaimable_blocks()
        return need <= self.free_blocks

    def grow(self, request_id: int, extra_tokens: int) -> None:
        """Extend a request's holding by ``extra_tokens`` tokens.

        Raises:
            MemoryError: If the cache lacks free blocks.  Callers are
                expected to check :meth:`can_grow` first; the raise is
                the invariant guard, not a control-flow mechanism.
        """
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
        """Free a request's entire holding; returns blocks released."""
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

    # --- decode rows -------------------------------------------------------

    def attach_row(self, request_id: int) -> tuple[int, int]:
        """Convert a dict holding to row-backed; returns its values.

        A value reassignment (not pop/re-insert) so ``holders()``
        keeps first-grow order.  A missing holding
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
        free), where the result is state-identical to growing the rows
        one by one with :meth:`grow`; returns False (untouched state)
        otherwise so the caller can run the per-row pressure path.
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

        Equals the total over ``k`` sequential
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
        once at the end matches per-iteration updates.
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

