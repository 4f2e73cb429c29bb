"""The decode batch as struct-of-arrays rows, and the paged KV ledger.

The simulator does not move tensors, but KV memory still gates
scheduling: a replica cannot admit more prefill work than its cache can
hold, and decode batches grow their footprint by one token per request
per iteration.  :class:`ArrayKVLedger` tracks block-granular usage
exactly the way a paged allocator (vLLM's PagedAttention) would,
including the block-rounding waste.

:class:`_RowStore` is the engine's decode batch.  Every running decode
joins every iteration (Sarathi-style iteration-level batching), so a
row's per-token state follows from two per-replica counters and an
iteration log instead of being advanced row by row:

* ``iterations`` (``K``) counts finished iterations and ``reserved``
  (``G``) batch-wide KV reservations.  A row stores offsets:
  ``decoded = dec_off + K``, ``ctx = ctx_off + K`` and ``kv_tokens =
  kv_off + G``, with ``kv_blocks = ceil(kv_tokens / block_size)``.
* ``log`` holds one finish time per finished iteration; a row's token
  timestamps, TBT gaps and deadline misses are folded over it when
  read (:meth:`_RowStore.sync_row`), and every row is folded when the
  fixed-size log fills, so it never grows.
* A row finishes at iteration ``target - dec_off``, known at
  admission, so it waits in that iteration's completion bucket.
* A row needs a new KV block when ``kv_tokens % block_size == 0``; its
  phase ``kv_off % block_size`` only moves on a per-row grow, so
  ``phase_count`` makes a batch-wide reservation one lookup.

An iteration thus costs the same for any batch size, apart from the
fold of every row once per ``_LOG_SIZE`` iterations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.prefix import RadixPrefixCache

#: Ledger marker: the holding's (tokens, blocks) live in the row store.
_ROW_BACKED = None

_ABSENT = object()

#: Folds over at most this many log entries run as a scalar loop (a
#: token hook folds one token per row per iteration); longer slices
#: take NumPy passes with the same float operations.  The two forms
#: cost the same at 64 entries (about 8.4 us on a 2-CPU x86 host; the
#: scalar loop takes 1.3 us for one entry, the NumPy passes 11.6 us
#: for 1,024).
_FOLD_SCALAR = 64

#: Length of the iteration-log buffer.  When it is full every live row
#: is folded up to date and the log emptied.
_LOG_SIZE = 1024


class _RowStore:
    """Struct-of-arrays decode batch over an iteration log.

    Row order *is* the decode-queue order — removals shift rows down
    (never swap), because the order drives completion order (and hence
    the decode-length estimator's observation stream), token-hook
    order and eviction-victim tie-breaking.  Rows are only ever
    appended, so the batch stamped at iteration start stays the prefix
    ``[0, batch_n)`` while it is in flight; rows behind it joined
    mid-flight and start with the next iteration.

    A row's ``first``, ``last``, ``max_tbt``, ``gap_miss`` and
    ``ddl_miss`` hold its state as of iteration ``fold``.
    """

    _ARRAY_NAMES = (
        "ids", "dec_off", "target", "ctx_off", "kv_off", "fold",
        "first", "last", "max_tbt", "gap_miss", "ddl_miss", "inter",
        "ttft_base", "tbt", "ni_ddl",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        #: Rows of the in-flight batch: set when an iteration is
        #: stamped, decremented when one of its rows is removed.
        self.batch_n = 0
        #: Row-aligned request objects (synced lazily).
        self.req: list[Request] = []
        #: request_id -> row index.
        self.index: dict[int, int] = {}
        #: Finished iterations (``K``) and batch-wide KV reservations
        #: (``G``); both only grow.
        self.iterations = 0
        self.reserved = 0
        #: ``log[j]`` is the finish time of iteration ``log_base + j +
        #: 1`` for ``j < log_len``, so ``log_base + log_len ==
        #: iterations``.
        self.log = np.empty(_LOG_SIZE)
        self.log_len = 0
        self.log_base = 0
        #: Iteration -> ids of the live rows finishing in it, in row
        #: order; a row's iteration is ``target - dec_off``.
        self.done_at: dict[int, list[int]] = {}
        #: Sum of ``ctx_off`` over the live rows.
        self.ctx_off_total = 0
        #: Set by the owning ledger (:meth:`set_block_size`).
        self.block_size = 1
        #: ``phase_count[p]``: live rows with ``kv_off % block_size ==
        #: p``.
        self.phase_count = [0]
        self.ids = np.zeros(capacity, np.int64)
        self.dec_off = np.zeros(capacity, np.int64)
        self.target = np.zeros(capacity, np.int64)  # decode_tokens
        self.ctx_off = np.zeros(capacity, np.int64)
        self.kv_off = np.zeros(capacity, np.int64)
        self.fold = np.zeros(capacity, np.int64)
        self.first = np.full(capacity, np.nan)  # first_token_time
        self.last = np.full(capacity, np.nan)  # last_token_time
        self.max_tbt = np.zeros(capacity)
        self.gap_miss = np.zeros(capacity, np.int64)
        self.ddl_miss = np.zeros(capacity, np.int64)
        self.inter = np.zeros(capacity, bool)
        #: arrival + ttft_slo, precomputed scalar so the Eq. 2 deadline
        #: ``ttft_base + d * tbt`` reproduces the float association of
        #: ``Request.token_deadline``.
        self.ttft_base = np.full(capacity, np.nan)
        self.tbt = np.zeros(capacity)
        #: total_deadline (== arrival + ttlt for non-interactive rows).
        self.ni_ddl = np.zeros(capacity)

    def set_block_size(self, block_size: int) -> None:
        """Key the phase counts by the owning ledger's block size."""
        if self.n:
            raise ValueError("block size of a non-empty row store")
        self.block_size = block_size
        self.phase_count = [0] * block_size

    # --- derived columns (whole capacity; slice ``[:n]``) ------------------

    @property
    def decoded(self) -> np.ndarray:
        return self.dec_off + self.iterations

    @property
    def ctx(self) -> np.ndarray:
        return self.ctx_off + self.iterations

    @property
    def kv_tokens(self) -> np.ndarray:
        return self.kv_off + self.reserved

    @property
    def kv_blocks(self) -> np.ndarray:
        return -(-self.kv_tokens // self.block_size)

    @property
    def context_total(self) -> int:
        """Summed context length of the live rows."""
        return self.ctx_off_total + self.n * self.iterations

    def context(self, i: int) -> int:
        return self.ctx_off.item(i) + self.iterations

    # --- membership ---------------------------------------------------------

    def _grow(self) -> None:
        for name in self._ARRAY_NAMES:
            old = getattr(self, name)
            new = np.empty(len(old) * 2, old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def add(self, request: Request, kv_tokens: int, kv_blocks: int) -> int:
        """Append a decoding request holding ``kv_tokens`` KV tokens.

        Offsets are taken against the current counters.  A row added
        while an iteration is in flight lands behind ``batch_n``, and
        :meth:`finish_iteration` shifts it to start one iteration later.
        """
        bs = self.block_size
        if kv_blocks != -(-kv_tokens // bs):
            raise ValueError(
                f"request {request.request_id}: {kv_blocks} blocks for "
                f"{kv_tokens} tokens at block size {bs}"
            )
        i = self.n
        if i == len(self.ids):
            self._grow()
        self.n = i + 1
        self.req.append(request)
        request_id = request.request_id
        self.index[request_id] = i
        self.ids[i] = request_id
        k = self.iterations
        decoded = request.decoded
        target = request.decode_tokens
        self.dec_off[i] = decoded - k
        self.target[i] = target
        ctx_off = request.context_length - k
        self.ctx_off[i] = ctx_off
        self.ctx_off_total += ctx_off
        kv_off = kv_tokens - self.reserved
        self.kv_off[i] = kv_off
        self.phase_count[kv_off % bs] += 1
        self.fold[i] = k
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
        self.done_at.setdefault(k + target - decoded, []).append(request_id)
        return i

    def _unexpect(self, request_id: int, iteration: int) -> None:
        bucket = self.done_at.get(iteration)
        if bucket is None:
            return  # popped: the row completes in this iteration
        bucket.remove(request_id)
        if not bucket:
            del self.done_at[iteration]

    def remove_at(self, i: int) -> None:
        if i < self.batch_n:
            self.batch_n -= 1
        n = self.n - 1
        request_id = self.req[i].request_id
        self._unexpect(request_id, self.target.item(i) - self.dec_off.item(i))
        self.phase_count[self.kv_off.item(i) % self.block_size] -= 1
        self.ctx_off_total -= self.ctx_off.item(i)
        del self.index[request_id]
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
        if n == 0:
            self._reset_log()

    def clear(self) -> None:
        self.n = 0
        self.batch_n = 0
        self.req.clear()
        self.index.clear()
        self.ctx_off_total = 0
        self.phase_count = [0] * self.block_size
        self.done_at.clear()
        self._reset_log()

    def grow_row(self, i: int, extra_tokens: int) -> None:
        """Grow one row's KV holding (the per-row pressure path)."""
        old = self.kv_off.item(i)
        new = old + extra_tokens
        self.kv_off[i] = new
        bs = self.block_size
        self.phase_count[old % bs] -= 1
        self.phase_count[new % bs] += 1

    # --- the iteration log --------------------------------------------------

    def finish_iteration(self, now: float) -> list[int]:
        """Log an iteration finishing at ``now``.

        Rows ``[0, batch_n)`` emit a token; rows behind them joined
        mid-flight and are shifted to start with the next iteration.
        Returns the rows that reach their target, in row order.
        """
        n = self.n
        if n == 0:
            self.iterations += 1
            self.log_base = self.iterations
            return []
        j = self.log_len
        if j == len(self.log):
            self._flush()
            j = 0
        self.iterations = k = self.iterations + 1
        self.log[j] = now
        self.log_len = j + 1
        if self.batch_n < n:
            self._defer_joiners()
        ids = self.done_at.pop(k, None)
        if ids is None:
            return []
        index = self.index
        return [index[request_id] for request_id in ids]

    def _defer_joiners(self) -> None:
        for i in range(self.batch_n, self.n):
            request_id = self.ids.item(i)
            due = self.target.item(i) - self.dec_off.item(i)
            self._unexpect(request_id, due)
            self.done_at.setdefault(due + 1, []).append(request_id)
            self.dec_off[i] -= 1
            self.ctx_off[i] -= 1
            self.fold[i] += 1
        self.ctx_off_total -= self.n - self.batch_n

    def log_window(self, times: np.ndarray) -> None:
        """Log ``len(times)`` iterations every row decodes in (a decode
        stretch: the caller proved none of them completes a row)."""
        m = len(times)
        done = 0
        while done < m:
            j = self.log_len
            if j == len(self.log):
                self._flush()
                j = 0
            step = min(m - done, len(self.log) - j)
            self.log[j : j + step] = times[done : done + step]
            self.log_len = j + step
            self.iterations += step
            done += step

    def _flush(self) -> None:
        """Fold every live row up to date and empty the full log, so it
        never holds more than its fixed buffer."""
        k = self.iterations
        fold = self.fold
        for i in range(self.n):
            if fold.item(i) < k:
                self._fold(i, k)
        self._reset_log()

    def _reset_log(self) -> None:
        self.log_len = 0
        self.log_base = self.iterations

    # --- reads --------------------------------------------------------------

    def sync_row(self, i: int) -> None:
        """Fold a row's stats up to date and write them back to its
        request object."""
        k = self.iterations
        if self.fold.item(i) < k:
            self._fold(i, k)
        r = self.req[i]
        r.decoded = self.dec_off.item(i) + k
        f = self.first.item(i)
        r.first_token_time = None if f != f else f
        last = self.last.item(i)
        r.last_token_time = None if last != last else last
        r.max_tbt = self.max_tbt.item(i)
        r.tbt_gap_misses = self.gap_miss.item(i)
        r.tbt_deadline_misses = self.ddl_miss.item(i)

    def _fold(self, i: int, k: int) -> None:
        """Account row ``i``'s tokens of iterations ``(fold, k]``.

        Mirrors ``Request.record_output_token`` token by token: a gap
        is ``t - last`` (successive differences over the slice), and
        the token emitted with ``d`` tokens already decoded misses its
        Eq. 2 deadline when ``t > ttft_base + d * tbt``.
        """
        f = self.fold.item(i)
        base = self.log_base
        times = self.log[f - base : k - base]
        d = self.dec_off.item(i) + f
        last = self.last.item(i)
        max_tbt = self.max_tbt.item(i)
        inter = self.inter.item(i)
        tbt = self.tbt.item(i)
        ttft_base = self.ttft_base.item(i)
        gap_miss = ddl_miss = 0
        if len(times) <= _FOLD_SCALAR:
            for now in times.tolist():
                if d == 0:
                    self.first[i] = now
                else:
                    gap = now - last
                    if gap > max_tbt:
                        max_tbt = gap
                    if inter and gap > tbt:
                        gap_miss += 1
                if inter and now > ttft_base + d * tbt:
                    ddl_miss += 1
                last = now
                d += 1
        else:
            head = times.item(0)
            if d == 0:
                self.first[i] = head
            else:
                gap = head - last
                if gap > max_tbt:
                    max_tbt = gap
                if inter and gap > tbt:
                    gap_miss = 1
            gaps = times[1:] - times[:-1]
            if gaps.size:
                peak = gaps.max().item()
                if peak > max_tbt:
                    max_tbt = peak
            if inter:
                gap_miss += int(np.count_nonzero(gaps > tbt))
                deadlines = np.arange(d, d + len(times)) * tbt
                deadlines += ttft_base
                ddl_miss = int(np.count_nonzero(times > deadlines))
            last = times.item(-1)
        self.last[i] = last
        self.max_tbt[i] = max_tbt
        if gap_miss:
            self.gap_miss[i] += gap_miss
        if ddl_miss:
            self.ddl_miss[i] += ddl_miss
        self.fold[i] = k


class ArrayKVLedger:
    """Block-granular KV-cache bookkeeping for one replica.

    Allocations round up to ``block_size`` and every holding keeps
    ``blocks == ceil(tokens / block_size)`` (``grow`` adds exactly
    ``blocks_needed`` and ``release`` is all-or-nothing).  Holdings of
    decode-batch members are *row-backed*: their tokens are the row
    store's ``kv_off + reserved`` and their blocks follow from the
    invariant, which reduces each row's need for a +1-token grow to
    the boundary test ``tokens % block_size == 0``.  The per-iteration
    growth of the whole batch is therefore one phase-count lookup
    (:meth:`bulk_decode_grow`).  Every other holding lives in a dict.
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
        self._rows.set_block_size(self.block_size)
        # Optional prefix-cache hook consulted when allocation would
        # otherwise fail; None keeps every code path byte-identical to
        # a reclaimer-free ledger.
        self._reclaimer: RadixPrefixCache | None = None

    # --- ledger interface -------------------------------------------------

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

    def set_reclaimer(self, reclaimer: RadixPrefixCache | None) -> None:
        """Install a prefix cache to raid when allocation would fail.

        With a reclaimer installed, :meth:`can_grow` counts its
        evictable blocks as available, and :meth:`grow`,
        :meth:`bulk_decode_grow` and :meth:`stretch_grow` evict from it
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
            return self._row_entry(request_id)
        return entry

    def _row_entry(self, request_id: int) -> tuple[int, int]:
        rows = self._rows
        tokens = rows.kv_off.item(rows.index[request_id]) + rows.reserved
        return tokens, -(-tokens // self.block_size)

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
            rows.grow_row(rows.index[request_id], extra_tokens)
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
            tokens, blocks = self._row_entry(request_id)
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

    def _reclaim_shortfall(self, shortfall: int) -> bool:
        """Free ``shortfall`` blocks from the prefix cache in one call.

        False (nothing evicted) when there is no reclaimer or it holds
        fewer unreferenced blocks than the shortfall: then a decode
        must be evicted, which only the per-row path decides.
        """
        reclaimer = self._reclaimer
        if reclaimer is None or shortfall > reclaimer.reclaimable_blocks():
            return False
        if reclaimer.reclaim(shortfall) < shortfall:
            raise MemoryError(
                f"prefix cache freed fewer than the {shortfall} "
                "reclaimable blocks it reported"
            )
        return True

    def bulk_decode_grow(self) -> bool:
        """Grow every decode row by one token: one batch-wide
        reservation.

        A row needs a new block when its holding is block-aligned,
        ``(kv_off + G) % block_size == 0``, so the batch's need is one
        phase count, ``phase_count[-G % block_size]``, whatever the
        batch size.
        When the batch needs more blocks than are free, the shortfall
        is reclaimed from the prefix cache in one call first.  That
        equals the per-row path's one-block reclaims: nothing touches
        the tree between them, so they pop the same LRU leaves in the
        same order, and the ledger ends in the same state.  Returns
        False (untouched state) only when the need exceeds free plus
        reclaimable blocks, where a decode must be evicted and the
        caller runs the per-row pressure path.
        """
        rows = self._rows
        need = rows.phase_count[-rows.reserved % self.block_size]
        return self._reserve(1, need)

    def _reserve(self, k: int, need: int) -> bool:
        """Grow every decode row by ``k`` tokens taking ``need`` new
        blocks, reclaiming the shortfall beyond the free blocks in one
        call; False with nothing changed when it does not fit."""
        rows = self._rows
        free = self.free_blocks
        if need > free and not self._reclaim_shortfall(need - free):
            return False
        rows.reserved += k
        self._used_tokens += rows.n * k
        self._used_blocks += need
        if self._used_blocks > self.high_water_blocks:
            self.high_water_blocks = self._used_blocks
        return True

    def stretch_need(self, k: int) -> int:
        """Blocks needed to grow every decode row by ``k`` tokens.

        A row holding ``t`` tokens takes ``(k + bs - 1 - (-t) % bs) //
        bs`` new blocks: the ``k`` tokens beyond the free slots of its
        last block, in whole blocks, which equals ``ceil((t + k) / bs)
        - ceil(t / bs)``.  That depends only on ``t % bs``, so the sum
        runs over the phase counts, not the rows.  It equals the total
        over ``k`` sequential +1-token grows of the whole batch and is
        monotone in ``k``, so ``stretch_need(k) <= free +
        reclaimable`` proves every intermediate per-iteration grow of a
        ``k``-iteration decode stretch fits without evicting a decode.
        """
        bs = self.block_size
        reserved = self._rows.reserved
        total = 0
        for phase, count in enumerate(self._rows.phase_count):
            if count:
                free_slots = -(phase + reserved) % bs
                total += count * ((k + bs - 1 - free_slots) // bs)
        return total

    def stretch_grow(self, k: int) -> None:
        """Commit a ``k``-token growth of every decode row (``k``
        batch-wide reservations); raises ``MemoryError`` unless the
        caller proved it fits via :meth:`stretch_need`.

        The window's shortfall beyond the free blocks is reclaimed from
        the prefix cache in one call: nothing else touches the tree
        inside a stretch window, so that evicts the same leaves, in the
        same order, as the window's per-iteration reclaims.  Apart from
        those reclaims the window has no releases, so once the pool is
        full it stays full, and taking the high-water mark once at the
        end matches per-iteration updates.
        """
        need = self.stretch_need(k)
        if not self._reserve(k, need):
            raise MemoryError(
                f"KV cache exhausted: stretch needs {need} blocks, "
                f"{self.free_blocks} free"
            )
