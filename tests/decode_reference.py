"""The decode accounting the iteration log replaced, kept as an oracle.

Before the engine derived its decode rows from a per-replica iteration
log, every iteration advanced every row: a scalar sweep below 32 rows,
a vector kernel for larger batches and for the ``k``-token window of a
decode stretch, and a per-row KV pass (``bulk_decode_grow``).  The row
store, the ledger and those kernels are copied here unchanged, so
``tests/test_engine_arrays_parity.py`` can drive them and the engine
through the same admissions, iterations, stretches, cancellations and
evictions and compare them after every step.
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

#: Below this batch size a per-row scalar loop beats NumPy kernel
#: launch overhead; the scalar and vector paths over the rows execute
#: the identical float operations.
_SMALL_BATCH = 32


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

    def bulk_decode_grow(self, n: int) -> bool:
        """Grow every decode row by one token.

        When the batch needs more blocks than are free, the shortfall
        is reclaimed from the prefix cache in one call first.  That
        equals the per-row path's one-block reclaims: nothing touches
        the tree between them, so they pop the same LRU leaves in the
        same order, and the ledger ends in the same state.  Returns
        False (untouched state) only when the need exceeds free plus
        reclaimable blocks, where a decode must be evicted and the
        caller runs the per-row pressure path.  From 16 rows on it is
        :meth:`stretch_grow`'s vector pass with ``k = 1``.
        """
        if n >= 16:
            return self._grow_rows(n, 1)
        # Scalar sweep: below ~16 rows the item reads beat NumPy kernel
        # launches.  A +1-token grow needs a new block iff the holding
        # is block-aligned (blocks == ceil(tokens / block_size)).
        rows = self._rows
        bs = self.block_size
        kv_tokens = rows.kv_tokens
        total = 0
        for i in range(n):
            if kv_tokens.item(i) % bs == 0:
                total += 1
        free = self.free_blocks
        if total > free and not self._reclaim_shortfall(total - free):
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

    def _row_need(self, n: int, k: int) -> np.ndarray:
        """New blocks each of rows ``[0, n)`` needs to grow ``k`` tokens.

        ``(k + bs - 1 - (-t) % bs) // bs``: the ``k`` tokens beyond the
        ``(-t) % bs`` free slots of the row's last block, in whole
        blocks.  For ``t, k >= 0`` it equals the ceil difference
        ``ceil((t + k) / bs) - ceil(t / bs)`` in one division.
        """
        bs = self.block_size
        return (k + bs - 1 - (-self._rows.kv_tokens[:n]) % bs) // bs

    def _grow_rows(self, n: int, k: int) -> bool:
        """Grow rows ``[0, n)`` by ``k`` tokens each in one vector pass.

        Each row takes :meth:`_row_need` new blocks.  A shortfall beyond
        the free blocks is reclaimed from the prefix cache in one call
        first.  Returns False with nothing changed when the need exceeds
        free plus reclaimable blocks.
        """
        rows = self._rows
        added = self._row_need(n, k)
        need = int(added.sum())
        free = self.free_blocks
        if need > free and not self._reclaim_shortfall(need - free):
            return False
        rows.kv_tokens[:n] += k
        rows.kv_blocks[:n] += added
        self._used_blocks += need
        self._used_tokens += n * k
        if self._used_blocks > self.high_water_blocks:
            self.high_water_blocks = self._used_blocks
        return True

    def stretch_need(self, n: int, k: int) -> int:
        """Blocks needed to grow every decode row by ``k`` tokens: the
        sum of :meth:`_row_need`, as :meth:`_grow_rows` commits it.

        It equals the total over ``k`` sequential +1-token grows of the
        whole batch and is monotone in ``k``, so ``stretch_need(n, k)
        <= free + reclaimable`` proves every intermediate per-iteration
        grow of a ``k``-iteration decode stretch fits without evicting
        a decode.
        """
        return int(self._row_need(n, k).sum())

    def stretch_grow(self, n: int, k: int) -> None:
        """Commit a ``k``-token growth of every decode row; raises
        ``MemoryError`` unless the caller proved it fits via
        :meth:`stretch_need`.

        The window's shortfall beyond the free blocks is reclaimed from
        the prefix cache in one call: nothing else touches the tree
        inside a stretch window, so that evicts the same leaves, in the
        same order, as the window's per-iteration reclaims.  Apart from
        those reclaims the window has no releases, so once the pool is
        full it stays full, and taking the high-water mark once at the
        end matches per-iteration updates.
        """
        if not self._grow_rows(n, k):
            raise MemoryError(
                f"KV cache exhausted: stretch needs "
                f"{self.stretch_need(n, k)} blocks, {self.free_blocks} free"
            )


class DecodeKernels:
    """The engine half of the old decode accounting.

    A host class supplies ``_rows``, ``kv_cache``, ``token_hook``,
    ``_rows_dirty``, ``_decode_context_total``,
    ``kv_pressure_iterations`` and the lifecycle callbacks
    ``_complete(request, now)`` and ``_evict_decode(request)``.
    """

    def finish(self, now: float) -> None:
        """The decode side of an iteration's finish."""
        rows = self._rows
        m = rows.batch_n
        if m:
            if m < _SMALL_BATCH:
                finished_rows = self._advance_scalar(now, m)
            else:
                self._advance_vector((now,), m)
                finished_rows = np.flatnonzero(
                    rows.decoded[:m] >= rows.target[:m]
                ).tolist()
            if self.token_hook is not None:
                self._fire_token_hooks(now, m)
            elif finished_rows:
                self._complete_rows(finished_rows, now)

    def _attach_decode(self, request: Request, context: int) -> None:
        """Append ``request`` (holding ``context`` KV tokens) to the
        decode rows; its KV holding becomes row-backed."""
        tokens, blocks = self.kv_cache.attach_row(request.request_id)
        self._rows.add(request, tokens, blocks)
        self._decode_context_total += context

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
        context = int(rows.ctx[i])
        # The row-backed holding must be released while its row lives.
        self.kv_cache.release(request.request_id)
        rows.remove_at(i)
        self._decode_context_total -= context
        return context

    def stretch(self, times: np.ndarray) -> None:
        """The commit of a decode stretch over the window ``times``."""
        n = self._rows.n
        self._advance_vector(times, n)
        self.kv_cache.stretch_grow(n, len(times))

    def _fire_token_hooks(self, now: float, m: int) -> None:
        """Fire the token hook for every row of the advanced batch.

        Row by row in batch order, each on its synced object; a
        finished row completes before the next row's hook.  Completion
        side effects touch no state a row's advance reads, so this
        equals advancing and completing row by row.
        """
        rows = self._rows
        index = rows.index
        hook = self.token_hook
        # A copy of the batch: completions shift the rows.
        for request in rows.req[:m]:
            i = index.get(request.request_id)
            if i is None:
                continue  # removed by an earlier row's completion
            rows.sync_row(i)
            finished = rows.decoded.item(i) >= rows.target.item(i)
            if finished:
                request.completion_time = now
            hook(request, now)
            if finished:
                self._complete(request, now)

    def _advance_scalar(self, now: float, m: int) -> list[int]:
        """One-token advance mirroring ``Request.record_output_token``.

        For small batches, where the loop beats NumPy kernel launches;
        same float operations as :meth:`_advance_vector`.  Returns the
        rows that reached their target, in row order.
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
        finished_rows = []
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
                finished_rows.append(i)
        self._decode_context_total += m
        return finished_rows

    def _advance_vector(
        self, times: np.ndarray | tuple[float], m: int
    ) -> None:
        """Level-synchronous advance by ``k = len(times)`` tokens.

        Token ``j`` (0-based) of every row lands at ``times[j]``.
        Every row shares the ``k - 1`` in-window gaps (differences of
        the same finish times) and adds one private gap across the
        window boundary from its previous last-token time, except a
        fresh row, whose first token opens the window.  Token ``j``
        meets the Eq. 2 deadline ``ttft_base + (decoded + j) * tbt``,
        ``Request.token_deadline``'s expression.  With ``k = 1`` there
        are no in-window gaps.
        """
        rows = self._rows
        self._rows_dirty = True
        k = len(times)
        t0 = times[0]
        d0 = rows.decoded[:m].copy()
        rows.decoded[:m] = d0 + k
        fresh = d0 == 0
        rows.first[:m][fresh] = t0
        cross = np.where(fresh, -np.inf, t0 - rows.last[:m])
        if k > 1:
            shared = times[1:] - times[:-1]
            cand = np.maximum(float(shared.max()), cross)
        else:
            cand = cross
        np.maximum(rows.max_tbt[:m], cand, out=rows.max_tbt[:m])
        inter_rows = np.flatnonzero(rows.inter[:m])
        if inter_rows.size:
            tbt = rows.tbt[inter_rows]
            over = cross[inter_rows] > tbt
            if k > 1:
                # Strict gap > tbt count via the sorted shared gaps.
                over = over + (
                    (k - 1)
                    - np.searchsorted(np.sort(shared), tbt, side="right")
                )
            rows.gap_miss[inter_rows] += over
            steps = d0[inter_rows][:, None] + np.arange(k)
            deadlines = rows.ttft_base[inter_rows][:, None] + (
                steps * tbt[:, None]
            )
            rows.ddl_miss[inter_rows] += (times > deadlines).sum(axis=1)
        rows.last[:m] = times[-1]
        rows.ctx[:m] += k
        self._decode_context_total += m * k

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

    def _reserve_decode_growth(self) -> None:
        """Grow KV by one token per decode row, evicting on pressure.

        Eviction victims are the decode requests with the largest
        next-token deadline (they can best afford recompute); evicted
        requests return to the prefill queue with recompute pending.
        """
        rows = self._rows
        n = rows.n
        if n == 0:
            return
        if self.kv_cache.bulk_decode_grow(n):
            return
        # Pressure: the batch does not fit even after reclaiming every
        # unreferenced prefix block.  Grow row by row over a snapshot
        # of the batch, re-selecting the victim after every eviction.
        self.kv_pressure_iterations += 1
        kv_cache = self.kv_cache
        for request in list(rows.req):
            request_id = request.request_id
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
        # argmax returns the first maximum: ties go to the earliest
        # row, i.e. the longest-resident decode.
        return rows.req[int(np.argmax(deadline))]
