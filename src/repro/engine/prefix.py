"""Radix-tree prefix index for cross-request KV reuse.

Every request today prefills its prompt from scratch, yet multi-turn
conversations and shared-system-prompt agent/RAG traffic resubmit the
same leading tokens on every turn.  :class:`RadixPrefixCache` keeps a
path-compressed radix tree over concrete prompt token ids (sglang's
RadixAttention tree, kept block-granular for the simulator's
accounting-only KV ledger).  A new request whose prompt shares a prefix
with resident KV locks that path and skips the prefix's prefill work —
the execution model only ever sees the uncached suffix.

Each tree node is an *edge*: a run of one or more whole KV blocks, its
``key`` the run's token ids as raw ``array('q')`` bytes.  A parent's
children are keyed by their first block's bytes, as vLLM's automatic
prefix caching keys whole blocks, so two different blocks can never
collide.  A walk takes one dict lookup per edge and then compares the
whole edge in one ``bytes.startswith``; only where a prompt diverges
inside an edge, or a match cap ends inside one, is that edge split so
that the shared part becomes its own edge.  Splitting keeps the lower
part in the original object, so locks and heap entries that point at it
stay valid.

Accounting model
----------------

Every block in the tree is held in the ledger under one owner id,
:data:`TREE_OWNER` (negative; request ids are >= 0, so the two can
never collide).  A request's private holding covers only its uncached
suffix plus decode growth.  Block conservation is exact:

* **Match** (arrival): walking the tree locks the matched path by
  incrementing every edge's reference count root->deepest.  A lock
  always ends on an edge boundary, so an edge's blocks share one
  reference count.  No blocks move.
* **Insert** (prefill finish): each full prompt block either moves from
  the request's private holding into the tree or is freed as a
  duplicate of a block some earlier request already shares.  One
  ``shrink(request)`` covers every walked block before the one
  ``grow(TREE_OWNER)`` for the new edge — shrink-first, so the grow can
  never raise.  The inserting request then holds a lock on its own
  prompt path until it completes.
* **Unlock** (complete / evict / stall-recovery / cancel): decrements
  the path.  Edges at zero references become eviction candidates but
  stay resident — a relegated victim's pages remain reusable until
  memory pressure actually reclaims them.
* **Reclaim**: LRU over unreferenced blocks, driven by the ledger
  itself when an allocation would otherwise fail (the cache registers
  as the ledger's *reclaimer*).  Locking increments every ancestor, so
  a zero-reference edge implies a zero-reference subtree, and blocks
  are peeled off leaf edges' tails, deepest first.
* **Flush** (replica crash): releases the tree's holding
  unconditionally so the engine's no-leak crash assertion holds.

Eviction order is the per-block tree's
--------------------------------------

Recency is a monotonic integer clock, never wall time.  Conceptually
every block carries a clock value: when an unlock takes a block to zero
references it gets the next value, deepest block first, and the
evictable block with the smallest value among unreferenced leaves goes
first.  An edge's blocks share one reference count, so they all reach
zero in the same unlock and take consecutive values — the deepest
``clock``, the ones above ``clock + 1`` … ``clock + n - 1`` — and no
other block's value falls between them.  The edge therefore needs only
the value of its deepest block.  Reclaim pops the unreferenced leaf
edge with the smallest ``clock`` and trims blocks off its tail: each
trimmed block is the smallest value left, the next one up is exactly
the next value, and trimming never makes another edge a leaf until the
edge is gone.  So the tree evicts exactly the blocks, in exactly the
order, that a tree of one node per block would.  Eviction order is a
pure function of the event sequence.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.core.request import token_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.rows import ArrayKVLedger


#: Bytes per token id in a block key.
_TOKEN_BYTES = token_array(()).itemsize

#: The ledger owner id holding every block in the tree.
TREE_OWNER = -1


class _Edge:
    """A run of whole KV blocks in the prefix tree.

    ``key`` is the run's token ids as raw ``array('q')`` bytes; its
    parent's ``children`` dict is keyed by the first block's bytes.
    ``depth`` is the block depth of the deepest block, ``ref_count`` is
    shared by every block on the edge, and ``clock`` is the recency of
    the deepest block (the blocks above it are ``clock + 1`` onwards).
    """

    __slots__ = (
        "key",
        "parent",
        "children",
        "depth",
        "ref_count",
        "clock",
        "alive",
    )

    def __init__(
        self, key: bytes, parent: "_Edge | None", depth: int
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: dict[bytes, _Edge] = {}
        self.depth = depth
        self.ref_count = 0
        self.clock = 0
        self.alive = True


class RadixPrefixCache:
    """Reference-counted, path-compressed radix tree over token blocks.

    Args:
        ledger: The replica's KV ledger; every tree block is held in it
            under :data:`TREE_OWNER`.

    Attributes:
        hits / misses: Lookup outcomes (a lookup that matches zero
            blocks counts as a miss).
        hit_tokens: Total prefill tokens skipped via matches.
        evictions: Blocks reclaimed by LRU eviction (crash flushes are
            not evictions and are counted separately).
        on_evict: Optional callback invoked with the block count each
            time eviction frees memory — the engine points this at its
            observer.
    """

    def __init__(self, ledger: "ArrayKVLedger") -> None:
        self.ledger = ledger
        self.block_size = ledger.block_size
        self._width = self.block_size * _TOKEN_BYTES
        self._root = _Edge(b"", None, 0)
        # request_id -> deepest locked edge of that request's path
        self._locked: dict[int, _Edge] = {}
        self._clock = 0
        self._seq = itertools.count()
        self._blocks = 0
        self._evictable = 0
        # lazy min-heap of (clock, tiebreak, edge); entries whose
        # recorded clock no longer matches the edge are stale
        self._heap: list[tuple[int, int, _Edge]] = []
        self.hits = 0
        self.misses = 0
        self.hit_tokens = 0
        self.evictions = 0
        self.on_evict: Callable[[int], None] | None = None

    # --- introspection --------------------------------------------------

    @property
    def cached_blocks(self) -> int:
        """Blocks resident in the tree (referenced or not)."""
        return self._blocks

    @property
    def cached_tokens(self) -> int:
        """Tokens resident in the tree (always whole blocks)."""
        return self._blocks * self.block_size

    @property
    def locked_requests(self) -> list[int]:
        """Request ids currently holding a locked path."""
        return list(self._locked)

    def total_refs(self) -> int:
        """Sum of every block's reference count (0 when no paths
        locked)."""
        total = 0
        stack = list(self._root.children.values())
        while stack:
            edge = stack.pop()
            total += edge.ref_count * (edge.depth - edge.parent.depth)
            stack.extend(edge.children.values())
        return total

    def reclaimable_blocks(self) -> int:
        return self._evictable

    # --- lookup / locking ----------------------------------------------

    def match_and_lock(
        self,
        request_id: int,
        token_ids: Sequence[int],
        max_tokens: int,
    ) -> int:
        """Longest shared-prefix match, locked for ``request_id``.

        Matches whole blocks only, never more than ``max_tokens``
        tokens (the engine caps at ``prompt_tokens - 1`` so at least
        one prefill token remains to emit the first output token).
        ``token_ids`` is normally the request's ``array('q')``; any
        other int sequence is converted first.  Returns the matched
        token count; 0 records a miss.
        """
        if request_id in self._locked:
            raise RuntimeError(
                f"request {request_id} already holds a locked prefix path"
            )
        bs = self.block_size
        limit = min(len(token_ids), max_tokens) // bs
        raw = token_array(token_ids)[: limit * bs].tobytes()
        cur = self._walk(self._root, raw)[0]
        if cur is self._root:
            self.misses += 1
            return 0
        self._lock(cur, self._root)
        self._locked[request_id] = cur
        matched = cur.depth * bs
        self.hits += 1
        self.hit_tokens += matched
        return matched

    def insert_and_lock(
        self, request_id: int, token_ids: Sequence[int]
    ) -> tuple[int, int]:
        """Publish a finished prefill's prompt blocks into the tree.

        The request must currently hold one private block per full
        prompt block beyond the path it locked at admission, if any.
        That path is what :meth:`match_and_lock` matched on these same
        ``token_ids``, so the walk resumes below it.  Each private
        block is either moved into the tree or freed as a duplicate of
        a resident one.  On return the request's lock covers its full
        prompt path (released via :meth:`unlock`).
        Returns ``(new_blocks, deduped_blocks)``.
        """
        bs = self.block_size
        full = len(token_ids) // bs
        locked = self._locked.get(request_id)
        held = self._root if locked is None else locked
        raw = token_array(token_ids)[held.depth * bs : full * bs].tobytes()
        walked = len(raw) // self._width
        if not walked:
            return 0, 0
        # Every walked block leaves the request's private holding: it
        # moves into the tree or is freed as a duplicate of a resident
        # one.  Shrinking them all first means the tree's grow below
        # reuses blocks just freed, so it can never raise.
        ledger = self.ledger
        ledger.shrink(request_id, walked * bs, walked)
        cur, pos = self._walk(held, raw)
        created = (len(raw) - pos) // self._width
        deepest = cur
        if created:
            deepest = _Edge(raw[pos:], cur, cur.depth + created)
            deepest.ref_count = 1
            cur.children[raw[pos : pos + self._width]] = deepest
            ledger.grow(TREE_OWNER, created * bs)
            self._blocks += created
        self._lock(cur, held)
        self._locked[request_id] = deepest
        return created, walked - created

    def unlock(self, request_id: int) -> None:
        """Drop ``request_id``'s path locks (idempotent).

        Edges reaching zero references become LRU eviction candidates
        but stay resident until memory pressure reclaims them.
        """
        edge = self._locked.pop(request_id, None)
        if edge is None:
            return
        clock = self._clock
        evictable = self._evictable
        heap = self._heap
        while edge.parent is not None:
            refs = edge.ref_count - 1
            edge.ref_count = refs
            if refs == 0:
                # Its blocks take the next values, deepest first.
                blocks = edge.depth - edge.parent.depth
                evictable += blocks
                edge.clock = clock + 1
                clock += blocks
                if not edge.children:
                    heapq.heappush(heap, (edge.clock, next(self._seq), edge))
            edge = edge.parent
        self._clock = clock
        self._evictable = evictable

    # --- eviction -------------------------------------------------------

    def reclaim(self, blocks: int) -> int:
        """Evict up to ``blocks`` unreferenced blocks, LRU-first."""
        freed = 0
        heap = self._heap
        while freed < blocks and heap:
            clock, _, edge = heapq.heappop(heap)
            if (
                not edge.alive
                or edge.ref_count != 0
                or edge.children
                or edge.clock != clock
            ):
                continue  # stale entry
            take = min(edge.depth - edge.parent.depth, blocks - freed)
            self._trim(edge, take)
            freed += take
        if freed and self.on_evict is not None:
            self.on_evict(freed)
        return freed

    def flush(self) -> int:
        """Release every block in the tree (replica crash); returns
        blocks."""
        freed = self._blocks
        self.ledger.release(TREE_OWNER)
        self._root.children.clear()
        self._locked.clear()
        self._heap.clear()
        self._evictable = 0
        self._blocks = 0
        return freed

    # --- internals ------------------------------------------------------

    def _lock(self, edge: _Edge, stop: _Edge) -> None:
        """Reference every edge from ``edge`` up to, not including, its
        ancestor ``stop``."""
        evictable = self._evictable
        while edge is not stop:
            if edge.ref_count == 0:
                evictable -= edge.depth - edge.parent.depth
            edge.ref_count += 1
            edge = edge.parent
        self._evictable = evictable

    def _walk(self, cur: _Edge, raw: bytes) -> tuple[_Edge, int]:
        """Follow ``raw`` (whole blocks) down from ``cur``.

        Returns the deepest edge the walk ends on and the bytes of
        ``raw`` it consumed.  Where ``raw`` diverges or ends inside an
        edge, that edge is split so the walk ends on an edge boundary.
        """
        width = self._width
        pos = 0
        end = len(raw)
        while pos < end:
            child = cur.children.get(raw[pos : pos + width])
            if child is None:
                break
            key = child.key
            if raw.startswith(key, pos):
                pos += len(key)
                cur = child
                continue
            # The first block matched; count the rest that do.
            shared = width
            stop = min(len(key), end - pos)
            while shared < stop and raw.startswith(
                key[shared : shared + width], pos + shared
            ):
                shared += width
            return self._split(child, shared), pos + shared
        return cur, pos

    def _split(self, edge: _Edge, cut: int) -> _Edge:
        """Move the first ``cut`` bytes of ``edge`` into a new parent
        edge and return it; ``edge`` keeps its lower part.  Every
        caller locks the returned edge, so its ``clock`` is set when
        that lock is dropped."""
        width = self._width
        parent = edge.parent
        below = (len(edge.key) - cut) // width
        top = _Edge(edge.key[:cut], parent, edge.depth - below)
        top.ref_count = edge.ref_count
        parent.children[edge.key[:width]] = top
        edge.key = edge.key[cut:]
        edge.parent = top
        top.children[edge.key[:width]] = edge
        return top

    def _trim(self, edge: _Edge, take: int) -> None:
        """Evict the ``take`` deepest blocks of an unreferenced leaf
        edge, deleting the edge once it has none left."""
        bs = self.block_size
        self.ledger.shrink(TREE_OWNER, take * bs, take)
        self._blocks -= take
        self._evictable -= take
        self.evictions += take
        if take < edge.depth - edge.parent.depth:
            edge.key = edge.key[: -take * self._width]
            edge.depth -= take
            edge.clock += take
            heapq.heappush(self._heap, (edge.clock, next(self._seq), edge))
            return
        parent = edge.parent
        del parent.children[edge.key[: self._width]]
        edge.alive = False
        if (
            parent.parent is not None
            and parent.ref_count == 0
            and not parent.children
        ):
            heapq.heappush(
                self._heap, (parent.clock, next(self._seq), parent)
            )
