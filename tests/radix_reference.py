"""Per-block radix prefix cache: the reference for the differential test.

A verbatim copy of ``repro.engine.prefix.RadixPrefixCache`` as it stood
before the tree was path-compressed: one node, one dict and one ledger
owner per KV block.  ``tests/test_engine_prefix.py`` drives it and the
real cache with the same operations and asserts identical outcomes,
ledger state and per-block eviction order after every one.  Test-only;
never imported by the package.
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


class _RadixNode:
    """One KV block's worth of tokens in the prefix tree.

    ``key`` is the block's token ids as raw ``array('q')`` bytes.
    """

    __slots__ = (
        "key",
        "parent",
        "children",
        "depth",
        "ref_count",
        "last_access",
        "owner_id",
        "alive",
    )

    def __init__(
        self,
        key: bytes,
        parent: "_RadixNode | None",
        owner_id: int,
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: dict[bytes, _RadixNode] = {}
        self.depth = 0 if parent is None else parent.depth + 1
        self.ref_count = 0
        self.last_access = 0
        self.owner_id = owner_id
        self.alive = True


class RadixPrefixCache:
    """Reference-counted radix tree over token-id blocks.

    Args:
        ledger: The replica's KV ledger; node blocks are held in it
            under negative owner ids.

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
        self._root = _RadixNode(b"", None, owner_id=0)
        # request_id -> deepest locked node of that request's path
        self._locked: dict[int, _RadixNode] = {}
        self._clock = 0
        self._seq = itertools.count()
        self._next_owner = -1
        self._node_count = 0
        self._evictable = 0
        # lazy min-heap of (last_access, tiebreak, node); entries whose
        # recorded access no longer matches the node are stale
        self._heap: list[tuple[int, int, _RadixNode]] = []
        self.hits = 0
        self.misses = 0
        self.hit_tokens = 0
        self.evictions = 0
        self.on_evict: Callable[[int], None] | None = None

    # --- introspection --------------------------------------------------

    @property
    def cached_blocks(self) -> int:
        """Blocks resident in the tree (referenced or not)."""
        return self._node_count

    @property
    def cached_tokens(self) -> int:
        """Tokens resident in the tree (always whole blocks)."""
        return self._node_count * self.block_size

    @property
    def locked_requests(self) -> list[int]:
        """Request ids currently holding a locked path."""
        return list(self._locked)

    def total_refs(self) -> int:
        """Sum of all node reference counts (0 when no paths locked)."""
        total = 0
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            total += node.ref_count
            stack.extend(node.children.values())
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
        width = bs * _TOKEN_BYTES
        cur = self._root
        path: list[_RadixNode] = []
        for start in range(0, limit * width, width):
            child = cur.children.get(raw[start : start + width])
            if child is None:
                break
            path.append(child)
            cur = child
        if not path:
            self.misses += 1
            return 0
        self._lock_path(request_id, path, 0)
        matched = len(path) * bs
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
        block is either transferred to a new node or freed as a
        duplicate of an existing one.  On return the request's lock
        covers its full prompt path (released via :meth:`unlock`).
        Returns ``(new_blocks, deduped_blocks)``.
        """
        bs = self.block_size
        full = len(token_ids) // bs
        locked = self._locked.get(request_id)
        path: list[_RadixNode] = []
        node = locked
        while node is not None and node.parent is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        locked_depth = len(path)
        cur = self._root if locked is None else locked
        raw = token_array(token_ids)[locked_depth * bs : full * bs].tobytes()
        width = bs * _TOKEN_BYTES
        ledger = self.ledger
        # Every walked block leaves the request's private holding: it
        # moves to a new node or is freed as a duplicate of an existing
        # one.  Shrinking them all first means each node's grow below
        # reuses a block just freed, so it can never raise.
        walked = len(raw) // width
        if walked:
            ledger.shrink(request_id, walked * bs, walked)
        created = 0
        for start in range(0, len(raw), width):
            block = raw[start : start + width]
            child = cur.children.get(block)
            if child is None:
                child = _RadixNode(block, cur, owner_id=self._next_owner)
                self._next_owner -= 1
                ledger.grow(child.owner_id, bs)
                cur.children[block] = child
                created += 1
            path.append(child)
            cur = child
        self._node_count += created
        self._evictable += created  # ref 0 until locked below
        deduped = walked - created
        if path:
            self._lock_path(request_id, path, locked_depth)
        return created, deduped

    def unlock(self, request_id: int) -> None:
        """Drop ``request_id``'s path locks (idempotent).

        Nodes reaching zero references become LRU eviction candidates
        but stay resident until memory pressure reclaims them.
        """
        node = self._locked.pop(request_id, None)
        if node is None:
            return
        clock = self._clock
        evictable = self._evictable
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        while node.parent is not None:
            refs = node.ref_count - 1
            node.ref_count = refs
            if refs == 0:
                evictable += 1
                clock += 1
                node.last_access = clock
                push(heap, (clock, next(seq), node))
            node = node.parent
        self._clock = clock
        self._evictable = evictable

    # --- eviction -------------------------------------------------------

    def reclaim(self, blocks: int) -> int:
        """Evict up to ``blocks`` unreferenced leaves, LRU-first."""
        freed = 0
        while freed < blocks and self._heap:
            access, _, node = heapq.heappop(self._heap)
            if (
                not node.alive
                or node.ref_count != 0
                or node.children
                or node.last_access != access
            ):
                continue  # stale entry
            self._evict_node(node)
            freed += 1
        if freed and self.on_evict is not None:
            self.on_evict(freed)
        return freed

    def flush(self) -> int:
        """Release every node's block (replica crash); returns blocks."""
        freed = self._node_count
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            self.ledger.release(node.owner_id)
            node.alive = False
        self._root.children.clear()
        self._locked.clear()
        self._heap.clear()
        self._evictable = 0
        self._node_count = 0
        return freed

    # --- internals ------------------------------------------------------

    def _lock_path(
        self, request_id: int, path: list[_RadixNode], held: int
    ) -> None:
        """Lock ``path`` (root first) for ``request_id``: reference
        every node past the ``held`` ones the request already locks,
        and touch the whole path, deepest most recent."""
        for node in path[held:]:
            if node.ref_count == 0:
                self._evictable -= 1
            node.ref_count += 1
        clock = self._clock
        for node in path:
            clock += 1
            node.last_access = clock
        self._clock = clock
        self._locked[request_id] = path[-1]

    def _evict_node(self, node: _RadixNode) -> None:
        self.ledger.release(node.owner_id)
        parent = node.parent
        assert parent is not None
        del parent.children[node.key]
        node.alive = False
        self._node_count -= 1
        self._evictable -= 1
        self.evictions += 1
        if (
            parent.parent is not None
            and parent.ref_count == 0
            and not parent.children
        ):
            heapq.heappush(
                self._heap, (parent.last_access, next(self._seq), parent)
            )
