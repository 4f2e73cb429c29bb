"""Property-based tests for the paged KV ledger."""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine.rows import ArrayKVLedger


@given(
    block_size=st.integers(1, 64),
    grows=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 200)), max_size=50
    ),
)
def test_accounting_never_negative_and_bounded(block_size, grows):
    kv = ArrayKVLedger(capacity_tokens=64 * 200, block_size=block_size)
    for rid, tokens in grows:
        if kv.can_grow(rid, tokens):
            kv.grow(rid, tokens)
    assert 0 <= kv.used_blocks <= kv.capacity_blocks
    assert kv.used_tokens <= kv.used_blocks * kv.block_size


@given(
    tokens=st.integers(1, 1000),
    block_size=st.integers(1, 64),
)
def test_block_rounding_tight(tokens, block_size):
    """A single holding uses exactly ceil(tokens / block) blocks."""
    kv = ArrayKVLedger(capacity_tokens=100_000, block_size=block_size)
    kv.grow(1, tokens)
    assert kv.used_blocks == -(-tokens // block_size)


@given(
    pieces=st.lists(st.integers(1, 50), min_size=1, max_size=20),
)
def test_incremental_growth_equals_bulk(pieces):
    """Growing in pieces uses the same blocks as growing at once."""
    incremental = ArrayKVLedger(capacity_tokens=100_000, block_size=16)
    for piece in pieces:
        incremental.grow(1, piece)
    bulk = ArrayKVLedger(capacity_tokens=100_000, block_size=16)
    bulk.grow(1, sum(pieces))
    assert incremental.used_blocks == bulk.used_blocks
    assert incremental.holding(1) == bulk.holding(1)


class KVCacheMachine(RuleBasedStateMachine):
    """Stateful check: grow/release in any order preserves invariants."""

    def __init__(self):
        super().__init__()
        self.kv = ArrayKVLedger(capacity_tokens=4096, block_size=16)
        self.shadow: dict[int, int] = {}

    @rule(rid=st.integers(0, 5), tokens=st.integers(0, 300))
    def grow(self, rid, tokens):
        if self.kv.can_grow(rid, tokens):
            self.kv.grow(rid, tokens)
            self.shadow[rid] = self.shadow.get(rid, 0) + tokens

    @rule(rid=st.integers(0, 5))
    def release(self, rid):
        self.kv.release(rid)
        self.shadow.pop(rid, None)

    @invariant()
    def tokens_match_shadow(self):
        assert self.kv.used_tokens == sum(self.shadow.values())
        for rid, tokens in self.shadow.items():
            assert self.kv.holding(rid) == tokens

    @invariant()
    def blocks_bounded(self):
        assert 0 <= self.kv.used_blocks <= self.kv.capacity_blocks
        minimum_blocks = sum(
            -(-tokens // 16) for tokens in self.shadow.values()
        )
        assert self.kv.used_blocks == minimum_blocks


TestKVCacheStateful = KVCacheMachine.TestCase
TestKVCacheStateful.settings = settings(max_examples=30)
