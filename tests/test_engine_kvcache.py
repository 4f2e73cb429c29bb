"""Unit tests for the paged KV ledger."""

import pytest

from repro.engine.rows import ArrayKVLedger


class TestAllocation:
    def test_initial_state(self):
        kv = ArrayKVLedger(capacity_tokens=1600, block_size=16)
        assert kv.capacity_blocks == 100
        assert kv.free_blocks == 100
        assert kv.used_blocks == 0
        assert kv.utilization == 0.0

    def test_grow_rounds_up_to_blocks(self):
        kv = ArrayKVLedger(capacity_tokens=1600, block_size=16)
        kv.grow(1, 17)  # needs 2 blocks
        assert kv.used_blocks == 2
        assert kv.holding(1) == 17
        assert kv.used_tokens == 17

    def test_incremental_growth_reuses_partial_block(self):
        kv = ArrayKVLedger(capacity_tokens=1600, block_size=16)
        kv.grow(1, 10)
        assert kv.used_blocks == 1
        kv.grow(1, 6)  # fills the block exactly
        assert kv.used_blocks == 1
        kv.grow(1, 1)
        assert kv.used_blocks == 2

    def test_blocks_needed(self):
        kv = ArrayKVLedger(capacity_tokens=1600, block_size=16)
        assert kv.blocks_needed(1, 16) == 1
        kv.grow(1, 8)
        assert kv.blocks_needed(1, 8) == 0
        assert kv.blocks_needed(1, 9) == 1

    def test_can_grow(self):
        kv = ArrayKVLedger(capacity_tokens=32, block_size=16)
        assert kv.can_grow(1, 32)
        assert not kv.can_grow(1, 33)

    def test_grow_beyond_capacity_raises(self):
        kv = ArrayKVLedger(capacity_tokens=32, block_size=16)
        kv.grow(1, 32)
        with pytest.raises(MemoryError):
            kv.grow(2, 1)

    def test_grow_negative_raises(self):
        kv = ArrayKVLedger(capacity_tokens=32)
        with pytest.raises(ValueError):
            kv.grow(1, -1)

    def test_zero_growth_is_noop(self):
        kv = ArrayKVLedger(capacity_tokens=32, block_size=16)
        kv.grow(1, 0)
        assert kv.used_blocks == 0


class TestRelease:
    def test_release_frees_blocks(self):
        kv = ArrayKVLedger(capacity_tokens=1600, block_size=16)
        kv.grow(1, 100)
        freed = kv.release(1)
        assert freed == 7
        assert kv.used_blocks == 0
        assert kv.holding(1) == 0

    def test_release_unknown_is_noop(self):
        kv = ArrayKVLedger(capacity_tokens=32)
        assert kv.release(42) == 0

    def test_release_makes_room(self):
        kv = ArrayKVLedger(capacity_tokens=32, block_size=16)
        kv.grow(1, 32)
        kv.release(1)
        kv.grow(2, 32)
        assert kv.holding(2) == 32

    def test_multiple_holders_accounted(self):
        kv = ArrayKVLedger(capacity_tokens=160, block_size=16)
        kv.grow(1, 20)
        kv.grow(2, 30)
        assert kv.used_tokens == 50
        assert kv.used_blocks == 2 + 2
        kv.release(1)
        assert kv.used_tokens == 30


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ArrayKVLedger(capacity_tokens=0)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            ArrayKVLedger(capacity_tokens=100, block_size=0)

    def test_rejects_capacity_below_one_block(self):
        with pytest.raises(ValueError):
            ArrayKVLedger(capacity_tokens=10, block_size=16)
