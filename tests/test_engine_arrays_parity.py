"""Fast paths against the reference functions they reimplement.

The engine keeps its decode batch in struct-of-arrays rows and prices
batches with flat kernels; the functions those paths replace on the
hot path still exist, and these tests pin the fast paths to them bit
for bit:

* the row-backed view's decode slack vs
  :func:`repro.engine.interface.decode_slack` over the request
  objects, in every clamp regime, on the scalar and the vector branch;
* the flat batch-time kernels vs :meth:`ExecutionModel.batch_time`;
* the KV ledger vs a plain model of paged block math at block sizes 1
  and 16 with off-by-one token counts;
* the ``ServeConfig.engine`` field, which accepts only the one core.

Whole-run behaviour is pinned by checksums in
``tests/test_engine_pins.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ServeConfig, Session, make_scheduler
from repro.core.qos import DEFAULT_TIERS
from repro.core.request import Request
from repro.engine import ReplicaEngine
from repro.engine.interface import decode_slack
from repro.engine.replica import _RowView
from repro.engine.rows import ArrayKVLedger
from repro.perfmodel.execution import BatchShape, PrefillChunk
from repro.simcore import Simulator


class TestLedgerBlockMath:
    """ArrayKVLedger vs a dict of token counts, op for op."""

    @pytest.mark.parametrize("block_size", [1, 16])
    def test_randomized_op_stream(self, block_size):
        rng = np.random.default_rng(block_size)
        capacity = 64 * block_size
        ledger = ArrayKVLedger(capacity, block_size=block_size)

        def blocks(tokens):
            return -(-tokens // block_size)

        # request_id -> tokens held, in first-grow order.
        model: dict[int, int] = {}
        high_water = 0
        next_id = 0
        for _ in range(600):
            used = sum(blocks(t) for t in model.values())
            if rng.random() < 0.55 or not model:
                # Off-by-one-heavy growth sizes straddle block edges.
                extra = int(
                    rng.choice(
                        [
                            0, 1, block_size - 1, block_size,
                            block_size + 1, 2 * block_size - 1, 37,
                        ]
                    )
                )
                rid = (
                    next_id
                    if rng.random() < 0.4
                    else int(rng.choice(list(model) + [next_id]))
                )
                if rid == next_id:
                    next_id += 1
                held = model.get(rid, 0)
                need = blocks(held + extra) - blocks(held)
                assert ledger.blocks_needed(rid, extra) == need
                can = need <= 64 - used
                assert ledger.can_grow(rid, extra) == can
                if can:
                    ledger.grow(rid, extra)
                    model[rid] = held + extra
                    high_water = max(high_water, used + need)
                else:
                    with pytest.raises(MemoryError):
                        ledger.grow(rid, extra)
            else:
                rid = int(rng.choice(list(model)))
                assert ledger.release(rid) == blocks(model.pop(rid))
            used = sum(blocks(t) for t in model.values())
            assert ledger.used_blocks == used
            assert ledger.free_blocks == 64 - used
            assert ledger.used_tokens == sum(model.values())
            assert ledger.holders() == list(model)
            assert ledger.high_water_blocks == high_water
        for rid, tokens in model.items():
            assert ledger.holding(rid) == tokens

    def test_error_messages_match(self):
        ledger = ArrayKVLedger(160, block_size=16)
        with pytest.raises(ValueError, match="non-negative"):
            ledger.grow(1, -1)
        ledger.grow(1, 160)
        with pytest.raises(MemoryError) as error:
            ledger.grow(2, 16)
        assert str(error.value) == "KV cache exhausted: need 1 blocks, 0 free"


class TestDecodeSlackParity:
    """The row-backed view's decode slack equals the object sweep bit
    for bit, on both the scalar (< 32 rows) and the vector branch, in
    every clamp regime: blown interactive deadlines and
    non-interactive pace under the floor."""

    @pytest.mark.parametrize("num_rows", [7, 40], ids=["scalar", "vector"])
    def test_matches_object_sweep(self, execution_model, num_rows):
        rng = np.random.default_rng(num_rows)
        engine = ReplicaEngine(
            Simulator(), execution_model,
            make_scheduler("fcfs", execution_model),
        )
        requests = []
        for rid in range(num_rows):
            decode_tokens = int(rng.integers(2, 300))
            request = Request(
                request_id=rid,
                arrival_time=float(rng.uniform(0.0, 50.0)),
                prompt_tokens=int(rng.integers(16, 2048)),
                decode_tokens=decode_tokens,
                qos=DEFAULT_TIERS[rid % 3],
            )
            request.prefill_done = request.prompt_tokens
            request.decoded = int(rng.integers(0, decode_tokens))
            engine._attach_decode(request, request.context_length)
            requests.append(request)
        floor = 0.025
        for now in (0.0, 7.5, 20.0, 599.0, 640.0, 1799.5, 1900.0):
            view = _RowView(engine, now, num_rows)
            assert view.decode_slack(floor) == decode_slack(
                now, requests, floor
            ), now


class TestFlatBatchTime:
    """The flat kernels reproduce batch_time bit for bit."""

    def test_batch_time_flat_matches(self, execution_model):
        rng = np.random.default_rng(99)
        for _ in range(200):
            chunks = [
                (int(rng.integers(1, 512)), int(rng.integers(0, 4096)))
                for _ in range(int(rng.integers(0, 4)))
            ]
            num_decodes = int(rng.integers(0, 64))
            if not chunks and num_decodes == 0:
                num_decodes = 1
            dct = (
                int(rng.integers(num_decodes, num_decodes * 4096))
                if num_decodes
                else 0
            )
            shape = BatchShape(
                prefill_chunks=[
                    PrefillChunk(tokens=t, context_before=c)
                    for t, c in chunks
                ],
                num_decodes=num_decodes,
                decode_context_total=dct,
            )
            assert execution_model.batch_time(
                shape
            ) == execution_model.batch_time_flat(chunks, num_decodes, dct)

    def test_decode_batch_times_flat_matches(self, execution_model):
        rng = np.random.default_rng(7)
        for num_decodes in (1, 3, 48):
            totals = rng.integers(
                num_decodes, num_decodes * 2048, size=40
            ).astype(np.int64)
            flat = execution_model.decode_batch_times_flat(
                num_decodes, totals
            )
            for i, dct in enumerate(totals):
                shape = BatchShape(
                    num_decodes=num_decodes,
                    decode_context_total=int(dct),
                )
                assert flat[i] == execution_model.batch_time(shape)


class TestEngineSwitch:
    """``ServeConfig.engine`` names the one engine core."""

    def test_serve_config_validation(self):
        assert ServeConfig().engine == "arrays"
        for engine in ("objects", "turbo"):
            with pytest.raises(ValueError, match="object engine was removed"):
                ServeConfig(engine=engine)

    def test_session_builds_chosen_engine(self):
        from repro.engine.arrays import ArrayReplicaEngine

        assert ArrayReplicaEngine is ReplicaEngine
        for config in (ServeConfig(), ServeConfig(num_replicas=3)):
            engines = Session(config).engines
            assert all(type(e) is ReplicaEngine for e in engines)
