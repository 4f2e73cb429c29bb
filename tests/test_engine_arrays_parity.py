"""Fast paths against the reference functions they reimplement.

The engine keeps its decode batch in struct-of-arrays rows and prices
batches with flat kernels; these tests pin the fast paths bit for bit
to the functions they replaced (kept here as references) and to each
other:

* the engine view's decode slack (a sweep over the decode rows) vs
  the sweep over the request objects it replaced, kept below as
  :func:`decode_slack`, in every clamp regime, on the scalar and the
  vector branch;
* the flat batch-time kernels vs the per-shape formula they replaced,
  kept below as :func:`batch_time`;
* the decode-advance kernels against each other: the scalar sweep vs
  a one-token vector advance, and one ``k``-token vector advance (a
  decode stretch's window) vs ``k`` one-token advances, on rows that
  sit exactly on a gap or deadline boundary; token hooks fire after
  the sweep, in row order, each finished row completing right after
  its own hook;
* the KV ledger vs a plain model of paged block math at block sizes 1
  and 16 with off-by-one token counts;
* the ``ServeConfig.engine`` field, which accepts only the one core.

Whole-run behaviour is pinned by checksums in
``tests/test_engine_pins.py``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from repro.api import ServeConfig, Session
from repro.core.qos import DEFAULT_TIERS
from repro.core.request import Request
from repro.engine import ReplicaEngine
from repro.engine.rows import ArrayKVLedger, _RowStore
from repro.perfmodel.execution import BatchShape, PrefillChunk
from tests.conftest import make_view


# Reference: the Eq. 2 slack sweep over request objects that the
# engine view's row sweep replaced.
def decode_slack(
    now: float, decode_requests: Iterable[Request], floor: float
) -> float:
    """Eq. 2-style slack: min over decodes of next-token headroom.

    Interactive decodes contribute their next-token deadline minus
    ``now``.  Non-interactive decodes contribute an even pace:
    remaining TTLT slack divided by remaining tokens, floored at
    ``floor``.  Returns ``inf`` when no decode constrains the
    iteration.
    """
    budget = float("inf")
    for request in decode_requests:
        if request.is_interactive:
            slack = request.next_token_deadline - now
            if slack <= 0.0:
                # Deadline already blown (e.g. a relegated request
                # that finally reached decode): honouring it is
                # impossible, so pace it best-effort at the floor
                # instead of strangling the whole iteration.
                slack = floor
        else:
            remaining = max(1, request.remaining_decode)
            slack = (request.total_deadline - now) / remaining
            slack = max(slack, floor)
        if slack < budget:
            budget = slack
    return budget


# Reference: the per-shape batch-time formula that
# ExecutionModel.batch_time_flat replaced.
def batch_time(self, shape: BatchShape) -> float:
    """Execution time in seconds for one iteration of ``shape``.

    The linear-layer cost distinguishes the two regimes the
    scheduler lives between.  Prefill chunks run real GEMMs whose
    utilization degrades at small M (the Figure 4 knee), so their
    FLOPs are charged at a chunk-size-dependent MFU.  Decode
    tokens piggyback on the same weight stream (Sarathi's fused
    prefill-decode batches); a decode-only batch is bandwidth
    bound, charged at the asymptotic MFU and dominated by the
    weight/KV memory term.
    """
    total_tokens = shape.total_tokens
    if total_tokens <= 0:
        return 0.0

    # --- compute path ---
    prefill_tokens = shape.prefill_tokens
    compute = (
        self._linear_flops_per_token
        * total_tokens
        / (self._peak_flops * self._mfu_linear)
    )
    if prefill_tokens > 0:
        compute_prefill = (
            self._linear_flops_per_token
            * prefill_tokens
            / (
                self._peak_flops
                * self._gemm_efficiency(prefill_tokens)
            )
        )
        compute = max(compute, compute_prefill)

    attn_flops = 0.0
    prefill_context_read = 0
    for chunk in shape.prefill_chunks:
        # Causal attention: query i attends to context_before + i keys.
        avg_keys = chunk.context_before + (chunk.tokens + 1) / 2.0
        attn_flops += self._attn_flops_scale * chunk.tokens * avg_keys
        prefill_context_read += chunk.context_before
    attn_flops += self._attn_flops_scale * shape.decode_context_total
    compute += attn_flops / (self._peak_flops * self._mfu_attention)

    # --- memory path ---
    kv_read = self._kv_bytes_per_token * (
        shape.decode_context_total + prefill_context_read
    )
    kv_write = self._kv_bytes_per_token * total_tokens
    mem_bytes = self._weight_bytes + kv_read + kv_write
    memory = mem_bytes / self._bandwidth

    return max(compute, memory) + self._overhead



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


#: Iteration finish time of the kernel tests: dyadic, so a gap of
#: exactly ``tbt`` and a token exactly on its Eq. 2 deadline are
#: representable without rounding.
NOW = 3.0
DYADIC_TBTS = (0.0625, 0.125, 0.25)


class _KernelHarness:
    """Just enough engine state for the decode-advance kernels.

    Row ``j`` of the batch is built by kind ``j % 6``: fresh (no token
    yet), non-interactive, last gap exactly ``tbt``, token exactly on
    its deadline, finishing at this token (unless ``reachable`` is
    False: then no target is in reach), or random.  Completions remove
    the row and are recorded in order; the token hook records ``(id,
    decoded, completion_time, completions so far)``.
    """

    _advance_scalar = ReplicaEngine._advance_scalar
    _advance_vector = ReplicaEngine._advance_vector
    _complete_rows = ReplicaEngine._complete_rows
    _fire_token_hooks = ReplicaEngine._fire_token_hooks

    def __init__(self, seed, n, hooked=False, reachable=True):
        rng = np.random.default_rng(seed)
        self._rows = rows = _RowStore()
        self._rows_dirty = False
        self._decode_context_total = 0
        self.completed = []
        self.hook_log = []
        self.token_hook = self._record_token if hooked else None
        #: Rows this iteration finishes, by request id, in row order.
        self.finishing = []
        for j in range(n):
            kind = j % 6
            d0 = 0 if kind == 0 else int(rng.integers(1, 40))
            target = d0 + (1 if kind == 4 else int(rng.integers(2, 60)))
            if not reachable:
                target = 1 << 40
            request = Request(
                request_id=100 + j,
                arrival_time=0.0,
                prompt_tokens=int(rng.integers(1, 900)),
                decode_tokens=target,
                qos=DEFAULT_TIERS[j % 3],
            )
            request.prefill_done = request.prompt_tokens
            request.decoded = d0
            context = request.context_length
            i = rows.add(request, context, -(-context // 16))
            self._decode_context_total += context
            tbt = float(rng.choice(DYADIC_TBTS))
            rows.inter[i] = kind != 1
            rows.tbt[i] = tbt if kind != 1 else 0.0
            rows.ttft_base[i] = (
                np.nan if kind == 1 else float(rng.uniform(0.5, 4.0))
            )
            if kind == 3:
                rows.ttft_base[i] = NOW - d0 * tbt
            if d0:
                rows.first[i] = float(rng.uniform(0.0, 1.0))
                rows.last[i] = (
                    NOW - tbt if kind == 2 else float(rng.uniform(2.5, NOW))
                )
                rows.max_tbt[i] = float(rng.choice((0.0, tbt, 0.2)))
                rows.gap_miss[i] = int(rng.integers(0, 5))
                rows.ddl_miss[i] = int(rng.integers(0, 5))
            if j < n - 3 and d0 + 1 >= target:
                self.finishing.append(request.request_id)

    def _record_token(self, request, now):
        self.hook_log.append(
            (
                request.request_id,
                request.decoded,
                request.completion_time,
                len(self.completed),
            )
        )

    def _complete(self, request, now):
        rows = self._rows
        i = rows.index[request.request_id]
        rows.sync_row(i)
        self._decode_context_total -= int(rows.ctx[i])
        rows.remove_at(i)
        self.completed.append((request.request_id, request.completion_time))

    def state(self):
        rows = self._rows
        n = rows.n
        return (
            [r.request_id for r in rows.req],
            {name: getattr(rows, name)[:n] for name in rows._ARRAY_NAMES},
            self._decode_context_total,
            self.completed,
        )


def _assert_same_state(a, b):
    ids_a, cols_a, total_a, done_a = a.state()
    ids_b, cols_b, total_b, done_b = b.state()
    assert ids_a == ids_b
    for name, column in cols_a.items():
        np.testing.assert_array_equal(column, cols_b[name], err_msg=name)
    assert total_a == total_b
    assert done_a == done_b


class TestAdvanceKernels:
    """The decode-advance kernels agree bit for bit on a batch that
    mixes fresh and non-interactive rows, a gap exactly equal to
    ``tbt``, a token exactly on its deadline and rows finishing at
    this token, with three rows behind the batch (joined mid-flight)
    that must not advance."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [31, 32, 48])
    def test_scalar_equals_one_token_vector(self, m, seed):
        scalar = _KernelHarness(seed, m + 3)
        vector = _KernelHarness(seed, m + 3)
        finished_rows = scalar._advance_scalar(NOW, m)
        vector._advance_vector((NOW,), m)
        rows = vector._rows
        assert finished_rows == np.flatnonzero(
            rows.decoded[:m] >= rows.target[:m]
        ).tolist()
        assert finished_rows == [
            rows.index[rid] for rid in scalar.finishing
        ]
        _assert_same_state(scalar, vector)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [31, 32, 48])
    def test_token_hooks_fire_after_the_sweep(self, m, seed):
        plain = _KernelHarness(seed, m + 3)
        hooked = _KernelHarness(seed, m + 3, hooked=True)
        d0 = {r.request_id: r.decoded for r in plain._rows.req}
        batch = [r.request_id for r in plain._rows.req[:m]]
        plain._complete_rows(plain._advance_scalar(NOW, m), NOW)
        hooked._advance_vector((NOW,), m)
        hooked._fire_token_hooks(NOW, m)
        finishing = plain.finishing
        assert finishing
        assert plain.completed == [(rid, NOW) for rid in finishing]
        _assert_same_state(plain, hooked)
        # Every batch row's hook fires in row order, and a finished row
        # completes right after its own hook.
        expected = []
        completions = 0
        for rid in batch:
            done = rid in finishing
            expected.append(
                (rid, d0[rid] + 1, NOW if done else None, completions)
            )
            completions += done
        assert hooked.hook_log == expected

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("k", [2, 5, 17])
    @pytest.mark.parametrize("m", [5, 48])
    def test_window_equals_one_token_steps(self, m, k, seed):
        """One ``k``-token advance equals ``k`` one-token advances.

        The window's gaps are dyadic ``tbt`` values, so shared gaps
        exactly equal to a row's ``tbt`` occur and finish times are
        exact sums.
        """
        rng = np.random.default_rng(1000 + seed)
        gaps = rng.choice(DYADIC_TBTS, size=k - 1)
        times = np.add.accumulate(np.concatenate(((NOW,), gaps)))
        window = _KernelHarness(seed, m + 3, reachable=False)
        steps = _KernelHarness(seed, m + 3, reachable=False)
        window._advance_vector(times, m)
        for t in times:
            steps._advance_vector((float(t),), m)
        _assert_same_state(window, steps)


class TestDecodeSlackParity:
    """The row-backed view's decode slack equals the object sweep bit
    for bit, on both the scalar (< 32 rows) and the vector branch, in
    every clamp regime: blown interactive deadlines and
    non-interactive pace under the floor."""

    @pytest.mark.parametrize("num_rows", [7, 40], ids=["scalar", "vector"])
    def test_matches_object_sweep(self, execution_model, num_rows):
        rng = np.random.default_rng(num_rows)
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
            requests.append(request)
        view = make_view(execution_model, requests)
        floor = 0.025
        for now in (0.0, 7.5, 20.0, 599.0, 640.0, 1799.5, 1900.0):
            view.now = now
            assert view.decode_slack(floor) == decode_slack(
                now, requests, floor
            ), now


class TestFlatBatchTime:
    """The flat kernels reproduce the per-shape formula bit for bit."""

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
            assert batch_time(
                execution_model, shape
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
                assert flat[i] == batch_time(execution_model, shape)

    def test_pricing_helpers_match(self, execution_model):
        """Every ``ExecutionModel`` price is the reference formula on
        the equivalent shape."""
        em = execution_model
        shape = BatchShape([PrefillChunk(300, 700)], 9, 9 * 1100)
        assert em.batch_time(shape) == batch_time(em, shape)
        assert em.decode_batch_time(48, 48 * 1024) == batch_time(
            em, BatchShape(num_decodes=48, decode_context_total=48 * 1024)
        )
        alone = batch_time(em, BatchShape([PrefillChunk(512, 0)]))
        assert em.seconds_per_prefill_token(512) == alone / 512
        assert em.peak_prefill_throughput(512) == 512 / alone
        total = 0.0
        for done in range(0, 1300, 512):
            tokens = min(512, 1300 - done)
            total += batch_time(em, BatchShape([PrefillChunk(tokens, done)]))
        assert em.prefill_time(1300, 512) == total


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
