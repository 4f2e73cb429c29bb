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
* the engine's iteration log vs the per-row decode kernels it
  replaced, kept in ``tests/decode_reference.py``: one iteration vs
  the scalar sweep and the one-token vector advance, one ``k``-token
  window (a decode stretch) vs ``k`` iterations, token hooks in row
  order with each finished row completing right after its own hook,
  and seeded streams of admissions, mid-flight joins and cancels,
  evictions, iterations, stretch windows and per-row pressure grows,
  on rows that sit exactly on a gap or deadline boundary;
* the KV ledger vs a plain model of paged block math at block sizes 1
  and 16 with off-by-one token counts;
* the ``ServeConfig.engine`` field, which accepts only the one core.

Whole-run behaviour is pinned by checksums in
``tests/test_engine_pins.py``.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Iterable

import numpy as np
import pytest

from repro.api import ServeConfig, Session
from repro.core.qos import DEFAULT_TIERS
from repro.core.request import Request
from repro.engine import ReplicaEngine
from repro.engine import rows as rows_module
from repro.engine.rows import ArrayKVLedger, _RowStore
from repro.perfmodel.execution import BatchShape, PrefillChunk
from tests import decode_reference
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
BLOCK_SIZE = 16


class _Reclaimer:
    """A prefix-cache stand-in: ``blocks`` unreferenced blocks under
    one ledger owner; every reclaim is logged."""

    OWNER = -1

    def __init__(self, ledger, blocks):
        self.ledger = ledger
        self.blocks = blocks
        self.reclaims = []
        if blocks:
            ledger.grow(self.OWNER, blocks * ledger.block_size)
        ledger.set_reclaimer(self)

    def reclaimable_blocks(self):
        return self.blocks

    def reclaim(self, blocks):
        blocks = min(blocks, self.blocks)
        self.ledger.shrink(
            self.OWNER, blocks * self.ledger.block_size, blocks
        )
        self.blocks -= blocks
        self.reclaims.append(blocks)
        return blocks


class _Twin:
    """Just enough engine state to drive decode accounting.

    One side runs the engine's iteration log, the other the per-row
    kernels it replaced (:mod:`tests.decode_reference`).  Both record
    completions ``(id, completion_time)``, evictions, and with
    ``hooked`` the token hook's ``(id, decoded, completion_time,
    completions so far)``.
    """

    def __init__(self, rows, ledger, hooked=False, reclaim_blocks=0):
        self._rows = rows
        self.kv_cache = ledger
        self.reclaimer = _Reclaimer(ledger, reclaim_blocks)
        self._rows_dirty = False
        self.kv_pressure_iterations = 0
        self.completed = []
        self.evicted = []
        self.hook_log = []
        self.token_hook = self._record_token if hooked else None

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
        self._detach_decode(request)
        self.completed.append((request.request_id, request.completion_time))

    def _evict_decode(self, request):
        self._detach_decode(request)
        request.evict()
        self.evicted.append(request.request_id)

    def admit(self, request, kv_tokens):
        """Attach a prefilled request holding ``kv_tokens`` KV tokens;
        False (nothing changed) when they do not fit."""
        if not self.kv_cache.can_grow(request.request_id, kv_tokens):
            return False
        self.kv_cache.grow(request.request_id, kv_tokens)
        self._attach_decode(request, request.context_length)
        return True

    def stamp(self):
        """Start an iteration: reserve the batch's KV growth."""
        self._reserve_decode_growth()
        self._rows.batch_n = self._rows.n

    def cancel(self, request):
        self._detach_decode(request)
        self.kv_cache.release(request.request_id)

    def state(self):
        """Everything the two sides must agree on, rows synced on a
        copy (syncing folds the log, which must not steer the run)."""
        rows = copy.deepcopy(self._rows)
        n = rows.n
        for i in range(n):
            rows.sync_row(i)
        ledger = self.kv_cache
        return {
            "ids": [r.request_id for r in rows.req],
            "requests": [
                (
                    r.decoded, r.first_token_time, r.last_token_time,
                    r.max_tbt, r.tbt_gap_misses, r.tbt_deadline_misses,
                )
                for r in rows.req
            ],
            # NaN (no token yet) as None: NaN never compares equal.
            "columns": {
                name: [
                    None if x != x else x
                    for x in getattr(rows, name)[:n].tolist()
                ]
                for name in (
                    "decoded", "target", "ctx", "kv_tokens", "kv_blocks",
                    "first", "last", "max_tbt", "gap_miss", "ddl_miss",
                )
            },
            "context_total": self._decode_context_total,
            "completed": list(self.completed),
            "evicted": list(self.evicted),
            "hooks": list(self.hook_log),
            "ledger": (
                ledger.used_blocks,
                ledger.used_tokens,
                ledger.high_water_blocks,
                ledger.reclaimable_blocks,
                ledger.holders(),
            ),
            "reclaims": list(self.reclaimer.reclaims),
        }


class _LogTwin(_Twin):
    """The engine's iteration log, through the engine's own methods."""

    _detach_decode = ReplicaEngine._detach_decode
    _finish_decodes = ReplicaEngine._finish_decodes
    _fire_token_hooks = ReplicaEngine._fire_token_hooks
    _complete_rows = ReplicaEngine._complete_rows
    _reserve_decode_growth = ReplicaEngine._reserve_decode_growth
    _pick_eviction_victim = ReplicaEngine._pick_eviction_victim
    _decode_context_total = ReplicaEngine._decode_context_total

    def __init__(self, capacity_blocks, block_size=BLOCK_SIZE, **kwargs):
        rows = _RowStore()
        ledger = ArrayKVLedger(
            capacity_blocks * block_size, block_size, rows
        )
        super().__init__(rows, ledger, **kwargs)

    def _attach_decode(self, request, context):
        ReplicaEngine._attach_decode(self, request)

    def finish(self, now):
        self._finish_decodes(now)

    def stretch(self, times):
        """The commit of ``ReplicaEngine._decode_stretch``."""
        self._rows.log_window(times)
        self.kv_cache.stretch_grow(len(times))


class _ReferenceTwin(decode_reference.DecodeKernels, _Twin):
    """The per-row kernels the iteration log replaced."""

    def __init__(self, capacity_blocks, block_size=BLOCK_SIZE, **kwargs):
        rows = decode_reference._RowStore()
        ledger = decode_reference.ArrayKVLedger(
            capacity_blocks * block_size, block_size, rows
        )
        self._decode_context_total = 0
        super().__init__(rows, ledger, **kwargs)


def _make_request(request_id, rng, kind, next_time, reachable=True):
    """A prefilled decode request of kind ``kind % 6``: fresh (no token
    yet), non-interactive, last gap exactly ``tbt`` at ``next_time``,
    token exactly on its deadline at ``next_time``, one token left
    (unless ``reachable`` is False: then no target is in reach), or
    random.  Returns it with the ``(inter, tbt, ttft_base)`` row
    overrides that place those ties."""
    kind %= 6
    d0 = 0 if kind == 0 else int(rng.integers(1, 40))
    target = d0 + (1 if kind == 4 else int(rng.integers(2, 60)))
    if not reachable:
        target = 1 << 40
    request = Request(
        request_id=request_id,
        arrival_time=0.0,
        prompt_tokens=int(rng.integers(1, 300)),
        decode_tokens=target,
        qos=DEFAULT_TIERS[request_id % 3],
    )
    request.prefill_done = request.prompt_tokens
    request.decoded = d0
    tbt = float(rng.choice(DYADIC_TBTS))
    inter = kind != 1
    ttft_base = (
        float(rng.integers(8, 64)) / 16.0 if inter else float("nan")
    )
    if kind == 3:
        ttft_base = next_time - d0 * tbt
    if d0:
        request.first_token_time = float(rng.integers(0, 16)) / 16.0
        request.last_token_time = (
            next_time - tbt
            if kind == 2
            else next_time - float(rng.integers(1, 8)) / 16.0
        )
        request.max_tbt = float(rng.choice((0.0, tbt, 0.1875)))
        request.tbt_gap_misses = int(rng.integers(0, 5))
        request.tbt_deadline_misses = int(rng.integers(0, 5))
    return request, (inter, tbt if inter else 0.0, ttft_base)


def _admit(
    twins, request_id, seed, kind, next_time, kv_tokens=None, reachable=True
):
    """Admit identical copies of one request to every twin."""
    admitted = []
    for twin in twins:
        rng = np.random.default_rng((seed, request_id))
        request, overrides = _make_request(
            request_id, rng, kind, next_time, reachable
        )
        tokens = request.context_length if kv_tokens is None else kv_tokens
        admitted.append(twin.admit(request, tokens))
        if admitted[-1]:
            rows = twin._rows
            i = rows.index[request_id]
            rows.inter[i], rows.tbt[i], rows.ttft_base[i] = overrides
    assert len(set(admitted)) == 1
    return admitted[0]


def _assert_same(a, b):
    sa, sb = a.state(), b.state()
    for key in sa:
        assert sa[key] == sb[key], key


def _batch(seed, m, *twins):
    """``m`` rows stamped into an iteration, then three rows that join
    it mid-flight and must not advance."""
    for j in range(m):
        _admit(twins, 100 + j, seed, j, NOW)
    for twin in twins:
        twin.stamp()
    for j in range(m, m + 3):
        _admit(twins, 100 + j, seed, j, NOW)


class TestAdvanceKernels:
    """The iteration log against the per-row kernels it replaced
    (``tests/decode_reference.py``), bit for bit: on a batch that mixes
    fresh and non-interactive rows, a gap exactly equal to ``tbt``, a
    token exactly on its deadline and rows finishing at this token,
    with three rows behind the batch (joined mid-flight) that must not
    advance; and on seeded streams of admissions, mid-flight joins and
    cancels, evictions, iterations, stretch windows and per-row
    pressure grows."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [31, 32, 48])
    def test_scalar_equals_one_token_vector(self, m, seed):
        """One logged iteration equals the reference's scalar sweep
        and its one-token vector kernel, completions included."""
        log = _LogTwin(1 << 12)
        scalar = _ReferenceTwin(1 << 12)
        vector = _ReferenceTwin(1 << 12)
        _batch(seed, m, log, scalar, vector)
        log.finish(NOW)
        scalar._complete_rows(scalar._advance_scalar(NOW, m), NOW)
        vector._advance_vector((NOW,), m)
        rows = vector._rows
        vector._complete_rows(
            np.flatnonzero(rows.decoded[:m] >= rows.target[:m]).tolist(),
            NOW,
        )
        assert log.completed
        _assert_same(log, scalar)
        _assert_same(log, vector)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [31, 32, 48])
    def test_token_hooks_fire_after_the_sweep(self, m, seed):
        """Token hooks fire row by row in batch order, each on its
        synced request, and a finished row completes right after its
        own hook, as with the reference kernels."""
        log = _LogTwin(1 << 12, hooked=True)
        reference = _ReferenceTwin(1 << 12, hooked=True)
        _batch(seed, m, log, reference)
        batch = [r.request_id for r in log._rows.req[:m]]
        log.finish(NOW)
        reference.finish(NOW)
        _assert_same(log, reference)
        assert [entry[0] for entry in log.hook_log] == batch
        assert log.completed

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("k", [2, 5, 17])
    @pytest.mark.parametrize("m", [5, 48])
    def test_window_equals_one_token_steps(self, m, k, seed):
        """One logged ``k``-iteration window (a decode stretch) equals
        ``k`` reference iterations and ``k`` logged ones.

        The window's gaps are dyadic ``tbt`` values, so shared gaps
        exactly equal to a row's ``tbt`` occur and finish times are
        exact sums.
        """
        rng = np.random.default_rng(1000 + seed)
        gaps = rng.choice(DYADIC_TBTS, size=k - 1)
        times = np.add.accumulate(np.concatenate(((NOW,), gaps)))
        window = _LogTwin(1 << 12)
        steps = _LogTwin(1 << 12)
        reference = _ReferenceTwin(1 << 12)
        twins = (window, steps, reference)
        for j in range(m):
            _admit(twins, 100 + j, seed, j, NOW, reachable=False)
        window.stretch(times)
        for twin in (steps, reference):
            for t in times:
                twin.stamp()
                twin.finish(float(t))
        _assert_same(window, steps)
        _assert_same(window, reference)

    @pytest.mark.parametrize("fold", ["scalar", "numpy"])
    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    @pytest.mark.parametrize("seed", range(6))
    def test_op_stream_matches_reference(
        self, seed, hooked, fold, monkeypatch
    ):
        """A seeded stream of every operation that moves decode rows,
        compared after each step, with every fold taking one form.
        Odd seeds fold every row and empty the iteration log every few
        entries."""
        monkeypatch.setattr(
            rows_module, "_FOLD_SCALAR", 1 << 30 if fold == "scalar" else 0
        )
        if seed % 2:
            monkeypatch.setattr(rows_module, "_LOG_SIZE", 4)
        rng = np.random.default_rng(seed)
        block_size = (16, 4, 1)[seed % 3]
        capacity = int(rng.integers(40, 120))
        kwargs = dict(
            block_size=block_size,
            hooked=hooked,
            reclaim_blocks=int(rng.integers(0, 30)),
        )
        log = _LogTwin(capacity, **kwargs)
        reference = _ReferenceTwin(capacity, **kwargs)
        twins = (log, reference)
        now = NOW
        next_id = 1000
        inflight = False
        counts = Counter()
        for step in range(500):
            gap = float(rng.integers(1, 5)) / 16.0
            rows = log._rows
            roll = rng.random()
            if roll < 0.22:
                kind = int(rng.integers(0, 6))
                tokens = None
                if rng.random() < 0.5:
                    # Block-aligned and off-by-one holdings.
                    tokens = int(rng.integers(1, 6)) * block_size - int(
                        rng.integers(0, 2)
                    )
                    tokens = max(tokens, 1)
                if _admit(twins, next_id, seed, kind, now + gap, tokens):
                    counts["join" if inflight else "admit"] += 1
                next_id += 1
            elif roll < 0.30 and rows.n:
                victim = rows.req[int(rng.integers(0, rows.n))].request_id
                for twin in twins:
                    twin.cancel(twin._rows.req[twin._rows.index[victim]])
                counts["cancel" if not inflight else "mid-cancel"] += 1
            elif inflight:
                now += gap
                for twin in twins:
                    twin.finish(now)
                inflight = False
                counts["iteration"] += 1
            elif roll < 0.45 and rows.n:
                k = int(rng.choice((2, 5, 17)))
                remaining = rows.target[: rows.n] - rows.decoded[: rows.n]
                ledger = log.kv_cache
                fits = ledger.stretch_need(k) <= (
                    ledger.free_blocks + ledger.reclaimable_blocks
                )
                if int(remaining.min()) > k and fits:
                    gaps = rng.integers(1, 5, size=k) / 16.0
                    times = now + np.add.accumulate(gaps)
                    for twin in twins:
                        twin.stretch(times)
                    now = float(times[-1])
                    counts["stretch"] += 1
            else:
                for twin in twins:
                    twin.stamp()
                inflight = True
                counts["pressure"] = log.kv_pressure_iterations
            _assert_same(log, reference)
        assert log.kv_pressure_iterations == reference.kv_pressure_iterations
        # The stream reached every operation.
        for op in (
            "admit", "join", "cancel", "mid-cancel", "iteration", "stretch",
        ):
            assert counts[op], (op, counts)
        assert log.completed and log.evicted and counts["pressure"]


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
