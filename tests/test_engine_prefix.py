"""Radix prefix cache: unit semantics, refcount no-leak property,
byte-identity pin for ``kv_reuse="off"``, and end-to-end reuse.

The no-leak property test mirrors the fault-suite style: random
interleavings of admit / KV-pressure relegation / eviction / crash /
cancel against a deliberately tiny KV ledger, with the tree and ledger
invariants re-derived from scratch after every step.  The byte-identity
pin carries event-stream checksums captured from the pre-prefix-cache
code: ``kv_reuse="off"`` must keep producing exactly those streams
for qoserve and medha.
"""

import hashlib
import json
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.api import ServeConfig, Session, build_trace
from repro.core.request import Request
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.engine.interface import KVLedger
from repro.engine.prefix import RadixPrefixCache
from repro.engine.rows import ArrayKVLedger
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.perfmodel import A100_80GB, LLAMA3_8B, ExecutionModel
from repro.schedulers import FCFSScheduler
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE
from repro.workload.sessions import (
    AGENT_PROFILE,
    SessionWorkload,
    session_turn_index,
)
from tests.conftest import Q2, make_request

BS = 16


def ids(n, base=0):
    return tuple(range(base, base + n))


def make_cache(capacity_tokens=1600):
    ledger = ArrayKVLedger(capacity_tokens=capacity_tokens, block_size=BS)
    cache = RadixPrefixCache(ledger)
    ledger.set_reclaimer(cache)
    return cache, ledger


class TestRadixUnit:
    def test_protocol_conformance(self):
        assert isinstance(ArrayKVLedger(160), KVLedger)

    def test_miss_then_insert_then_hit(self):
        cache, ledger = make_cache()
        assert cache.match_and_lock(1, ids(100), 99) == 0
        assert cache.misses == 1
        ledger.grow(1, 100)
        created, deduped = cache.insert_and_lock(1, ids(100))
        assert (created, deduped) == (6, 0)  # 100 // 16 full blocks
        # 6 node blocks + the request's 4-token remainder block.
        assert ledger.used_blocks == 7
        assert ledger.holding(1) == 4
        cache.unlock(1)
        hit = cache.match_and_lock(2, ids(100), 99)
        assert hit == 6 * BS  # 99-token cap still admits 6 full blocks
        assert cache.hits == 1 and cache.hit_tokens == 96
        cache.unlock(2)
        assert cache.total_refs() == 0

    def test_insert_dedupes_shared_blocks(self):
        cache, ledger = make_cache()
        ledger.grow(1, 64)
        cache.insert_and_lock(1, ids(64))
        used = ledger.used_blocks
        # A second request recomputed the same 4 blocks privately.
        ledger.grow(2, 64)
        created, deduped = cache.insert_and_lock(2, ids(64))
        assert (created, deduped) == (0, 4)
        assert ledger.used_blocks == used  # duplicates freed
        assert ledger.holding(2) == 0
        cache.unlock(1)
        cache.unlock(2)

    def test_matched_prefix_not_deduped_on_insert(self):
        cache, ledger = make_cache()
        ledger.grow(1, 64)
        cache.insert_and_lock(1, ids(64))
        cache.unlock(1)
        # Request 2 matched 64 tokens at admission: it never held those
        # blocks privately, so insert must only dedupe beyond them.
        assert cache.match_and_lock(2, ids(96), 95) == 64
        ledger.grow(2, 32)  # the uncached suffix only
        created, deduped = cache.insert_and_lock(2, ids(96))
        assert (created, deduped) == (2, 0)
        assert ledger.holding(2) == 0
        cache.unlock(2)
        assert cache.total_refs() == 0

    def test_double_lock_raises(self):
        cache, ledger = make_cache()
        ledger.grow(1, 32)
        cache.insert_and_lock(1, ids(32))
        with pytest.raises(RuntimeError, match="already holds"):
            cache.match_and_lock(1, ids(32), 31)

    def test_unlock_is_idempotent(self):
        cache, ledger = make_cache()
        ledger.grow(1, 32)
        cache.insert_and_lock(1, ids(32))
        cache.unlock(1)
        cache.unlock(1)
        assert cache.total_refs() == 0

    def test_reclaim_lru_leaves_first(self):
        cache, ledger = make_cache()
        ledger.grow(1, 48)
        cache.insert_and_lock(1, ids(48))
        cache.unlock(1)
        # Touch the shallow prefix via a short re-match.
        assert cache.match_and_lock(2, ids(16), 1000) == 16
        cache.unlock(2)
        freed = cache.reclaim(1)
        assert freed == 1 and cache.evictions == 1
        # The deepest (least recently touched path end) went first;
        # the root-adjacent block is still matchable.
        assert cache.match_and_lock(3, ids(48), 1000) == 32
        cache.unlock(3)

    def test_reclaim_skips_referenced_paths(self):
        cache, ledger = make_cache()
        ledger.grow(1, 48)
        cache.insert_and_lock(1, ids(48))  # still locked
        assert cache.reclaimable_blocks() == 0
        assert cache.reclaim(10) == 0
        cache.unlock(1)
        assert cache.reclaimable_blocks() == 3
        assert cache.reclaim(10) == 3
        assert ledger.used_blocks == 0

    def test_ledger_reclaims_under_pressure(self):
        cache, ledger = make_cache(capacity_tokens=160)  # 10 blocks
        ledger.grow(1, 96)
        cache.insert_and_lock(1, ids(96))
        cache.unlock(1)
        assert ledger.used_blocks == 6
        # 4 free blocks; growing 7 must reclaim 3 evictable nodes.
        assert ledger.can_grow(2, 7 * BS)
        ledger.grow(2, 7 * BS)
        assert cache.evictions == 3
        assert ledger.used_blocks == 3 + 7

    def test_flush_releases_everything(self):
        cache, ledger = make_cache()
        ledger.grow(1, 96)
        cache.insert_and_lock(1, ids(96))
        assert cache.flush() == 6
        assert cache.cached_blocks == 0
        assert cache.total_refs() == 0
        assert ledger.used_blocks == 0
        cache.unlock(1)  # stale lock entry is gone; must not raise

    def test_insert_can_empty_a_holding(self):
        # Prompt an exact multiple of the block size, fully shared:
        # dedupe frees every private block and the holding vanishes.
        cache, ledger = make_cache()
        ledger.grow(1, 64)
        cache.insert_and_lock(1, ids(64))
        ledger.grow(2, 64)
        cache.insert_and_lock(2, ids(64))
        assert 2 not in ledger.holders()
        cache.unlock(1)
        cache.unlock(2)


def _drive_cache(convert, seed):
    """A seeded admit (match) / prefill-finish (insert) / release
    (unlock) sequence against a small ledger; returns every outcome."""
    cache, ledger = make_cache(capacity_tokens=48 * BS)
    rng = np.random.default_rng(seed)
    matched: dict[int, tuple[tuple[int, ...], int]] = {}
    inserted: set[int] = set()
    outcomes = []
    for rid in range(400):
        op = int(rng.integers(0, 3))
        if op == 0:
            # Four streams: prompts of one stream share their prefix.
            n = int(rng.integers(1, 300))
            tokens = ids(n, int(rng.integers(0, 4)) * 100_000)
            hit = cache.match_and_lock(rid, convert(tokens), n - 1)
            matched[rid] = (tokens, hit)
            outcomes.append(("match", hit))
        elif op == 1 and matched:
            done = sorted(matched)[int(rng.integers(len(matched)))]
            tokens, hit = matched.pop(done)
            if ledger.can_grow(done, len(tokens) - hit):
                ledger.grow(done, len(tokens) - hit)
                outcomes.append(
                    ("insert", cache.insert_and_lock(done, convert(tokens)))
                )
                inserted.add(done)
            else:
                cache.unlock(done)
        elif op == 2 and inserted:
            done = sorted(inserted)[int(rng.integers(len(inserted)))]
            inserted.discard(done)
            cache.unlock(done)
            ledger.release(done)
        outcomes.append((cache.cached_blocks, cache.total_refs()))
    return outcomes, cache


@pytest.mark.parametrize("seed", [0, 5])
def test_tuple_and_array_inputs_agree(seed):
    as_tuple, cache = _drive_cache(tuple, seed)
    as_array, _ = _drive_cache(lambda t: array("q", t), seed)
    assert as_tuple == as_array
    inserts = [o[1] for o in as_tuple if o[0] == "insert"]
    assert any(created for created, _ in inserts)
    assert any(deduped for _, deduped in inserts)
    assert cache.hits > 0 and cache.evictions > 0


class TestCompactTokenIdentity:
    def test_request_stores_int64_array_shared_by_clones(self):
        request = Request(
            request_id=0, arrival_time=0.0, prompt_tokens=3,
            decode_tokens=1, qos=Q2, token_ids=(5, 6, 7),
        )
        assert isinstance(request.token_ids, array)
        assert request.token_ids.typecode == "q"
        assert request.token_ids.tolist() == [5, 6, 7]
        assert request.clone_fresh().token_ids is request.token_ids

    def test_int64_array_adopted_without_copy(self):
        tokens = array("q", range(4))
        request = Request(
            request_id=0, arrival_time=0.0, prompt_tokens=4,
            decode_tokens=1, qos=Q2, token_ids=tokens,
        )
        assert request.token_ids is tokens

    def test_token_id_outside_int64_rejected(self):
        with pytest.raises(OverflowError):
            Request(
                request_id=0, arrival_time=0.0, prompt_tokens=1,
                decode_tokens=1, qos=Q2, token_ids=(2**63,),
            )

    def test_session_prompts_cost_at_most_ten_bytes_per_token(self):
        workload = SessionWorkload(AGENT_PROFILE, seed=0)
        workload.build(1)  # warm up: lazy imports are not prompt storage
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = workload.build(20)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tokens = sum(r.prompt_tokens for r in trace)
        assert held / tokens <= 10


class TestUsedTokensCounter:
    """The O(1) running counter stays exact under arbitrary churn."""

    @staticmethod
    def brute_force(ledger):
        return sum(ledger.holding(h) for h in ledger.holders())

    def test_array_ledger_exact_under_churn(self):
        rng = np.random.default_rng(7)
        kv = ArrayKVLedger(capacity_tokens=100_000, block_size=BS)
        live = set()
        for step in range(400):
            op = rng.integers(0, 10)
            rid = int(rng.integers(0, 12))
            if op < 6:
                tokens = int(rng.integers(1, 300))
                if kv.can_grow(rid, tokens):
                    kv.grow(rid, tokens)
                    live.add(rid)
            elif op < 8 and rid in live:
                kv.release(rid)
                live.discard(rid)
            elif rid in live and kv.holding(rid) >= BS:
                blocks = int(rng.integers(1, kv.holding(rid) // BS + 1))
                kv.shrink(rid, blocks * BS, blocks)
                if rid not in kv.holders():
                    live.discard(rid)
            assert kv.used_tokens == self.brute_force(kv)
        for rid in sorted(live):
            kv.release(rid)
        assert kv.used_tokens == 0

    def test_engine_cancel_keeps_counter_exact(self, execution_model):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(),
        )
        requests = [
            make_request(request_id=i, prompt_tokens=700, decode_tokens=30)
            for i in range(6)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(until=0.05)
        kv = engine.kv_cache
        assert kv.used_tokens == self.brute_force(kv)
        victim = next(r for r in requests if not r.is_finished)
        engine.cancel_request(victim, "test")
        assert kv.used_tokens == self.brute_force(kv)
        sim.run()
        assert kv.used_tokens == self.brute_force(kv)


def _tree_invariants(engine):
    """Re-derive every tree/ledger invariant from scratch."""
    cache = engine.prefix_cache
    ledger = engine.kv_cache
    nodes = []
    stack = list(cache._root.children.values())
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children.values())
        for child in node.children.values():
            # Locking increments every ancestor.
            assert node.ref_count >= child.ref_count
        # Every resident node owns exactly one ledger block.
        assert node.alive
        assert node.owner_id < 0
        assert ledger.holding(node.owner_id) == ledger.block_size
    assert len(nodes) == cache.cached_blocks
    assert cache.reclaimable_blocks() == sum(
        1 for n in nodes if n.ref_count == 0
    )
    # Locked paths account for every reference in the tree.
    assert cache.total_refs() == sum(
        node.depth for node in cache._locked.values()
    )
    # Ledger conservation: the running token counter is exact.
    assert ledger.used_tokens == sum(
        ledger.holding(h) for h in ledger.holders()
    )


# The "-arrays" suffix keeps the ids from when both engine cores ran
# this property; the struct-of-arrays core is the one left.
@pytest.mark.parametrize("seed", [3, 17], ids=lambda seed: f"{seed}-arrays")
def test_refcounts_never_leak_property(seed):
    """Random admit/relegate/evict/crash/cancel interleavings: the
    radix tree must never leak a reference or a ledger block."""
    execution_model = ExecutionModel(LLAMA3_8B, A100_80GB)
    # Tiny KV so eviction, stall relegation and reclaim all fire.
    execution_model._kv_capacity_tokens = 8 * 1024
    sim = Simulator()
    engine = ReplicaEngine(
        sim, execution_model, FCFSScheduler(chunk_size=256),
        ReplicaConfig(kv_reuse="radix"),
    )
    rng = np.random.default_rng(seed)
    streams: dict[int, int] = {}
    generation: dict[int, int] = {}
    submitted: list[Request] = []
    next_id = 0

    for step in range(140):
        op = int(rng.integers(0, 12))
        if op < 6 and engine.healthy:
            sid = int(rng.integers(0, 5))
            prev = streams.get(sid, 0)
            grow = int(rng.integers(64, 700))
            total = prev + grow
            if total > 2600:  # context window: start a fresh thread
                generation[sid] = generation.get(sid, 0) + 1
                total = grow
            streams[sid] = total
            base = (sid * 131 + generation.get(sid, 0)) * 1_000_000
            request = Request(
                request_id=next_id,
                arrival_time=sim.now,
                prompt_tokens=total,
                decode_tokens=int(rng.integers(4, 40)),
                qos=Q2,
                token_ids=ids(total, base),
                session_id=f"s{sid}",
            )
            next_id += 1
            engine.submit_now(request)
            submitted.append(request)
        elif op < 9:
            sim.run(until=sim.now + float(rng.uniform(0.02, 0.4)))
        elif op < 11:
            unfinished = [
                r for r in submitted
                if not r.is_finished and not r.cancelled
            ]
            if unfinished and engine.healthy:
                victim = unfinished[int(rng.integers(len(unfinished)))]
                engine.cancel_request(victim, "property-test")
        else:
            if engine.healthy and engine.kv_cache.used_blocks > 0:
                engine.crash()
                assert engine.prefix_cache.cached_blocks == 0
                assert engine.kv_cache.used_blocks == 0
                engine.recover()
        _tree_invariants(engine)

    sim.run()  # drain everything still in flight
    _tree_invariants(engine)
    cache = engine.prefix_cache
    assert cache.total_refs() == 0, "locks leaked past completion"
    assert cache.locked_requests == []
    # Only unreferenced tree nodes may still hold ledger blocks.
    assert set(engine.kv_cache.holders()) == {
        n for n in engine.kv_cache.holders() if n < 0
    }
    assert engine.kv_cache.used_blocks == cache.cached_blocks
    assert cache.hits > 0, "property workload never exercised reuse"
    assert cache.evictions > 0, "tiny ledger never forced eviction"


#: Event-stream SHA-256 of (workload, scheduler, engine) runs captured
#: from the pre-prefix-cache tree (commit 2ca55ed).  ``kv_reuse="off"``
#: must reproduce these byte-for-byte, forever.
PRE_PR_CHECKSUMS = {
    ("azure", "qoserve"):
        "7cc3dd9693d03557cc59fcb503d18269890201909d2165141c72146880e9c968",
    ("azure", "medha"):
        "a193979fe1481b38ad5c73de4ad0cbc589b29df171e2983fa756cfc26d873e50",
    ("sessions", "qoserve"):
        "f0c14737fd1e85486b5f6b674f3f73e7181a136c02c6cabfa1758cdbadb8e926",
    ("sessions", "medha"):
        "c82a75e73519377e9a74b0c392fe5d5002b5abe2f6ec1bcf590b271043c95305",
}


def _event_checksum(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(
            event, sort_keys=True, separators=(",", ":")
        ).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _run_off_mode(requests, scheduler):
    sink = ListSink()
    observer = TracingObserver(TraceRecorder([sink]))
    session = Session(
        ServeConfig(scheduler=scheduler, kv_reuse="off"),
        observer=observer,
    )
    for request in requests:
        session.submit(request.clone_fresh())
    session.drain()
    return sink.events


class TestOffModeByteIdentity:
    @pytest.fixture(scope="class")
    def workloads(self):
        return {
            "azure": list(build_trace(
                AZURE_CODE, qps=3.0, num_requests=60, seed=42
            )),
            "sessions": list(SessionWorkload(
                session_qps=0.5, seed=7
            ).build(25)),
        }

    @pytest.mark.parametrize("scheduler", ["qoserve", "medha"])
    @pytest.mark.parametrize("workload", ["azure", "sessions"])
    def test_matches_pre_pr_trace(self, workloads, workload, scheduler):
        expected = PRE_PR_CHECKSUMS[(workload, scheduler)]
        events = _run_off_mode(workloads[workload], scheduler)
        assert _event_checksum(events) == expected, (
            f"kv_reuse='off' diverged from the pre-PR event "
            f"stream ({workload}/{scheduler})"
        )


class TestPrefixReuseEndToEnd:
    def test_engines_agree_and_reuse_pays(self):
        trace = list(SessionWorkload(
            AGENT_PROFILE, session_qps=0.5, seed=7
        ).build(15))
        session = Session(ServeConfig(scheduler="qoserve", kv_reuse="radix"))
        requests = [r.clone_fresh() for r in trace]
        for request in requests:
            session.submit(request)
        session.drain()
        cache = session.engines[0].prefix_cache
        assert cache is not None
        assert cache.total_refs() == 0
        assert all(r.is_finished for r in requests)
        stats = (
            cache.hits, cache.misses, cache.hit_tokens, cache.evictions,
            session.engines[0].kv_cache.used_blocks,
        )
        # What the object and array engine cores both produced while
        # they ran side by side.
        assert stats == (79, 1, 223408, 0, 2360)
        hits, misses, hit_tokens, _, _ = stats
        assert hits > misses  # multi-turn traffic is hit-dominated
        assert hit_tokens > 0

    def test_off_mode_has_no_cache(self):
        session = Session(ServeConfig(kv_reuse="off"))
        assert session.engines[0].prefix_cache is None

    def test_prefill_only_never_builds_cache(self, execution_model):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(kv_reuse="radix", prefill_only=True),
            prefill_sink=lambda request, now: None,
        )
        assert engine.prefix_cache is None

    def test_hit_shrinks_prefill_work(self, execution_model):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(kv_reuse="radix"),
        )
        first = Request(
            request_id=0, arrival_time=0.0, prompt_tokens=512,
            decode_tokens=4, qos=Q2, token_ids=ids(512),
        )
        engine.submit_now(first)
        sim.run()
        assert first.is_finished
        second = Request(
            request_id=1, arrival_time=sim.now, prompt_tokens=512,
            decode_tokens=4, qos=Q2, token_ids=ids(512),
        )
        engine.submit_now(second)
        # Matched at admission: all but the final partial chunk of
        # prefill is already done (cap at prompt_tokens - 1).
        assert second.prefill_done == 496
        sim.run()
        assert second.is_finished
        cache = engine.prefix_cache
        assert cache.hits == 1 and cache.hit_tokens == 496

    def test_config_validation(self):
        with pytest.raises(ValueError, match="kv_reuse"):
            ServeConfig(kv_reuse="lru")
        with pytest.raises(ValueError, match="kv_reuse"):
            ReplicaConfig(kv_reuse="lru")


class TestConversationHelper:
    def test_turns_chain_and_reuse_fires(self):
        session = Session(ServeConfig(kv_reuse="radix"))
        conversation = session.conversation(system_prompt_tokens=64)
        previous = None
        for turn in range(3):
            request = conversation.turn(
                request_id=turn,
                user_tokens=100,
                decode_tokens=8,
                arrival_time=session.now,
            )
            assert request.session_id == conversation.session_id
            assert request.parent_request_id == (
                previous.request_id if previous is not None else None
            )
            if previous is not None:
                assert request.token_ids[: previous.prompt_tokens] == (
                    previous.token_ids
                )
                assert request.prompt_tokens == (
                    previous.prompt_tokens + 8 + 100
                )
            session.submit_now(request)
            session.drain()
            assert request.is_finished
            previous = request
        cache = session.engines[0].prefix_cache
        assert cache.hits == 2  # turns 2 and 3 matched turn 1's path
        assert cache.total_refs() == 0

    def test_next_turn_leaves_earlier_turn_untouched(self):
        conversation = Session(ServeConfig()).conversation(
            system_prompt_tokens=16
        )
        first = conversation.turn(
            request_id=0, user_tokens=20, decode_tokens=4
        )
        snapshot = first.token_ids.tolist()
        second = conversation.turn(
            request_id=1, user_tokens=30, decode_tokens=4
        )
        assert first.token_ids.tolist() == snapshot
        assert len(first.token_ids) == first.prompt_tokens == 36
        assert second.token_ids[:36] == first.token_ids
        assert second.token_ids is not first.token_ids

    def test_conversations_share_system_prompt(self):
        session = Session(ServeConfig(kv_reuse="off"))
        a = session.conversation(system_prompt_tokens=32)
        b = session.conversation(system_prompt_tokens=32)
        ra = a.turn(request_id=0, user_tokens=50, decode_tokens=4)
        rb = b.turn(request_id=1, user_tokens=50, decode_tokens=4)
        assert a.session_id != b.session_id
        assert ra.token_ids[:32] == rb.token_ids[:32]
        assert set(ra.token_ids[32:]).isdisjoint(rb.token_ids[32:])

    def test_rejects_empty_user_turn(self):
        conversation = Session(ServeConfig()).conversation()
        with pytest.raises(ValueError):
            conversation.turn(
                request_id=0, user_tokens=0, decode_tokens=4
            )


class TestSessionsTokenStreams:
    def test_deterministic_and_prefix_extending(self):
        build = lambda: SessionWorkload(
            AGENT_PROFILE, session_qps=0.5, seed=3
        ).build(12)
        first, second = build(), build()
        assert [r.token_ids for r in first] == [
            r.token_ids for r in second
        ]
        for turns in session_turn_index(first).values():
            for early, late in zip(turns, turns[1:]):
                assert late.parent_request_id == early.request_id
                assert late.session_id == early.session_id
                shared = min(len(early.token_ids), len(late.token_ids))
                assert late.token_ids[:shared] == (
                    early.token_ids[:shared]
                )

    def test_shared_system_prompt_across_sessions(self):
        trace = SessionWorkload(
            AGENT_PROFILE, session_qps=0.5, seed=3
        ).build(12)
        openers = [
            turns[0] for turns in session_turn_index(trace).values()
        ]
        assert len(openers) >= 2
        shared = AGENT_PROFILE.shared_prefix_tokens
        reference = openers[0].token_ids[:shared]
        for opener in openers[1:]:
            n = min(shared, len(opener.token_ids))
            assert opener.token_ids[:n] == reference[:n]

    def test_token_ids_match_prompt_length(self):
        trace = SessionWorkload(session_qps=1.0, seed=9).build(10)
        for request in trace:
            assert request.token_ids is not None
            assert len(request.token_ids) == request.prompt_tokens
