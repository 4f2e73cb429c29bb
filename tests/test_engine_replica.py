"""Unit and integration tests for the replica engine."""

import pytest

from repro.api import make_scheduler
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.schedulers import FCFSScheduler
from repro.simcore import Simulator
from tests.conftest import (
    Q1,
    Q2,
    make_request,
    small_memory_model,
    stall_requests,
)


def run_engine(requests, execution_model, scheduler=None, config=None,
               prefill_sink=None):
    sim = Simulator()
    engine = ReplicaEngine(
        sim,
        execution_model,
        scheduler or FCFSScheduler(chunk_size=256),
        config or ReplicaConfig(),
        prefill_sink=prefill_sink,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=1_000_000)
    return engine, sim


class TestSingleRequest:
    def test_completes(self, execution_model):
        r = make_request(prompt_tokens=500, decode_tokens=10)
        engine, sim = run_engine([r], execution_model)
        assert r.is_finished
        assert engine.completed == [r]
        assert r.completion_time is not None

    def test_first_token_at_prefill_completion(self, execution_model):
        """Section 2.1: the final prefill chunk produces token 1."""
        r = make_request(prompt_tokens=500, decode_tokens=10)
        run_engine([r], execution_model)
        # 500 tokens at chunk 256 -> 2 iterations; TTFT < 3 iterations.
        assert r.ttft is not None
        assert 0 < r.ttft < 0.2

    def test_token_count_exact(self, execution_model):
        r = make_request(prompt_tokens=100, decode_tokens=7)
        run_engine([r], execution_model)
        assert r.decoded == 7

    def test_single_token_request(self, execution_model):
        """decode_tokens=1: finishes at prefill completion (AzCode's
        median request generates 8 tokens; 1 is the floor)."""
        r = make_request(prompt_tokens=300, decode_tokens=1)
        engine, _ = run_engine([r], execution_model)
        assert r.is_finished
        assert r.ttft == r.ttlt

    def test_kv_released_after_completion(self, execution_model):
        r = make_request(prompt_tokens=500, decode_tokens=5)
        engine, _ = run_engine([r], execution_model)
        assert engine.kv_cache.used_blocks == 0

    def test_decode_pacing_respects_tbt(self, execution_model):
        """With a 256 chunk and one request, inter-token gaps must sit
        well inside the 50 ms TBT SLO."""
        r = make_request(prompt_tokens=2000, decode_tokens=50, qos=Q1)
        run_engine([r], execution_model)
        assert r.max_tbt < 0.050
        assert r.tbt_gap_misses == 0


class TestMultipleRequests:
    def test_all_complete(self, execution_model):
        requests = [
            make_request(request_id=i, arrival_time=i * 0.1,
                         prompt_tokens=400 + 37 * i, decode_tokens=5 + i)
            for i in range(20)
        ]
        engine, _ = run_engine(requests, execution_model)
        assert len(engine.completed) == 20
        assert all(r.is_finished for r in requests)

    def test_decode_batching_shares_iterations(self, execution_model):
        """Two concurrent decodes progress together, so the engine
        takes far fewer iterations than serial execution would."""
        requests = [
            make_request(request_id=i, prompt_tokens=100, decode_tokens=50)
            for i in range(4)
        ]
        engine, _ = run_engine(requests, execution_model)
        assert engine.iterations_run < 4 * 50

    def test_arrival_wakes_idle_engine(self, execution_model):
        early = make_request(request_id=0, arrival_time=0.0,
                             prompt_tokens=100, decode_tokens=2)
        late = make_request(request_id=1, arrival_time=100.0,
                            prompt_tokens=100, decode_tokens=2)
        engine, sim = run_engine([early, late], execution_model)
        assert late.is_finished
        assert late.scheduled_first_time >= 100.0

    def test_busy_time_accounted(self, execution_model):
        requests = [make_request(request_id=i, prompt_tokens=300,
                                 decode_tokens=3) for i in range(5)]
        engine, sim = run_engine(requests, execution_model)
        assert 0 < engine.busy_time <= sim.now

    def test_iteration_records(self, execution_model):
        r = make_request(prompt_tokens=600, decode_tokens=5)
        engine, _ = run_engine(
            [r], execution_model, config=ReplicaConfig(record_iterations=True)
        )
        assert len(engine.iteration_records) == engine.iterations_run
        assert engine.iteration_records[0].prefill_tokens > 0


class TestChunkedPrefill:
    def test_long_prompt_spans_iterations(self, execution_model):
        r = make_request(prompt_tokens=1000, decode_tokens=1)
        engine, _ = run_engine([r], execution_model)
        # 1000 tokens / 256 chunk -> at least 4 iterations.
        assert engine.iterations_run >= 4

    def test_chunk_budget_includes_decodes(self, execution_model):
        """Sarathi semantics: decode tokens count against the chunk, so
        a full decode queue shrinks the prefill share of the batch."""
        decodes = [
            make_request(request_id=i, prompt_tokens=50, decode_tokens=200)
            for i in range(40)
        ]
        prefill = make_request(request_id=99, arrival_time=2.0,
                               prompt_tokens=512, decode_tokens=1)
        engine, _ = run_engine(
            decodes + [prefill], execution_model,
            config=ReplicaConfig(record_iterations=True),
        )
        loaded = [
            rec for rec in engine.iteration_records
            if rec.num_decodes >= 30 and rec.prefill_tokens > 0
        ]
        assert loaded, "expected mixed batches"
        for rec in loaded:
            assert rec.prefill_tokens + rec.num_decodes <= 256


class TestDecodeSlots:
    def test_running_requests_capped(self, execution_model):
        requests = [
            make_request(request_id=i, prompt_tokens=64, decode_tokens=400)
            for i in range(30)
        ]
        config = ReplicaConfig(max_decode_slots=8)
        sim = Simulator()
        engine = ReplicaEngine(sim, execution_model,
                               FCFSScheduler(chunk_size=256), config)
        peak = 0
        for r in requests:
            engine.submit(r)
        while sim.pending_events:
            sim.run(max_events=1)
            peak = max(peak, engine.running_requests)
        assert peak <= 8
        assert all(r.is_finished for r in requests)


class TestPrefillOnlyMode:
    def test_handoff_to_sink(self, execution_model):
        handed = []
        r = make_request(prompt_tokens=700, decode_tokens=20)
        config = ReplicaConfig(prefill_only=True)
        engine, sim = run_engine(
            [r], execution_model, config=config,
            prefill_sink=lambda req, t: handed.append((req, t)),
        )
        assert len(handed) == 1
        assert handed[0][0] is r
        assert r.prefill_done == r.prompt_tokens
        # KV shipped to the decode node: local holding released.
        assert engine.kv_cache.used_blocks == 0
        # The prefill node does not emit tokens.
        assert r.decoded == 0

    def test_prefill_only_requires_sink(self, execution_model):
        with pytest.raises(ValueError):
            ReplicaEngine(
                Simulator(), execution_model, FCFSScheduler(),
                ReplicaConfig(prefill_only=True),
            )


class TestKVEviction:
    def test_eviction_recovers_and_completes(self):
        """Force KV exhaustion with a tiny cache and check recompute."""
        sim = Simulator()
        engine = ReplicaEngine(
            sim, small_memory_model(2048),
            FCFSScheduler(chunk_size=256, kv_start_watermark=1.0),
            ReplicaConfig(max_decode_slots=64),
        )
        requests = [
            make_request(request_id=i, prompt_tokens=400,
                         decode_tokens=300, qos=Q2)
            for i in range(6)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(max_events=2_000_000)
        assert all(r.is_finished for r in requests)
        assert sum(r.evictions for r in requests) > 0
        assert all(r.decoded == r.decode_tokens for r in requests)

    def test_all_past_deadline_victim_is_latest_deadline(
        self, execution_model
    ):
        """Regression: when NO decode has positive slack (every
        next-token deadline already passed), the victim choice must
        still be deterministic — the request with the *latest*
        deadline loses, since it is least behind schedule."""
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(),
        )
        requests = []
        for i in range(4):
            r = make_request(request_id=i, arrival_time=float(i),
                             prompt_tokens=100, decode_tokens=50, qos=Q1)
            r.prefill_done = r.prompt_tokens  # mid-decode
            r.decoded = 1
            requests.append(r)
        for r in requests:
            engine._attach_decode(r, r.context_length)
        sim.schedule(1000.0, lambda: None)
        sim.run()
        assert all(r.next_token_deadline < sim.now for r in requests)
        # Latest arrival -> latest (least-negative) deadline loses.
        assert engine._pick_eviction_victim(
            exclude=requests[0]
        ) is requests[3]
        # Excluding the chosen victim falls back to the next-latest.
        assert engine._pick_eviction_victim(
            exclude=requests[3]
        ) is requests[2]


class TestStallRecoveryLiveness:
    """Stall recovery parks its victim until a completion frees memory.

    The victim must leave the scheduler for good (``remove``): QoServe
    keeps a departed request in its cached order until the next
    replan, so a victim parked with ``on_prefill_complete`` would keep
    receiving chunks, take back the blocks it released, and leave the
    engine idle with work pending.
    """

    # The "arrays-" prefix keeps the ids from when both engine cores
    # ran this check; the struct-of-arrays core is the one left.
    @pytest.mark.parametrize("seed", [2, 5, 11],
                             ids=lambda seed: f"arrays-{seed}")
    def test_drain_finishes_every_request(self, seed):
        model = small_memory_model()
        sim = Simulator()
        engine = ReplicaEngine(
            sim, model, make_scheduler("qoserve-oracle", model),
            ReplicaConfig(),
        )
        requests = stall_requests(seed)
        for r in requests:
            engine.submit(r)
        sim.run(max_events=100_000)
        assert not sim.pending_events
        assert engine.stall_preemptions > 0  # path exercised
        assert all(
            r.is_finished or r in engine.rejected for r in requests
        )
        assert engine.kv_cache.used_blocks == 0


class TestIncrementalDecodeAccounting:
    """The engine's _decode_context_total mirrors the decode queue.

    The counter replaces a per-iteration sum over the queue; every
    mutation path (prefill completion, decode token, completion,
    eviction, cancellation, crash, handoff) must keep it exact.
    """

    @staticmethod
    def _instrument(engine):
        observed = []
        original = engine._start_iteration

        def checked():
            observed.append(
                engine._decode_context_total
                == sum(r.context_length for r in engine.decode_queue)
            )
            return original()

        engine._start_iteration = checked
        return observed

    def test_invariant_through_normal_run(self, execution_model):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(),
        )
        observed = self._instrument(engine)
        for i in range(8):
            engine.submit(
                make_request(request_id=i, arrival_time=0.1 * i,
                             prompt_tokens=300 + 40 * i,
                             decode_tokens=20 + i, qos=Q1)
            )
        sim.run(max_events=1_000_000)
        assert observed and all(observed)
        assert engine._decode_context_total == 0  # queue drained

    def test_invariant_through_eviction(self):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, small_memory_model(2048),
            FCFSScheduler(chunk_size=256, kv_start_watermark=1.0),
            ReplicaConfig(max_decode_slots=64),
        )
        observed = self._instrument(engine)
        requests = [
            make_request(request_id=i, prompt_tokens=400,
                         decode_tokens=300, qos=Q2)
            for i in range(6)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(max_events=2_000_000)
        assert sum(r.evictions for r in requests) > 0  # path exercised
        assert observed and all(observed)
        assert engine._decode_context_total == 0

    def test_invariant_after_cancel_and_crash(self, execution_model):
        sim = Simulator()
        engine = ReplicaEngine(
            sim, execution_model, FCFSScheduler(chunk_size=256),
            ReplicaConfig(),
        )
        requests = [
            make_request(request_id=i, prompt_tokens=200,
                         decode_tokens=500, qos=Q2)
            for i in range(4)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(max_events=3_000)  # stop mid-flight
        in_decode = [r for r in engine.decode_queue]
        if in_decode:
            engine.cancel_request(in_decode[0], reason="test")
            assert engine._decode_context_total == sum(
                r.context_length for r in engine.decode_queue
            )
        engine.crash()
        assert engine._decode_context_total == 0
