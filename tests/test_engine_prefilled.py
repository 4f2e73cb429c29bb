"""Engine tests for the decode-side handoff path and pathological
inputs (fault injection)."""

import pytest

from repro.engine import ReplicaConfig, ReplicaEngine
from repro.schedulers import FCFSScheduler
from repro.simcore import Simulator
from tests.conftest import Q1, Q2, make_request, small_memory_model


def make_engine(execution_model, max_slots=256, kv_tokens=None):
    if kv_tokens is not None:
        execution_model = small_memory_model(kv_tokens)
    sim = Simulator()
    engine = ReplicaEngine(
        sim, execution_model, FCFSScheduler(),
        ReplicaConfig(max_decode_slots=max_slots),
    )
    return engine, sim


def prefilled(rid, prompt=500, decode=10, qos=Q1):
    r = make_request(request_id=rid, prompt_tokens=prompt,
                     decode_tokens=decode, qos=qos)
    r.prefill_done = prompt
    return r


class TestSubmitPrefilled:
    def test_decodes_to_completion(self, execution_model):
        engine, sim = make_engine(execution_model)
        r = prefilled(1)
        engine.submit_prefilled(r)
        sim.run(max_events=10_000)
        assert r.is_finished
        assert r.first_token_time is not None
        assert engine.kv_cache.used_blocks == 0

    def test_first_token_from_first_iteration(self, execution_model):
        engine, sim = make_engine(execution_model)
        r = prefilled(1)
        engine.submit_prefilled(r)
        sim.run(max_events=10)
        assert r.decoded >= 1

    def test_rejects_unprefilled(self, execution_model):
        engine, _ = make_engine(execution_model)
        with pytest.raises(ValueError):
            engine.submit_prefilled(make_request())

    def test_rejects_finished(self, execution_model):
        engine, _ = make_engine(execution_model)
        r = prefilled(1, decode=1)
        r.record_output_token(1.0)
        with pytest.raises(ValueError):
            engine.submit_prefilled(r)

    def test_waits_for_decode_slot(self, execution_model):
        engine, sim = make_engine(execution_model, max_slots=2)
        requests = [prefilled(i, decode=30) for i in range(5)]
        for r in requests:
            engine.submit_prefilled(r)
        assert len(engine.decode_queue) == 2
        sim.run(max_events=100_000)
        assert all(r.is_finished for r in requests)

    def test_waits_for_kv_space(self, execution_model):
        engine, sim = make_engine(execution_model, kv_tokens=2048)
        big = prefilled(1, prompt=1500, decode=20)
        second = prefilled(2, prompt=1500, decode=20)
        engine.submit_prefilled(big)
        engine.submit_prefilled(second)
        assert len(engine.decode_queue) == 1  # second waits on KV
        sim.run(max_events=100_000)
        assert big.is_finished and second.is_finished

    def test_mixes_with_colocated_prefill(self, execution_model):
        """A replica can serve both handoffs and fresh requests."""
        engine, sim = make_engine(execution_model)
        handoff = prefilled(1, decode=40)
        fresh = make_request(request_id=2, prompt_tokens=700,
                             decode_tokens=10)
        engine.submit_prefilled(handoff)
        engine.submit(fresh)
        sim.run(max_events=100_000)
        assert handoff.is_finished and fresh.is_finished


class TestPathologicalInputs:
    def test_oversized_prompt_rejected_at_admission(self, execution_model):
        """A prompt that can never fit in KV is refused up front (as
        vLLM refuses over-length prompts) instead of wedging the
        replica."""
        engine, sim = make_engine(execution_model, kv_tokens=4096)
        monster = make_request(request_id=1, prompt_tokens=50_000,
                               decode_tokens=5, qos=Q2)
        normal = make_request(request_id=2, arrival_time=0.1,
                              prompt_tokens=400, decode_tokens=5)
        engine.submit(monster)
        engine.submit(normal)
        sim.run(max_events=100_000)
        assert monster in engine.rejected
        assert not monster.is_finished
        assert normal.is_finished

    def test_mutual_prefill_deadlock_recovers(self, execution_model):
        """Two partially-prefilled prompts that jointly fill KV while
        neither fits in the leftover space: the engine must evict one
        for recompute rather than stall both forever.

        The wedged state is constructed directly — the normal
        admission watermark makes it rare, which is exactly why the
        recovery path needs a deterministic test.
        """
        engine, sim = make_engine(execution_model, kv_tokens=4096)
        a = make_request(request_id=1, prompt_tokens=3000,
                         decode_tokens=3, qos=Q2)
        b = make_request(request_id=2, prompt_tokens=3000,
                         decode_tokens=3, qos=Q2)
        for r, progress in ((a, 2048), (b, 2048)):
            r.prefill_done = progress
            r.scheduled_first_time = 0.0
            engine.kv_cache.grow(r.request_id, progress)
            engine._inflight_prefills.add(r.request_id)
            engine.scheduler.enqueue(r, 0.0)
        engine.scheduler.kv_start_watermark = 1.0
        assert engine.kv_cache.free_blocks == 0  # wedged
        engine._maybe_start()
        sim.run(max_events=200_000)
        assert a.is_finished and b.is_finished
        assert a.evictions + b.evictions >= 1

    def test_simultaneous_arrivals(self, execution_model):
        engine, sim = make_engine(execution_model)
        requests = [
            make_request(request_id=i, arrival_time=5.0,
                         prompt_tokens=200 + i, decode_tokens=3)
            for i in range(20)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(max_events=100_000)
        assert all(r.is_finished for r in requests)

    def test_zero_arrival_burst_with_tiny_slots(self, execution_model):
        engine, sim = make_engine(execution_model, max_slots=1)
        requests = [
            make_request(request_id=i, arrival_time=0.0,
                         prompt_tokens=100, decode_tokens=5)
            for i in range(10)
        ]
        for r in requests:
            engine.submit(r)
        sim.run(max_events=200_000)
        assert all(r.is_finished for r in requests)
        # Serial execution: roughly one request resident at a time.
        assert engine.iterations_run >= 10 * 5
