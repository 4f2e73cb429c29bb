"""Unit tests for the QoS-aware decode pools (extension)."""

import pytest

from repro.cluster.decode_pool import (
    PartitionedDecodePool,
    QoSSharedDecodePool,
    StrictSharedDecodePool,
    max_batch_for_tbt,
)
from repro.core.qos import QoSClass, QoSSpec
from repro.simcore import Simulator
from tests.conftest import make_request

STRICT = QoSSpec("QA", QoSClass.INTERACTIVE, ttft_slo=30.0, tbt_slo=0.020)
RELAXED = QoSSpec("QB", QoSClass.INTERACTIVE, ttft_slo=30.0, tbt_slo=0.100)


def prefilled(rid, prompt=1000, decode=20, qos=STRICT, arrival=0.0):
    r = make_request(
        request_id=rid, arrival_time=arrival, prompt_tokens=prompt,
        decode_tokens=decode, qos=qos,
    )
    r.prefill_done = prompt
    return r


class TestMaxBatchForTbt:
    def test_monotone_in_tbt(self, execution_model):
        tight = max_batch_for_tbt(execution_model, 0.015)
        loose = max_batch_for_tbt(execution_model, 0.100)
        assert loose > tight >= 1

    def test_respects_target(self, execution_model):
        cap = max_batch_for_tbt(execution_model, 0.030, avg_context=1500)
        assert execution_model.decode_batch_time(
            cap, cap * 1500
        ) <= 0.030

    def test_floor_of_one(self, execution_model):
        assert max_batch_for_tbt(
            execution_model, 1e-6, avg_context=1500
        ) == 1

    def test_validation(self, execution_model):
        with pytest.raises(ValueError):
            max_batch_for_tbt(execution_model, 0.0)


class TestStrictSharedPool:
    def test_serves_everything(self, execution_model):
        sim = Simulator()
        pool = StrictSharedDecodePool(
            sim, execution_model, num_replicas=2,
            strictest_tbt=STRICT.tbt_slo,
        )
        requests = [prefilled(i, qos=STRICT if i % 2 else RELAXED)
                    for i in range(12)]
        for r in requests:
            pool.accept(r, 0.0)
        sim.run(max_events=200_000)
        assert all(r.is_finished for r in requests)
        assert len(pool.all_requests()) == 12

    def test_queues_beyond_cap(self, execution_model):
        sim = Simulator()
        pool = StrictSharedDecodePool(
            sim, execution_model, num_replicas=1,
            strictest_tbt=0.012,  # tiny cap
        )
        requests = [prefilled(i, decode=100) for i in range(80)]
        for r in requests:
            pool.accept(r, 0.0)
        sim.run(max_events=2_000_000)
        assert all(r.is_finished for r in requests)


class TestPartitionedPool:
    def test_routes_by_class(self, execution_model):
        sim = Simulator()
        pool = PartitionedDecodePool(
            sim, execution_model,
            replicas_per_class={"QA": 1, "QB": 1},
            tbt_per_class={"QA": 0.020, "QB": 0.100},
        )
        strict = prefilled(1, qos=STRICT)
        relaxed = prefilled(2, qos=RELAXED)
        pool.accept(strict, 0.0)
        pool.accept(relaxed, 0.0)
        sim.run(max_events=100_000)
        qa_requests = pool.groups["QA"].all_requests()
        assert strict in qa_requests
        assert relaxed not in qa_requests

    def test_unknown_class_raises(self, execution_model):
        sim = Simulator()
        pool = PartitionedDecodePool(
            sim, execution_model,
            replicas_per_class={"QA": 1},
            tbt_per_class={"QA": 0.020},
        )
        with pytest.raises(KeyError):
            pool.accept(prefilled(1, qos=RELAXED), 0.0)

    def test_mismatched_maps_rejected(self, execution_model):
        with pytest.raises(ValueError):
            PartitionedDecodePool(
                Simulator(), execution_model,
                replicas_per_class={"QA": 1},
                tbt_per_class={"QB": 0.1},
            )


class TestQoSSharedPool:
    def test_pacing_respected(self, execution_model):
        sim = Simulator()
        pool = QoSSharedDecodePool(sim, execution_model, num_replicas=1)
        requests = [
            prefilled(i, decode=50, qos=STRICT if i % 2 else RELAXED)
            for i in range(20)
        ]
        for r in requests:
            pool.accept(r, 0.0)
        sim.run(max_events=1_000_000)
        assert all(r.is_finished for r in requests)
        strict_requests = [r for r in requests if r.qos is STRICT]
        total_misses = sum(r.tbt_gap_misses for r in strict_requests)
        total_gaps = sum(r.decoded - 1 for r in strict_requests)
        assert total_misses / max(1, total_gaps) < 0.02

    def test_lone_oversized_request_still_served(self, execution_model):
        """A request that cannot meet its TBT even alone is admitted
        best-effort rather than starved (the stall-bug regression)."""
        sim = Simulator()
        pool = QoSSharedDecodePool(sim, execution_model, num_replicas=1)
        impossible = prefilled(
            1, prompt=30_000, decode=5,
            qos=QoSSpec("QX", QoSClass.INTERACTIVE,
                        ttft_slo=30.0, tbt_slo=0.001),
        )
        pool.accept(impossible, 0.0)
        sim.run(max_events=100_000)
        assert impossible.is_finished

    def test_relaxed_only_batches_deeper(self, execution_model):
        """With only relaxed residents the pool admits more requests
        concurrently than the strictest-TBT static cap would."""
        strict_cap = max_batch_for_tbt(
            execution_model, STRICT.tbt_slo, avg_context=1000
        )
        sim = Simulator()
        pool = QoSSharedDecodePool(sim, execution_model, num_replicas=1)
        requests = [
            prefilled(i, prompt=1000, decode=400, qos=RELAXED)
            for i in range(strict_cap + 40)
        ]
        for r in requests:
            pool.accept(r, 0.0)
        # Step a little: admissions happen immediately at accept time.
        replica = pool.group.replicas[0]
        assert len(replica.decode_queue) > strict_cap


def test_decode_pool_reports_each_completion(execution_model):
    from repro.obs.observer import default_observer
    from tests.test_engine_pins import _disagg_run, _recording

    sink, observer = _recording()
    with default_observer(observer):
        _, pool, requests = _disagg_run(execution_model)
    finished = sorted(r.request_id for r in requests if r.is_finished)
    assert len(finished) == len(pool.completed) == 40
    completed = sorted(
        event["request_id"]
        for event in sink.events
        if event["kind"] == "request_completed"
    )
    assert completed == finished
