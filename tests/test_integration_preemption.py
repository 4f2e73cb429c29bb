"""Engine-level preemption and re-keying behaviour.

Selective preemption (Section 3.4) and SRPF's continuous re-ranking
are queue *policies*; these tests confirm they actually manifest in
executed schedules: who runs first, who gets paused mid-prefill, and
that decodes are never interrupted.
"""

import pytest

from repro.api import make_scheduler
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.experiments.configs import get_execution_model
from repro.simcore import Simulator
from tests.conftest import Q1, Q2, events_of, make_request, traced


@pytest.fixture(scope="module")
def em():
    return get_execution_model("llama3-8b")


def run_requests(em, scheduler, requests, observer=None):
    sim = Simulator()
    engine = ReplicaEngine(
        sim, em, scheduler, ReplicaConfig(), observer=observer
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=2_000_000)
    return engine, sim


class TestSrpfPreemption:
    def test_short_arrival_preempts_long_prefill(self, em):
        """A long prompt mid-prefill is paused while a later short one
        runs to completion first (SRPF's defining behaviour)."""
        long = make_request(request_id=1, arrival_time=0.0,
                            prompt_tokens=6000, decode_tokens=2, qos=Q2)
        short = make_request(request_id=2, arrival_time=0.2,
                             prompt_tokens=300, decode_tokens=2, qos=Q2)
        engine, _ = run_requests(
            em, make_scheduler("srpf", em), [long, short]
        )
        assert short.first_token_time < long.first_token_time
        # The long prompt had started before the short one arrived.
        assert long.scheduled_first_time < short.arrival_time

    def test_fcfs_does_not_preempt(self, em):
        long = make_request(request_id=1, arrival_time=0.0,
                            prompt_tokens=6000, decode_tokens=2, qos=Q2)
        short = make_request(request_id=2, arrival_time=0.2,
                             prompt_tokens=300, decode_tokens=2, qos=Q2)
        engine, _ = run_requests(
            em, make_scheduler("fcfs", em), [long, short]
        )
        assert long.first_token_time < short.first_token_time


class TestQoServeSelectivePreemption:
    def test_urgent_interactive_jumps_batch_prefill(self, em):
        """An interactive arrival overtakes an in-flight batch prefill
        (selective preemption: prefill-phase only, no violation)."""
        batch = make_request(request_id=1, arrival_time=0.0,
                             prompt_tokens=8000, decode_tokens=2, qos=Q2)
        chat = make_request(request_id=2, arrival_time=0.1,
                            prompt_tokens=400, decode_tokens=5, qos=Q1)
        engine, _ = run_requests(
            em, make_scheduler("qoserve-oracle", em), [batch, chat]
        )
        assert chat.first_token_time < batch.first_token_time
        assert chat.ttft < 6.0

    def test_decodes_never_interrupted(self, em):
        """Once decoding, a request emits a token every iteration until
        done — even when heavy prefill work arrives (decode-queue
        requests are never preempted, Section 3.4)."""
        chat = make_request(request_id=1, arrival_time=0.0,
                            prompt_tokens=200, decode_tokens=60, qos=Q1)
        requests = [chat] + [
            make_request(request_id=2 + i, arrival_time=0.5 + i * 0.05,
                         prompt_tokens=8000, decode_tokens=2, qos=Q2)
            for i in range(4)
        ]
        engine, _ = run_requests(
            em, make_scheduler("qoserve-oracle", em), requests
        )
        # Every inter-token gap of the chat request is bounded by one
        # iteration of the largest permissible batch — no starvation.
        assert chat.is_finished
        assert chat.max_tbt < 0.40
        assert chat.tbt_deadline_misses == 0


class TestIterationTelemetry:
    def test_busy_time_equals_sum_of_exec_times(self, em):
        requests = [
            make_request(request_id=i, arrival_time=i * 0.3,
                         prompt_tokens=500 + 100 * i, decode_tokens=5)
            for i in range(10)
        ]
        observer, sink = traced()
        engine, _ = run_requests(
            em, make_scheduler("edf", em), requests, observer
        )
        total = sum(r["dur"] for r in events_of(sink, "iteration_scheduled"))
        assert engine.busy_time == pytest.approx(total)

    def test_kv_utilization_recorded_in_unit_interval(self, em):
        requests = [
            make_request(request_id=i, prompt_tokens=1000,
                         decode_tokens=20)
            for i in range(5)
        ]
        observer, sink = traced()
        engine, _ = run_requests(
            em, make_scheduler("edf", em), requests, observer
        )
        snapshots = events_of(sink, "kv_cache_snapshot")
        assert len(snapshots) == engine.iterations_run
        for record in snapshots:
            assert 0.0 <= record["utilization"] <= 1.0
