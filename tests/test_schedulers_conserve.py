"""Unit tests for the ConServe-style baseline."""

import pytest

from repro.engine.interface import EngineView
from repro.engine.rows import ArrayKVLedger
from repro.schedulers import ConServeScheduler
from tests.conftest import Q1, Q2, Q3, make_request


def make_view(execution_model, decode_requests=()):
    return EngineView(
        now=0.0,
        decode_requests=list(decode_requests),
        kv_cache=ArrayKVLedger(capacity_tokens=400_000),
        execution_model=execution_model,
        max_decode_slots=256,
        inflight_prefill_ids=frozenset(),
    )


class TestBinaryClasses:
    def test_interactive_always_first(self):
        scheduler = ConServeScheduler()
        offline_early = make_request(arrival_time=0.0, qos=Q2)
        interactive_late = make_request(arrival_time=100.0, qos=Q1)
        assert scheduler.priority(interactive_late, 100.0) < (
            scheduler.priority(offline_early, 100.0)
        )

    def test_fcfs_within_class(self):
        scheduler = ConServeScheduler()
        a = make_request(arrival_time=1.0, qos=Q2)
        b = make_request(arrival_time=2.0, qos=Q3)
        assert scheduler.priority(a, 2.0) < scheduler.priority(b, 2.0)

    def test_q2_q3_indistinguishable(self):
        """The documented blind spot: same arrival, same priority."""
        scheduler = ConServeScheduler()
        q2 = make_request(arrival_time=5.0, qos=Q2)
        q3 = make_request(arrival_time=5.0, qos=Q3)
        assert scheduler.priority(q2, 5.0) == scheduler.priority(q3, 5.0)


class TestReactiveChunking:
    def test_small_chunk_with_interactive_decode(self, execution_model):
        scheduler = ConServeScheduler()
        decode = make_request(prompt_tokens=10, decode_tokens=50, qos=Q1)
        decode.prefill_done = 10
        view = make_view(execution_model, [decode])
        assert scheduler.prefill_token_budget(view) <= 255

    def test_large_chunk_when_offline_only(self, execution_model):
        scheduler = ConServeScheduler()
        offline = make_request(request_id=1, prompt_tokens=5000, qos=Q3)
        scheduler.enqueue(offline, 0.0)
        view = make_view(execution_model)
        assert scheduler.prefill_token_budget(view) == 2048

    def test_interactive_in_queue_shrinks_chunk(self, execution_model):
        scheduler = ConServeScheduler()
        scheduler.enqueue(
            make_request(request_id=1, prompt_tokens=500, qos=Q1), 0.0
        )
        view = make_view(execution_model)
        assert scheduler.prefill_token_budget(view) == 256


class TestAdmission:
    def test_offline_withheld_when_interactive_pending(
        self, execution_model
    ):
        scheduler = ConServeScheduler()
        interactive = make_request(request_id=1, prompt_tokens=500, qos=Q1)
        offline = make_request(request_id=2, prompt_tokens=500, qos=Q3)
        scheduler.enqueue(interactive, 0.0)
        scheduler.enqueue(offline, 0.0)
        assignments = scheduler.plan_prefill(make_view(execution_model))
        assert all(a.request.is_interactive for a in assignments)

    def test_offline_runs_when_no_interactive(self, execution_model):
        scheduler = ConServeScheduler()
        offline = make_request(request_id=2, prompt_tokens=500, qos=Q3)
        scheduler.enqueue(offline, 0.0)
        assignments = scheduler.plan_prefill(make_view(execution_model))
        assert assignments and assignments[0].request is offline

    def test_validation(self):
        with pytest.raises(ValueError):
            ConServeScheduler(
                interactive_chunk_size=512, offline_chunk_size=256
            )
