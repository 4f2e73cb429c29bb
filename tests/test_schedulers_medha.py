"""Unit tests for the Medha adaptive-chunking re-implementation."""

import pytest

from repro.schedulers import MedhaScheduler
from tests.conftest import Q1, make_request, make_view


class TestMedhaChunking:
    def test_chunks_shrink_with_context(self, execution_model):
        """Medha's signature: later chunks of a long prefill shrink to
        keep iteration latency at the fixed TBT target."""
        scheduler = MedhaScheduler(execution_model, tbt_target=0.050)
        r = make_request(request_id=1, prompt_tokens=60_000, qos=Q1)
        scheduler.enqueue(r, 0.0)
        view = make_view(execution_model)
        early = scheduler.plan_prefill(view)[0].tokens
        r.prefill_done = 40_000
        late = scheduler.plan_prefill(view)[0].tokens
        assert late < early

    def test_ignores_decode_slack(self, execution_model):
        """Unlike QoServe, accumulated slack does not grow the chunk."""
        scheduler = MedhaScheduler(execution_model, tbt_target=0.050)
        slack_rich = make_request(request_id=2, prompt_tokens=100,
                                  decode_tokens=50, qos=Q1)
        slack_rich.prefill_done = 100
        slack_rich.decoded = 1  # tons of slack at t=0
        r = make_request(request_id=1, prompt_tokens=10_000, qos=Q1)
        scheduler.enqueue(r, 0.0)
        with_slack = scheduler.plan_prefill(
            make_view(execution_model, [slack_rich])
        )[0].tokens
        without = scheduler.plan_prefill(make_view(execution_model))
        # The slack-rich decode does not enlarge Medha's chunk beyond
        # the no-decode case (decode tokens only add cost).
        assert with_slack <= without[0].tokens

    def test_fcfs_ordering(self, execution_model):
        scheduler = MedhaScheduler(execution_model)
        late = make_request(request_id=1, arrival_time=2.0,
                            prompt_tokens=500)
        early = make_request(request_id=2, arrival_time=1.0,
                             prompt_tokens=500)
        scheduler.enqueue(late, 2.0)
        scheduler.enqueue(early, 2.0)
        assignments = scheduler.plan_prefill(make_view(execution_model))
        assert assignments[0].request is early

    def test_chunk_history_recorded(self, execution_model):
        scheduler = MedhaScheduler(execution_model)
        r = make_request(request_id=1, prompt_tokens=5000)
        scheduler.enqueue(r, 0.0)
        scheduler.plan_prefill(make_view(execution_model))
        assert len(scheduler.chunk_history) == 1
        assert scheduler.chunk_history[0] > 0

    def test_higher_target_bigger_chunks(self, execution_model):
        r = make_request(request_id=1, prompt_tokens=60_000)
        strict = MedhaScheduler(execution_model, tbt_target=0.050)
        relaxed = MedhaScheduler(execution_model, tbt_target=0.100)
        strict.enqueue(r, 0.0)
        relaxed.enqueue(r, 0.0)
        a = strict.plan_prefill(make_view(execution_model))[0].tokens
        b = relaxed.plan_prefill(make_view(execution_model))[0].tokens
        assert b > a

    def test_validation(self, execution_model):
        with pytest.raises(ValueError):
            MedhaScheduler(execution_model, tbt_target=0.0)

    def test_empty_queue(self, execution_model):
        scheduler = MedhaScheduler(execution_model)
        assert scheduler.plan_prefill(make_view(execution_model)) == []
