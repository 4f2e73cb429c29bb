"""Unit and behavioural tests for the QoServe scheduler (Algorithm 1)."""

import pytest

from repro.engine.interface import EngineView
from repro.engine.rows import ArrayKVLedger
from repro.schedulers import QoServeConfig, QoServeScheduler
from repro.schedulers.qoserve import make_ablation_config
from tests.conftest import Q1, Q2, Q3, make_request


@pytest.fixture
def scheduler(execution_model):
    # Oracle predictor: deterministic and fast for unit tests.
    return QoServeScheduler(
        execution_model, QoServeConfig(use_forest_predictor=False)
    )


def make_view(execution_model, decode_requests=(), inflight=frozenset()):
    return EngineView(
        now=0.0,
        decode_requests=list(decode_requests),
        kv_cache=ArrayKVLedger(capacity_tokens=400_000),
        execution_model=execution_model,
        max_decode_slots=256,
        inflight_prefill_ids=inflight,
    )


def at(view, t):
    view.now = t
    return view


class TestPriorityOrdering:
    def test_relegated_sorts_last(self, scheduler):
        normal = make_request(request_id=1, qos=Q1)
        demoted = make_request(request_id=2, qos=Q1)
        demoted.relegated = True
        assert scheduler.priority(normal, 0.0) < scheduler.priority(
            demoted, 0.0
        )

    def test_hybrid_disabled_is_edf(self, execution_model):
        scheduler = QoServeScheduler(
            execution_model,
            make_ablation_config(use_forest_predictor=False),
        )
        long = make_request(arrival_time=0.0, prompt_tokens=9000, qos=Q1)
        short = make_request(arrival_time=1.0, prompt_tokens=10, qos=Q1)
        assert scheduler.priority(long, 0.0) < scheduler.priority(short, 0.0)

    def test_fixed_alpha_weighs_length(self, execution_model):
        scheduler = QoServeScheduler(
            execution_model,
            QoServeConfig(alpha=0.008, use_forest_predictor=False),
        )
        long = make_request(arrival_time=0.0, prompt_tokens=9000, qos=Q1)
        short = make_request(arrival_time=1.0, prompt_tokens=10, qos=Q1)
        assert scheduler.priority(short, 0.0) < scheduler.priority(
            long, 0.0
        )


class TestDynamicBudget:
    def test_no_decodes_gives_max_chunk(self, scheduler, execution_model):
        r = make_request(request_id=1, prompt_tokens=5000, qos=Q2)
        scheduler.enqueue(r, 0.0)
        view = make_view(execution_model)
        assignments = scheduler.plan_prefill(view)
        assert sum(a.tokens for a in assignments) == pytest.approx(
            scheduler.config.max_chunk_size
        )

    def test_strict_decode_shrinks_budget(self, scheduler, execution_model):
        decode = make_request(request_id=2, prompt_tokens=100,
                              decode_tokens=50, qos=Q1)
        decode.prefill_done = 100
        decode.decoded = 1
        queued = make_request(request_id=1, prompt_tokens=5000, qos=Q2)
        scheduler.enqueue(queued, 0.0)
        view = at(make_view(execution_model, [decode]), 6.0)
        assignments = scheduler.plan_prefill(view)
        total = sum(a.tokens for a in assignments)
        assert 0 < total < 512

    def test_dynamic_chunking_disabled_uses_fixed(self, execution_model):
        scheduler = QoServeScheduler(
            execution_model,
            QoServeConfig(dynamic_chunking=False,
                          use_forest_predictor=False),
        )
        r = make_request(request_id=1, prompt_tokens=5000, qos=Q2)
        scheduler.enqueue(r, 0.0)
        assignments = scheduler.plan_prefill(make_view(execution_model))
        assert sum(a.tokens for a in assignments) == 256


class TestEagerRelegation:
    def test_hopeless_request_demoted(self, scheduler, execution_model):
        hopeless = make_request(request_id=1, prompt_tokens=2000, qos=Q1,
                                arrival_time=0.0)
        fine = make_request(request_id=2, prompt_tokens=500, qos=Q1,
                            arrival_time=9.5)
        scheduler.enqueue(hopeless, 9.5)
        scheduler.enqueue(fine, 9.5)
        view = at(make_view(execution_model), 9.5)  # deadline 6.0 passed
        assignments = scheduler.plan_prefill(view)
        assert hopeless.relegated
        assert not fine.relegated
        # The healthy request runs first; the relegated one only gets
        # leftover budget.
        assert assignments[0].request is fine

    def test_relegation_disabled_keeps_order(self, execution_model):
        scheduler = QoServeScheduler(
            execution_model,
            QoServeConfig(eager_relegation=False,
                          use_forest_predictor=False),
        )
        hopeless = make_request(request_id=1, prompt_tokens=2000, qos=Q1)
        scheduler.enqueue(hopeless, 9.5)
        view = at(make_view(execution_model), 9.5)
        scheduler.plan_prefill(view)
        assert not hopeless.relegated

    def test_low_priority_demoted_for_important(self, scheduler,
                                                execution_model):
        blockers = [
            make_request(request_id=i, prompt_tokens=20_000, qos=Q1,
                         arrival_time=0.0, important=False)
            for i in range(4)
        ]
        vip = make_request(request_id=99, prompt_tokens=20_000, qos=Q1,
                           arrival_time=0.1, important=True)
        for r in blockers:
            scheduler.enqueue(r, 1.0)
        scheduler.enqueue(vip, 1.0)
        view = at(make_view(execution_model), 1.0)
        scheduler.plan_prefill(view)
        assert not vip.relegated
        assert any(r.relegated for r in blockers)

    def test_relegated_served_opportunistically(self, scheduler,
                                                execution_model):
        demoted = make_request(request_id=1, prompt_tokens=1000, qos=Q1)
        demoted.relegated = True
        scheduler.enqueue(demoted, 0.0)
        assignments = scheduler.plan_prefill(make_view(execution_model))
        assert assignments and assignments[0].request is demoted

    def test_relegation_counter(self, scheduler, execution_model):
        hopeless = make_request(request_id=1, prompt_tokens=2000, qos=Q1)
        scheduler.enqueue(hopeless, 9.5)
        scheduler.plan_prefill(at(make_view(execution_model), 9.5))
        assert scheduler.relegation_events == 1


class TestSelectivePreemption:
    def test_at_risk_inflight_pinned(self, scheduler, execution_model):
        inflight = make_request(request_id=1, prompt_tokens=2000, qos=Q1,
                                arrival_time=0.0)
        inflight.prefill_done = 1800
        inflight.scheduled_first_time = 0.1
        urgent = make_request(request_id=2, prompt_tokens=50, qos=Q1,
                              arrival_time=5.55)
        scheduler.enqueue(inflight, 0.0)
        scheduler.enqueue(urgent, 5.55)
        # At t=5.55 the in-flight request has ~0.2 s of slack, less
        # than one iteration: preempting it would violate, so it is
        # pinned despite the newcomer's better hybrid score.
        view = at(
            make_view(execution_model, inflight=frozenset({1})), 5.55
        )
        assignments = scheduler.plan_prefill(view)
        assert assignments[0].request is inflight

    def test_safe_inflight_can_be_preempted(self, execution_model):
        scheduler = QoServeScheduler(
            execution_model,
            QoServeConfig(alpha=0.008, use_forest_predictor=False),
        )
        inflight = make_request(request_id=1, prompt_tokens=6000, qos=Q2,
                                arrival_time=0.0)
        inflight.prefill_done = 256
        inflight.scheduled_first_time = 0.1
        urgent = make_request(request_id=2, prompt_tokens=50, qos=Q1,
                              arrival_time=0.2)
        scheduler.enqueue(inflight, 0.0)
        scheduler.enqueue(urgent, 0.2)
        view = at(
            make_view(execution_model, inflight=frozenset({1})), 0.2
        )
        assignments = scheduler.plan_prefill(view)
        assert assignments[0].request is urgent

    def test_decodes_never_preempted_by_design(self, execution_model):
        """Structural: the engine batches every decode each iteration;
        the scheduler only chooses prefill work."""
        scheduler = QoServeScheduler(
            execution_model, QoServeConfig(use_forest_predictor=False)
        )
        decode = make_request(request_id=1, prompt_tokens=10,
                              decode_tokens=50)
        decode.prefill_done = 10
        view = make_view(execution_model, [decode])
        assignments = scheduler.plan_prefill(view)
        assert all(a.request is not decode for a in assignments)


class TestAblationConfig:
    def test_all_off_is_edf_baseline(self):
        config = make_ablation_config()
        assert not config.dynamic_chunking
        assert not config.eager_relegation
        assert not config.hybrid_prioritization
        assert not config.selective_preemption

    def test_full_stack(self):
        config = make_ablation_config(
            dynamic_chunking=True, eager_relegation=True,
            hybrid_prioritization=True,
        )
        assert config.dynamic_chunking
        assert config.selective_preemption
