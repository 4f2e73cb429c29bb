"""Behavioural tests of QoServe's internal machinery over real runs:
load-adaptive alpha, replan caching, relegation accounting, and the
interplay of configuration toggles."""

import pytest

from repro.api import build_trace, make_scheduler
from repro.core.priority import MS_PER_TOKEN
from repro.experiments.configs import get_execution_model
from repro.schedulers import QoServeConfig, QoServeScheduler
from repro.workload.datasets import AZURE_CODE
from tests.conftest import Q1, drain_trace, make_request


@pytest.fixture(scope="module")
def em():
    return get_execution_model("llama3-8b")


class TestLoadAdaptiveAlpha:
    def test_alpha_rises_under_overload(self, em):
        scheduler = QoServeScheduler(
            em, QoServeConfig(use_forest_predictor=False)
        )
        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=600, seed=1)
        drain_trace(em, scheduler, trace)
        # During the overloaded phase the controller saw high pressure
        # (the EMA decays through the drain, so peak is the witness).
        assert scheduler._adaptive_alpha is not None
        assert scheduler._adaptive_alpha.peak_pressure > (
            scheduler._adaptive_alpha.pressure_low
        )

    def test_alpha_stays_low_at_light_load(self, em):
        scheduler = QoServeScheduler(
            em, QoServeConfig(use_forest_predictor=False)
        )
        trace = build_trace(AZURE_CODE, qps=1.0, num_requests=150, seed=1)
        drain_trace(em, scheduler, trace)
        assert scheduler.hybrid.alpha <= 1.5 * MS_PER_TOKEN

    def test_fixed_alpha_never_adapts(self, em):
        scheduler = QoServeScheduler(
            em,
            QoServeConfig(alpha=0.004, use_forest_predictor=False),
        )
        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=400, seed=1)
        drain_trace(em, scheduler, trace)
        assert scheduler.hybrid.alpha == 0.004


class TestReplanCache:
    def test_arrival_inserts_sorted(self, em):
        scheduler = QoServeScheduler(
            em, QoServeConfig(use_forest_predictor=False)
        )
        early_deadline = make_request(request_id=1, arrival_time=0.0,
                                      prompt_tokens=500, qos=Q1)
        scheduler.enqueue(early_deadline, 0.0)
        scheduler._replan(0.0)
        assert not scheduler._order_dirty
        # A later-deadline arrival lands behind; an earlier one ahead.
        later = make_request(request_id=2, arrival_time=5.0,
                             prompt_tokens=500, qos=Q1)
        scheduler.enqueue(later, 5.0)
        assert [r.request_id for r in scheduler._order_cache] == [1, 2]
        keys = scheduler._order_keys
        assert keys == sorted(keys)

    def test_replan_counts_down(self, em):
        from repro.engine.interface import EngineView
        from repro.engine.rows import ArrayKVLedger

        scheduler = QoServeScheduler(
            em,
            QoServeConfig(use_forest_predictor=False, replan_interval=4),
        )
        for i in range(5):
            scheduler.enqueue(
                make_request(request_id=i, prompt_tokens=30_000, qos=Q1),
                0.0,
            )
        view = EngineView(
            now=0.0, decode_requests=[],
            kv_cache=ArrayKVLedger(capacity_tokens=400_000),
            execution_model=em, max_decode_slots=256,
            inflight_prefill_ids=frozenset(),
        )
        scheduler.plan_prefill(view)  # dirty -> replans, counter resets
        assert scheduler._iterations_since_replan == 0
        scheduler.plan_prefill(view)  # clean -> counter advances
        assert scheduler._iterations_since_replan == 1


class TestRelegationAccounting:
    def test_relegated_time_recorded(self, em):
        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=800, seed=2)
        scheduler = make_scheduler("qoserve-oracle", em)
        summary, engine = drain_trace(em, scheduler, trace)
        relegated = [r for r in engine.submitted if r.relegated]
        assert relegated, "expected relegation at 2x overload"
        for r in relegated:
            assert r.relegated_time is not None
            assert r.relegated_time >= r.arrival_time
        assert scheduler.relegation_events >= len(relegated)

    def test_relegated_requests_still_complete(self, em):
        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=800, seed=2)
        summary, engine = drain_trace(
            em, make_scheduler("qoserve-oracle", em), trace
        )
        assert summary.finished == summary.num_requests


class TestConfigToggles:
    @pytest.mark.parametrize("toggle", [
        dict(dynamic_chunking=False),
        dict(eager_relegation=False),
        dict(hybrid_prioritization=False),
        dict(selective_preemption=False),
        dict(use_hints=False),
    ])
    def test_every_toggle_runs_clean(self, em, toggle):
        config = QoServeConfig(use_forest_predictor=False, **toggle)
        trace = build_trace(AZURE_CODE, qps=2.5, num_requests=120, seed=3)
        summary, _ = drain_trace(
            em, QoServeScheduler(em, config), trace
        )
        assert summary.finished == 120

    def test_forest_vs_oracle_same_workload_comparable(self, em):
        trace = build_trace(AZURE_CODE, qps=2.5, num_requests=200, seed=4)
        oracle, _ = drain_trace(
            em, make_scheduler("qoserve-oracle", em), trace.fresh_copy()
        )
        forest, _ = drain_trace(
            em, make_scheduler("qoserve", em), trace.fresh_copy()
        )
        assert abs(
            oracle.violations.overall_pct - forest.violations.overall_pct
        ) < 2.0


class TestOtherDeployments:
    @pytest.mark.parametrize("deployment", ["qwen-7b", "llama3-70b"])
    def test_qoserve_runs_on_table1_deployments(self, deployment):
        em = get_execution_model(deployment)
        trace = build_trace(AZURE_CODE, qps=2.0, num_requests=80, seed=5)
        summary, _ = drain_trace(
            em, make_scheduler("qoserve-oracle", em), trace
        )
        assert summary.finished == 80
        assert summary.violations.tbt_miss_pct < 5.0
