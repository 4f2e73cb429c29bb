"""Integration tests for :class:`ClusterDeployment` with fault tolerance."""

import json
from functools import partial

import pytest

from repro.api import build_trace, make_scheduler
from repro.cluster.deployment import ClusterDeployment
from repro.faults import (
    FaultPlan,
    ReplicaCrash,
    ReplicaSlowdownFault,
    ResilienceConfig,
    RetryPolicy,
)
from repro.metrics.export import summary_to_dict
from repro.workload.datasets import AZURE_CODE
from tests.conftest import Q2, make_request


def chaos_trace(num_requests=120, qps=10.0, seed=7):
    return build_trace(
        AZURE_CODE,
        qps=qps,
        num_requests=num_requests,
        seed=seed,
        low_priority_fraction=0.3,
    )


def make_cluster(execution_model, num_replicas, plan, resilience=None,
                 scheduler="qoserve", routing="round-robin"):
    return ClusterDeployment(
        execution_model,
        partial(make_scheduler, scheduler, execution_model),
        num_replicas=num_replicas,
        routing=routing,
        fault_plan=plan,
        resilience=resilience or ResilienceConfig(),
    )


def trace_span(trace):
    times = [r.arrival_time for r in trace]
    return min(times), max(times)


class TestDeterminismPin:
    def test_empty_plan_summary_byte_identical(self, execution_model):
        """With no faults the fault-tolerant pool must be a drop-in:
        run summaries are byte-for-byte those of the static cluster."""
        trace = chaos_trace()

        plain = ClusterDeployment(
            execution_model,
            partial(make_scheduler, "qoserve", execution_model),
            num_replicas=3,
        )
        plain.submit_trace(trace.fresh_copy())
        plain.run(max_events=50_000_000)

        resilient = make_cluster(execution_model, 3, FaultPlan())
        resilient.submit_trace(trace.fresh_copy())
        resilient.run(max_events=50_000_000)

        baseline = json.dumps(
            summary_to_dict(plain.summarize()), sort_keys=True
        )
        pinned = json.dumps(
            summary_to_dict(resilient.summarize()), sort_keys=True
        )
        assert baseline == pinned

    def test_empty_plan_no_fault_activity(self, execution_model):
        trace = chaos_trace(num_requests=60)
        cluster = make_cluster(execution_model, 2, FaultPlan())
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        stats = cluster.fault_stats()
        assert stats == {
            "crashes": 0,
            "lost_to_crashes": 0,
            "retries_scheduled": 0,
            "shed": 0,
            "cancelled": 0,
            "still_waiting": 0,
            "kv_blocks_resident": 0,
        }


class TestPlanValidation:
    def test_plan_targeting_missing_replica_rejected(self, execution_model):
        plan = FaultPlan(events=(ReplicaCrash(time=1.0, replica_id=7),))
        with pytest.raises(ValueError, match="replicas \\[7\\]"):
            make_cluster(execution_model, 2, plan)


class TestCrashAndRetry:
    def test_crash_recover_everything_finishes(self, execution_model):
        trace = chaos_trace()
        lo, hi = trace_span(trace)
        span = hi - lo
        plan = FaultPlan(events=(
            ReplicaCrash(time=lo + 0.25 * span, replica_id=1,
                         recover_after=0.25 * span),
        ))
        cluster = make_cluster(execution_model, 2, plan)
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        stats = cluster.fault_stats()
        assert stats["crashes"] == 1
        assert stats["kv_blocks_resident"] == 0
        assert stats["still_waiting"] == 0
        requests = cluster.all_requests()
        assert all(
            r.is_finished or r.cancelled or r.shed for r in requests
        )
        # The crash had casualties and the retry layer resubmitted them.
        assert stats["lost_to_crashes"] > 0
        assert stats["retries_scheduled"] > 0
        retried = [r for r in requests if r.retries > 0]
        assert retried
        assert any(r.is_finished for r in retried)

    def test_retry_preserves_arrival_time(self, execution_model):
        """SLO accounting spans every attempt: arrival never rebased."""
        trace = chaos_trace()
        arrivals = {r.request_id: r.arrival_time for r in trace}
        lo, hi = trace_span(trace)
        plan = FaultPlan(events=(
            ReplicaCrash(time=lo + 0.4 * (hi - lo), replica_id=0,
                         recover_after=5.0),
        ))
        cluster = make_cluster(execution_model, 2, plan)
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        for r in cluster.all_requests():
            assert r.arrival_time == arrivals[r.request_id]

    def test_retry_budget_exhaustion_cancels(self, execution_model):
        """A replica that dies every time the request lands on it
        eventually exhausts the attempt budget."""
        r = make_request(request_id=0, prompt_tokens=2000,
                         decode_tokens=200, qos=Q2)
        # Single replica, three rapid crash/recover cycles with a
        # tight retry policy and no deadline watchdog: the third loss
        # exhausts max_attempts=3.
        plan = FaultPlan(events=(
            ReplicaCrash(time=0.1, replica_id=0, recover_after=0.05),
            ReplicaCrash(time=0.5, replica_id=0, recover_after=0.05),
            ReplicaCrash(time=1.0, replica_id=0, recover_after=0.05),
        ))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_backoff=0.01,
                              max_backoff=0.01),
            abandonment_factor=None,
        )
        cluster = make_cluster(execution_model, 1, plan, resilience)
        cluster.submit(r)
        cluster.run(max_events=50_000_000)
        assert r.cancelled
        assert r.cancel_reason == "retry-budget"
        assert r.attempts == 3
        assert cluster.fault_stats()["kv_blocks_resident"] == 0

    def test_slowdown_applied_and_restored(self, execution_model):
        trace = chaos_trace(num_requests=40)
        lo, hi = trace_span(trace)
        plan = FaultPlan(events=(
            ReplicaSlowdownFault(time=lo + 1.0, replica_id=0,
                                 duration=0.5 * (hi - lo), factor=4.0),
        ))
        cluster = make_cluster(execution_model, 2, plan)
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        # The window ended inside the run: factor restored to nominal.
        assert cluster.replicas[0].slowdown_factor == 1.0
        assert all(
            r.is_finished or r.cancelled for r in cluster.all_requests()
        )


class TestShedding:
    def test_level1_sheds_only_free_tier(self, execution_model):
        trace = chaos_trace()
        lo, hi = trace_span(trace)
        span = hi - lo
        plan = FaultPlan(events=(
            ReplicaCrash(time=lo + 0.25 * span, replica_id=1,
                         recover_after=0.5 * span),
        ))
        resilience = ResilienceConfig(shed_free_below=0.8)
        cluster = make_cluster(execution_model, 4, plan, resilience)
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        shed = cluster.shed_requests
        assert shed, "expected free-tier arrivals during the outage"
        assert all(not r.important for r in shed)
        assert all(r.shed and r.violated_deadline for r in shed)
        # Paid traffic was never refused admission.
        assert all(
            r.is_finished for r in cluster.all_requests() if r.important
        )

    def test_victim_ordering(self, execution_model):
        cluster = make_cluster(execution_model, 2, FaultPlan())
        free = make_request(request_id=0, important=False)
        paid_batch = make_request(request_id=1, qos=Q2, important=True)
        paid_interactive = make_request(request_id=2, important=True)
        # Level 1: free tier only.
        assert cluster._sheddable(free, 1)
        assert not cluster._sheddable(paid_batch, 1)
        assert not cluster._sheddable(paid_interactive, 1)
        # Level 2: also paid non-interactive; interactive never shed.
        assert cluster._sheddable(free, 2)
        assert cluster._sheddable(paid_batch, 2)
        assert not cluster._sheddable(paid_interactive, 2)


class TestDeadlineWatchdog:
    def test_permanent_outage_abandons_everything(self, execution_model):
        trace = chaos_trace(num_requests=30)
        plan = FaultPlan(events=(
            ReplicaCrash(time=0.001, replica_id=0),  # never recovers
        ))
        resilience = ResilienceConfig(
            shed_free_below=0.0, shed_batch_below=0.0
        )
        cluster = make_cluster(execution_model, 1, plan, resilience)
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        stats = cluster.fault_stats()
        assert stats["still_waiting"] == 0
        assert stats["kv_blocks_resident"] == 0
        requests = cluster.all_requests()
        assert all(r.cancelled for r in requests)
        assert {r.cancel_reason for r in requests} == {"deadline"}

    def test_disabled_watchdog_leaves_requests_waiting(
        self, execution_model
    ):
        """abandonment_factor=None documents what the watchdog is for:
        a permanent outage strands admitted work forever."""
        plan = FaultPlan(events=(ReplicaCrash(time=0.001, replica_id=0),))
        resilience = ResilienceConfig(
            abandonment_factor=None,
            shed_free_below=0.0, shed_batch_below=0.0,
        )
        cluster = make_cluster(execution_model, 1, plan, resilience)
        cluster.submit(make_request(request_id=0, arrival_time=0.5))
        cluster.run(max_events=50_000_000)
        assert cluster.fault_stats()["still_waiting"] == 1


class TestChaosAcceptance:
    def test_paid_tier_degrades_less_than_free(self, execution_model):
        """The PR's headline: with 1 of 4 replicas down, tier-aware
        shedding + QoServe relegation keep paid-tier SLO attainment
        above free-tier attainment, and nothing leaks."""
        trace = chaos_trace()
        lo, hi = trace_span(trace)
        span = hi - lo
        plan = FaultPlan(events=(
            ReplicaCrash(time=lo + 0.25 * span, replica_id=1,
                         recover_after=0.25 * span),
        ))
        cluster = make_cluster(
            execution_model, 4, plan,
            ResilienceConfig(shed_free_below=0.8),
        )
        cluster.submit_trace(trace)
        cluster.run(max_events=50_000_000)
        stats = cluster.fault_stats()
        assert stats["crashes"] == 1
        assert stats["kv_blocks_resident"] == 0
        violations = cluster.summarize().violations
        assert violations.important_pct < violations.low_priority_pct
