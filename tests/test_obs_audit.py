"""Unit tests for per-request latency attribution (repro.obs.audit)."""

import json

import pytest

from repro.api import build_trace, make_scheduler
from repro.experiments.configs import Scale, get_execution_model
from repro.metrics.export import summary_to_dict
from repro.obs.audit import (
    CONSERVATION_TOL,
    PHASES,
    audit_events,
    audit_requests,
)
from repro.workload.datasets import AZURE_CODE
from tests.conftest import drain_trace


def completed(
    request_id=1,
    tier="Q1",
    arrival=0.0,
    scheduled=1.0,
    first_token=2.0,
    completion=3.0,
    violated=False,
    relegated=False,
    qos_class="interactive",
):
    return {
        "kind": "request_completed",
        "ts": completion,
        "replica_id": 0,
        "request_id": request_id,
        "tier": tier,
        "arrival_time": arrival,
        "scheduled_first_time": scheduled,
        "first_token_time": first_token,
        "completion_time": completion,
        "relegated": relegated,
        "violated": violated,
        "evictions": 0,
        "qos_class": qos_class,
    }


def iteration(ts, dur, prefill_ids=()):
    return {
        "kind": "iteration_scheduled",
        "ts": ts,
        "dur": dur,
        "replica_id": 0,
        "iteration": 0,
        "prefill_request_ids": list(prefill_ids),
    }


class TestDecomposition:
    def test_simple_tiling(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=1.5,
                      completion=2.0),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["admission_queue"] == pytest.approx(1.0)
        assert audit.phases["prefill_compute"] == pytest.approx(0.5)
        assert audit.phases["decode"] == pytest.approx(0.5)
        assert audit.conservation_error <= CONSERVATION_TOL
        assert audit.dominant_cause is None  # not violated

    def test_chunk_stall_between_spans(self):
        events = [
            iteration(1.0, 0.2, prefill_ids=[1]),
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=2.2, completion=2.5),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["chunk_stall"] == pytest.approx(0.8)
        assert audit.phases["prefill_compute"] == pytest.approx(0.4)
        assert audit.conservation_error <= CONSERVATION_TOL

    def test_preemption_reclassifies_gap(self):
        events = [
            iteration(1.0, 0.2, prefill_ids=[1]),
            {"kind": "preempted", "ts": 1.5, "request_id": 1,
             "replica_id": 0, "reason": "stall", "prefill_done": 100},
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=2.2, completion=2.5),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["preempt_stall"] == pytest.approx(0.8)
        assert audit.phases["chunk_stall"] == 0.0

    def test_retry_takes_precedence_over_preemption(self):
        events = [
            iteration(1.0, 0.2, prefill_ids=[1]),
            {"kind": "preempted", "ts": 1.5, "request_id": 1},
            {"kind": "request_retried", "ts": 1.6, "request_id": 1},
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=2.2, completion=2.5),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["retry_stall"] == pytest.approx(0.8)
        assert audit.phases["preempt_stall"] == 0.0

    def test_relegation_splits_admission_wait(self):
        events = [
            {"kind": "relegated", "ts": 2.0, "request_id": 1},
            iteration(5.0, 0.5, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=5.0, first_token=5.5,
                      completion=6.0, relegated=True),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["admission_queue"] == pytest.approx(2.0)
        assert audit.phases["relegation_stall"] == pytest.approx(3.0)
        assert audit.phases["prefill_compute"] == pytest.approx(0.5)
        assert audit.conservation_error <= CONSERVATION_TOL

    def test_relegation_served_restores_chunk_accounting(self):
        # After relegation_served, later gaps are ordinary chunk waits.
        events = [
            {"kind": "relegated", "ts": 0.5, "request_id": 1},
            {"kind": "relegation_served", "ts": 1.0, "request_id": 1,
             "replica_id": 0, "tier": "Q3", "tokens": 128, "waited": 0.5},
            iteration(1.0, 0.2, prefill_ids=[1]),
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=2.2,
                      completion=2.5, relegated=True, tier="Q3",
                      qos_class="non-interactive"),
        ]
        report = audit_events(events)
        [audit] = report.requests
        assert audit.phases["chunk_stall"] == pytest.approx(0.8)
        assert audit.phases["relegation_stall"] == pytest.approx(0.5)

    def test_v1_trace_without_new_fields(self):
        """Events lacking qos_class / service spans still decompose."""
        event = completed(violated=True, qos_class="")
        del event["qos_class"]
        report = audit_events([event])
        [audit] = report.requests
        assert audit.conservation_error <= CONSERVATION_TOL
        # Q1 falls back to the Table 3 interactive convention.
        assert audit.dominant_cause is not None
        assert audit.dominant_cause != "decode"


class TestDominantCause:
    def test_interactive_never_blames_decode(self):
        # Huge decode, tiny queue — but TTFT-governed tiers must pick
        # a pre-first-token phase.
        report = audit_events([
            completed(arrival=0.0, scheduled=0.1, first_token=0.2,
                      completion=100.0, violated=True,
                      qos_class="interactive"),
        ])
        [audit] = report.requests
        assert audit.dominant_cause == "admission_queue"

    def test_non_interactive_can_blame_decode(self):
        report = audit_events([
            completed(arrival=0.0, scheduled=0.1, first_token=0.2,
                      completion=100.0, violated=True, tier="Q2",
                      qos_class="non-interactive"),
        ])
        [audit] = report.requests
        assert audit.dominant_cause == "decode"

    def test_exactly_one_cause_per_violated_request(self):
        events = [
            completed(request_id=i, violated=(i % 2 == 0))
            for i in range(10)
        ]
        report = audit_events(events)
        assert sum(report.dominant_causes().values()) == 5
        assert sum(report.violated.values()) == 5
        for audit in report.requests:
            assert (audit.dominant_cause is not None) == audit.violated
            if audit.dominant_cause is not None:
                assert audit.dominant_cause in PHASES


class TestReportAggregation:
    def test_phase_share_sums_to_one(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=1.5, completion=2.0),
            completed(request_id=2, tier="Q2", completion=4.0),
        ]
        report = audit_events(events)
        share = report.phase_share()
        assert sum(share.values()) == pytest.approx(1.0)
        assert set(share) == set(PHASES)
        q2_share = report.phase_share(tier="Q2")
        assert sum(q2_share.values()) == pytest.approx(1.0)

    def test_empty_report(self):
        report = audit_events([])
        assert report.max_conservation_error() == 0.0
        assert report.dominant_causes() == {}
        assert report.phase_share() == {name: 0.0 for name in PHASES}
        assert report.to_dict()["num_requests"] == 0

    def test_to_dict_json_safe(self):
        report = audit_events([completed(violated=True)])
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert "admission_queue" in payload


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def smoke(self):
        execution_model = get_execution_model("llama3-8b")
        scale = Scale(label="audit-smoke", num_requests=80, seed=11)
        trace = build_trace(
            AZURE_CODE, qps=1.0, num_requests=scale.num_requests,
            seed=scale.seed,
        ).scaled_arrivals(8.0)
        scheduler = make_scheduler("fcfs", execution_model)
        summary, _ = drain_trace(
            execution_model, scheduler, trace, audit=True
        )
        return summary, trace

    def test_conservation_bound(self, smoke):
        summary, _ = smoke
        report = summary.attribution
        assert report is not None
        assert len(report.requests) > 0
        assert report.max_conservation_error() <= CONSERVATION_TOL

    def test_every_violation_has_one_cause(self, smoke):
        summary, _ = smoke
        report = summary.attribution
        assert sum(report.violated.values()) > 0, (
            "smoke run should overload fcfs"
        )
        assert sum(report.dominant_causes().values()) == sum(
            report.violated.values()
        )

    def test_determinism_pin_with_audit(self, smoke):
        """Auditing is a pure read: the serialized RunSummary must be
        byte-identical to a run without any observer attached."""
        summary, trace = smoke
        execution_model = get_execution_model("llama3-8b")
        scheduler = make_scheduler("fcfs", execution_model)
        plain, _ = drain_trace(
            execution_model, scheduler, trace.fresh_copy()
        )
        audited = json.dumps(summary_to_dict(summary), sort_keys=True)
        baseline = json.dumps(summary_to_dict(plain), sort_keys=True)
        assert audited == baseline

    def test_coarse_fallback_agrees_on_totals(self, smoke):
        _, trace = smoke
        report = audit_requests(list(trace))
        assert report.max_conservation_error() <= CONSERVATION_TOL
        assert sum(report.completed.values()) == sum(
            1 for r in trace if r.completion_time is not None
        )
