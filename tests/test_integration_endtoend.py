"""End-to-end integration tests: full simulations, cross-scheduler
behavioural comparisons, and engine-level invariants over real runs.

These are the tests that tie the reproduction's claims together at a
small scale: QoServe beating deadline-blind baselines, relegation
kicking in under overload, dynamic chunking raising throughput.
"""

import pytest

from repro.api import build_trace, make_scheduler
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.experiments.configs import get_execution_model
from repro.schedulers import QoServeConfig, QoServeScheduler
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE, AZURE_CONV, SHAREGPT
from repro.workload.tiers import TierAssigner
from repro.workload.trace import TraceBuilder
from repro.workload.arrivals import PoissonArrivals
from tests.conftest import drain_trace


@pytest.fixture(scope="module")
def em():
    return get_execution_model("llama3-8b")


def run(em, kind, trace, **kwargs):
    scheduler = make_scheduler(kind, em, **kwargs)
    summary, engine = drain_trace(em, scheduler, trace.fresh_copy())
    return summary, engine


class TestConservation:
    """Token and request conservation over full runs."""

    @pytest.mark.parametrize("dataset", [AZURE_CODE, AZURE_CONV, SHAREGPT])
    def test_all_tokens_produced(self, em, dataset):
        trace = build_trace(dataset, qps=2.0, num_requests=60, seed=11)
        summary, engine = run(em, "qoserve-oracle", trace)
        for r in engine.submitted:
            assert r.is_finished
            assert r.decoded == r.decode_tokens
            assert r.prefill_done == r.prefill_target

    def test_kv_empty_after_drain(self, em):
        trace = build_trace(AZURE_CODE, qps=2.0, num_requests=60, seed=11)
        _, engine = run(em, "qoserve-oracle", trace)
        assert engine.kv_cache.used_blocks == 0

    def test_timestamps_causal(self, em):
        trace = build_trace(AZURE_CONV, qps=2.0, num_requests=60, seed=11)
        _, engine = run(em, "edf", trace)
        for r in engine.submitted:
            assert r.scheduled_first_time >= r.arrival_time
            assert r.first_token_time >= r.scheduled_first_time
            assert r.completion_time >= r.first_token_time

    def test_determinism_across_runs(self, em):
        trace = build_trace(AZURE_CODE, qps=2.5, num_requests=80, seed=3)
        a, _ = run(em, "qoserve-oracle", trace)
        b, _ = run(em, "qoserve-oracle", trace)
        assert a.overall_percentiles == b.overall_percentiles
        assert a.violations.overall_pct == b.violations.overall_pct


class TestSchedulerComparisons:
    """The paper's qualitative orderings at moderate scale."""

    @pytest.fixture(scope="class")
    def overload_trace(self):
        return build_trace(AZURE_CODE, qps=1.0, num_requests=900, seed=21)

    def test_qoserve_beats_fcfs_under_load(self, em, overload_trace):
        trace = overload_trace.scaled_arrivals(4.0)
        fcfs, _ = run(em, "fcfs", trace)
        qoserve, _ = run(em, "qoserve-oracle", trace)
        assert (
            qoserve.violations.overall_pct < fcfs.violations.overall_pct
        )

    def test_qoserve_beats_edf_under_overload(self, em, overload_trace):
        trace = overload_trace.scaled_arrivals(5.0)
        edf, _ = run(em, "edf", trace)
        qoserve, _ = run(em, "qoserve-oracle", trace)
        assert (
            qoserve.violations.overall_pct < edf.violations.overall_pct
        )

    def test_srpf_unfair_to_long_requests(self, em, overload_trace):
        trace = overload_trace.scaled_arrivals(4.0)
        srpf, _ = run(em, "srpf", trace)
        assert srpf.violations.long_pct > srpf.violations.short_pct

    def test_fcfs_violates_strict_tier_first(self, em, overload_trace):
        trace = overload_trace.scaled_arrivals(4.0)
        fcfs, _ = run(em, "fcfs", trace)
        assert fcfs.violations.tier("Q1") > fcfs.violations.tier("Q3")

    def test_qoserve_fair_to_long_requests_at_normal_load(
        self, em, overload_trace
    ):
        trace = overload_trace.scaled_arrivals(2.0)
        qoserve, _ = run(em, "qoserve-oracle", trace)
        assert qoserve.violations.long_pct <= 5.0

    def test_dynamic_chunking_finishes_faster(self, em, overload_trace):
        """Dynamic chunking's throughput gain shows up as a shorter
        makespan on a fixed trace (Table 5's DC row)."""
        trace = overload_trace.scaled_arrivals(3.5)
        _, fixed_engine = run(
            em, "qoserve-oracle", trace,
            qoserve_config=QoServeConfig(
                dynamic_chunking=False, use_forest_predictor=False
            ),
        )
        _, dynamic_engine = run(
            em, "qoserve-oracle", trace,
            qoserve_config=QoServeConfig(use_forest_predictor=False),
        )
        assert (
            dynamic_engine.simulator.now < fixed_engine.simulator.now * 0.9
        )


class TestRelegationBehaviour:
    def test_relegation_under_overload(self, em):
        trace = build_trace(AZURE_CODE, qps=6.0, num_requests=900, seed=5)
        summary, engine = run(em, "qoserve-oracle", trace)
        assert summary.violations.relegated_pct > 0
        # Relegated requests are never dropped: everything completes.
        assert summary.finished == summary.num_requests

    def test_low_priority_relegated_first(self, em):
        trace = TraceBuilder(
            AZURE_CODE,
            arrivals=PoissonArrivals(6.0),
            tier_assigner=TierAssigner(low_priority_fraction=0.3),
            seed=6,
        ).build(900)
        summary, engine = run(em, "qoserve-oracle", trace)
        relegated = [r for r in engine.submitted if r.relegated]
        assert relegated
        low_priority_share = sum(
            1 for r in relegated if not r.important
        ) / len(relegated)
        assert low_priority_share > 0.5

    def test_no_relegation_at_low_load(self, em):
        trace = build_trace(AZURE_CODE, qps=1.0, num_requests=200, seed=7)
        summary, _ = run(em, "qoserve-oracle", trace)
        assert summary.violations.relegated_pct == 0.0


class TestTbtIntegrity:
    def test_tbt_misses_rare_for_on_time_requests(self, em):
        """The paper reports <0.1% TBT violations; with the oracle
        predictor the reproduction should be near zero too."""
        trace = build_trace(AZURE_CONV, qps=2.0, num_requests=300, seed=9)
        summary, _ = run(em, "qoserve-oracle", trace)
        assert summary.violations.tbt_miss_pct < 1.0

    def test_fixed_chunk_tbt_clean(self, em):
        trace = build_trace(AZURE_CONV, qps=2.0, num_requests=300, seed=9)
        summary, _ = run(em, "edf", trace)
        assert summary.violations.tbt_miss_pct < 0.5
