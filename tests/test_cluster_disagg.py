"""Unit tests for PD disaggregation: a prefill tier is a
:class:`ClusterDeployment` whose replicas hand prefilled requests to a
:class:`DecodePool`."""

from functools import partial

import pytest

from repro.api import make_scheduler
from repro.cluster.decode_pool import DecodePool
from repro.cluster.deployment import ClusterDeployment
from repro.engine.replica import ReplicaConfig
from repro.workload import PoissonArrivals, TierAssigner, TraceBuilder
from repro.workload.datasets import AZURE_CONV
from tests.conftest import Q1, make_request


class TestDecodePool:
    def test_paces_tokens(self):
        pool = DecodePool(token_pace=0.025)
        r = make_request(prompt_tokens=100, decode_tokens=4, qos=Q1)
        r.prefill_done = 100
        pool.accept(r, handoff_time=10.0)
        assert r.is_finished
        assert r.first_token_time == pytest.approx(10.025)
        assert r.completion_time == pytest.approx(10.0 + 4 * 0.025)
        assert r.max_tbt == pytest.approx(0.025)

    def test_completed_tracked(self):
        pool = DecodePool()
        r = make_request(prompt_tokens=10, decode_tokens=1)
        r.prefill_done = 10
        pool.accept(r, 0.0)
        assert pool.completed == [r]

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodePool(token_pace=0.0)


def prefill_tier(execution_model, pool, num_replicas=1):
    """FCFS prefill replicas (8K chunk) feeding ``pool``."""
    return ClusterDeployment(
        execution_model,
        partial(make_scheduler, "fcfs", execution_model, chunk_size=8192),
        num_replicas=num_replicas,
        replica_config=ReplicaConfig(prefill_sink=pool.accept),
    )


class TestDisaggregatedDeployment:
    def test_end_to_end(self, execution_model):
        pool = DecodePool()
        deployment = prefill_tier(execution_model, pool, num_replicas=2)
        trace = TraceBuilder(
            AZURE_CONV, arrivals=PoissonArrivals(2.0),
            tier_assigner=TierAssigner(), seed=1,
        ).build(40)
        deployment.submit_trace(trace)
        deployment.run()
        assert all(r.is_finished for r in deployment.all_requests())
        assert len(pool.completed) == 40

    def test_large_chunk_prefill(self, execution_model):
        """With an 8K budget, a mid-size prompt prefills in a single
        iteration on the prefill node."""
        deployment = prefill_tier(execution_model, DecodePool())
        r = make_request(prompt_tokens=4000, decode_tokens=5)
        deployment.submit(r)
        deployment.run()
        assert deployment.replicas[0].iterations_run == 1

    def test_summary_includes_decode_latency(self, execution_model):
        deployment = prefill_tier(execution_model, DecodePool())
        r = make_request(prompt_tokens=1000, decode_tokens=10, qos=Q1)
        deployment.submit(r)
        deployment.run()
        summary = deployment.summarize()
        assert summary.finished == 1
        assert r.ttlt > r.ttft
