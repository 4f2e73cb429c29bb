"""Unit tests for cluster deployments and load balancing."""

from functools import partial

import pytest

from repro.api import make_scheduler
from repro.cluster.deployment import (
    ClusterDeployment,
    SiloedDeployment,
    SiloSpec,
)
from repro.workload import PoissonArrivals, TierAssigner, TraceBuilder
from repro.workload.datasets import AZURE_CODE
from tests.conftest import make_request


def small_trace(n=60, qps=3.0, seed=3):
    return TraceBuilder(
        AZURE_CODE, arrivals=PoissonArrivals(qps),
        tier_assigner=TierAssigner(), seed=seed,
    ).build(n)


class TestClusterDeployment:
    def test_round_robin_spreads_requests(self, execution_model):
        cluster = ClusterDeployment(
            execution_model, partial(make_scheduler, "fcfs", execution_model),
            num_replicas=3,
        )
        for i in range(9):
            cluster.submit(make_request(request_id=i))
        counts = [len(r.submitted) for r in cluster.replicas]
        assert counts == [3, 3, 3]

    def test_all_requests_complete(self, execution_model):
        cluster = ClusterDeployment(
            execution_model, partial(make_scheduler, "fcfs", execution_model),
            num_replicas=2,
        )
        trace = small_trace()
        cluster.submit_trace(trace)
        cluster.run()
        assert all(r.is_finished for r in cluster.all_requests())
        assert len(cluster.all_requests()) == len(trace)

    def test_gpus_used_counts_tp(self):
        from repro.experiments.configs import get_execution_model

        qwen = get_execution_model("qwen-7b")  # TP2
        cluster = ClusterDeployment(
            qwen, partial(make_scheduler, "fcfs", qwen), num_replicas=3
        )
        assert cluster.gpus_used == 6

    def test_more_replicas_lower_latency(self, execution_model):
        trace = small_trace(n=80, qps=6.0)

        def p99(replicas):
            cluster = ClusterDeployment(
                execution_model,
                partial(make_scheduler, "fcfs", execution_model),
                num_replicas=replicas,
            )
            cluster.submit_trace(trace.fresh_copy())
            cluster.run()
            return cluster.summarize().overall_percentiles[0.99]

        assert p99(4) <= p99(1)

    def test_validation(self, execution_model):
        with pytest.raises(ValueError):
            ClusterDeployment(
                execution_model,
                partial(make_scheduler, "fcfs", execution_model),
                num_replicas=0,
            )


class TestSiloedDeployment:
    def make_silo(self, execution_model):
        return SiloedDeployment(
            execution_model,
            silos=[
                SiloSpec(("Q1",), 1, partial(make_scheduler, 
                    "fcfs", execution_model, chunk_size=256)),
                SiloSpec(("Q2", "Q3"), 1, partial(make_scheduler, 
                    "fcfs", execution_model, chunk_size=2048)),
            ],
        )

    def test_routes_by_tier(self, execution_model):
        deployment = self.make_silo(execution_model)
        trace = small_trace(n=60)
        deployment.submit_trace(trace)
        q1_pool, batch_pool = deployment.pools
        for replica in q1_pool.replicas:
            assert all(r.qos.name == "Q1" for r in replica.submitted)
        for replica in batch_pool.replicas:
            assert all(r.qos.name in ("Q2", "Q3")
                       for r in replica.submitted)

    def test_completes_and_summarizes(self, execution_model):
        deployment = self.make_silo(execution_model)
        trace = small_trace(n=50)
        deployment.submit_trace(trace)
        deployment.run()
        summary = deployment.summarize()
        assert summary.finished == 50

    def test_unrouted_tier_raises(self, execution_model):
        deployment = SiloedDeployment(
            execution_model,
            silos=[SiloSpec(("Q1",), 1,
                            partial(make_scheduler, "fcfs", execution_model))],
        )
        from tests.conftest import Q2
        with pytest.raises(KeyError):
            deployment.submit(make_request(qos=Q2))

    def test_duplicate_tier_rejected(self, execution_model):
        with pytest.raises(ValueError):
            SiloedDeployment(
                execution_model,
                silos=[
                    SiloSpec(("Q1",), 1,
                             partial(make_scheduler, "fcfs", execution_model)),
                    SiloSpec(("Q1",), 1,
                             partial(make_scheduler, "fcfs", execution_model)),
                ],
            )

    def test_gpus_used_sums_pools(self, execution_model):
        deployment = self.make_silo(execution_model)
        assert deployment.gpus_used == 2

    def test_empty_silos_rejected(self, execution_model):
        with pytest.raises(ValueError):
            SiloedDeployment(execution_model, silos=[])
