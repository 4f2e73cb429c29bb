"""Cluster-level integration tests across deployments and modes."""

from functools import partial

import pytest

from repro.api import build_trace, make_scheduler
from repro.cluster.decode_pool import DecodePool
from repro.cluster.deployment import ClusterDeployment, SiloedDeployment, SiloSpec
from repro.engine.replica import ReplicaConfig
from repro.experiments.configs import get_execution_model
from repro.schedulers import QoServeConfig
from repro.workload.datasets import AZURE_CODE, AZURE_CONV


class TestSharedClusterAcrossDeployments:
    @pytest.mark.parametrize("deployment_name,expected_gpus", [
        ("llama3-8b", 2),
        ("qwen-7b", 4),      # TP2
        ("llama3-70b", 8),   # TP4
    ])
    def test_gpu_accounting(self, deployment_name, expected_gpus):
        em = get_execution_model(deployment_name)
        cluster = ClusterDeployment(
            em, partial(make_scheduler, "fcfs", em), num_replicas=2
        )
        assert cluster.gpus_used == expected_gpus

    @pytest.mark.parametrize("deployment_name", ["qwen-7b", "llama3-70b"])
    def test_multireplica_qoserve_completes(self, deployment_name):
        em = get_execution_model(deployment_name)
        cluster = ClusterDeployment(
            em, partial(make_scheduler, "qoserve-oracle", em), num_replicas=2
        )
        trace = build_trace(AZURE_CODE, qps=4.0, num_requests=80, seed=6)
        cluster.submit_trace(trace)
        cluster.run(max_events=20_000_000)
        summary = cluster.summarize()
        assert summary.finished == 80


class TestSiloVsSharedAtEqualGpus:
    def test_shared_beats_silo_under_pressure(self):
        """The paper's core capacity claim at miniature scale: with the
        same GPU count under a load the silo cannot balance, shared
        QoServe attains fewer violations."""
        em = get_execution_model("llama3-8b")
        trace = build_trace(AZURE_CODE, qps=6.0, num_requests=900, seed=8)

        silo = SiloedDeployment(
            em,
            silos=[
                SiloSpec(("Q1",), 1,
                         partial(make_scheduler, "fcfs", em, chunk_size=256)),
                SiloSpec(("Q2",), 1,
                         partial(make_scheduler, "fcfs", em, chunk_size=2048)),
                SiloSpec(("Q3",), 1,
                         partial(make_scheduler, "fcfs", em, chunk_size=2048)),
            ],
        )
        silo.submit_trace(trace.fresh_copy())
        silo.run(max_events=50_000_000)
        silo_summary = silo.summarize()

        shared = ClusterDeployment(
            em, partial(make_scheduler, "qoserve-oracle", em), num_replicas=3
        )
        shared.submit_trace(trace.fresh_copy())
        shared.run(max_events=50_000_000)
        shared_summary = shared.summarize()

        assert silo.gpus_used == shared.gpus_used == 3
        assert (
            shared_summary.violations.overall_pct
            <= silo_summary.violations.overall_pct
        )


class TestDisaggQoServeConfig:
    def test_qoserve_uses_large_chunk_on_prefill_nodes(self):
        em = get_execution_model("llama3-8b")
        deployment = ClusterDeployment(
            em,
            partial(make_scheduler, 
                "qoserve-oracle", em,
                qoserve_config=QoServeConfig(
                    max_chunk_size=8192, fixed_chunk_size=8192,
                    use_forest_predictor=False,
                ),
            ),
            num_replicas=1,
            replica_config=ReplicaConfig(prefill_sink=DecodePool().accept),
        )
        from tests.conftest import make_request

        r = make_request(prompt_tokens=6000, decode_tokens=5)
        deployment.submit(r)
        deployment.run()
        # 6000 tokens in a single 8K-budget iteration.
        assert deployment.replicas[0].iterations_run == 1
        assert r.is_finished

    def test_disagg_multireplica_round_robin(self):
        em = get_execution_model("llama3-8b")
        pool = DecodePool()
        deployment = ClusterDeployment(
            em, partial(make_scheduler, "edf", em, chunk_size=8192),
            num_replicas=3,
            replica_config=ReplicaConfig(prefill_sink=pool.accept),
        )
        trace = build_trace(AZURE_CONV, qps=3.0, num_requests=30, seed=9)
        deployment.submit_trace(trace)
        deployment.run()
        counts = [len(r.submitted) for r in deployment.replicas]
        assert counts == [10, 10, 10]
        assert len(pool.completed) == 30
