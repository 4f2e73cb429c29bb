"""The code snippets in docs/EXTENDING.md must keep working."""

from repro.api import Session
from repro.core.qos import QoSClass, QoSSpec
from repro.core.request import Request
from repro.perfmodel import ExecutionModel, HardwareSpec, ModelSpec
from repro.schedulers.base import FixedChunkScheduler
from repro.workload import (
    DiurnalArrivals,
    TierAssigner,
    TierMix,
    TraceBuilder,
)
from repro.workload.datasets import DatasetSpec
from repro.workload.distributions import LognormalLengths


class DeadlineDensityScheduler(FixedChunkScheduler):
    """The custom-scheduler example from docs/EXTENDING.md."""

    name = "deadline-density"

    def priority(self, request: Request, now: float) -> float:
        slack = request.first_token_deadline - now
        return slack / max(1, request.remaining_prefill)


def make_docs_workload(n=60):
    my_dataset = DatasetSpec(
        name="my-app",
        prompt_lengths=LognormalLengths(p50=1200, p90=4000,
                                        max_tokens=8192),
        decode_lengths=LognormalLengths(p50=100, p90=400),
    )
    return TraceBuilder(
        my_dataset,
        arrivals=DiurnalArrivals(1.0, 4.0, phase_duration=600),
        tier_assigner=TierAssigner(
            TierMix.interactive_heavy(), low_priority_fraction=0.2
        ),
    ).build(n)


class TestExtendingDocs:
    def test_custom_scheduler_runs(self):
        trace = make_docs_workload()
        session = Session(scheduler=DeadlineDensityScheduler())
        for request in trace:
            session.submit(request)
        session.drain()
        summary = session.summary(requests=list(trace))
        assert summary.finished == len(trace)

    def test_custom_deployment_constructs(self):
        my_model = ModelSpec(
            name="MyModel-13B", num_layers=40, hidden_size=5120,
            intermediate_size=13824, num_q_heads=40, num_kv_heads=40,
            vocab_size=32000,
        )
        my_gpu = HardwareSpec(
            name="L40S", peak_flops=362e12, mem_bandwidth=0.864e12,
            mem_capacity=48e9,
        )
        em = ExecutionModel(my_model, my_gpu, tp_degree=2)
        assert em.kv_capacity_tokens > 0
        assert em.peak_prefill_throughput(2048) > 0

    def test_custom_qos_spec(self):
        ultra = QoSSpec(
            "ultra", QoSClass.INTERACTIVE, ttft_slo=1.0, tbt_slo=0.020
        )
        assert ultra.token_deadline(0.0, 2) == 1.02
