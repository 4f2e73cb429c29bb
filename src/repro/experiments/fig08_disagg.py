"""Figure 8: goodput with prefill/decode disaggregation.

QoServe's prioritization and relegation applied to the prefill nodes
of a disaggregated deployment (Section 4.1.3): chunk budget 8K (no TBT
constraint on prefill nodes), Azure Conv trace, identical fixed-pace
decode pool across schemes.  Gains are smaller than colocated because
the large baseline chunk leaves no dynamic-chunking headroom.
"""

from __future__ import annotations

from functools import partial

from repro.api import build_trace, make_scheduler
from repro.cluster.capacity import find_max_goodput, CapacityResult
from repro.cluster.decode_pool import DecodePool
from repro.cluster.deployment import ClusterDeployment
from repro.engine.replica import ReplicaConfig
from repro.experiments.cache import cached_cell
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.parallel import pmap
from repro.experiments.result import ExperimentResult
from repro.metrics.summary import RunSummary
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers import QoServeConfig
from repro.workload.datasets import AZURE_CONV
from repro.workload.trace import Trace

SCHEMES = ("fcfs", "edf", "qoserve")
DISAGG_CHUNK = 8192
DEFAULT_DEPLOYMENTS = ("llama3-8b", "qwen-7b", "llama3-70b")


QPS_HIGH = 16.0
MIN_PROBE_DURATION = 300.0


def _disagg_goodput(
    scheme: str,
    execution_model: ExecutionModel,
    num_requests: int,
    seed: int,
) -> CapacityResult:
    # Every probe spans at least MIN_PROBE_DURATION simulated seconds:
    # a short burst at high QPS hides beyond-capacity operation in the
    # long-TTLT tiers and the drain (same flooring goodput_search
    # applies for colocated capacity).
    max_requests = max(num_requests, int(QPS_HIGH * MIN_PROBE_DURATION))
    base = build_trace(
        AZURE_CONV, qps=1.0, num_requests=max_requests, seed=seed
    )
    if scheme == "qoserve":
        kwargs = {
            "qoserve_config": QoServeConfig(
                max_chunk_size=DISAGG_CHUNK, fixed_chunk_size=DISAGG_CHUNK
            )
        }
    else:
        kwargs = {"chunk_size": DISAGG_CHUNK}

    def evaluate(qps: float) -> RunSummary:
        deployment = ClusterDeployment(
            execution_model,
            partial(make_scheduler, scheme, execution_model, **kwargs),
            num_replicas=1,
            replica_config=ReplicaConfig(prefill_sink=DecodePool().accept),
        )
        needed = max(num_requests, int(qps * MIN_PROBE_DURATION))
        trace = base.scaled_arrivals(qps)
        if needed < len(trace):
            trace = Trace(
                trace.requests[:needed],
                dataset_name=trace.dataset_name,
                seed=trace.seed,
            )
        deployment.submit_trace(trace)
        deployment.run()
        summary = deployment.summarize()
        arrivals = [r.arrival_time for r in trace]
        summary.drain_time = deployment.simulator.now - max(arrivals)
        summary.arrival_span = max(arrivals) - min(arrivals)
        return summary

    return find_max_goodput(evaluate, qps_high=QPS_HIGH, tolerance=0.2)


def _disagg_cell(task: tuple[str, str, int, int]) -> dict:
    """One (deployment, scheme) disaggregated goodput bisection."""
    deployment_name, scheme, num_requests, seed = task

    def compute() -> dict:
        capacity = _disagg_goodput(
            scheme, get_execution_model(deployment_name), num_requests, seed
        )
        return {
            "deployment": deployment_name,
            "scheme": f"Disagg-{scheme.upper()}"
            if scheme in ("fcfs", "edf")
            else "Disagg-QoServe",
            "goodput_qps": capacity.max_qps,
        }

    return cached_cell(
        compute,
        figure="fig08",
        deployment=deployment_name,
        scheme=scheme,
        chunk=DISAGG_CHUNK,
        num_requests=num_requests,
        seed=seed,
    )


def run(
    scale: Scale = BENCH,
    deployments: tuple[str, ...] = DEFAULT_DEPLOYMENTS,
    schemes: tuple[str, ...] = SCHEMES,
    jobs: int | None = None,
) -> ExperimentResult:
    """Reproduce Figure 8's disaggregated prefill goodput.

    Each (deployment, scheme) bisection is independent and fans out
    over ``jobs`` worker processes (``None`` reads ``--jobs``).
    """
    result = ExperimentResult(
        experiment="figure-08",
        title="Max goodput per prefill replica, PD disaggregation",
        notes=[
            f"scale={scale.label}; dataset=AzConv; chunk={DISAGG_CHUNK}; "
            "decode pool identical across schemes"
        ],
    )
    tasks = [
        (deployment_name, scheme, scale.num_requests, scale.seed)
        for deployment_name in deployments
        for scheme in schemes
    ]
    result.rows.extend(
        pmap(_disagg_cell, tasks, jobs=jobs, warm_deployments=deployments)
    )
    return result


if __name__ == "__main__":
    print(run().render())
