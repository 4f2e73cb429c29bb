"""Table 4 / Figure 1 (top right): cluster-scale silo vs QoServe.

Follows the paper's provisioning method: the silo baseline sizes each
tier's dedicated pool from that tier's measured per-replica goodput
(chunk 256 for the strict tier, 2048 for the throughput tiers), while
QoServe sizes one shared pool from its mixed-workload goodput.  All
three deployments — the tuned silo, a silo squeezed to QoServe's GPU
count, and QoServe — are then simulated at the full cluster load and
their p99 latencies and violation rates reported.
"""

from __future__ import annotations

import math
from functools import partial

from repro.api import build_trace, goodput_search, make_scheduler
from repro.cluster.deployment import ClusterDeployment, SiloedDeployment, SiloSpec
from repro.core.qos import Q1_INTERACTIVE, Q2_RELAXED, Q3_BATCH
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.workload.datasets import AZURE_CODE
from repro.workload.tiers import TierMix

SILO_CHUNKS = {"Q1": 256, "Q2": 2048, "Q3": 2048}
TIERS = {"Q1": Q1_INTERACTIVE, "Q2": Q2_RELAXED, "Q3": Q3_BATCH}


def _single_tier_mix(name: str) -> TierMix:
    return TierMix(tiers=(TIERS[name],), weights=(1.0,), app_names=(name,))


def silo_allocation(
    execution_model, scale: Scale, per_tier_qps: float
) -> tuple[dict[str, int], dict[str, float]]:
    """Replicas per tier from measured per-tier silo goodput."""
    replicas: dict[str, int] = {}
    goodputs: dict[str, float] = {}
    for tier_name, chunk in SILO_CHUNKS.items():
        capacity = goodput_search(
            "fcfs",
            execution_model,
            AZURE_CODE,
            num_requests=max(300, scale.num_requests // 3),
            seed=scale.seed,
            mix=_single_tier_mix(tier_name),
            chunk_size=chunk,
        )
        goodputs[tier_name] = capacity.max_qps
        replicas[tier_name] = max(
            1, math.ceil(per_tier_qps / max(1e-9, capacity.max_qps))
        )
    return replicas, goodputs


def _simulate_silo(
    execution_model, replicas: dict[str, int], trace
) -> tuple[int, dict]:
    silos = [
        SiloSpec(
            tier_names=(tier,),
            num_replicas=count,
            scheduler_factory=partial(
                make_scheduler, "fcfs", execution_model,
                chunk_size=SILO_CHUNKS[tier],
            ),
        )
        for tier, count in replicas.items()
    ]
    deployment = SiloedDeployment(execution_model, silos)
    deployment.submit_trace(trace)
    deployment.run()
    return deployment.gpus_used, deployment.summarize()


def _simulate_shared(execution_model, num_replicas: int, trace):
    deployment = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "qoserve", execution_model),
        num_replicas=num_replicas,
    )
    deployment.submit_trace(trace)
    deployment.run()
    return deployment.gpus_used, deployment.summarize()


def _row(scheme: str, gpus: int, summary) -> dict:
    return {
        "scheme": scheme,
        "gpus": gpus,
        "q1_p99_s": summary.tier_percentile("Q1", 0.99),
        "q2_p99_s": summary.tier_percentile("Q2", 0.99),
        "q3_p99_s": summary.tier_percentile("Q3", 0.99),
        "viol_overall_pct": summary.violations.overall_pct,
    }


def run(
    scale: Scale = BENCH,
    total_qps: float = 27.0,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Table 4's cluster-scale comparison.

    ``total_qps`` defaults below the paper's 35 because the simulated
    replicas' absolute capacity differs from the authors' testbed; the
    provisioning *method* and the relative GPU savings are what carry.
    """
    execution_model = get_execution_model(deployment)
    per_tier_qps = total_qps / 3.0

    silo_replicas, silo_goodputs = silo_allocation(
        execution_model, scale, per_tier_qps
    )
    shared_capacity = goodput_search(
        "qoserve",
        execution_model,
        AZURE_CODE,
        num_requests=max(300, scale.num_requests // 3),
        seed=scale.seed,
    )
    qoserve_replicas = max(
        1, math.ceil(total_qps / max(1e-9, shared_capacity.max_qps))
    )

    cluster_requests = scale.num_requests * 4
    trace = build_trace(
        AZURE_CODE,
        qps=total_qps,
        num_requests=cluster_requests,
        seed=scale.seed,
    )

    result = ExperimentResult(
        experiment="table-04",
        title=f"Cluster scale at {total_qps} QPS (AzCode, {deployment})",
        notes=[
            f"silo per-tier goodputs: "
            + ", ".join(f"{k}={v:.2f}" for k, v in silo_goodputs.items()),
            f"QoServe shared goodput: {shared_capacity.max_qps:.2f} QPS",
            f"{cluster_requests} requests at cluster scale",
        ],
    )

    gpus, summary = _simulate_silo(
        execution_model, silo_replicas, trace.fresh_copy()
    )
    alloc = tuple(silo_replicas[t] for t in ("Q1", "Q2", "Q3"))
    result.rows.append(_row(f"Silo-{alloc}", gpus, summary))

    # Squeeze the silo to QoServe's GPU budget, shrinking the largest
    # pools first (mirroring the paper's (6,2,2) configuration).
    squeezed = dict(silo_replicas)
    while sum(squeezed.values()) > qoserve_replicas and any(
        v > 1 for v in squeezed.values()
    ):
        largest = max(squeezed, key=lambda k: squeezed[k])
        squeezed[largest] -= 1
    gpus, summary = _simulate_silo(
        execution_model, squeezed, trace.fresh_copy()
    )
    alloc = tuple(squeezed[t] for t in ("Q1", "Q2", "Q3"))
    result.rows.append(_row(f"Silo-{alloc}", gpus, summary))

    gpus, summary = _simulate_shared(
        execution_model, qoserve_replicas, trace.fresh_copy()
    )
    result.rows.append(_row(f"QoServe-({qoserve_replicas})", gpus, summary))
    return result


if __name__ == "__main__":
    print(run().render())
