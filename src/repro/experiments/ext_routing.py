"""Extension experiment: load-balancing strategies across replicas.

The paper's deployments use round-robin ("Both deployments use
round-robin load balancing across replicas").  With heavy-tailed
prompt lengths a round-robin cluster leaves transient per-replica
imbalance on the table; this ablation measures how much QoServe-level
scheduling recovers versus what arrival-time load-aware routing
(least-loaded, power-of-two-choices) adds on top.
"""

from __future__ import annotations

from functools import partial

from repro.api import build_trace, make_scheduler
from repro.cluster.deployment import ROUTING_STRATEGIES, ClusterDeployment
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.workload.datasets import AZURE_CODE


def run(
    scale: Scale = BENCH,
    cluster_qps: float = 14.0,
    num_replicas: int = 4,
    deployment: str = "llama3-8b",
    strategies: tuple[str, ...] = ROUTING_STRATEGIES,
) -> ExperimentResult:
    """Compare routing strategies on a QoServe cluster near capacity."""
    execution_model = get_execution_model(deployment)
    trace = build_trace(
        AZURE_CODE,
        qps=cluster_qps,
        num_requests=scale.requests_for(cluster_qps),
        seed=scale.seed,
    )
    result = ExperimentResult(
        experiment="ext-routing",
        title=f"Routing strategies, {num_replicas} QoServe replicas "
              f"at {cluster_qps} QPS",
        notes=[f"scale={scale.label}; dataset=AzCode"],
    )
    for routing in strategies:
        cluster = ClusterDeployment(
            execution_model,
            partial(make_scheduler, "qoserve", execution_model),
            num_replicas=num_replicas,
            routing=routing,
        )
        cluster.submit_trace(trace.fresh_copy())
        cluster.run(max_events=100_000_000)
        summary = cluster.summarize()
        busy = [r.busy_time for r in cluster.replicas]
        imbalance = (
            (max(busy) - min(busy)) / max(busy) if max(busy) > 0 else 0.0
        )
        result.rows.append(
            {
                "routing": routing,
                "viol_overall_pct": summary.violations.overall_pct,
                "q1_p99_s": summary.tier_percentile("Q1", 0.99),
                "overall_p99_s": summary.overall_percentiles[0.99],
                "busy_imbalance_pct": 100.0 * imbalance,
            }
        )
    return result


if __name__ == "__main__":
    print(run().render())
