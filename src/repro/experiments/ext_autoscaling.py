"""Extension experiment: autoscaled vs static provisioning.

Section 2.3's motivation — "dedicated clusters often operate well
below their maximum capacity" — priced out: a diurnal cluster load is
served three ways, all with QoServe replicas:

* **static-peak** — enough replicas for the peak rate (the safe siloed
  practice); lowest violations, highest GPU-hours.
* **static-mean** — replicas for the mean rate; cheaper, but every
  burst rides on queueing.
* **autoscaled** — an elastic :class:`~repro.cluster.deployment.
  ClusterDeployment` driven by
  :class:`~repro.cluster.fleet.BusyFractionAutoscaler` (scale on mean
  replica busy fraction), paying a cold-start delay on every scale-up.

Reported per deployment: GPU-hours consumed, violation percentages,
and the p99 of Q1.  The interesting shape: autoscaling approaches
static-mean's cost at far better SLO attainment, but the cold-start
lag shows up in Q1's tail on the first minutes of each burst — which
is why QoServe's relegation matters even with elastic capacity.
"""

from __future__ import annotations

import math
from functools import partial

from repro.api import make_scheduler
from repro.cluster.deployment import ClusterDeployment
from repro.cluster.fleet import (
    BusyFractionAutoscaler,
    FleetConfig,
    HardwareClass,
)
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.workload.arrivals import DiurnalArrivals
from repro.workload.datasets import AZURE_CODE
from repro.workload.tiers import TierAssigner
from repro.workload.trace import TraceBuilder

LOW_QPS = 6.0
HIGH_QPS = 15.0
PER_REPLICA_GOODPUT = 4.0  # QoServe on AzCode, from Figure 7


def build_cluster_trace(scale: Scale, phase_duration: float = 400.0):
    mean_qps = 0.5 * (LOW_QPS + HIGH_QPS)
    num_requests = max(scale.requests_for(mean_qps),
                       int(mean_qps * 4 * phase_duration))
    return TraceBuilder(
        AZURE_CODE,
        arrivals=DiurnalArrivals(LOW_QPS, HIGH_QPS, phase_duration),
        tier_assigner=TierAssigner(low_priority_fraction=0.2),
        seed=scale.seed,
    ).build(num_requests)


def _static_run(execution_model, trace, replicas: int):
    deployment = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "qoserve", execution_model),
        num_replicas=replicas,
    )
    deployment.submit_trace(trace)
    deployment.run(max_events=50_000_000)
    summary = deployment.summarize()
    gpu_hours = (
        replicas * execution_model.tp_degree * deployment.simulator.now
        / 3600.0
    )
    return summary, gpu_hours


def _autoscaled_run(execution_model, trace, fleet: FleetConfig):
    deployment = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "qoserve", execution_model),
        fleet=fleet,
        autoscaler=BusyFractionAutoscaler(),
        routing="round-robin",
    )
    deployment.submit_trace(trace)
    deployment.run_until_drained(max_events=50_000_000)
    return deployment.summarize(), deployment.gpu_hours, deployment


def run(
    scale: Scale = BENCH,
    deployment_name: str = "llama3-8b",
) -> ExperimentResult:
    """Compare provisioning strategies under diurnal load."""
    execution_model = get_execution_model(deployment_name)
    trace = build_cluster_trace(scale)

    peak_replicas = math.ceil(HIGH_QPS / PER_REPLICA_GOODPUT)
    mean_replicas = math.ceil(
        0.5 * (LOW_QPS + HIGH_QPS) / PER_REPLICA_GOODPUT
    )
    # A single hardware class: the deployment's own GPU and TP width.
    hardware = HardwareClass(
        execution_model.hardware.name,
        execution_model.hardware,
        tp_degree=execution_model.tp_degree,
    )
    min_replicas = max(1, mean_replicas - 1)
    fleet = FleetConfig(
        classes=(hardware,),
        initial=(hardware.name,) * min_replicas,
        min_replicas=min_replicas,
        max_replicas=peak_replicas,
        control_interval=45.0,
        provision_delay=120.0,
        max_step_up=2,
    )

    result = ExperimentResult(
        experiment="ext-autoscaling",
        title="Provisioning strategies under diurnal cluster load",
        notes=[
            f"scale={scale.label}; QPS {LOW_QPS}<->{HIGH_QPS}; "
            f"QoServe replicas; cold start "
            f"{fleet.provision_delay:.0f}s",
        ],
    )

    summary, gpu_hours = _static_run(
        execution_model, trace.fresh_copy(), peak_replicas
    )
    result.rows.append(_row("static-peak", peak_replicas, gpu_hours,
                            summary))

    summary, gpu_hours = _static_run(
        execution_model, trace.fresh_copy(), mean_replicas
    )
    result.rows.append(_row("static-mean", mean_replicas, gpu_hours,
                            summary))

    summary, gpu_hours, scaled = _autoscaled_run(
        execution_model, trace.fresh_copy(), fleet
    )
    row = _row(
        "autoscaled",
        f"{fleet.min_replicas}-{fleet.max_replicas}",
        gpu_hours,
        summary,
    )
    row["scaling_events"] = len(scaled.scaling_events)
    result.rows.append(row)
    return result


def _row(name, replicas, gpu_hours, summary):
    return {
        "provisioning": name,
        "replicas": replicas,
        "gpu_hours": gpu_hours,
        "viol_overall_pct": summary.violations.overall_pct,
        "viol_important_pct": summary.violations.important_pct,
        "q1_p99_s": summary.tier_percentile("Q1", 0.99),
        "relegated_pct": summary.violations.relegated_pct,
    }


if __name__ == "__main__":
    print(run().render())
