"""Chaos experiment: goodput and per-tier SLO attainment under faults.

Two views of the fault layer (``repro.faults``):

* :func:`run` — the **anatomy of a crash**: kill 1 of 4 replicas for a
  fixed outage window mid-run and compare (a) the no-fault baseline,
  (b) the full resilience stack (health-aware routing + retries +
  tier-aware shedding), and (c) the same crash with shedding disabled.
  The paid tier should degrade *less* than the free tier under (b):
  admission sheds free arrivals while capacity is degraded and the
  QoServe scheduler relegates free-tier work first.
* :func:`run_mtbf_sweep` — goodput vs fault rate: Poisson
  crash/recover chaos at several MTBF points (fixed MTTR), drawn from
  a named :mod:`repro.simcore.rng` stream so every point is
  reproducible.

Both drivers assert the engine-level KV invariant at drain: after all
crashes, recoveries, retries and cancellations, no replica may hold a
single KV block.
"""

from __future__ import annotations

from functools import partial

from repro.api import build_trace, make_scheduler
from repro.cluster.deployment import ClusterDeployment
from repro.core.request import Request
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.faults.plan import FaultPlan, ReplicaCrash, get_default_fault_plan
from repro.faults.policy import ResilienceConfig, RetryPolicy
from repro.obs.audit import audit_requests
from repro.simcore.rng import RngStreams
from repro.workload.datasets import AZURE_CODE

#: Shed free-tier arrivals as soon as any replica of a 4-pool is down
#: (alive 3/4 = 0.75 < 0.8); level-2 shedding still needs a majority
#: outage.
CHAOS_RESILIENCE = ResilienceConfig(shed_free_below=0.8)

#: Same stack with admission control disabled — every arrival is
#: admitted no matter how degraded the pool is.
NO_SHED_RESILIENCE = ResilienceConfig(
    shed_free_below=0.0, shed_batch_below=0.0
)


def _goodput(requests: list[Request], qps: float) -> float:
    """Requests finished within SLO per second of arrival span."""
    good = sum(
        1 for r in requests if r.is_finished and not r.violated_deadline
    )
    if not requests:
        return 0.0
    span = max(
        1e-9,
        max(r.arrival_time for r in requests)
        - min(r.arrival_time for r in requests),
    )
    return good / span


def _run_cluster(
    trace,
    execution_model,
    num_replicas: int,
    plan: FaultPlan,
    resilience: ResilienceConfig,
) -> ClusterDeployment:
    cluster = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "qoserve", execution_model),
        num_replicas=num_replicas,
        fault_plan=plan,
        resilience=resilience,
    )
    cluster.submit_trace(trace.fresh_copy())
    cluster.run(max_events=100_000_000)
    stats = cluster.fault_stats()
    assert stats["kv_blocks_resident"] == 0, (
        f"KV blocks leaked after chaos run: {stats}"
    )
    return cluster


def _row(name: str, cluster: ClusterDeployment, qps: float) -> dict:
    summary = cluster.summarize()
    stats = cluster.fault_stats()
    violations = summary.violations
    # Coarse latency attribution straight from the completed requests
    # (cluster runs have no single-replica trace): which phase
    # dominated the violated requests' latency.
    report = audit_requests(cluster.all_requests())
    causes = report.dominant_causes()
    top_cause = max(
        causes.items(), key=lambda kv: (kv[1], kv[0]), default=("-", 0)
    )[0]
    return {
        "config": name,
        "goodput_rps": _goodput(cluster.all_requests(), qps),
        "viol_overall_pct": violations.overall_pct,
        "viol_paid_pct": violations.important_pct,
        "viol_free_pct": violations.low_priority_pct,
        "crashes": stats["crashes"],
        "retries": stats["retries_scheduled"],
        "shed": stats["shed"],
        "cancelled": stats["cancelled"],
        "top_cause": top_cause,
        "_attribution": report,
    }


def run(
    scale: Scale = BENCH,
    cluster_qps: float = 10.0,
    num_replicas: int = 4,
    deployment: str = "llama3-8b",
    low_priority_fraction: float = 0.3,
) -> ExperimentResult:
    """Anatomy of one crash: 1 of 4 replicas down for a fixed window."""
    execution_model = get_execution_model(deployment)
    trace = build_trace(
        AZURE_CODE,
        qps=cluster_qps,
        num_requests=scale.requests_for(cluster_qps),
        seed=scale.seed,
        low_priority_fraction=low_priority_fraction,
    )
    span = max(r.arrival_time for r in trace) - min(
        r.arrival_time for r in trace
    )
    # Replica 1 dies a quarter into the arrival stream and stays down
    # for a quarter of it — long enough that Q1 arrivals during the
    # outage must be absorbed by the survivors.  A plan installed via
    # ``repro run --fault-plan`` replaces the built-in crash.
    crash_plan = get_default_fault_plan()
    if crash_plan is None:
        crash_plan = FaultPlan(
            events=(
                ReplicaCrash(
                    time=0.25 * span, replica_id=1,
                    recover_after=0.25 * span,
                ),
            )
        )

    result = ExperimentResult(
        experiment="fig-faults",
        title=f"Crash anatomy: {num_replicas} QoServe replicas at "
              f"{cluster_qps} QPS, 1 replica down for 25% of the run",
        notes=[
            f"scale={scale.label}; dataset=AzCode; "
            f"free-tier fraction={low_priority_fraction}",
            "goodput = requests finished within SLO per second of "
            "arrival span; shed/cancelled requests count as violated",
        ],
    )
    attribution: dict[str, object] = {}
    for name, plan, resilience in (
        ("no-fault", FaultPlan(), CHAOS_RESILIENCE),
        ("crash+resilience", crash_plan, CHAOS_RESILIENCE),
        ("crash, no shedding", crash_plan, NO_SHED_RESILIENCE),
    ):
        cluster = _run_cluster(
            trace, execution_model, num_replicas, plan, resilience
        )
        row = _row(name, cluster, cluster_qps)
        attribution[name] = row.pop("_attribution")
        result.rows.append(row)
    result.extras["attribution"] = attribution
    causes = attribution["crash, no shedding"].dominant_causes()
    if causes:
        result.notes.append(
            "crash-without-shedding dominant violation causes: "
            + ", ".join(f"{c}={n}" for c, n in sorted(causes.items()))
        )
    return result


def run_mtbf_sweep(
    scale: Scale = BENCH,
    cluster_qps: float = 10.0,
    num_replicas: int = 4,
    deployment: str = "llama3-8b",
    mttr: float = 30.0,
    mtbf_points: tuple[float, ...] = (float("inf"), 600.0, 240.0, 120.0),
    low_priority_fraction: float = 0.3,
) -> ExperimentResult:
    """Goodput vs crash rate under Poisson chaos (fixed MTTR)."""
    execution_model = get_execution_model(deployment)
    trace = build_trace(
        AZURE_CODE,
        qps=cluster_qps,
        num_requests=scale.requests_for(cluster_qps),
        seed=scale.seed,
        low_priority_fraction=low_priority_fraction,
    )
    span = max(r.arrival_time for r in trace) - min(
        r.arrival_time for r in trace
    )
    streams = RngStreams(scale.seed)

    result = ExperimentResult(
        experiment="fig-faults-mtbf",
        title=f"Goodput vs MTBF: {num_replicas} QoServe replicas at "
              f"{cluster_qps} QPS, MTTR={mttr:.0f}s",
        notes=[
            f"scale={scale.label}; dataset=AzCode; "
            f"free-tier fraction={low_priority_fraction}; "
            "replica 0 is the never-faulting spare",
        ],
    )
    for index, mtbf in enumerate(mtbf_points):
        if mtbf == float("inf"):
            plan = FaultPlan()
        else:
            plan = FaultPlan.poisson(
                num_replicas=num_replicas,
                duration=span,
                mtbf=mtbf,
                mttr=mttr,
                rng=streams.stream(f"faults.mtbf.{index}"),
            )
        cluster = _run_cluster(
            trace, execution_model, num_replicas, plan, CHAOS_RESILIENCE
        )
        row = _row(
            "no-faults" if mtbf == float("inf") else f"mtbf={mtbf:.0f}s",
            cluster,
            cluster_qps,
        )
        result.extras.setdefault("attribution", {})[row["config"]] = (
            row.pop("_attribution")
        )
        row["planned_faults"] = len(plan)
        result.rows.append(row)
    return result


if __name__ == "__main__":
    print(run().render())
    print(run_mtbf_sweep().render())
