"""Fleet chaos experiment: autoscaling policies under diurnal load + faults.

The QoServe silo-breaking claim extended to the *fleet* layer: one
heterogeneous pool (A100 + H100 slots) absorbs a diurnal load swing
while Poisson crash/recover chaos fires at it, and three procurement
policies compete on **goodput per GPU-hour** — SLO-attained requests
per unit of paid accelerator time:

* ``static-peak`` — classic siloed provisioning: buy enough replicas
  for the peak and keep them all run-long.  Best goodput, worst bill.
* ``busy-fraction`` — load-following autoscaling
  (:class:`~repro.cluster.fleet.BusyFractionAutoscaler`): scale on
  mean replica utilization.  Reacts only after the pool saturates, so
  the violations ship *before* the capacity arrives, and cold burn is
  invisible to it — it happily drains replicas while the error budget
  is on fire.
* ``burn-rate`` — SLO-driven autoscaling
  (:class:`~repro.cluster.fleet.BurnRateAutoscaler`): scale up when
  the error-budget burn rate runs hot, drain only when burn is cold
  *and* utilization is low, choose hardware by the violation mix.

All three see byte-identical arrivals and the *same* chaos plan
(armed against ``max_replicas`` — faults landing on slots a policy
never provisioned become ``fault_skipped`` events rather than crashes,
so lean fleets dodge some bullets: an emergent benefit of scaling
down).  As everywhere in :mod:`repro.experiments`, the drain-time KV
invariant is asserted for every run.
"""

from __future__ import annotations

from functools import partial

from repro.api import build_trace, make_scheduler
from repro.cluster.deployment import ClusterDeployment
from repro.cluster.fleet import (
    BurnRateAutoscaler,
    BusyFractionAutoscaler,
    DEFAULT_HARDWARE_CLASSES,
    FleetConfig,
)
from repro.core.request import Request
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResilienceConfig
from repro.obs.audit import audit_requests
from repro.simcore.rng import RngStreams
from repro.workload.arrivals import DiurnalArrivals
from repro.workload.datasets import AZURE_CODE

#: Shed free-tier arrivals once any replica of a small pool is down
#: (matches fig_faults' chaos stack).
CHAOS_RESILIENCE = ResilienceConfig(shed_free_below=0.8)


def _good(requests: list[Request]) -> int:
    return sum(
        1 for r in requests if r.is_finished and not r.violated_deadline
    )


def _span(requests: list[Request]) -> float:
    if not requests:
        return 1e-9
    return max(
        1e-9,
        max(r.arrival_time for r in requests)
        - min(r.arrival_time for r in requests),
    )


def _run_fleet(
    trace,
    execution_model,
    config: FleetConfig,
    autoscaler,
    plan: FaultPlan,
) -> ClusterDeployment:
    fleet = ClusterDeployment(
        execution_model,
        partial(make_scheduler, "qoserve", execution_model),
        fleet=config,
        routing="perf-aware",
        fault_plan=plan,
        resilience=CHAOS_RESILIENCE,
        autoscaler=autoscaler,
    )
    fleet.submit_trace(trace.fresh_copy())
    fleet.run_until_drained(max_events=100_000_000)
    stats = fleet.fault_stats()
    assert stats["kv_blocks_resident"] == 0, (
        f"KV blocks leaked after fleet chaos run: {stats}"
    )
    return fleet


def _row(name: str, fleet: ClusterDeployment) -> dict:
    summary = fleet.summarize()
    stats = fleet.fleet_stats()
    violations = summary.violations
    requests = fleet.all_requests()
    good = _good(requests)
    gpu_hours = stats["gpu_hours"]
    report = audit_requests(requests)
    causes = report.dominant_causes()
    top_cause = max(
        causes.items(), key=lambda kv: (kv[1], kv[0]), default=("-", 0)
    )[0]
    by_hw = stats["by_hardware"]
    return {
        "policy": name,
        "goodput_rps": good / _span(requests),
        "gpu_hours": gpu_hours,
        "cost": stats["cost"],
        "goodput_per_gpu_hour": good / max(gpu_hours, 1e-9),
        "final_fleet": "+".join(
            f"{n}x{c}" for c, n in sorted(by_hw.items()) if n
        ) or "-",
        "viol_overall_pct": violations.overall_pct,
        "viol_paid_pct": violations.important_pct,
        "crashes": stats["crashes"],
        "faults_skipped": stats["faults_skipped"],
        "shed": stats["shed"],
        "scaling_actions": stats["scaling_actions"],
        "max_burn": stats["max_burn_rate"],
        "top_cause": top_cause,
        "_attribution": report,
    }


def run(
    scale: Scale = BENCH,
    low_qps: float = 3.0,
    high_qps: float = 26.0,
    deployment: str = "llama3-8b",
    low_priority_fraction: float = 0.3,
    static_replicas: int = 5,
    elastic_initial: int = 2,
    max_replicas: int = 6,
    mtbf: float = 600.0,
    mttr: float = 30.0,
) -> ExperimentResult:
    """Diurnal swing + Poisson chaos across three fleet policies."""
    execution_model = get_execution_model(deployment)
    mean_qps = (low_qps + high_qps) / 2.0
    num_requests = scale.requests_for(mean_qps)
    # Four diurnal phases (low/high/low/high) across the expected
    # span; derived from scale parameters only, so the trace — and
    # therefore the whole experiment — is a pure function of the seed.
    expected_span = num_requests / mean_qps
    phase = expected_span / 4.0
    trace = build_trace(
        AZURE_CODE,
        qps=mean_qps,
        num_requests=num_requests,
        seed=scale.seed,
        low_priority_fraction=low_priority_fraction,
        arrivals=DiurnalArrivals(
            low_qps=low_qps, high_qps=high_qps, phase_duration=phase
        ),
    )
    streams = RngStreams(scale.seed)
    chaos = FaultPlan.poisson(
        num_replicas=max_replicas,
        duration=expected_span,
        mtbf=mtbf,
        mttr=mttr,
        rng=streams.stream("fleet.chaos"),
    )

    def fleet_config(initial: tuple[str, ...]) -> FleetConfig:
        return FleetConfig(
            classes=DEFAULT_HARDWARE_CLASSES,
            initial=initial,
            min_replicas=1,
            max_replicas=max_replicas,
            control_interval=phase / 8.0,
            provision_delay=phase / 4.0,
            max_step_up=2,
        )

    static = fleet_config(("a100",) * static_replicas)
    elastic = fleet_config(("a100",) * elastic_initial)

    result = ExperimentResult(
        experiment="fig-fleet-chaos",
        title=(
            f"Fleet autoscaling under chaos: diurnal {low_qps}-"
            f"{high_qps} QPS swing, Poisson MTBF={mtbf:.0f}s "
            f"MTTR={mttr:.0f}s, pool bound {max_replicas}"
        ),
        notes=[
            f"scale={scale.label}; dataset=AzCode; "
            f"free-tier fraction={low_priority_fraction}; "
            f"phase={phase:.0f}s; {len(chaos)} planned fault events",
            "goodput per GPU-hour = SLO-attained requests / paid "
            "accelerator hours; faults on unprovisioned slots are "
            "skipped, not crashes",
        ],
    )
    attribution: dict[str, object] = {}
    for name, config, autoscaler in (
        ("static-peak", static, None),
        ("busy-fraction", elastic, BusyFractionAutoscaler()),
        ("burn-rate", elastic, BurnRateAutoscaler()),
    ):
        fleet = _run_fleet(trace, execution_model, config, autoscaler, chaos)
        row = _row(name, fleet)
        attribution[name] = row.pop("_attribution")
        result.rows.append(row)
    result.extras["attribution"] = attribution

    by_policy = {row["policy"]: row for row in result.rows}
    burn = by_policy["burn-rate"]
    busy = by_policy["busy-fraction"]
    result.notes.append(
        "burn-rate vs busy-fraction efficiency: "
        f"{burn['goodput_per_gpu_hour']:.1f} vs "
        f"{busy['goodput_per_gpu_hour']:.1f} good requests/GPU-hour"
    )
    return result


if __name__ == "__main__":
    print(run().render())
