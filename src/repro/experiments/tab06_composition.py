"""Table 6 and Section 4.4.2: robustness to workload mix and SLOs.

Part 1 (Table 6): skewed tier mixes — 70-15-15 (interactive dominant)
and 15-15-70 (batch dominant) — at an overload operating point; the
baselines collapse while QoServe keeps per-tier medians within SLO via
relegation of a small request share.

Part 2 (SLO variation): tiers re-specified as (3 s, 50 ms),
(6 s, 50 ms) and 1000 s TTLT on the Azure Conv trace; goodput of
QoServe vs Sarathi-EDF (paper: 5.0 vs 3.7 QPS).
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, goodput_search, simulate
from repro.core.qos import QoSClass, QoSSpec
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.workload.datasets import AZURE_CODE, AZURE_CONV
from repro.workload.tiers import TierMix

SCHEMES = ("fcfs", "edf", "qoserve")
MIXES = {
    "70-15-15": TierMix.interactive_heavy(),
    "15-15-70": TierMix.batch_heavy(),
}


def run(
    scale: Scale = BENCH,
    qps: float = 4.5,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Table 6's skewed-composition comparison."""
    result = ExperimentResult(
        experiment="table-06",
        title=f"Skewed workload compositions at {qps} QPS (AzCode)",
        notes=[f"scale={scale.label}"],
    )
    for mix_name, mix in MIXES.items():
        base = build_trace(
            AZURE_CODE,
            qps=qps,
            num_requests=scale.requests_for(qps),
            seed=scale.seed,
            mix=mix,
        )
        for scheme in SCHEMES:
            summary = simulate(
                config=ServeConfig(deployment=deployment, scheduler=scheme),
                trace=base.fresh_copy(),
            )
            result.rows.append(
                {
                    "composition": mix_name,
                    "scheme": f"Sarathi-{scheme.upper()}"
                    if scheme != "qoserve"
                    else "QoServe",
                    "q1_p50_s": summary.tier_percentile("Q1", 0.50),
                    "q2_p50_s": summary.tier_percentile("Q2", 0.50),
                    "q3_p50_s": summary.tier_percentile("Q3", 0.50),
                    "viol_pct": summary.violations.overall_pct,
                    "relegated_pct": summary.violations.relegated_pct,
                }
            )
    return result


def run_slo_variation(
    scale: Scale = BENCH,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Section 4.4.2's modified-SLO goodput comparison (AzConv)."""
    execution_model = get_execution_model(deployment)
    tiers = (
        QoSSpec("Q1", QoSClass.INTERACTIVE, ttft_slo=3.0, tbt_slo=0.050),
        QoSSpec("Q2", QoSClass.INTERACTIVE, ttft_slo=6.0, tbt_slo=0.050),
        QoSSpec("Q3", QoSClass.NON_INTERACTIVE, ttlt_slo=1000.0),
    )
    mix = TierMix(
        tiers=tiers,
        weights=(1.0, 1.0, 1.0),
        app_names=("chat-fast", "chat", "batch"),
    )
    result = ExperimentResult(
        experiment="slo-variation",
        title="Goodput with modified SLOs: (3s,50ms), (6s,50ms), 1000s",
        notes=[f"scale={scale.label}; dataset=AzConv; paper: 5.0 vs 3.7 QPS"],
    )
    for scheme in ("edf", "qoserve"):
        capacity = goodput_search(
            scheme,
            execution_model,
            AZURE_CONV,
            num_requests=scale.num_requests,
            seed=scale.seed,
            mix=mix,
        )
        result.rows.append(
            {
                "scheme": "Sarathi-EDF" if scheme == "edf" else "QoServe",
                "goodput_qps": capacity.max_qps,
            }
        )
    return result


if __name__ == "__main__":
    print(run().render())
    print()
    print(run_slo_variation().render())
