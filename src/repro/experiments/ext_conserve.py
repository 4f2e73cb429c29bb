"""Extension experiment: QoServe vs ConServe-style binary collocation.

Section 5 argues that ConServe's "binary interactive-offline
classification is inadequate for multi-QoS scenarios where all
requests have definite SLO requirements."  This experiment makes that
claim measurable: both schedulers co-schedule the Table 3 three-tier
workload on one replica across a load sweep.  ConServe protects Q1
unconditionally and harvests idle capacity for the offline mass — but
it cannot tell Q2 (600 s) from Q3 (1800 s), so as load grows the Q2
deadline is the first casualty, while QoServe spends Q3's slack first.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, simulate
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.workload.datasets import AZURE_CODE

SCHEMES = ("conserve", "qoserve")
DEFAULT_LOADS = (2.0, 3.0, 4.0, 5.0)


def run(
    scale: Scale = BENCH,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """QoServe vs ConServe under the three-tier workload."""
    base = build_trace(
        AZURE_CODE, qps=1.0,
        num_requests=scale.requests_for(max(loads)), seed=scale.seed,
    )
    result = ExperimentResult(
        experiment="ext-conserve",
        title="Binary collocation (ConServe-style) vs fine-grained QoS",
        notes=[
            f"scale={scale.label}; dataset=AzCode; Table 3 tiers",
            "ConServe: interactive strictly first, offline harvested, "
            "no offline deadline awareness",
        ],
    )
    for scheme in SCHEMES:
        for qps in loads:
            summary = simulate(
                config=ServeConfig(deployment=deployment, scheduler=scheme),
                trace=base.scaled_arrivals(qps),
            )
            violations = summary.violations
            result.rows.append(
                {
                    "scheme": "ConServe" if scheme == "conserve"
                    else "QoServe",
                    "qps": qps,
                    "viol_overall_pct": violations.overall_pct,
                    "viol_q1_pct": violations.tier("Q1"),
                    "viol_q2_pct": violations.tier("Q2"),
                    "viol_q3_pct": violations.tier("Q3"),
                    "q2_p99_s": summary.tier_percentile("Q2", 0.99),
                    "q3_p99_s": summary.tier_percentile("Q3", 0.99),
                }
            )
    return result


if __name__ == "__main__":
    print(run().render())
