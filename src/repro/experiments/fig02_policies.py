"""Figure 2: traditional multi-SLA policies vs QoServe.

Sweeps load and reports, for the strictest QoS class (Q1), the median
and p99 TTFT, plus the overall violation percentage and the violation
percentage among long requests — the four panels of Figure 2.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, simulate
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.metrics.latency import latency_percentiles
from repro.workload.datasets import AZURE_CODE

POLICIES = ("fcfs", "sjf", "srpf", "edf", "qoserve")
DEFAULT_LOADS = (2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


def run(
    scale: Scale = BENCH,
    policies: tuple[str, ...] = POLICIES,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Figure 2's policy comparison."""
    base = build_trace(
        AZURE_CODE, qps=1.0, num_requests=scale.requests_for(max(loads)),
        seed=scale.seed
    )
    result = ExperimentResult(
        experiment="figure-02",
        title="Traditional policies for multi-SLA scheduling (Q1 stats)",
        notes=[
            f"scale={scale.label} ({scale.num_requests} requests/run), "
            f"dataset=AzCode, deployment={deployment}"
        ],
    )
    for policy in policies:
        for qps in loads:
            trace = base.scaled_arrivals(qps)
            summary = simulate(
                config=ServeConfig(deployment=deployment, scheduler=policy),
                trace=trace,
            )
            q1 = [r for r in trace if r.qos.name == "Q1"]
            q1_pcts = latency_percentiles(q1, (0.50, 0.99))
            result.rows.append(
                {
                    "policy": policy.upper() if policy != "qoserve" else "QoServe",
                    "qps": qps,
                    "q1_p50_ttft_s": q1_pcts[0.50],
                    "q1_p99_ttft_s": q1_pcts[0.99],
                    "violations_pct": summary.violations.overall_pct,
                    "long_violations_pct": summary.violations.long_pct,
                }
            )
    return result


if __name__ == "__main__":
    print(run().render())
