"""Figure 14: sensitivity to the hybrid prioritization parameter alpha.

Fixed alpha values (the paper plots 0, 2 and 4 ms/token) across a load
sweep: larger alpha lowers median latency under overload by shedding
long work, at the cost of violating long requests' deadlines — the
trade-off motivating load-adaptive tuning.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, simulate
from repro.core.priority import MS_PER_TOKEN
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.schedulers import QoServeConfig
from repro.workload.datasets import AZURE_CODE

DEFAULT_ALPHAS_MS = (0.0, 2.0, 4.0)
DEFAULT_LOADS = (2.0, 3.0, 4.0, 5.0, 6.0)


def run(
    scale: Scale = BENCH,
    alphas_ms: tuple[float, ...] = DEFAULT_ALPHAS_MS,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Figure 14's alpha sweep."""
    base = build_trace(
        AZURE_CODE, qps=1.0, num_requests=scale.requests_for(max(loads)),
        seed=scale.seed
    )
    result = ExperimentResult(
        experiment="figure-14",
        title="Median latency vs long-request fairness across alpha",
        notes=[f"scale={scale.label}; alpha in ms/token; dataset=AzCode"],
    )
    for alpha_ms in alphas_ms:
        config = QoServeConfig(
            alpha=alpha_ms * MS_PER_TOKEN,
            # Isolate the prioritization knob, as the paper's ablation
            # figure does: relegation would mask the latency blow-up.
            eager_relegation=False,
        )
        for qps in loads:
            trace = base.scaled_arrivals(qps)
            summary = simulate(
                config=ServeConfig(
                    deployment=deployment, qoserve_config=config
                ),
                trace=trace,
            )
            result.rows.append(
                {
                    "alpha_ms_per_token": alpha_ms,
                    "qps": qps,
                    "median_latency_s": summary.overall_percentiles[0.50],
                    "p99_latency_s": summary.overall_percentiles[0.99],
                    "violations_pct": summary.violations.overall_pct,
                    "long_violations_pct": summary.violations.long_pct,
                }
            )
    return result


if __name__ == "__main__":
    print(run().render())
