"""Figure 5: the effect of eager relegation under overload.

Compares QoServe with and without relegation across a load sweep; the
paper shows that relegating a small percentage of requests keeps the
*median* request's latency flat where the no-relegation system's
latency grows by orders of magnitude from cascading violations.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, simulate
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.schedulers.qoserve import make_ablation_config
from repro.workload.datasets import AZURE_CODE

DEFAULT_LOADS = (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)


def run(
    scale: Scale = BENCH,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Figure 5's relegation on/off comparison."""
    base = build_trace(
        AZURE_CODE, qps=1.0, num_requests=scale.requests_for(max(loads)),
        seed=scale.seed
    )
    # Relegation is isolated on the deadline-ordered (EDF) base with
    # dynamic chunking, matching Table 5's layering: under pure EDF the
    # most-overdue request sorts *first*, so without relegation every
    # doomed request keeps consuming capacity ahead of savable ones —
    # the cascade of Figure 5.  (With hybrid prioritization already
    # on, the alpha term masks most of this effect.)
    configs = {
        "no-relegation": make_ablation_config(dynamic_chunking=True),
        "eager-relegation": make_ablation_config(
            dynamic_chunking=True, eager_relegation=True
        ),
    }
    result = ExperimentResult(
        experiment="figure-05",
        title="Eager relegation keeps median latency stable under overload",
        notes=[f"scale={scale.label}, dataset=AzCode, deployment={deployment}"],
    )
    attribution: dict[str, dict[str, int]] = {}
    for name, config in configs.items():
        causes: dict[str, int] = {}
        for qps in loads:
            trace = base.scaled_arrivals(qps)
            summary = simulate(
                config=ServeConfig(
                    deployment=deployment,
                    qoserve_config=config,
                    audit=True,
                ),
                trace=trace,
            )
            stats = summary.scheduler_stats
            report = summary.attribution
            # Relegation's causal fingerprint: what fraction of the
            # run's latency was deliberate parking vs congestion.
            share = report.phase_share()
            for cause, n in report.dominant_causes().items():
                causes[cause] = causes.get(cause, 0) + n
            result.rows.append(
                {
                    "config": name,
                    "qps": qps,
                    "median_latency_s": summary.overall_percentiles[0.50],
                    "violations_pct": summary.violations.overall_pct,
                    "relegated_pct": summary.violations.relegated_pct,
                    "relegated_n": stats["relegations_total"],
                    "preemptions": stats["preemptions"],
                    "releg_stall_share": share["relegation_stall"],
                    "queue_share": share["admission_queue"],
                }
            )
        attribution[name] = dict(sorted(causes.items()))
    result.extras["violation_attribution"] = attribution
    for name, causes in attribution.items():
        if causes:
            result.notes.append(
                f"{name} dominant violation causes: "
                + ", ".join(f"{c}={n}" for c, n in causes.items())
            )
    return result


if __name__ == "__main__":
    print(run().render())
