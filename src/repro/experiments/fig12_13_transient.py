"""Figures 12 and 13: transient overload with a diurnal load pattern.

Load alternates between 2.0 and 5.0 QPS (2.5x peak-to-trough) on a
square wave; 20% of requests in each bucket carry a low-priority
application hint.  Figure 12's table reports overall / important /
per-tier violation percentages per scheme; Figure 13 plots the rolling
p99 of high-priority requests per tier.
"""

from __future__ import annotations

from repro.api import ServeConfig, simulate
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.metrics.latency import rolling_percentile
from repro.workload.arrivals import DiurnalArrivals
from repro.workload.datasets import AZURE_CODE
from repro.workload.tiers import TierAssigner
from repro.workload.trace import TraceBuilder

SCHEMES = ("fcfs", "edf", "qoserve")
LOW_PRIORITY_FRACTION = 0.20


def build_diurnal_trace(
    scale: Scale,
    low_qps: float = 2.0,
    high_qps: float = 5.0,
    phase_duration: float | None = None,
):
    """Diurnal trace; the phase duration shrinks with the scale so a
    reduced-request run still sees several load cycles."""
    mean_qps = 0.5 * (low_qps + high_qps)
    num_requests = scale.requests_for(mean_qps)
    if phase_duration is None:
        expected_duration = num_requests / mean_qps
        phase_duration = max(60.0, expected_duration / 8.0)
    arrivals = DiurnalArrivals(
        low_qps=low_qps, high_qps=high_qps, phase_duration=phase_duration
    )
    assigner = TierAssigner(low_priority_fraction=LOW_PRIORITY_FRACTION)
    return TraceBuilder(
        AZURE_CODE,
        arrivals=arrivals,
        tier_assigner=assigner,
        seed=scale.seed,
    ).build(num_requests)


def run(
    scale: Scale = BENCH,
    schemes: tuple[str, ...] = SCHEMES,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Figure 12's violation table under diurnal load."""
    result = ExperimentResult(
        experiment="figure-12",
        title="Deadline violations under diurnal transient overload",
        notes=[
            f"scale={scale.label}; QPS square wave 2.0<->5.0; "
            f"{int(LOW_PRIORITY_FRACTION * 100)}% low-priority hints"
        ],
    )
    for scheme in schemes:
        trace = build_diurnal_trace(scale)
        summary = simulate(
            config=ServeConfig(deployment=deployment, scheduler=scheme),
            trace=trace,
        )
        violations = summary.violations
        result.rows.append(
            {
                "scheme": f"Sarathi-{scheme.upper()}"
                if scheme != "qoserve"
                else "QoServe",
                "viol_overall_pct": violations.overall_pct,
                "viol_important_pct": violations.important_pct,
                "viol_q1_pct": violations.tier("Q1"),
                "viol_q2_pct": violations.tier("Q2"),
                "viol_q3_pct": violations.tier("Q3"),
                "relegated_pct": violations.relegated_pct,
            }
        )
    return result


def run_rolling_latency(
    scale: Scale = BENCH,
    schemes: tuple[str, ...] = SCHEMES,
    deployment: str = "llama3-8b",
    quantile: float = 0.99,
) -> ExperimentResult:
    """Reproduce Figure 13: rolling p99 of important requests per tier."""
    result = ExperimentResult(
        experiment="figure-13",
        title="Rolling p99 latency of high-priority requests (diurnal load)",
        notes=[f"scale={scale.label}; window sized to the trace duration"],
    )
    for scheme in schemes:
        trace = build_diurnal_trace(scale)
        simulate(
            config=ServeConfig(deployment=deployment, scheduler=scheme),
            trace=trace,
        )
        window = max(30.0, trace.duration / 24.0)
        for tier in ("Q1", "Q2", "Q3"):
            important = [
                r for r in trace if r.qos.name == tier and r.important
            ]
            centers, series = rolling_percentile(
                important, quantile=quantile, window=window
            )
            for t, value in zip(centers, series):
                result.rows.append(
                    {
                        "scheme": f"Sarathi-{scheme.upper()}"
                        if scheme != "qoserve"
                        else "QoServe",
                        "tier": tier,
                        "window_center_s": float(t),
                        f"p{int(quantile * 100)}_latency_s": float(value),
                    }
                )
    return result


if __name__ == "__main__":
    print(run().render())
