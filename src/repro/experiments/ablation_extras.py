"""Design-choice ablations beyond the paper's Table 5.

DESIGN.md calls out four choices worth quantifying:

* **Predictor** — trained random forest vs the analytical oracle, and
  the effect of the conservative quantile / safety factor (the
  "err on the side of under-predicting chunk size" tuning).
* **Selective preemption** — on vs off.
* **Decode-length estimator** — per-app history (mean + 2 sigma) vs
  oracle vs pessimistic static, feeding Eq. 5 and TTLT projections.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, simulate
from repro.core.decode_estimator import (
    OracleDecodeEstimator,
    StaticDecodeEstimator,
)
from repro.core.predictor import ForestBatchPredictor
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.schedulers import QoServeConfig
from repro.workload.datasets import AZURE_CODE


def _run(deployment, trace, config=None, **scheduler_kwargs):
    return simulate(
        config=ServeConfig(
            deployment=deployment,
            qoserve_config=config,
            scheduler_kwargs=scheduler_kwargs,
        ),
        trace=trace.fresh_copy(),
    )


def run_predictor_ablation(
    scale: Scale = BENCH,
    qps: float = 3.5,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Oracle vs forest variants: SLO safety against throughput cost.

    An aggressive predictor (no conservative bias) chooses chunks that
    overshoot latency budgets, inflating TBT misses; the conservative
    settings trade a little makespan for pacing safety.
    """
    execution_model = get_execution_model(deployment)
    trace = build_trace(
        AZURE_CODE, qps=qps, num_requests=scale.requests_for(qps),
        seed=scale.seed,
    )
    variants: list[tuple[str, dict]] = [
        ("oracle", dict(config=QoServeConfig(use_forest_predictor=False))),
        ("forest (q=0.75, x1.10)", dict(config=QoServeConfig())),
        (
            "forest aggressive (q=0.5, x1.0)",
            dict(
                predictor=ForestBatchPredictor.train(
                    execution_model, quantile=0.5, seed=1
                ),
            ),
        ),
        (
            "forest paranoid (q=1.0, x1.25)",
            dict(
                predictor=_paranoid_predictor(execution_model),
            ),
        ),
    ]
    result = ExperimentResult(
        experiment="ablation-predictor",
        title="Batch-latency predictor variants",
        notes=[f"scale={scale.label}; qps={qps}; dataset=AzCode"],
    )
    for name, kwargs in variants:
        summary = _run(deployment, trace, **kwargs)
        result.rows.append(
            {
                "predictor": name,
                "viol_pct": summary.violations.overall_pct,
                "tbt_miss_pct": summary.violations.tbt_miss_pct,
                "median_latency_s": summary.overall_percentiles[0.50],
            }
        )
    return result


def _paranoid_predictor(execution_model) -> ForestBatchPredictor:
    predictor = ForestBatchPredictor.train(
        execution_model, quantile=1.0, seed=1
    )
    predictor.safety_factor = 1.25
    return predictor


def run_preemption_ablation(
    scale: Scale = BENCH,
    qps: float = 4.5,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Selective preemption on vs off under load."""
    trace = build_trace(
        AZURE_CODE, qps=qps, num_requests=scale.requests_for(qps),
        seed=scale.seed,
    )
    result = ExperimentResult(
        experiment="ablation-preemption",
        title="Selective preemption on/off",
        notes=[f"scale={scale.label}; qps={qps}"],
    )
    for name, enabled in (("off", False), ("on", True)):
        config = QoServeConfig(
            selective_preemption=enabled, use_forest_predictor=False
        )
        summary = _run(deployment, trace, config=config)
        result.rows.append(
            {
                "selective_preemption": name,
                "viol_pct": summary.violations.overall_pct,
                "q1_viol_pct": summary.violations.tier("Q1"),
                "q1_p99_s": summary.tier_percentile("Q1", 0.99),
            }
        )
    return result


def run_estimator_ablation(
    scale: Scale = BENCH,
    qps: float = 4.0,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Decode-length estimator variants for Eq. 5 / TTLT projection.

    The paper claims the simple per-app history (mean + 2 sigma) is
    sufficient (Section 4.4.1); the oracle bounds what better
    prediction could buy, and the pessimistic static estimator shows
    the cost of ignoring application structure.
    """
    trace = build_trace(
        AZURE_CODE, qps=qps, num_requests=scale.requests_for(qps),
        seed=scale.seed,
    )
    variants = [
        ("history mean+2sigma", None),  # scheduler default
        ("oracle", OracleDecodeEstimator()),
        ("static 2048 (pessimistic)", StaticDecodeEstimator(2048.0)),
    ]
    result = ExperimentResult(
        experiment="ablation-decode-estimator",
        title="Decode-length estimator variants",
        notes=[f"scale={scale.label}; qps={qps}"],
    )
    for name, estimator in variants:
        config = QoServeConfig(use_forest_predictor=False)
        summary = _run(
            deployment, trace, config=config, decode_estimator=estimator,
        )
        result.rows.append(
            {
                "estimator": name,
                "viol_pct": summary.violations.overall_pct,
                "q2_viol_pct": summary.violations.tier("Q2"),
                "median_latency_s": summary.overall_percentiles[0.50],
            }
        )
    return result


if __name__ == "__main__":
    print(run_predictor_ablation().render())
    print()
    print(run_preemption_ablation().render())
    print()
    print(run_estimator_ablation().render())
