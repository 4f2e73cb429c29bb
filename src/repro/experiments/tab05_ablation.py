"""Table 5: the contribution of each QoServe technique.

Starting from the Sarathi-EDF baseline (all techniques off, which is
exactly QoServe with dynamic chunking, relegation and the alpha term
disabled), techniques are layered in the paper's order: dynamic
chunking (DC), eager relegation (ER), hybrid prioritization (HP).  Two
measurements per configuration: goodput at optimal load, and the
violation percentage at a fixed high load.
"""

from __future__ import annotations

from repro.api import ServeConfig, build_trace, goodput_search, simulate
from repro.experiments.cache import cached_cell
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.parallel import pmap
from repro.experiments.result import ExperimentResult
from repro.schedulers.qoserve import make_ablation_config
from repro.workload.datasets import AZURE_CODE

CONFIGS = (
    ("Sarathi-EDF", dict()),
    ("QoServe (DC)", dict(dynamic_chunking=True)),
    ("QoServe (DC+ER)", dict(dynamic_chunking=True, eager_relegation=True)),
    (
        "QoServe (DC+ER+HP)",
        dict(
            dynamic_chunking=True,
            eager_relegation=True,
            hybrid_prioritization=True,
        ),
    ),
)


def _ablation_cell(
    task: tuple[str, tuple[tuple[str, bool], ...], int, int, int, float, str]
) -> dict:
    """Goodput + high-load violations for one ablation config.

    The ``goodput_gain_pct`` column chains off the previous row, so it
    is filled in serially by ``run`` after the fan-out.
    """
    (label, flag_items, num_requests, highload_requests, seed,
     high_load_qps, deployment) = task

    def compute() -> dict:
        execution_model = get_execution_model(deployment)
        config = make_ablation_config(**dict(flag_items))
        capacity = goodput_search(
            "qoserve",
            execution_model,
            AZURE_CODE,
            num_requests=num_requests,
            seed=seed,
            qoserve_config=config,
        )
        base = build_trace(
            AZURE_CODE, qps=1.0, num_requests=highload_requests, seed=seed
        )
        summary = simulate(
            config=ServeConfig(deployment=deployment, qoserve_config=config),
            trace=base.scaled_arrivals(high_load_qps),
        )
        return {
            "config": label,
            "goodput_qps": capacity.max_qps,
            "high_load_viol_pct": summary.violations.overall_pct,
        }

    return cached_cell(
        compute,
        figure="tab05",
        deployment=deployment,
        flags=dict(flag_items),
        num_requests=num_requests,
        highload_requests=highload_requests,
        seed=seed,
        high_load_qps=high_load_qps,
    )


def run(
    scale: Scale = BENCH,
    high_load_qps: float = 6.0,
    deployment: str = "llama3-8b",
    jobs: int | None = None,
) -> ExperimentResult:
    """Reproduce Table 5's ablation.

    The four configurations are measured independently (fanned out over
    ``jobs`` workers); the gain-over-previous-row column is a pure
    function of the measured goodputs and is chained serially after.
    """
    result = ExperimentResult(
        experiment="table-05",
        title="Impact of QoServe's optimizations",
        notes=[
            f"scale={scale.label}; high load = {high_load_qps} QPS; "
            "dataset=AzCode"
        ],
    )
    highload_requests = scale.requests_for(high_load_qps)
    tasks = [
        (label, tuple(sorted(flags.items())), scale.num_requests,
         highload_requests, scale.seed, high_load_qps, deployment)
        for label, flags in CONFIGS
    ]
    rows = pmap(
        _ablation_cell, tasks, jobs=jobs, warm_deployments=(deployment,)
    )
    previous_goodput: float | None = None
    for row in rows:
        gain_pct = (
            100.0 * (row["goodput_qps"] - previous_goodput) / previous_goodput
            if previous_goodput
            else float("nan")
        )
        result.rows.append(
            {
                "config": row["config"],
                "goodput_qps": row["goodput_qps"],
                "goodput_gain_pct": gain_pct,
                "high_load_viol_pct": row["high_load_viol_pct"],
            }
        )
        previous_goodput = row["goodput_qps"]
    return result


if __name__ == "__main__":
    print(run().render())
