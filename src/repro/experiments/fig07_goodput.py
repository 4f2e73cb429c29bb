"""Figure 7: max per-replica goodput in a shared cluster.

For each (model, hardware, dataset) cell, finds the largest QPS each
scheduler sustains with <= 1% deadline violations.  The paper reports
QoServe at 1.5-2.4x Sarathi-FCFS and 1.2-1.4x Sarathi-EDF.
"""

from __future__ import annotations

from repro.api import goodput_search
from repro.experiments.cache import cached_cell
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.parallel import pmap
from repro.experiments.result import ExperimentResult
from repro.workload.datasets import DATASETS

SCHEMES = ("fcfs", "edf", "qoserve")
DEFAULT_DEPLOYMENTS = ("llama3-8b", "qwen-7b", "llama3-70b")
DEFAULT_DATASETS = ("AzCode", "AzConv", "ShareGPT")


def _goodput_cell(task: tuple[str, str, str, int, int]) -> dict:
    """One (deployment, dataset, scheme) goodput bisection."""
    deployment, dataset_name, scheme, num_requests, seed = task

    def compute() -> dict:
        capacity = goodput_search(
            scheme,
            get_execution_model(deployment),
            DATASETS[dataset_name],
            num_requests=num_requests,
            seed=seed,
        )
        return {
            "deployment": deployment,
            "dataset": dataset_name,
            "scheme": f"Sarathi-{scheme.upper()}"
            if scheme in ("fcfs", "edf")
            else "QoServe",
            "goodput_qps": capacity.max_qps,
        }

    return cached_cell(
        compute,
        figure="fig07",
        deployment=deployment,
        dataset=dataset_name,
        scheme=scheme,
        num_requests=num_requests,
        seed=seed,
    )


def run(
    scale: Scale = BENCH,
    deployments: tuple[str, ...] = DEFAULT_DEPLOYMENTS,
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    schemes: tuple[str, ...] = SCHEMES,
    jobs: int | None = None,
) -> ExperimentResult:
    """Reproduce Figure 7's goodput grid (PD colocation).

    Each grid cell is an independent bisection search, fanned out over
    ``jobs`` worker processes (``None`` reads the ``--jobs`` setting).
    """
    result = ExperimentResult(
        experiment="figure-07",
        title="Max goodput per replica, shared cluster, PD colocation",
        notes=[
            f"scale={scale.label}; goodput = max QPS with <=1% violations"
        ],
    )
    tasks = [
        (deployment, dataset_name, scheme, scale.num_requests, scale.seed)
        for deployment in deployments
        for dataset_name in datasets
        for scheme in schemes
    ]
    result.rows.extend(
        pmap(_goodput_cell, tasks, jobs=jobs, warm_deployments=deployments)
    )
    return result


if __name__ == "__main__":
    print(run().render())
