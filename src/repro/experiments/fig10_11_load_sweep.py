"""Figures 10 and 11: latency and deadline violations under load.

One load sweep powers both figures: per QoS bucket p50/p95 of the
governing latency (Figure 10) and the violation breakdown — overall,
short vs long, and per bucket (Figure 11) — for Sarathi-FCFS,
Sarathi-SRPF, Sarathi-EDF and QoServe on the Azure Code trace.
"""

from __future__ import annotations

from functools import lru_cache

from repro.api import ServeConfig, build_trace, simulate
from repro.experiments.cache import cached_cell
from repro.experiments.configs import BENCH, Scale
from repro.experiments.parallel import pmap
from repro.experiments.result import ExperimentResult
from repro.metrics.latency import governing_latency, latency_percentiles
from repro.obs.sketch import QuantileSketch, merge_sketches
from repro.workload.datasets import AZURE_CODE

SCHEMES = ("fcfs", "srpf", "edf", "qoserve")
DEFAULT_LOADS = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)


@lru_cache(maxsize=4)
def _base_trace(num_requests: int, seed: int):
    """Per-process base trace (deterministic, so identical in every
    worker); scaled_arrivals clones it fresh per cell."""
    return build_trace(
        AZURE_CODE, qps=1.0, num_requests=num_requests, seed=seed
    )


def _sweep_cell(task: tuple[str, str, float, int, int]) -> dict:
    """One (scheme, qps) cell of the sweep; a pmap worker function."""
    deployment, scheme, qps, num_requests, seed = task

    def compute() -> dict:
        trace = _base_trace(num_requests, seed).scaled_arrivals(qps)
        summary = simulate(
            config=ServeConfig(deployment=deployment, scheduler=scheme),
            trace=trace,
        )
        row = {
            "scheme": f"Sarathi-{scheme.upper()}"
            if scheme != "qoserve"
            else "QoServe",
            "qps": qps,
        }
        for tier in ("Q1", "Q2", "Q3"):
            tier_requests = [r for r in trace if r.qos.name == tier]
            pcts = latency_percentiles(tier_requests, (0.50, 0.95))
            row[f"{tier.lower()}_p50_s"] = pcts[0.50]
            row[f"{tier.lower()}_p95_s"] = pcts[0.95]
        violations = summary.violations
        row.update(
            {
                "viol_overall_pct": violations.overall_pct,
                "viol_short_pct": violations.short_pct,
                "viol_long_pct": violations.long_pct,
                "viol_q1_pct": violations.tier("Q1"),
                "viol_q2_pct": violations.tier("Q2"),
                "viol_q3_pct": violations.tier("Q3"),
                "tbt_miss_pct": violations.tbt_miss_pct,
            }
        )
        # Serialized per-tier governing-latency sketches ride along in
        # the cell payload (and through the disk cache): the parent
        # merges them instead of ever seeing raw samples, which is how
        # --jobs N workers stream percentiles back.
        sketches: dict[str, QuantileSketch] = {}
        for request in trace:
            value = governing_latency(request, None)
            if value == value and value != float("inf"):
                sketches.setdefault(
                    request.qos.name, QuantileSketch()
                ).add(value)
        row["_sketches"] = {
            tier: sketches[tier].to_dict() for tier in sorted(sketches)
        }
        return row

    return cached_cell(
        compute,
        figure="fig10_11",
        dataset=AZURE_CODE.name,
        deployment=deployment,
        scheme=scheme,
        qps=qps,
        num_requests=num_requests,
        seed=seed,
    )


def run(
    scale: Scale = BENCH,
    schemes: tuple[str, ...] = SCHEMES,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
    jobs: int | None = None,
) -> ExperimentResult:
    """Run the combined Figure 10/11 sweep.

    The scheme x QPS grid fans out over ``jobs`` worker processes
    (``None`` reads the process-wide ``--jobs`` setting); results are
    ordered by task, so the table is byte-identical at any job count.
    """
    num_requests = scale.requests_for(max(loads))
    result = ExperimentResult(
        experiment="figure-10-11",
        title="Latency and deadline violations vs load (AzCode)",
        notes=[f"scale={scale.label}; deployment={deployment}"],
    )
    tasks = [
        (deployment, scheme, qps, num_requests, scale.seed)
        for scheme in schemes
        for qps in loads
    ]
    rows = pmap(
        _sweep_cell, tasks, jobs=jobs, warm_deployments=(deployment,)
    )
    # Merge the per-cell sketches scheme by scheme, in task order, so
    # the merged sketch is byte-identical at any job count (pmap
    # returns results in task order and sketch merging is exact).
    merged: dict[str, QuantileSketch] = {}
    for task, row in zip(tasks, rows):
        scheme = task[1]
        for tier, payload in row.pop("_sketches", {}).items():
            key = f"{scheme}/{tier}"
            merged[key] = merge_sketches([merged.get(key), payload])
    result.rows.extend(rows)
    result.extras["latency_sketches"] = merged
    if merged:
        q1 = {
            key.split("/")[0]: sketch
            for key, sketch in merged.items()
            if key.endswith("/Q1")
        }
        result.notes.append(
            "Q1 governing-latency p99 across all loads (merged "
            "sketches): " + ", ".join(
                f"{scheme}={sketch.quantile(0.99):.3f}s"
                for scheme, sketch in sorted(q1.items())
            )
        )
    return result


def figure10_view(result: ExperimentResult) -> ExperimentResult:
    """Project the sweep onto Figure 10's latency panels."""
    view = ExperimentResult(
        experiment="figure-10",
        title="Per-tier p50/p95 latency vs load",
        notes=list(result.notes),
    )
    keep = (
        "scheme", "qps",
        "q1_p50_s", "q2_p50_s", "q3_p50_s",
        "q1_p95_s", "q2_p95_s", "q3_p95_s",
    )
    for row in result.rows:
        view.rows.append({k: row[k] for k in keep})
    return view


def figure11_view(result: ExperimentResult) -> ExperimentResult:
    """Project the sweep onto Figure 11's violation panels."""
    view = ExperimentResult(
        experiment="figure-11",
        title="Deadline violations: overall, by length, by tier",
        notes=list(result.notes),
    )
    keep = (
        "scheme", "qps",
        "viol_overall_pct", "viol_short_pct", "viol_long_pct",
        "viol_q1_pct", "viol_q2_pct", "viol_q3_pct",
    )
    for row in result.rows:
        view.rows.append({k: row[k] for k in keep})
    return view


if __name__ == "__main__":
    combined = run()
    print(figure10_view(combined).render())
    print()
    print(figure11_view(combined).render())
