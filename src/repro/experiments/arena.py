"""The policy arena: every scheduler raced, every loss explained.

ROADMAP item 4's standing harness: run every registered scheduler
kind over the same workload sweep, rank them on aggregate goodput,
then *explain* each loss with :mod:`repro.obs.diff` — the winner's
recorded trace is diffed against every loser at every load, and the
cause-delta accounting (which sums exactly to the goodput gap)
produces sentences like "medha loses 4.9pp goodput to qoserve, 100%
attributed to admission_queue on Q1".  New schedulers added to
:data:`repro.api.SCHEDULER_KINDS` join the arena automatically, so
the sliding-window and preemption-granularity competitors land with a
judge already seated.

The sweep fans out over ``--jobs`` worker processes; each cell ships
its recorded event stream back to the parent, which performs every
diff in fixed task order — the report is byte-identical at any job
count (pinned by ``tests/test_experiments_arena.py``).
"""

from __future__ import annotations

from functools import lru_cache

from repro.api import ServeConfig, build_trace, simulate
from repro.experiments.cache import cached_cell
from repro.experiments.configs import SMOKE, Scale
from repro.experiments.parallel import pmap
from repro.experiments.result import ExperimentResult
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.obs.diff import diff_runs
from repro.obs.sketch import QuantileSketch, merge_sketches
from repro.workload.datasets import AZURE_CODE

#: Every contender: the full registered scheduler registry.
from repro.api import SCHEDULER_KINDS as ALL_SCHEMES

DEFAULT_LOADS = (2.0, 3.0, 4.5, 6.0)


@lru_cache(maxsize=4)
def _base_trace(num_requests: int, seed: int):
    """Per-process base trace; scaled_arrivals clones it per cell."""
    return build_trace(
        AZURE_CODE, qps=1.0, num_requests=num_requests, seed=seed
    )


def _arena_cell(task: tuple[str, str, float, int, int]) -> dict:
    """One (scheme, qps) bout; a pmap worker function.

    The row carries the full recorded event stream (``_events``) back
    to the parent — the winner is unknown until every bout finishes,
    so diffing has to happen centrally.
    """
    deployment, scheme, qps, num_requests, seed = task

    def compute() -> dict:
        trace = _base_trace(num_requests, seed).scaled_arrivals(qps)
        sink = ListSink()
        summary = simulate(
            config=ServeConfig(deployment=deployment, scheduler=scheme),
            trace=trace,
            observer=TracingObserver(recorder=TraceRecorder([sink])),
        )
        completed = summary.finished
        violated = sum(
            1 for r in trace if r.completion_time is not None
            and r.violated_deadline
        )
        return {
            "scheme": scheme,
            "qps": qps,
            "completed": completed,
            "violated": violated,
            "good": completed - violated,
            "_events": sink.events,
        }

    return cached_cell(
        compute,
        figure="arena",
        dataset=AZURE_CODE.name,
        deployment=deployment,
        scheme=scheme,
        qps=qps,
        num_requests=num_requests,
        seed=seed,
    )


def run(
    scale: Scale = SMOKE,
    schemes: tuple[str, ...] = ALL_SCHEMES,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    deployment: str = "llama3-8b",
    jobs: int | None = None,
) -> ExperimentResult:
    """Race ``schemes`` over ``loads``; rank and explain every loss.

    Rows are ranked by aggregate goodput percentage (ties break on
    scheme name); each non-winner row names the attribution bucket
    carrying most of its gap to the winner, and the notes spell the
    explanations out.  ``extras['cause_deltas']`` keeps the full
    per-loser cause accounting and ``extras['phase_delta_sketches']``
    the merged per-tier phase-delta distributions, both mergeable and
    byte-identical at any job count.
    """
    num_requests = scale.requests_for(max(loads))
    tasks = [
        (deployment, scheme, qps, num_requests, scale.seed)
        for scheme in schemes
        for qps in loads
    ]
    rows = pmap(
        _arena_cell, tasks, jobs=jobs, warm_deployments=(deployment,)
    )

    # Reassemble per scheme in task order: events per load + aggregate
    # goodput over the whole sweep.
    events: dict[str, dict[float, list]] = {}
    totals: dict[str, dict[str, int]] = {}
    for task, row in zip(tasks, rows):
        scheme, qps = task[1], task[2]
        events.setdefault(scheme, {})[qps] = row.pop("_events")
        agg = totals.setdefault(
            scheme, {"completed": 0, "violated": 0, "good": 0}
        )
        for key in agg:
            agg[key] += row[key]

    def goodput_pct(scheme: str) -> float:
        agg = totals[scheme]
        if not agg["completed"]:
            return 0.0
        return 100.0 * agg["good"] / agg["completed"]

    ranking = sorted(schemes, key=lambda s: (-goodput_pct(s), s))
    winner = ranking[0]

    # Diff the winner against every loser at every load, in fixed
    # order; merge cause deltas and phase-delta sketches across loads.
    cause_deltas: dict[str, dict[str, int]] = {}
    tier_cause_deltas: dict[str, dict[str, dict[str, int]]] = {}
    sketches: dict[str, dict[str, QuantileSketch]] = {}
    divergence_at: dict[str, int | None] = {}
    for scheme in ranking[1:]:
        causes: dict[str, int] = {}
        tier_causes: dict[str, dict[str, int]] = {}
        first_div: int | None = None
        for qps in loads:
            diff = diff_runs(
                events[winner][qps], events[scheme][qps],
                base_label=winner, other_label=scheme,
            )
            for cause, delta in diff.cause_goodput_delta.items():
                causes[cause] = causes.get(cause, 0) + delta
            for tier, per_tier in diff.tier_cause_goodput_delta.items():
                bucket = tier_causes.setdefault(tier, {})
                for cause, delta in per_tier.items():
                    bucket[cause] = bucket.get(cause, 0) + delta
            for tier, named in diff.phase_delta_sketches.items():
                merged = sketches.setdefault(f"{scheme}/{tier}", {})
                for name, sketch in named.items():
                    merged[name] = merge_sketches(
                        [merged.get(name), sketch.to_dict()]
                    )
            if diff.first_divergence is not None and first_div is None:
                first_div = diff.first_divergence.index
        cause_deltas[scheme] = causes
        tier_cause_deltas[scheme] = tier_causes
        divergence_at[scheme] = first_div

    result = ExperimentResult(
        experiment="arena",
        title="Policy arena: schedulers ranked, losses attributed "
              f"({AZURE_CODE.name})",
        notes=[
            f"scale={scale.label}; deployment={deployment}; "
            f"loads={list(loads)} qps; "
            f"winner by aggregate goodput: {winner}",
        ],
    )
    for rank, scheme in enumerate(ranking, start=1):
        agg = totals[scheme]
        row = {
            "rank": rank,
            "scheme": scheme,
            "goodput_pct": goodput_pct(scheme),
            "good": agg["good"],
            "completed": agg["completed"],
            "violated": agg["violated"],
            "gap_pp": goodput_pct(winner) - goodput_pct(scheme),
            "top_loss_cause": "-",
            "loss_share_pct": 0.0,
        }
        if scheme != winner:
            explanation = _explain_loss(
                scheme, winner, row["gap_pp"],
                cause_deltas[scheme], tier_cause_deltas[scheme],
            )
            if explanation is not None:
                cause, share, tier, sentence = explanation
                row["top_loss_cause"] = cause
                row["loss_share_pct"] = 100.0 * share
                result.notes.append(sentence)
            else:
                result.notes.append(
                    f"{scheme} ties {winner} on goodput "
                    "(no attribution deltas)"
                )
        result.rows.append(row)

    result.extras["cause_deltas"] = {
        scheme: {
            cause: cause_deltas[scheme][cause]
            for cause in sorted(cause_deltas[scheme])
        }
        for scheme in ranking[1:]
    }
    result.extras["first_divergence"] = {
        scheme: divergence_at[scheme] for scheme in ranking[1:]
    }
    result.extras["phase_delta_sketches"] = {
        key: {
            name: sketch for name, sketch in sorted(named.items())
        }
        for key, named in sorted(sketches.items())
    }
    return result


def _explain_loss(
    scheme: str,
    winner: str,
    gap_pp: float,
    causes: dict[str, int],
    tier_causes: dict[str, dict[str, int]],
) -> tuple[str, float, str, str] | None:
    """One sentence: who loses how much, mostly to what, and where.

    The deltas are winner->loser, so losses are negative; the top
    cause is the bucket carrying the largest share of the summed
    losses, and the tier is where that bucket bit hardest.  Ties break
    on name for deterministic reports.
    """
    losses = {c: -d for c, d in causes.items() if d < 0}
    total = sum(losses.values())
    if not total:
        return None
    cause = max(sorted(losses), key=lambda c: losses[c])
    share = losses[cause] / total
    tier = max(
        sorted(tier_causes),
        key=lambda t: -tier_causes[t].get(cause, 0),
    )
    sentence = (
        f"{scheme} loses {gap_pp:.1f}pp goodput to {winner}, "
        f"{share:.0%} attributed to {cause} on {tier}"
    )
    return cause, share, tier, sentence


if __name__ == "__main__":
    print(run().render())
