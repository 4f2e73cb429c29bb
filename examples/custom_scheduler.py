#!/usr/bin/env python3
"""Extending the library: plug in your own scheduling policy.

Implements a "Strict-Tier-First" scheduler in ~20 lines on top of the
:class:`FixedChunkScheduler` base — requests are served interactive
tier first, FCFS within a tier — and races it against the built-in
policies on the same trace.  This is the extension surface a
downstream scheduler researcher would use.

Run:
    python examples/custom_scheduler.py
"""

from repro import AZURE_CONV, PoissonArrivals, TierAssigner, TraceBuilder
from repro.api import Session, make_scheduler
from repro.core.request import Request
from repro.experiments.configs import get_execution_model
from repro.schedulers.base import FixedChunkScheduler


class StrictTierFirstScheduler(FixedChunkScheduler):
    """Interactive requests always preempt non-interactive prefill.

    A plausible-looking policy that production teams actually deploy —
    and a useful foil: it protects Q1 unconditionally but lets the Q2
    backlog grow unboundedly under load, because unlike QoServe it
    never reasons about the relaxed tiers' deadlines.
    """

    name = "StrictTierFirst"

    def priority(self, request: Request, now: float) -> float:
        tier_rank = 0.0 if request.is_interactive else 1.0
        # Large constant separates the tiers; arrival breaks ties.
        return tier_rank * 1e9 + request.arrival_time


def main() -> None:
    execution_model = get_execution_model("llama3-8b")
    trace_builder = TraceBuilder(
        AZURE_CONV,
        arrivals=PoissonArrivals(qps=4.0),
        tier_assigner=TierAssigner(),
        seed=21,
    )

    contenders = {
        "StrictTierFirst": lambda: StrictTierFirstScheduler(chunk_size=256),
        "Sarathi-FCFS": lambda: make_scheduler("fcfs", execution_model),
        "Sarathi-EDF": lambda: make_scheduler("edf", execution_model),
        "QoServe": lambda: make_scheduler("qoserve", execution_model),
    }

    print(f"{'scheduler':16s} {'viol%':>7s} {'Q1 p99':>8s} "
          f"{'Q2 p99':>9s} {'Q3 p99':>9s}")
    print("-" * 55)
    for name, factory in contenders.items():
        trace = trace_builder.build(1500)
        # A pre-built scheduler drives the session's single replica.
        session = Session(scheduler=factory())
        for request in trace:
            session.submit(request)
        session.drain()
        summary = session.summary(requests=list(trace))
        print(f"{name:16s} {summary.violations.overall_pct:7.2f} "
              f"{summary.tier_percentile('Q1', 0.99):8.2f} "
              f"{summary.tier_percentile('Q2', 0.99):9.1f} "
              f"{summary.tier_percentile('Q3', 0.99):9.1f}")
    print("\nStrictTierFirst keeps Q1 pristine but starves Q2 under "
          "load;\nQoServe balances all three tiers' deadlines.")


if __name__ == "__main__":
    main()
