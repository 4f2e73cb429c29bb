#!/usr/bin/env python3
"""Trace toolkit: characterize, persist, replay and export.

A tour of the workload tooling around the simulator:

1. build a synthetic Azure Code trace and print its Table 2-style
   characterization;
2. write it in the public Azure CSV layout and reload it (the same
   loader ingests the real Azure LLM inference traces);
3. replay it through QoServe and export the run summary as JSON and
   the per-tier table as CSV.

Run:
    python examples/trace_toolkit.py [output_dir]
"""

import sys
from pathlib import Path

from repro import AZURE_CODE, PoissonArrivals, TierAssigner, TraceBuilder
from repro.api import ServeConfig, simulate
from repro.experiments.result import ExperimentResult
from repro.metrics.export import result_to_csv, summary_to_json
from repro.workload.analysis import analyze_trace
from repro.workload.azure_csv import load_azure_trace, write_azure_csv


def main(output_dir: str = "trace_toolkit_output") -> None:
    out = Path(output_dir)
    out.mkdir(exist_ok=True)

    # 1. Build and characterize.
    trace = TraceBuilder(
        AZURE_CODE,
        arrivals=PoissonArrivals(3.0),
        tier_assigner=TierAssigner(low_priority_fraction=0.1),
        seed=11,
    ).build(800)
    print("--- trace characterization ---")
    print(analyze_trace(trace).render())

    # 2. Round-trip through the Azure CSV layout.
    csv_path = out / "trace.csv"
    write_azure_csv(trace, csv_path)
    reloaded = load_azure_trace(csv_path, seed=11)
    print(f"\nwrote {csv_path} and reloaded {len(reloaded)} requests")

    # 3. Replay and export.
    summary = simulate(
        config=ServeConfig(scheduler="qoserve"), trace=reloaded
    )

    summary_path = out / "run_summary.json"
    summary_to_json(summary, summary_path)

    table = ExperimentResult(
        experiment="trace-toolkit", title="per-tier replay results"
    )
    for tier in ("Q1", "Q2", "Q3"):
        table.rows.append(
            {
                "tier": tier,
                "p50_s": summary.tier_percentile(tier, 0.50),
                "p99_s": summary.tier_percentile(tier, 0.99),
                "viol_pct": summary.violations.tier(tier),
            }
        )
    csv_out = out / "per_tier.csv"
    result_to_csv(table, csv_out)

    print("\n--- replay ---")
    print(table.render())
    print(f"\nviolations: {summary.violations.overall_pct:.2f}% | "
          f"exports: {summary_path}, {csv_out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "trace_toolkit_output")
