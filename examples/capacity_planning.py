#!/usr/bin/env python3
"""Capacity planning: how many GPUs does your workload need?

The scenario the paper's introduction motivates: a provider serves
three applications — an interactive chat product, a user-facing video
summarizer, and overnight email-insight batch jobs — and must decide
between siloed per-tier clusters and a shared QoServe deployment.

This example measures per-replica goodput for (a) each tier served in
its own tuned silo and (b) the shared QoServe deployment, then prices
a target cluster load in GPUs both ways.

Run:
    python examples/capacity_planning.py [total_qps]
"""

import sys

from repro import AZURE_CODE, replicas_needed
from repro.api import goodput_search
from repro.experiments.configs import get_execution_model
from repro.core.qos import Q1_INTERACTIVE, Q2_RELAXED, Q3_BATCH
from repro.workload.tiers import TierMix

#: Tier -> (silo chunk size).  The strict tier needs small chunks for
#: its 50 ms TBT; throughput tiers run big chunks (Section 4's setup).
SILO_PLAN = {
    "Q1": (Q1_INTERACTIVE, 256),
    "Q2": (Q2_RELAXED, 2048),
    "Q3": (Q3_BATCH, 2048),
}

NUM_REQUESTS = 700  # per capacity probe; raise for tighter estimates


def main(total_qps: float = 24.0) -> None:
    execution_model = get_execution_model("llama3-8b")
    per_tier_qps = total_qps / 3.0
    print(f"target: {total_qps:.0f} QPS of AzCode, equal thirds "
          f"across Q1/Q2/Q3 on Llama3-8B A100 replicas\n")

    # --- siloed plan -----------------------------------------------------
    silo_gpus = 0
    print("siloed deployment (Sarathi FCFS per tier):")
    for name, (tier, chunk) in SILO_PLAN.items():
        mix = TierMix(tiers=(tier,), weights=(1.0,), app_names=(name,))
        capacity = goodput_search(
            "fcfs", execution_model, AZURE_CODE,
            num_requests=NUM_REQUESTS, mix=mix, chunk_size=chunk,
        )
        replicas = replicas_needed(per_tier_qps, capacity.max_qps)
        silo_gpus += replicas * execution_model.tp_degree
        print(f"  {name}: goodput {capacity.max_qps:5.2f} QPS/replica "
              f"(chunk {chunk:4d}) -> {replicas} replicas")
    print(f"  total: {silo_gpus} GPUs\n")

    # --- shared QoServe plan ----------------------------------------------
    capacity = goodput_search(
        "qoserve", execution_model, AZURE_CODE,
        num_requests=NUM_REQUESTS,
    )
    replicas = replicas_needed(total_qps, capacity.max_qps)
    shared_gpus = replicas * execution_model.tp_degree
    print("shared QoServe deployment:")
    print(f"  goodput {capacity.max_qps:5.2f} QPS/replica "
          f"-> {replicas} replicas = {shared_gpus} GPUs\n")

    saving = 100.0 * (silo_gpus - shared_gpus) / silo_gpus
    print(f"GPU saving from co-scheduling: {saving:.0f}% "
          f"({silo_gpus} -> {shared_gpus})")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 24.0)
