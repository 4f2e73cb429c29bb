"""Figure 15: comparison with concurrent work (Medha, PolyServe).

Panel (a): chunk-size choices of Medha's adaptive chunking vs
QoServe's slack-aware dynamic chunking on a synthetic trace of
10K-prefill / 500-decode requests, plus the isolated goodput
comparison (dynamic chunking only, FCFS order on both sides).

Panel (b): A100s required to serve 50 QPS of two interactive TBT
classes (50 ms and 100 ms, both 6 s TTFT) as the class mix varies —
PolyServe's per-class deployments vs QoServe's colocation.
"""

from __future__ import annotations

import math

from repro.api import ServeConfig, Session, goodput_search, simulate
from repro.cluster.capacity import stable_drain
from repro.cluster.polyserve import PolyServePlanner
from repro.core.qos import QoSClass, QoSSpec
from repro.core.request import Request
from repro.experiments.configs import BENCH, Scale, get_execution_model
from repro.experiments.result import ExperimentResult
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.schedulers import QoServeConfig
from repro.simcore.rng import RngStreams
from repro.workload.datasets import AZURE_CONV
from repro.workload.tiers import TierMix
from repro.workload.trace import Trace

#: Panel (a) QoS: one interactive class, as in Medha's setting.
SYNTH_QOS = QoSSpec(
    name="Q1", qos_class=QoSClass.INTERACTIVE, ttft_slo=60.0, tbt_slo=0.050
)

#: QoServe restricted to dynamic chunking under FCFS-equivalent order
#: (single tier makes EDF degenerate to arrival order).
DC_ONLY = QoServeConfig(
    hybrid_prioritization=False,
    eager_relegation=False,
    selective_preemption=False,
)


def synthetic_trace(
    num_requests: int,
    qps: float,
    seed: int = 0,
    prefill_tokens: int = 10_000,
    decode_tokens: int = 500,
) -> Trace:
    """Medha's evaluation workload: long uniform prefills."""
    rng = RngStreams(seed).stream("synthetic-arrivals")
    gaps = rng.exponential(scale=1.0 / qps, size=num_requests)
    t = 0.0
    requests = []
    for i in range(num_requests):
        t += float(gaps[i])
        requests.append(
            Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=prefill_tokens,
                decode_tokens=decode_tokens,
                qos=SYNTH_QOS,
                app_id="synthetic",
            )
        )
    return Trace(requests, dataset_name="synthetic-10k", seed=seed)


def run_medha_comparison(
    scale: Scale = BENCH,
    deployment: str = "llama3-8b",
    qps: float = 0.25,
    window: int = 1000,
) -> ExperimentResult:
    """Panel (a): per-batch chunk sizes, Medha vs QoServe-DC."""
    num_requests = max(20, scale.num_requests // 20)
    result = ExperimentResult(
        experiment="figure-15a",
        title="Chunk-size choices: Medha adaptive vs QoServe dynamic",
        notes=[
            f"synthetic trace: 10K prefill / 500 decode, qps={qps}, "
            f"{num_requests} requests"
        ],
    )
    for name, kind, qoserve_config in (
        ("Medha", "medha", None),
        ("QoServe", "qoserve", DC_ONLY),
    ):
        trace = synthetic_trace(num_requests, qps, seed=scale.seed)
        sink = ListSink()
        session = Session(
            ServeConfig(
                deployment=deployment,
                scheduler=kind,
                qoserve_config=qoserve_config,
            ),
            observer=TracingObserver(TraceRecorder([sink])),
        )
        for request in trace:
            session.submit(request)
        session.drain()
        records = [
            e for e in sink.events if e["kind"] == "iteration_scheduled"
        ]
        for i, record in enumerate(records[:window]):
            if record["prefill_tokens"] <= 0:
                continue
            result.rows.append(
                {
                    "scheme": name,
                    "batch_index": i,
                    "chunk_size": record["prefill_tokens"],
                }
            )
    return result


def run_medha_goodput(
    scale: Scale = BENCH, deployment: str = "llama3-8b"
) -> ExperimentResult:
    """Panel (a) inset: isolated chunking-strategy goodput."""
    num_requests = max(20, scale.num_requests // 20)
    result = ExperimentResult(
        experiment="figure-15a-goodput",
        title="Goodput from the chunking strategy alone (FCFS order)",
        notes=["paper: QoServe 0.32 vs Medha 0.26 QPS (+23%)"],
    )
    for name, kind, qoserve_config in (
        ("Medha", "medha", None),
        ("QoServe", "qoserve", DC_ONLY),
    ):
        base = synthetic_trace(num_requests, qps=1.0, seed=scale.seed)
        config = ServeConfig(
            deployment=deployment,
            scheduler=kind,
            qoserve_config=qoserve_config,
        )

        lo, hi = 0.02, 1.0
        best = 0.0
        for _ in range(10):
            mid = 0.5 * (lo + hi)
            summary = simulate(config=config, trace=base.scaled_arrivals(mid))
            if summary.violations.overall_pct <= 1.0 and stable_drain(summary):
                best = mid
                lo = mid
            else:
                hi = mid
        result.rows.append({"scheme": name, "goodput_qps": best})
    return result


def run_polyserve_comparison(
    scale: Scale = BENCH,
    deployment: str = "llama3-8b",
    total_qps: float = 50.0,
    q1_shares: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> ExperimentResult:
    """Panel (b): GPUs needed across TBT-class mixes."""
    execution_model = get_execution_model(deployment)
    tp = execution_model.tp_degree
    tier_strict = QoSSpec(
        name="Q1", qos_class=QoSClass.INTERACTIVE, ttft_slo=6.0, tbt_slo=0.050
    )
    tier_relaxed = QoSSpec(
        name="Q2", qos_class=QoSClass.INTERACTIVE, ttft_slo=6.0, tbt_slo=0.100
    )

    # PolyServe: one dedicated deployment per TBT class, Medha-style
    # adaptive chunking fitted to the class's TBT target.
    per_class_goodput = {}
    for tier in (tier_strict, tier_relaxed):
        mix = TierMix(tiers=(tier,), weights=(1.0,), app_names=("chat",))
        capacity = goodput_search(
            "medha",
            execution_model,
            AZURE_CONV,
            num_requests=scale.num_requests,
            seed=scale.seed,
            mix=mix,
            scheduler_kwargs={"tbt_target": tier.tbt_slo},
        )
        per_class_goodput[tier.name] = capacity.max_qps

    result = ExperimentResult(
        experiment="figure-15b",
        title=f"GPUs to serve {total_qps} QPS across two TBT classes",
        notes=[
            "PolyServe: dedicated deployment per TBT class; "
            "QoServe: colocated",
            f"per-class goodput (PolyServe): {per_class_goodput}",
        ],
    )
    for q1_share in q1_shares:
        mix = TierMix(
            tiers=(tier_strict, tier_relaxed),
            weights=(q1_share, 1.0 - q1_share),
            app_names=("chat-strict", "chat-relaxed"),
        )
        qoserve_capacity = goodput_search(
            "qoserve",
            execution_model,
            AZURE_CONV,
            num_requests=scale.num_requests,
            seed=scale.seed,
            mix=mix,
        )
        planner = PolyServePlanner(per_class_goodput, tp_degree=tp)
        poly_gpus = planner.plan(
            total_qps, {"Q1": q1_share, "Q2": 1.0 - q1_share}
        ).gpus
        qoserve_gpus = (
            math.ceil(total_qps / max(1e-9, qoserve_capacity.max_qps)) * tp
        )
        result.rows.append(
            {
                "q1_share_pct": int(round(q1_share * 100)),
                "polyserve_gpus": poly_gpus,
                "qoserve_gpus": qoserve_gpus,
            }
        )
    return result


if __name__ == "__main__":
    print(run_medha_goodput().render())
    print()
    print(run_polyserve_comparison().render())
