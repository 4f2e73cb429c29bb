"""Figure 9: dynamic chunk sizes over consecutive batches.

Runs QoServe on the Azure Conv trace under a tracing observer and
extracts a window of consecutive ``iteration_scheduled`` events: chunk
size chosen and batch execution time per iteration.  When slack
accumulates, chunk sizes rise toward the 2500 saturation point; with
strict interactive decodes in flight they fall back toward the
small-chunk regime.
"""

from __future__ import annotations

from repro.api import ServeConfig, Session, build_trace
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.obs import ListSink, TraceRecorder, TracingObserver, audit_events
from repro.workload.datasets import AZURE_CONV


def run(
    scale: Scale = BENCH,
    qps: float = 3.2,
    window: int = 200,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Reproduce Figure 9's chunk-size/latency trace."""
    trace = build_trace(
        AZURE_CONV, qps=qps, num_requests=scale.num_requests, seed=scale.seed
    )
    sink = ListSink()
    session = Session(
        ServeConfig(deployment=deployment),
        observer=TracingObserver(TraceRecorder([sink])),
    )
    for request in trace:
        session.submit(request)
    session.drain()
    summary = session.summary(requests=list(trace))
    events = sink.events
    records = [e for e in events if e["kind"] == "iteration_scheduled"]
    # Pick the window showing the most chunk-size dynamics — Figure 9's
    # point is the scheduler swinging between small (strict decode in
    # flight) and large (slack available) chunks, so score windows by
    # prefill activity times the chunk-size range they exhibit.
    def score(start: int) -> float:
        slice_ = records[start : start + window]
        chunks = [
            r["prefill_tokens"] for r in slice_ if r["prefill_tokens"] > 0
        ]
        if not chunks:
            return 0.0
        return len(chunks) * (max(chunks) - min(chunks) + 1)

    candidates = range(0, max(1, len(records) - window), max(1, window // 4))
    start = max(candidates, key=score, default=0)
    selected = records[start : start + window]
    result = ExperimentResult(
        experiment="figure-09",
        title="Dynamic chunk size and execution time per batch",
        notes=[
            f"scale={scale.label}; dataset=AzConv; qps={qps}; "
            f"window of {len(selected)} iterations from batch {start}",
            "chunk-size distribution over the whole run: "
            + ", ".join(
                f"{bucket}={count}"
                for bucket, count in summary.scheduler_stats[
                    "chunk_size_histogram"
                ].items()
                if count
            ),
        ],
    )
    for i, record in enumerate(selected):
        result.rows.append(
            {
                "batch_id": start + i,
                "chunk_size": record["prefill_tokens"],
                "exec_time_ms": record["dur"] * 1e3,
                "num_decodes": record["num_decodes"],
            }
        )
    # Dynamic chunking's cost side: how much of total latency the
    # chunked prefills spent waiting between their slices.
    attribution = audit_events(events)
    share = attribution.phase_share()
    result.extras["attribution"] = attribution
    result.notes.append(
        f"latency attribution across the run: "
        f"chunk_stall={share['chunk_stall']:.1%}, "
        f"prefill_compute={share['prefill_compute']:.1%}, "
        f"queue={share['admission_queue']:.1%}, "
        f"decode={share['decode']:.1%}"
    )
    return result


if __name__ == "__main__":
    print(run().render())
