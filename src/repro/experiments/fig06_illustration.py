"""Figure 6: the illustrative five-request example, executed.

The paper walks through requests A-E across three QoS buckets: A is
interactive; B-E are non-interactive with staggered deadlines.  Under
SOTA fixed-chunk FCFS scheduling some deadlines are missed; QoServe
prioritizes A (earlier deadline than D despite later arrival) and
grows chunks into accumulated slack, finishing the same work sooner
with no deadline missed.  This module realizes that walkthrough as a
concrete schedule the tests and bench can check: same five requests,
both schedulers, measured makespan and deadline outcomes.
"""

from __future__ import annotations

from repro.api import ServeConfig, Session
from repro.core.qos import QoSClass, QoSSpec
from repro.core.request import Request
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.workload.trace import Trace

#: Three QoS buckets as in the figure: one interactive, two
#: non-interactive with increasingly relaxed completion deadlines.
QOS1 = QoSSpec("QoS1", QoSClass.INTERACTIVE, ttft_slo=2.0, tbt_slo=0.050)
QOS2 = QoSSpec("QoS2", QoSClass.NON_INTERACTIVE, ttlt_slo=12.0)
QOS3 = QoSSpec("QoS3", QoSClass.NON_INTERACTIVE, ttlt_slo=30.0)


def five_request_scenario() -> Trace:
    """Requests A-E: A interactive, the rest batch, staggered arrivals.

    Sizes are chosen so that, at the strict-tier chunk of 256, the
    fixed-chunk FCFS schedule cannot complete B and D before their
    QoS2 deadlines, while slack-aware dynamic chunking can.
    """
    specs = [
        ("A", 0.10, 600, 30, QOS1),
        ("B", 0.00, 9000, 4, QOS2),
        ("C", 0.05, 6000, 4, QOS3),
        ("D", 0.20, 9000, 4, QOS2),
        ("E", 0.30, 6000, 4, QOS3),
    ]
    requests = []
    for index, (name, arrival, prompt, decode, qos) in enumerate(specs):
        request = Request(
            request_id=index,
            arrival_time=arrival,
            prompt_tokens=prompt,
            decode_tokens=decode,
            qos=qos,
            app_id=name,
        )
        requests.append(request)
    requests.sort(key=lambda r: r.arrival_time)
    return Trace(requests, dataset_name="figure-06", seed=0)


def run(
    scale: Scale = BENCH,
    deployment: str = "llama3-8b",
) -> ExperimentResult:
    """Execute the Figure 6 scenario under both schedulers."""
    result = ExperimentResult(
        experiment="figure-06",
        title="The five-request illustration: SOTA fixed chunk vs "
              "QoServe dynamic chunking",
        notes=["A interactive (2s TTFT / 50ms TBT); B,D 12s TTLT; "
               "C,E 30s TTLT"],
    )
    for label, kind, kwargs in (
        ("SOTA (FCFS, chunk 256)", "fcfs", {"chunk_size": 256}),
        ("QoServe", "qoserve-oracle", {}),
    ):
        trace = five_request_scenario()
        session = Session(
            ServeConfig(deployment=deployment, scheduler=kind, **kwargs)
        )
        for request in trace:
            session.submit(request)
        session.drain()
        by_name = {r.app_id: r for r in trace}
        result.rows.append(
            {
                "scheduler": label,
                "makespan_s": session.now,
                "a_ttft_s": by_name["A"].ttft,
                "missed_deadlines": sum(
                    1 for r in trace if r.violated_deadline
                ),
                "missed": ",".join(
                    r.app_id for r in trace if r.violated_deadline
                ) or "-",
            }
        )
    return result


if __name__ == "__main__":
    print(run().render())
