"""The benchmark's workloads: traffic generated from a seed, and the stack serving it.

Each workload is an open loop in simulated time: every request carries its
arrival time, all requests are submitted before the simulator runs, and
every simulated latency is measured from that arrival, so the generator
can never run late. The program receives only the generated requests; the
seed never reaches it. Every workload runs on the array engine with the
QoServe scheduler.

``fleet_conv``
    AzConv (decode-heavy), 8 replicas behind least-loaded routing, Poisson
    16 QPS, no prefix reuse, no observer. Eight replicas' interleaved
    iterations keep the event heap deep and make decode-stretch attempts
    fail; least-loaded routing turns every arrival into a router event.
``sessions_radix``
    Multi-turn agent sessions (``AGENT_PROFILE`` with decode-heavy
    completions: p50 500, p90 1200 tokens), 1 replica, radix prefix reuse,
    no observer, 0.2 sessions/s. The radix tree and KV ledger do the work;
    the heap stays shallow and the router idle. The rate builds no backlog.
``code_traced``
    AzCode (prefill-heavy), 4 replicas round-robin, Poisson 6 QPS, with a
    ``TracingObserver`` writing to an in-memory ``RingSink`` plus its
    metrics registry. Observer hooks and the engine's observed path
    dominate, and prefill-heavy traffic makes scheduler planning (chunker,
    forest, relegation) do real work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name passed on the command line.
        config: Keyword arguments of the ``ServeConfig`` serving it.
        size: Requests (or sessions) generated per run.
        generate: ``generate(seed, size)`` builds the request templates.
        traced: Attach a ``TracingObserver`` into a ``RingSink``.
    """

    name: str
    config: dict
    size: int
    generate: Callable[[int, int], list]
    traced: bool = False

    def serve_config(self):
        from repro.api import ServeConfig

        return ServeConfig(**self.config)

    def observer(self):
        """A fresh observer for one session (None for untraced runs)."""
        if not self.traced:
            return None
        from repro.obs import RingSink, TraceRecorder, TracingObserver

        return TracingObserver(TraceRecorder([RingSink()]))


def _poisson_trace(dataset_name: str, qps: float):
    def generate(seed: int, size: int) -> list:
        from repro.api import build_trace

        return list(build_trace(
            dataset_name, qps=qps, num_requests=size, seed=seed
        ))

    return generate


def _agent_sessions(session_qps: float):
    def generate(seed: int, size: int) -> list:
        from repro.workload.distributions import LognormalLengths
        from repro.workload.sessions import AGENT_PROFILE, SessionWorkload

        profile = replace(
            AGENT_PROFILE,
            completion=LognormalLengths(p50=500, p90=1200, max_tokens=2048),
        )
        workload = SessionWorkload(profile, session_qps=session_qps, seed=seed)
        return list(workload.build(size))

    return generate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet_conv",
            config=dict(
                engine="arrays", scheduler="qoserve", num_replicas=8,
                routing="least-loaded", kv_reuse="off",
            ),
            size=2000,
            generate=_poisson_trace("AzConv", 16.0),
        ),
        Workload(
            name="sessions_radix",
            config=dict(
                engine="arrays", scheduler="qoserve", num_replicas=1,
                kv_reuse="radix",
            ),
            size=300,
            generate=_agent_sessions(0.2),
        ),
        Workload(
            name="code_traced",
            config=dict(
                engine="arrays", scheduler="qoserve", num_replicas=4,
                routing="round-robin", kv_reuse="off",
            ),
            size=3000,
            generate=_poisson_trace("AzCode", 6.0),
            traced=True,
        ),
    )
}
