"""Cross-commit pins: SHA-256 of the engine's observable behaviour.

Each case serves a fixed workload and hashes everything a caller can
see of it: per-request token times, TBT statistics, evictions and
cancellations, the engine's counters, trace event streams, rendered
metric registries and per-request latency attribution.  The checksums
were recorded while two engine cores (an object loop and the
struct-of-arrays loop) still ran side by side and agreed on every
byte; with the struct-of-arrays loop now the only engine, they are the
behaviour oracle for any rewrite of the iteration loop, the KV ledger
or the decode stretch.

The cases cover every scheduler kind, QoServe's fixed-chunk and
no-pinning variants, stepped ``run(until=...)`` driving, traced runs,
batch changes while an iteration is in flight (cancel, prefilled
handoff, token hook), a resilient pool and an 8-replica fleet under
faults, KV pressure (decode eviction, prefill stall recovery,
prefill-only handoff, radix reuse on a full pool), a disaggregated
prefill tier feeding the fixed-pace decode pool, a seeded 500-request
randomized run and the decode-stretch counters.

Canonical form: ``json.dumps(value, sort_keys=True, separators=(",",
":"))`` (floats print as their shortest round-trip repr).  If a
deliberate behaviour change moves a pin, regenerate it and say why in
the change description.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.api import build_trace, make_scheduler
from repro.cluster.decode_pool import DecodePool
from repro.cluster.deployment import ClusterDeployment
from repro.core.qos import Q2_RELAXED
from repro.core.request import Request
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.faults import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
from repro.metrics.export import summary_to_dict
from repro.obs.audit import audit_events
from repro.obs.observer import TracingObserver, default_observer
from repro.obs.trace import ListSink, TraceRecorder
from repro.schedulers.qoserve import QoServeConfig
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE, AZURE_CONV
from repro.workload.distributions import LognormalLengths
from repro.workload.sessions import AGENT_PROFILE, SessionWorkload
from tests.conftest import small_memory_model, stall_requests

PINS = {
    # Re-recorded when the prefill replica began reporting the
    # synchronous DecodePool's completions: the old event list plus
    # one request_completed per request.
    "disagg-traced": (
        "aa05c095c12e0a86a87a78f965e14acc0c383b1755e8265ff303927e15c08ee2"
    ),
    "disagg-untraced": (
        "32e1340519ef8f379c88394b49274b42a8c18e8f3761932e99f9774501cc32de"
    ),
    "faults-fleet": (
        "20b5661045ad23e65a16860a47c0006355abe75e58f34002a104a6483abf5acf"
    ),
    "faults-resilient": (
        "d44dae900d80b4e27d1da4761981c800a2e35c22debc4f2cd9e8fe58cc3a1773"
    ),
    "mid-flight-traced-hook": (
        "9a3ab08ae57cc29ac42098e8a14152d1f332fec59cfa3cdb06f7f7e7edbc9ed1"
    ),
    "mid-flight-traced-plain": (
        "e583f4c05cfb913fd48fa31fc284510e89d96cd1ccba8321ffc457d80b3a537f"
    ),
    "mid-flight-untraced-hook": (
        "a1e0a569f3695edbb2d49d47cdefe0c8803bd135b391f44d0fc67289977cb089"
    ),
    "mid-flight-untraced-plain": (
        "804c730f24ba9915114c69d05a355118e86c12341da9220a3e994f9a5745c8e0"
    ),
    # The four pressure pins below were re-recorded when the per-row
    # pressure path stopped re-visiting rows evicted earlier in the
    # same pass (decode evictions 6 -> 7 here, 70 -> 17 under radix).
    "pressure-evict-traced": (
        "3ce0bdc14b140c5ea714cccd8c5b57ae5045791fc6cd43a201e609b0939d8218"
    ),
    "pressure-evict-untraced": (
        "ca5418e63ca5ff78cc2c2d13e213d7624655d92441d9ee863b141c2cef78f488"
    ),
    "pressure-prefill-only-traced": (
        "2b63f459e3b634e27325c910f92daada32712c4f814553261bdac22e6e9b6f63"
    ),
    "pressure-prefill-only-untraced": (
        "076ddbd8ea61c18fb9aa2577c4c9555d01f658f6e375437352ad29cf92382b40"
    ),
    "pressure-stall-traced": (
        "59d6281ef9a2248799a1d27712948d83c490d654cd2262fa1c967e1df7e342da"
    ),
    "pressure-stall-untraced": (
        "19a4ff6ee98760c7897d0ccd72b5a81dab20adeb510601a8e91688c3117b7f63"
    ),
    "radix-pressure-traced": (
        "3fd2ceefa4551c7956829e0db316f138529bc1f0e9b8568ecfb411eae1d68933"
    ),
    "radix-pressure-untraced": (
        "af76b949604785b102a79384611abaf9b98b8d36cf7e5fd666639b6ccbe9f7d0"
    ),
    "randomized-500": (
        "4340685a6e32af97b691a76839c579974114ddea338ec6749e4b2c02c703efcf"
    ),
    "run-code-conserve": (
        "6447043a471192d4e5c7d311f7eb23ffde66d356eb0efd015450701b0aeca707"
    ),
    "run-code-edf": (
        "2a2c60d21766cb3ef58e11f021619912886eaac5eb42dc476c1a9e517dcf3e53"
    ),
    "run-code-fcfs": (
        "4b866187b56cceed3b543fa5130da939576ac736b2740efd8f85c31ca6b4662d"
    ),
    "run-code-medha": (
        "a8b1444137acd5f6b188ba84a6ccb6f841c0fa21683b6dcb28004dbeb1c2482e"
    ),
    "run-code-qoserve": (
        "f3e4d56b2f80c864da5b0f54a8431f1b8cd5b7fb229505bff75bd077f0ded431"
    ),
    "run-code-qoserve-fixed-chunk": (
        "d5821b1f31ab4ad5769164b1ee7c8d79030ccc792f38fb73fe2c8d42f94cd8f1"
    ),
    "run-code-qoserve-no-pin": (
        "f3e4d56b2f80c864da5b0f54a8431f1b8cd5b7fb229505bff75bd077f0ded431"
    ),
    "run-code-qoserve-oracle": (
        "e888cb47c7698cf867819f2ce27b7c1352f88ca00cdd5d64946defdaed71aed3"
    ),
    "run-code-sjf": (
        "76c11646d789a8e883e01a0b4e8d70a3fe9278f2baf2c64442f1e19757bb9494"
    ),
    "run-code-srpf": (
        "8177009b5905749e46b175fab31f6cecf9c79996f46dc77b80c3424a721c1d4a"
    ),
    "run-conv-conserve": (
        "85f310bc7412a44815fac9ed3856a0d0878fc894a3c2b3259a58c9033574b61f"
    ),
    "run-conv-edf": (
        "86299cb663f3d6b876416659b67e37b1bd0a3df56ff5ff2da551f344e323beb7"
    ),
    "run-conv-fcfs": (
        "b87de7b62bdca212ea2eb911f4e96a5a26dcad0427867729e165018109c07e41"
    ),
    "run-conv-medha": (
        "cd90244bf092bde8725352dc2cc088f42cd8d471b2c74f7f36a9e74a957eb1c7"
    ),
    "run-conv-qoserve": (
        "3bfaf5d69d6fb3ca382b5ef9da8143b6df5dddf576c6fbfa22089fe6284d1edc"
    ),
    "run-conv-qoserve-fixed-chunk": (
        "799e8804673fc54a0cdc28f3e7b4a26f5b62118bbedd0d9629ece2ef13b8626a"
    ),
    "run-conv-qoserve-no-pin": (
        "3bfaf5d69d6fb3ca382b5ef9da8143b6df5dddf576c6fbfa22089fe6284d1edc"
    ),
    "run-conv-qoserve-oracle": (
        "e999b989958a244699cdb99cc5616faaae023add44c6cbdfc096a195fca3f973"
    ),
    "run-conv-sjf": (
        "3fcf97beafadada6649133b84a8a8f02e90327f0470d0ddc78f9061ff65b2b9a"
    ),
    "run-conv-srpf": (
        "a33d3395666a2cfb4a78a05481812c2f5549a3937276d5741ea75b7871eedeb8"
    ),
    "run-heavy-load": (
        "b39e311c3dafab95c8be9ed66508b5eb3bc085209ce27605516820ee677d0dcb"
    ),
    "run-stepped": (
        "5e5eed747c3961f256b10e9c1242d589c6e9335aa26376f77d73f47fa0f8f476"
    ),
    "stretch-fleet": (
        "b9f0c8213264246c8f88ce830cb6dcbb1ac2f91cfc13a2c3a108f932e2813df0"
    ),
    "stretch-single": (
        "cd7180408bd6fa44482b20802145c47e32c2ca06f3c444f8beb28f2507666999"
    ),
    "traced-code-medha": (
        "64dbbe69332252c716cd3958e963d0384da9c0caa42b835f76ce905c0a60b611"
    ),
    "traced-conv-qoserve": (
        "240b452e04e86d3c3ffe3bd8602b6ab70df273e9575fd7f6ca692333e170151e"
    ),
    "traced-conv-qoserve-12x": (
        "fb734a2312822c66e13449061f479106fef588c5166d907cc6412d788541aabd"
    ),
}

def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def clone(requests, compress=1.0):
    """Fresh request objects with arrivals compressed ``compress``x."""
    return [
        Request(
            request_id=r.request_id,
            arrival_time=r.arrival_time / compress,
            prompt_tokens=r.prompt_tokens,
            decode_tokens=r.decode_tokens,
            qos=r.qos,
            app_id=r.app_id,
            important=r.important,
        )
        for r in requests
    ]


def fingerprint(engine, requests):
    """Every externally visible float and counter of a finished run."""
    return [
        (
            r.request_id,
            r.decoded,
            r.prefill_done,
            r.first_token_time,
            r.last_token_time,
            r.completion_time,
            r.scheduled_first_time,
            r.max_tbt,
            r.tbt_gap_misses,
            r.tbt_deadline_misses,
            r.cancelled,
            r.evictions,
        )
        for r in requests
    ] + [
        (
            "engine",
            engine.iterations_run,
            engine.busy_time,
            engine.decode_evictions,
            engine.kv_cache.used_blocks,
            engine.kv_cache.high_water_blocks,
            [q.request_id for q in engine.completed],
            dict(engine.chunk_tokens_hist),
        )
    ]


def _recording():
    sink = ListSink()
    return sink, TracingObserver(recorder=TraceRecorder([sink]))


def _traced_outputs(sink, observer):
    events = sink.events
    return {
        "events": events,
        "metrics": observer.registry.to_prometheus_text(),
        "audit": audit_events(events).to_dict(),
    }


#: Scheduler variants beyond the :data:`SCHEDULER_KINDS` names: the
#: QoServe planning branches without dynamic chunking (fixed chunk)
#: and without selective preemption (no pinning).
SCHEDULER_VARIANTS = {
    "qoserve-fixed-chunk": ("qoserve", QoServeConfig(dynamic_chunking=False)),
    "qoserve-no-pin": ("qoserve", QoServeConfig(selective_preemption=False)),
}
SCHEDULERS = (
    "qoserve", "medha", "fcfs", "sjf", "srpf", "edf", "conserve",
    "qoserve-oracle", *SCHEDULER_VARIANTS,
)


def _untraced(model, dataset, scheduler, num_requests, seed, compress):
    trace = build_trace(dataset, qps=1.0, num_requests=num_requests,
                        seed=seed)
    requests = clone(trace.requests, compress)
    kind, config = SCHEDULER_VARIANTS.get(scheduler, (scheduler, None))
    sim = Simulator()
    engine = ReplicaEngine(
        sim, model, make_scheduler(kind, model, qoserve_config=config),
        ReplicaConfig(),
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return fingerprint(engine, requests)


def _stepped(model):
    """Gateway-style incremental ``run(until=...)`` driving: the
    decode-stretch fast-forward must respect every run bound."""
    trace = build_trace(AZURE_CONV, qps=1.0, num_requests=60, seed=11)
    requests = clone(trace.requests, 5.0)
    sim = Simulator()
    engine = ReplicaEngine(
        sim, model, make_scheduler("qoserve", model), ReplicaConfig()
    )
    for r in requests:
        engine.submit(r)
    t = 0.0
    while True:
        t += 0.37
        sim.run(until=t)
        if not sim.pending_events and not engine.has_work():
            break
        assert t < 1e5, "run did not drain"
    return fingerprint(engine, requests)


def _traced(model, dataset, scheduler, num_requests, compress):
    trace = build_trace(dataset, qps=1.0, num_requests=num_requests, seed=3)
    requests = clone(trace.requests, compress)
    sim = Simulator()
    sink, observer = _recording()
    engine = ReplicaEngine(
        sim, model, make_scheduler(scheduler, model), ReplicaConfig(),
        observer=observer,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return _traced_outputs(sink, observer)


def _mid_flight(model, traced, hooked):
    """Change the decode batch while iterations are in flight.

    At 7 s one row of the running batch is cancelled; at 8 s two
    prefilled handoffs join mid-flight and the first is cancelled at
    once, removing a row behind the running batch.
    """
    trace = build_trace(AZURE_CONV, qps=1.0, num_requests=120, seed=13)
    requests = clone(trace.requests, 12.0)
    sim = Simulator()
    sink, observer = _recording()
    engine = ReplicaEngine(
        sim, model, make_scheduler("qoserve", model), ReplicaConfig(),
        observer=observer if traced else None,
    )
    tokens = []
    if hooked:
        engine.token_hook = lambda r, now: tokens.append(
            (r.request_id, r.decoded, now)
        )
    for r in requests:
        engine.submit(r)
    handoffs = []
    for k in range(2):
        handoff = Request(
            request_id=10_000 + k,
            arrival_time=8.0,
            prompt_tokens=300 + k,
            decode_tokens=40,
            qos=requests[k].qos,
        )
        handoff.prefill_done = handoff.prompt_tokens
        handoffs.append(handoff)
    batch_sizes = []

    def cancel_running_row():
        queue = engine.decode_queue
        batch_sizes.append(len(queue))
        engine.cancel_request(queue[5], "client_disconnect")

    def handoff_then_cancel():
        batch_sizes.append(len(engine.decode_queue))
        for handoff in handoffs:
            engine.submit_prefilled(handoff)
        engine.cancel_request(handoffs[0], "client_disconnect")

    sim.schedule(7.013, cancel_running_row)
    sim.schedule(8.021, handoff_then_cancel)
    sim.run(max_events=5_000_000)
    # Both points must hit a batch past the small-batch threshold.
    assert len(batch_sizes) == 2 and min(batch_sizes) >= 32
    return {
        "fingerprint": fingerprint(engine, requests + handoffs),
        "tokens": tokens,
        "events": sink.events,
        "batch_sizes": batch_sizes,
    }


def _cluster(model, dataset, num_requests, num_replicas, plan, **kwargs):
    trace = build_trace(dataset, qps=8.0, num_requests=num_requests, seed=7)
    cluster = ClusterDeployment(
        model, partial(make_scheduler, "qoserve", model),
        num_replicas=num_replicas, fault_plan=plan, **kwargs,
    )
    requests = clone(trace.requests)
    for r in requests:
        cluster.submit(r)
    cluster.run(max_events=5_000_000)
    return cluster, {
        "summary": summary_to_dict(cluster.summarize()),
        "faults": cluster.fault_stats(),
        "requests": [
            (
                r.request_id, r.decoded, r.first_token_time,
                r.last_token_time, r.completion_time, r.max_tbt,
                r.tbt_gap_misses, r.tbt_deadline_misses, r.cancelled,
                r.attempts, r.evictions,
            )
            for r in requests
        ],
    }


def _resilient(model):
    """Crash + slowdown plan on a resilient pool of two."""
    plan = FaultPlan(events=(
        ReplicaCrash(time=2.0, replica_id=0, recover_after=6.0),
        ReplicaSlowdownFault(time=1.0, replica_id=1, factor=1.7,
                             duration=8.0),
    ))
    return _cluster(model, AZURE_CODE, 100, 2, plan)[1]


def _fleet_run(model):
    """Eight least-loaded replicas under faults, untraced: a replica's
    stretch bound is almost always another replica's event."""
    plan = FaultPlan(events=(
        ReplicaCrash(time=3.0, replica_id=2, recover_after=5.0),
        ReplicaSlowdownFault(time=2.0, replica_id=5, factor=1.6,
                             duration=10.0),
    ))
    return _cluster(model, AZURE_CONV, 300, 8, plan,
                    routing="least-loaded")


def _fleet(model):
    pinned = _fleet_run(model)[1]
    assert pinned["faults"]["crashes"] == 1
    return pinned


def _stretch_counters(engines):
    return {
        "attempts": sum(e.stretch_attempts for e in engines),
        "rejected_cheap": sum(e.stretch_rejected_cheap for e in engines),
        "hits": sum(e.stretch_hits for e in engines),
        "iterations": sum(e.stretch_iterations for e in engines),
    }


def _stretch_fleet(model):
    cluster = _fleet_run(model)[0]
    counters = _stretch_counters(cluster.replicas)
    # The full computation at the cheap bound's introduction fired 7
    # stretches collapsing 3,172 iterations on this fleet.
    assert (counters["hits"], counters["iterations"]) == (7, 3172)
    return counters


def _stretch_single(model):
    trace = build_trace(AZURE_CONV, qps=1.0, num_requests=40, seed=3)
    sim = Simulator()
    engine = ReplicaEngine(
        sim, model, make_scheduler("qoserve", model), ReplicaConfig()
    )
    for r in trace.fresh_copy().scaled_arrivals(2.0):
        engine.submit(r)
    sim.run(max_events=5_000_000)
    assert len(engine.completed) == 40
    counters = _stretch_counters([engine])
    # Hits and collapsed iterations of the full NumPy computation
    # without the cheap bound, on this exact run.
    assert (counters["hits"], counters["iterations"]) == (55, 1881)
    return counters


def _evict_requests():
    """Five 1,800-token prompts at once: decodes outgrow the cache."""
    return [
        Request(request_id=i, arrival_time=0.0, prompt_tokens=1800,
                decode_tokens=200, qos=Q2_RELAXED)
        for i in range(5)
    ]


PRESSURE = {
    "evict": (_evict_requests, "fcfs", False),
    "stall": (lambda: stall_requests(seed=5), "qoserve-oracle", False),
    "prefill-only": (lambda: stall_requests(seed=0, count=12), "fcfs", True),
}


def _pressure(case, traced):
    """Serve a case's requests on a 4,096-token KV cache to drain."""
    make_requests, scheduler, prefill_only = PRESSURE[case]
    requests = make_requests()
    model = small_memory_model()
    sim = Simulator()
    sink, observer = _recording()
    handoffs = []
    engine = ReplicaEngine(
        sim, model, make_scheduler(scheduler, model),
        ReplicaConfig(prefill_sink=(
            (lambda r, now: handoffs.append((r.request_id, now)))
            if prefill_only else None
        )),
        observer=observer if traced else None,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=1_000_000)
    assert not sim.pending_events
    assert prefill_only or all(r.is_finished for r in requests)
    if case == "evict":
        assert engine.decode_evictions == 7
    elif case == "stall":
        assert engine.stall_preemptions >= 1
    else:
        assert len(handoffs) == 12
    return {
        "fingerprint": fingerprint(engine, requests),
        "stall_preemptions": engine.stall_preemptions,
        "handoffs": handoffs,
        "events": sink.events,
    }


def _radix_requests():
    """Eight agent sessions (57 turns) whose histories outgrow an
    8,192-token cache: unreferenced prefix blocks fill the pool, so
    decode growth reclaims them and, when the locked rest still does
    not fit, evicts decodes."""
    profile = replace(
        AGENT_PROFILE,
        first_prompt=LognormalLengths(p50=400, p90=1200, max_tokens=1600),
        user_turn=LognormalLengths(p50=60, p90=200, max_tokens=400),
        completion=LognormalLengths(p50=300, p90=900, max_tokens=1200),
        think_time_mean=8.0,
        max_context=2048,
        shared_prefix_tokens=256,
    )
    workload = SessionWorkload(profile, session_qps=0.5, seed=1)
    return [r.clone_fresh() for r in workload.build(8)]


def _radix_pressure(traced):
    """Radix reuse on a full KV pool, served to drain.

    The fingerprint leaves out the decode-stretch counters: how many
    iterations one stretch collapses is an engine mechanic, not
    behaviour.
    """
    requests = _radix_requests()
    model = small_memory_model(8192)
    sim = Simulator()
    sink, observer = _recording()
    engine = ReplicaEngine(
        sim, model, make_scheduler("qoserve-oracle", model),
        ReplicaConfig(kv_reuse="radix"),
        observer=observer if traced else None,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=1_000_000)
    cache = engine.prefix_cache
    assert not sim.pending_events
    assert all(r.is_finished for r in requests)
    assert cache.evictions > 0 and engine.decode_evictions > 0
    if traced:
        return {
            "events": sink.events,
            "metrics": observer.registry.to_prometheus_text(),
        }
    return {
        "requests": [
            (
                r.request_id, r.first_token_time, r.completion_time,
                r.violated_deadline,
            )
            for r in requests
        ],
        "cache": (
            cache.hits, cache.misses, cache.hit_tokens, cache.evictions,
        ),
        "decode_evictions": engine.decode_evictions,
        "iterations_run": engine.iterations_run,
        "used_blocks": engine.kv_cache.used_blocks,
        "high_water_blocks": engine.kv_cache.high_water_blocks,
    }


class _HandoffPool(DecodePool):
    """Fixed-pace decode pool that also records each handoff."""

    def __init__(self) -> None:
        super().__init__()
        self.handoffs: list[tuple[int, float]] = []

    def accept(self, request: Request, handoff_time: float) -> None:
        self.handoffs.append((request.request_id, handoff_time))
        super().accept(request, handoff_time)


def _disagg_run(model):
    """Two round-robin prefill replicas (8K chunk) feeding the pool."""
    trace = build_trace(AZURE_CONV, qps=1.0, num_requests=40, seed=5)
    requests = clone(trace.requests, 24.0)
    pool = _HandoffPool()
    deployment = ClusterDeployment(
        model,
        partial(
            make_scheduler, "qoserve-oracle", model,
            qoserve_config=QoServeConfig(
                max_chunk_size=8192, fixed_chunk_size=8192
            ),
        ),
        num_replicas=2,
        replica_config=ReplicaConfig(prefill_sink=pool.accept),
    )
    for r in requests:
        deployment.submit(r)
    deployment.run(max_events=1_000_000)
    assert all(r.is_finished for r in requests)
    return deployment, pool, requests


def _disagg(model, traced):
    """A disaggregated prefill tier served to drain.

    Traced, the run is built under the process-default observer, which
    every prefill replica adopts.
    """
    if not traced:
        deployment, pool, requests = _disagg_run(model)
        serving = {
            r.request_id: replica.replica_id
            for replica in deployment.replicas
            for r in replica.submitted
        }
        handoff = dict(pool.handoffs)
        return {
            "requests": [
                (
                    r.request_id, serving[r.request_id],
                    handoff[r.request_id], r.first_token_time,
                    r.completion_time, r.violated_deadline,
                )
                for r in requests
            ],
            "decode_order": [r.request_id for r in pool.completed],
        }
    sink, observer = _recording()
    with default_observer(observer):
        _disagg_run(model)
    return {
        "events": sink.events,
        "metrics": observer.registry.to_prometheus_text(),
    }


def _randomized(model):
    """Seeded 500-request randomized run: completion order and
    per-request latency attribution totals."""
    rng = np.random.default_rng(0xA77A)
    scale = float(rng.uniform(6.0, 10.0))
    low_priority = float(rng.uniform(0.1, 0.4))
    trace = build_trace(
        AZURE_CONV, qps=1.0, num_requests=500,
        seed=int(rng.integers(1, 1 << 30)),
        low_priority_fraction=low_priority,
    )
    requests = clone(trace.requests, scale)
    sim = Simulator()
    sink, observer = _recording()
    engine = ReplicaEngine(
        sim, model, make_scheduler("qoserve", model), ReplicaConfig(),
        observer=observer,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=10_000_000)
    assert len(engine.completed) == 500
    return {
        "order": [r.request_id for r in engine.completed],
        "audit": audit_events(sink.events).to_dict(),
    }


CASES = {
    **{
        f"run-{name}-{scheduler}": partial(
            _untraced, dataset=dataset, scheduler=scheduler,
            num_requests=80, seed=7, compress=6.0,
        )
        for name, dataset in (("conv", AZURE_CONV), ("code", AZURE_CODE))
        for scheduler in SCHEDULERS
    },
    # Arrivals compressed 12x drive the decode batch past the
    # small-batch threshold, so the slice-kernel advance runs.
    "run-heavy-load": partial(
        _untraced, dataset=AZURE_CONV, scheduler="qoserve",
        num_requests=120, seed=13, compress=12.0,
    ),
    "run-stepped": _stepped,
    "traced-conv-qoserve": partial(
        _traced, dataset=AZURE_CONV, scheduler="qoserve",
        num_requests=60, compress=6.0,
    ),
    "traced-code-medha": partial(
        _traced, dataset=AZURE_CODE, scheduler="medha",
        num_requests=60, compress=6.0,
    ),
    "traced-conv-qoserve-12x": partial(
        _traced, dataset=AZURE_CONV, scheduler="qoserve",
        num_requests=120, compress=12.0,
    ),
    **{
        f"mid-flight-{t}-{h}": partial(
            _mid_flight, traced=t == "traced", hooked=h == "hook"
        )
        for t in ("untraced", "traced")
        for h in ("plain", "hook")
    },
    "faults-resilient": _resilient,
    "faults-fleet": _fleet,
    **{
        f"pressure-{case}-{t}": (
            lambda model, case=case, t=t: _pressure(case, t == "traced")
        )
        for case in PRESSURE
        for t in ("untraced", "traced")
    },
    "radix-pressure-untraced": lambda model: _radix_pressure(False),
    "radix-pressure-traced": lambda model: _radix_pressure(True),
    "disagg-untraced": partial(_disagg, traced=False),
    "disagg-traced": partial(_disagg, traced=True),
    "randomized-500": _randomized,
    "stretch-single": _stretch_single,
    "stretch-fleet": _stretch_fleet,
}

@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_behaviour_pinned(case, execution_model):
    assert _digest(CASES[case](execution_model)) == PINS[case]
