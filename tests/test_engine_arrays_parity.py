"""Bit-identical parity: the array engine vs the reference engine.

:class:`~repro.engine.arrays.ArrayReplicaEngine` is a pure performance
play — same decisions, same floats, same event stream as the
object-based :class:`~repro.engine.replica.ReplicaEngine` reference
path.  These tests pin that claim at every layer the array engine
reimplements:

* untraced run summaries for every scheduler kind and QoServe's
  fixed-chunk and no-pinning variants (the vectorized kernels,
  decode-stretch fast-forward, whole-batch advance kernels and the
  row-backed scheduler view);
* traced runs (byte-identical event streams, rendered metric
  registries and per-request audit attribution);
* batch membership changes while an iteration is in flight
  (cancellations, prefilled handoffs, a token hook);
* the fault path (crash + slowdown plan on a resilient pool), and an
  8-replica least-loaded fleet under faults, where the decode
  stretch is bounded by other replicas' events;
* the decode-stretch counters against the hits of the full stretch
  computation;
* memory pressure on a tiny KV cache (decode eviction, prefill stall
  recovery, prefill-only handoffs);
* a seeded 500-request randomized property run (completion order and
  per-request latency attribution totals);
* the row-backed view's decode slack vs the object sweep, in every
  clamp regime, on the scalar and the vector branch;
* the block ledger's math vs :class:`KVCacheManager` at block sizes
  1 and 16 and off-by-one token counts;
* the flat batch-time kernels vs :meth:`ExecutionModel.batch_time`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_trace, make_scheduler
from repro.core.qos import DEFAULT_TIERS, Q2_RELAXED
from repro.core.request import Request
from repro.engine import ArrayReplicaEngine, ReplicaConfig, ReplicaEngine
from repro.engine.arrays import ArrayKVLedger, _RowStore, _RowView
from repro.engine.interface import decode_slack
from repro.engine.kvcache import KVCacheManager
from repro.obs.audit import audit_events
from repro.obs.observer import TracingObserver
from repro.obs.trace import ListSink, TraceRecorder
from repro.perfmodel.execution import BatchShape, PrefillChunk
from repro.schedulers.qoserve import QoServeConfig
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE, AZURE_CONV
from tests.conftest import small_memory_model, stall_requests

ENGINES = (ReplicaEngine, ArrayReplicaEngine)


def clone(requests):
    """Fresh request objects so the two runs share no mutable state."""
    return [
        Request(
            request_id=r.request_id,
            arrival_time=r.arrival_time,
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


#: Scheduler variants beyond the :data:`SCHEDULER_KINDS` names: the
#: QoServe planning branches without dynamic chunking (fixed chunk)
#: and without selective preemption (no pinning).
SCHEDULER_VARIANTS = {
    "qoserve-fixed-chunk": ("qoserve", QoServeConfig(dynamic_chunking=False)),
    "qoserve-no-pin": ("qoserve", QoServeConfig(selective_preemption=False)),
}


def build_scheduler(scheduler, execution_model):
    kind, config = SCHEDULER_VARIANTS.get(scheduler, (scheduler, None))
    return make_scheduler(kind, execution_model, qoserve_config=config)


def run_fast(engine_cls, execution_model, requests, scheduler):
    sim = Simulator()
    engine = engine_cls(
        sim,
        execution_model,
        build_scheduler(scheduler, execution_model),
        ReplicaConfig(),
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return fingerprint(engine, requests)


def run_traced(engine_cls, execution_model, requests, scheduler):
    sim = Simulator()
    sink = ListSink()
    observer = TracingObserver(recorder=TraceRecorder([sink]))
    engine = engine_cls(
        sim,
        execution_model,
        make_scheduler(scheduler, execution_model),
        ReplicaConfig(),
        observer=observer,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return sink.events, observer.registry.to_prometheus_text()


class TestRunParity:
    """Untraced fingerprints across schedulers, datasets and loads."""

    @pytest.mark.parametrize(
        "scheduler",
        ["qoserve", "medha", "fcfs", "sjf", "srpf", "edf", "conserve",
         "qoserve-oracle", *SCHEDULER_VARIANTS],
    )
    @pytest.mark.parametrize(
        "dataset", [AZURE_CONV, AZURE_CODE], ids=["conv", "code"]
    )
    def test_fingerprint_identical(
        self, execution_model, dataset, scheduler
    ):
        trace = build_trace(dataset, qps=1.0, num_requests=80, seed=7)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 6.0
            results.append(
                run_fast(engine_cls, execution_model, requests, scheduler)
            )
        assert results[0] == results[1]

    def test_heavy_load_exercises_vector_advance(self, execution_model):
        """Arrivals compressed 12x drive the decode batch past the
        small-batch threshold, so the slice-kernel advance path runs."""
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=120, seed=13)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 12.0
            results.append(
                run_fast(engine_cls, execution_model, requests, "qoserve")
            )
        assert results[0] == results[1]

    def test_stepped_run_until(self, execution_model):
        """Gateway-style incremental run(until=...) driving — the
        decode-stretch fast-forward must respect every run bound."""
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=60, seed=11)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 5.0
            sim = Simulator()
            engine = engine_cls(
                sim,
                execution_model,
                make_scheduler("qoserve", execution_model),
                ReplicaConfig(),
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
            results.append(fingerprint(engine, requests))
        assert results[0] == results[1]


class TestTracedParity:
    """Byte-identical event streams, metrics and audit attribution."""

    @pytest.mark.parametrize(
        "dataset,scheduler,num_requests,compress",
        [
            (AZURE_CONV, "qoserve", 60, 6.0),
            (AZURE_CODE, "medha", 60, 6.0),
            # Heavy load: the batch passes the small-batch threshold,
            # so the vector advance runs under the tracing observer.
            (AZURE_CONV, "qoserve", 120, 12.0),
        ],
        ids=["conv-qoserve", "code-medha", "conv-qoserve-12x"],
    )
    def test_events_metrics_attribution(
        self, execution_model, dataset, scheduler, num_requests, compress
    ):
        trace = build_trace(
            dataset, qps=1.0, num_requests=num_requests, seed=3
        )
        events, metrics = [], []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= compress
            ev, m = run_traced(
                engine_cls, execution_model, requests, scheduler
            )
            events.append(ev)
            metrics.append(m)
        assert events[0] == events[1]
        assert metrics[0] == metrics[1]
        assert (
            audit_events(events[0]).to_dict()
            == audit_events(events[1]).to_dict()
        )


def run_mid_flight(engine_cls, execution_model, requests, traced, hooked):
    """Change the decode batch while iterations are in flight.

    At 7 s one row of the running batch is cancelled; at 8 s two
    prefilled handoffs join mid-flight and the first is cancelled at
    once, removing a row behind the running batch.  Returns the run's
    fingerprint, token-hook stream, trace events and the batch sizes
    seen at both points.
    """
    sim = Simulator()
    sink = ListSink()
    observer = (
        TracingObserver(recorder=TraceRecorder([sink])) if traced else None
    )
    engine = engine_cls(
        sim,
        execution_model,
        make_scheduler("qoserve", execution_model),
        ReplicaConfig(),
        observer=observer,
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
    return (
        fingerprint(engine, requests + handoffs),
        tokens,
        sink.events,
        batch_sizes,
    )


class TestMidFlightParity:
    """Cancellations and handoffs that change a running batch: the
    array engine's batch is the stamped row prefix, so a cancel inside
    it must shrink the prefix and a row added behind it must not emit
    a token until the next iteration."""

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hook"])
    @pytest.mark.parametrize(
        "traced", [False, True], ids=["untraced", "traced"]
    )
    def test_cancel_and_handoff_mid_flight(
        self, execution_model, traced, hooked
    ):
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=120, seed=13)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 12.0
            results.append(
                run_mid_flight(
                    engine_cls, execution_model, requests, traced, hooked
                )
            )
        batch_sizes = results[0][3]
        assert len(batch_sizes) == 2 and min(batch_sizes) >= 32
        assert results[0] == results[1]
        fingerprint_, tokens, events, _ = results[0]
        assert bool(tokens) == hooked
        assert bool(events) == traced
        assert sum(1 for row in fingerprint_[:-1] if row[-2]) == 2


class TestFaultParity:
    """Crash + slowdown plan on a resilient pool, both engine cores."""

    def test_resilient_cluster_identical(self, execution_model):
        from functools import partial

        from repro.api import make_scheduler
        from repro.cluster.deployment import ClusterDeployment
        from repro.faults import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
        from repro.metrics.export import summary_to_dict

        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=100, seed=7)
        plan = FaultPlan(events=(
            ReplicaCrash(time=2.0, replica_id=0, recover_after=6.0),
            ReplicaSlowdownFault(
                time=1.0, replica_id=1, factor=1.7, duration=8.0
            ),
        ))
        summaries, prints = [], []
        for engine_cls in ENGINES:
            cluster = ClusterDeployment(
                execution_model,
                partial(make_scheduler, "qoserve", execution_model),
                num_replicas=2,
                fault_plan=plan,
                engine_cls=engine_cls,
            )
            requests = clone(trace.requests)
            for r in requests:
                cluster.submit(r)
            cluster.run(max_events=5_000_000)
            summaries.append(
                (summary_to_dict(cluster.summarize()), cluster.fault_stats())
            )
            prints.append(
                [
                    (
                        r.request_id,
                        r.decoded,
                        r.completion_time,
                        r.cancelled,
                        r.attempts,
                        r.evictions,
                    )
                    for r in requests
                ]
            )
        assert summaries[0] == summaries[1]
        assert prints[0] == prints[1]


class TestFleetParity:
    """Eight least-loaded replicas under faults, untraced.

    Here a replica's decode-stretch bound is almost always another
    replica's event, so nearly every attempt is rejected by the cheap
    bound while a few stretches still fire; both must leave every
    float identical to the object engine.
    """

    def test_fleet_with_faults_identical(self, execution_model):
        from functools import partial

        from repro.api import make_scheduler
        from repro.cluster.deployment import ClusterDeployment
        from repro.faults import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
        from repro.metrics.export import summary_to_dict

        trace = build_trace(AZURE_CONV, qps=8.0, num_requests=300, seed=7)
        plan = FaultPlan(events=(
            ReplicaCrash(time=3.0, replica_id=2, recover_after=5.0),
            ReplicaSlowdownFault(
                time=2.0, replica_id=5, factor=1.6, duration=10.0
            ),
        ))
        summaries, prints = [], []
        for engine_cls in ENGINES:
            cluster = ClusterDeployment(
                execution_model,
                partial(make_scheduler, "qoserve", execution_model),
                num_replicas=8,
                routing="least-loaded",
                fault_plan=plan,
                engine_cls=engine_cls,
            )
            requests = clone(trace.requests)
            for r in requests:
                cluster.submit(r)
            cluster.run(max_events=5_000_000)
            summaries.append(
                (summary_to_dict(cluster.summarize()), cluster.fault_stats())
            )
            prints.append(
                [
                    (
                        r.request_id,
                        r.decoded,
                        r.first_token_time,
                        r.last_token_time,
                        r.completion_time,
                        r.max_tbt,
                        r.tbt_gap_misses,
                        r.tbt_deadline_misses,
                        r.cancelled,
                        r.attempts,
                        r.evictions,
                    )
                    for r in requests
                ]
            )
        assert summaries[0] == summaries[1]
        assert prints[0] == prints[1]
        assert summaries[1][1]["crashes"] == 1
        replicas = cluster.replicas  # the array engine's, run last
        assert sum(e.stretch_rejected_cheap for e in replicas) > 0
        # The full computation at the cheap bound's introduction fired
        # 7 stretches collapsing 3,172 iterations on this fleet.
        assert sum(e.stretch_hits for e in replicas) == 7
        assert sum(e.stretch_iterations for e in replicas) == 3172


class TestStretchTelemetry:
    """The stretch counters, and proof the cheap bound loses no hit."""

    def test_counters_pin_full_computation(self, execution_model):
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=40, seed=3)
        sim = Simulator()
        engine = ArrayReplicaEngine(
            sim,
            execution_model,
            make_scheduler("qoserve", execution_model),
            ReplicaConfig(),
        )
        for r in trace.fresh_copy().scaled_arrivals(2.0):
            engine.submit(r)
        sim.run(max_events=5_000_000)
        assert len(engine.completed) == 40
        # Hits and collapsed iterations of the full NumPy computation
        # without the cheap bound, on this exact run.
        assert engine.stretch_hits == 55
        assert engine.stretch_iterations == 1881
        assert 0 < engine.stretch_rejected_cheap
        assert (
            engine.stretch_rejected_cheap + engine.stretch_hits
            <= engine.stretch_attempts
        )


def run_pressure(engine_cls, requests, scheduler, traced, prefill_only):
    """Serve ``requests`` on a 4,096-token KV cache to drain."""
    model = small_memory_model()
    sim = Simulator()
    sink = ListSink()
    observer = (
        TracingObserver(recorder=TraceRecorder([sink])) if traced else None
    )
    handoffs = []
    engine = engine_cls(
        sim,
        model,
        make_scheduler(scheduler, model),
        ReplicaConfig(prefill_only=prefill_only),
        prefill_sink=(
            (lambda r, now: handoffs.append((r.request_id, now)))
            if prefill_only
            else None
        ),
        observer=observer,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=1_000_000)
    assert not sim.pending_events
    assert prefill_only or all(r.is_finished for r in requests)
    return (
        fingerprint(engine, requests),
        engine.stall_preemptions,
        handoffs,
        sink.events,
    )


class TestPressureParity:
    """Lifecycle paths that only run when KV runs out: decode eviction,
    prefill stall recovery and prefill-only handoff, on engines that
    each build their own small ledger."""

    CASES = {
        # Five 1,800-token prompts at once: decodes outgrow the cache.
        "evict": (
            lambda: [
                Request(
                    request_id=i,
                    arrival_time=0.0,
                    prompt_tokens=1800,
                    decode_tokens=200,
                    qos=Q2_RELAXED,
                )
                for i in range(5)
            ],
            "fcfs",
            False,
        ),
        "stall": (lambda: stall_requests(seed=5), "qoserve-oracle", False),
        "prefill-only": (
            lambda: stall_requests(seed=0, count=12), "fcfs", True
        ),
    }

    @pytest.mark.parametrize(
        "traced", [False, True], ids=["untraced", "traced"]
    )
    @pytest.mark.parametrize("case", list(CASES))
    def test_identical(self, case, traced):
        make_requests, scheduler, prefill_only = self.CASES[case]
        results = [
            run_pressure(
                engine_cls, make_requests(), scheduler, traced, prefill_only
            )
            for engine_cls in ENGINES
        ]
        assert results[0] == results[1]
        fingerprint_, stalls, handoffs, events = results[0]
        decode_evictions = fingerprint_[-1][3]
        if case == "evict":
            assert decode_evictions == 6
        elif case == "stall":
            assert stalls >= 1
        else:
            assert len(handoffs) == 12
        assert bool(events) == traced


class TestRandomizedProperty:
    """Seeded 500-request randomized run: completion order and
    per-request latency attribution totals must agree exactly."""

    def test_500_requests(self, execution_model):
        rng = np.random.default_rng(0xA77A)
        scale = float(rng.uniform(6.0, 10.0))
        low_priority = float(rng.uniform(0.1, 0.4))
        trace = build_trace(
            AZURE_CONV,
            qps=1.0,
            num_requests=500,
            seed=int(rng.integers(1, 1 << 30)),
            low_priority_fraction=low_priority,
        )
        orders, attributions = [], []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= scale
            sim = Simulator()
            sink = ListSink()
            observer = TracingObserver(recorder=TraceRecorder([sink]))
            engine = engine_cls(
                sim,
                execution_model,
                make_scheduler("qoserve", execution_model),
                ReplicaConfig(),
                observer=observer,
            )
            for r in requests:
                engine.submit(r)
            sim.run(max_events=10_000_000)
            orders.append([r.request_id for r in engine.completed])
            report = audit_events(sink.events)
            attributions.append(report.to_dict())
        assert len(orders[0]) == 500
        assert orders[0] == orders[1]
        assert attributions[0] == attributions[1]


class TestLedgerBlockMath:
    """ArrayKVLedger vs KVCacheManager, op for op."""

    @pytest.mark.parametrize("block_size", [1, 16])
    def test_randomized_op_stream(self, block_size):
        rng = np.random.default_rng(block_size)
        capacity = 64 * block_size
        reference = KVCacheManager(capacity, block_size=block_size)
        ledger = ArrayKVLedger(capacity, block_size, _RowStore())
        live: list[int] = []
        next_id = 0
        for _ in range(600):
            op = rng.random()
            if op < 0.55 or not live:
                # Off-by-one-heavy growth sizes straddle block edges.
                extra = int(
                    rng.choice(
                        [
                            0, 1, block_size - 1, block_size,
                            block_size + 1, 2 * block_size - 1, 37,
                        ]
                    )
                )
                rid = (
                    next_id
                    if rng.random() < 0.4
                    else int(rng.choice(live + [next_id]))
                )
                if rid == next_id:
                    next_id += 1
                assert reference.blocks_needed(
                    rid, extra
                ) == ledger.blocks_needed(rid, extra)
                can = reference.can_grow(rid, extra)
                assert can == ledger.can_grow(rid, extra)
                if can:
                    reference.grow(rid, extra)
                    ledger.grow(rid, extra)
                    if rid not in live:
                        live.append(rid)
                else:
                    with pytest.raises(MemoryError):
                        reference.grow(rid, extra)
                    with pytest.raises(MemoryError):
                        ledger.grow(rid, extra)
            else:
                rid = int(rng.choice(live))
                live.remove(rid)
                assert reference.release(rid) == ledger.release(rid)
            assert reference.used_blocks == ledger.used_blocks
            assert reference.free_blocks == ledger.free_blocks
            assert reference.used_tokens == ledger.used_tokens
            assert reference.holders() == ledger.holders()
            assert (
                reference.high_water_blocks == ledger.high_water_blocks
            )
        for rid in list(live):
            assert reference.holding(rid) == ledger.holding(rid)

    def test_error_messages_match(self):
        reference = KVCacheManager(160, block_size=16)
        ledger = ArrayKVLedger(160, 16, _RowStore())
        for kv in (reference, ledger):
            with pytest.raises(ValueError):
                kv.grow(1, -1)
        reference.grow(1, 160)
        ledger.grow(1, 160)
        with pytest.raises(MemoryError) as ref_err:
            reference.grow(2, 16)
        with pytest.raises(MemoryError) as arr_err:
            ledger.grow(2, 16)
        assert str(ref_err.value) == str(arr_err.value)


class TestDecodeSlackParity:
    """The row-backed view's decode slack equals the object sweep bit
    for bit, on both the scalar (< 32 rows) and the vector branch, in
    every clamp regime: blown interactive deadlines and
    non-interactive pace under the floor."""

    @pytest.mark.parametrize("num_rows", [7, 40], ids=["scalar", "vector"])
    def test_matches_object_sweep(self, execution_model, num_rows):
        rng = np.random.default_rng(num_rows)
        engine = ArrayReplicaEngine(
            Simulator(), execution_model,
            make_scheduler("fcfs", execution_model),
        )
        requests = []
        for rid in range(num_rows):
            decode_tokens = int(rng.integers(2, 300))
            request = Request(
                request_id=rid,
                arrival_time=float(rng.uniform(0.0, 50.0)),
                prompt_tokens=int(rng.integers(16, 2048)),
                decode_tokens=decode_tokens,
                qos=DEFAULT_TIERS[rid % 3],
            )
            request.prefill_done = request.prompt_tokens
            request.decoded = int(rng.integers(0, decode_tokens))
            engine._attach_decode(request, request.context_length)
            requests.append(request)
        floor = 0.025
        for now in (0.0, 7.5, 20.0, 599.0, 640.0, 1799.5, 1900.0):
            view = _RowView(engine, now, num_rows)
            assert view.decode_slack(floor) == decode_slack(
                now, requests, floor
            ), now


class TestFlatBatchTime:
    """The flat kernels reproduce batch_time bit for bit."""

    def test_batch_time_flat_matches(self, execution_model):
        rng = np.random.default_rng(99)
        for _ in range(200):
            chunks = [
                (int(rng.integers(1, 512)), int(rng.integers(0, 4096)))
                for _ in range(int(rng.integers(0, 4)))
            ]
            num_decodes = int(rng.integers(0, 64))
            if not chunks and num_decodes == 0:
                num_decodes = 1
            dct = (
                int(rng.integers(num_decodes, num_decodes * 4096))
                if num_decodes
                else 0
            )
            shape = BatchShape(
                prefill_chunks=[
                    PrefillChunk(tokens=t, context_before=c)
                    for t, c in chunks
                ],
                num_decodes=num_decodes,
                decode_context_total=dct,
            )
            assert execution_model.batch_time(
                shape
            ) == execution_model.batch_time_flat(chunks, num_decodes, dct)

    def test_decode_batch_times_flat_matches(self, execution_model):
        rng = np.random.default_rng(7)
        for num_decodes in (1, 3, 48):
            totals = rng.integers(
                num_decodes, num_decodes * 2048, size=40
            ).astype(np.int64)
            flat = execution_model.decode_batch_times_flat(
                num_decodes, totals
            )
            for i, dct in enumerate(totals):
                shape = BatchShape(
                    num_decodes=num_decodes,
                    decode_context_total=int(dct),
                )
                assert flat[i] == execution_model.batch_time(shape)


class TestEngineSwitch:
    """ServeConfig/Session threading of the engine choice."""

    def test_resolve(self):
        from repro.api import resolve_engine_cls

        assert resolve_engine_cls("objects") is ReplicaEngine
        assert resolve_engine_cls("arrays") is ArrayReplicaEngine
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine_cls("turbo")

    def test_serve_config_validation(self):
        from repro.api import ServeConfig

        with pytest.raises(ValueError, match="unknown engine"):
            ServeConfig(engine="turbo")

    def test_session_builds_chosen_engine(self):
        from repro.api import ServeConfig, Session

        single = Session(ServeConfig(engine="arrays"))
        assert type(single.engines[0]) is ArrayReplicaEngine
        pool = Session(ServeConfig(engine="arrays", num_replicas=3))
        assert all(
            type(e) is ArrayReplicaEngine for e in pool.engines
        )
        default = Session(ServeConfig())
        assert type(default.engines[0]) is ReplicaEngine

    def test_session_summary_parity(self):
        import json

        from repro.api import ServeConfig, Session, build_trace
        from repro.metrics.export import summary_to_dict

        rendered = []
        for engine in ("arrays", "objects"):
            session = Session(
                ServeConfig(
                    engine=engine, scheduler="qoserve", num_replicas=2
                )
            )
            trace = build_trace(
                "AzConv", qps=1.0, num_requests=40, seed=7
            ).scaled_arrivals(3.0)
            for r in trace:
                session.submit(r)
            session.advance()
            rendered.append(
                json.dumps(
                    summary_to_dict(session.summary()), sort_keys=True
                )
            )
        assert rendered[0] == rendered[1]
