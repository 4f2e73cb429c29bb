"""Observer integration tests: tracing, metrics, determinism, timing.

The load-bearing guarantee of :mod:`repro.obs` is that attaching an
observer never changes scheduling behaviour.  The determinism test
pins it: the same workload produces a byte-identical summary with
tracing on and off.
"""

import json


from repro.api import build_trace, make_scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.metrics.export import summary_to_dict
from repro.obs.observer import (
    NULL_OBSERVER,
    Observer,
    TracingObserver,
    default_observer,
    get_default_observer,
    set_default_observer,
)
from repro.obs.trace import ListSink, TraceRecorder
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE
from tests.conftest import Q1, drain_trace, make_request


def run_engine(execution_model, observer=None, num_requests=12):
    trace = build_trace(
        AZURE_CODE, qps=6.0, num_requests=num_requests, seed=11
    )
    scheduler = make_scheduler("qoserve-oracle", execution_model)
    return drain_trace(
        execution_model, scheduler, trace, observer=observer
    )


class TestTracingObserver:
    def test_records_iterations_and_completions(self, execution_model):
        sink = ListSink()
        observer = TracingObserver(recorder=TraceRecorder([sink]))
        summary, _ = run_engine(execution_model, observer=observer)
        kinds = {e["kind"] for e in sink.events}
        assert "iteration_scheduled" in kinds
        assert "chunk_sized" in kinds
        assert "request_completed" in kinds
        assert "kv_cache_snapshot" in kinds
        completed = [
            e for e in sink.events if e["kind"] == "request_completed"
        ]
        assert len(completed) == summary.finished

    def test_metrics_registry_agrees_with_summary(self, execution_model):
        observer = TracingObserver()
        summary, engine = run_engine(execution_model, observer=observer)
        reg = observer.registry
        families = reg.to_dict()
        iters = sum(
            s["value"]
            for s in families["repro_iterations_total"]["series"]
        )
        assert iters == engine.iterations_run
        done = sum(
            s["value"]
            for s in families["repro_requests_completed_total"]["series"]
        )
        assert done == summary.finished


class TestDeterminism:
    def test_summary_identical_with_and_without_observer(
        self, execution_model
    ):
        """Tracing must be a pure read: byte-identical RunSummary."""
        observer = TracingObserver(recorder=TraceRecorder([ListSink()]))
        baseline, _ = run_engine(execution_model, observer=None)
        traced, _ = run_engine(execution_model, observer=observer)
        assert observer.recorder.total_events > 0  # it really recorded
        blob = lambda s: json.dumps(summary_to_dict(s), sort_keys=True)
        assert blob(baseline) == blob(traced)

    def test_summary_identical_under_default_observer(
        self, execution_model
    ):
        """The CLI's process-global path is equally side-effect-free."""
        baseline, _ = run_engine(execution_model)
        observer = TracingObserver(recorder=TraceRecorder([ListSink()]))
        with default_observer(observer):
            traced, _ = run_engine(execution_model)
        assert observer.recorder.total_events > 0
        blob = lambda s: json.dumps(summary_to_dict(s), sort_keys=True)
        assert blob(baseline) == blob(traced)


class TestDefaultObserver:
    def test_default_is_null_observer(self):
        assert get_default_observer() is NULL_OBSERVER

    def test_set_and_restore(self):
        mine = Observer()
        previous = set_default_observer(mine)
        try:
            assert get_default_observer() is mine
        finally:
            set_default_observer(previous)
        assert get_default_observer() is NULL_OBSERVER

    def test_engine_adopts_default(self, execution_model):
        mine = TracingObserver(recorder=TraceRecorder([ListSink()]))
        with default_observer(mine):
            engine = ReplicaEngine(
                Simulator(),
                execution_model,
                make_scheduler("fcfs", execution_model),
                ReplicaConfig(),
            )
        assert engine.observer is mine

    def test_explicit_observer_wins_over_default(self, execution_model):
        mine = TracingObserver(recorder=TraceRecorder([ListSink()]))
        explicit = Observer()
        with default_observer(mine):
            engine = ReplicaEngine(
                Simulator(),
                execution_model,
                make_scheduler("fcfs", execution_model),
                ReplicaConfig(),
                observer=explicit,
            )
        assert engine.observer is explicit


class TestSchedulerStats:
    def test_populated_without_any_observer(self, execution_model):
        summary, engine = run_engine(execution_model)
        stats = summary.scheduler_stats
        assert stats["iterations"] == engine.iterations_run
        assert stats["preemptions"] == engine.stall_preemptions
        assert stats["decode_evictions"] == engine.decode_evictions
        assert 0.0 < stats["kv_high_water_utilization"] <= 1.0
        hist = stats["chunk_size_histogram"]
        assert sum(hist.values()) == sum(
            engine.chunk_tokens_hist.values()
        )
        assert sum(hist.values()) > 0

    def test_exported_in_summary_dict(self, execution_model):
        summary, _ = run_engine(execution_model)
        flat = summary_to_dict(summary)
        assert "scheduler_stats" in flat
        assert json.dumps(flat)  # strictly JSON-serializable

    def test_relegations_counted_by_tier(self):
        # Synthetic check: the stats helper only reads request flags.
        from repro.api import engine_scheduler_stats

        class FakeKV:
            high_water_utilization = 0.5

        class FakeEngine:
            stall_preemptions = 1
            decode_evictions = 2
            iterations_run = 3
            kv_cache = FakeKV()
            from collections import Counter
            chunk_tokens_hist = Counter({128: 2})

            def __init__(self, requests):
                self.submitted = requests

        r1 = make_request(request_id=1, qos=Q1)
        r2 = make_request(request_id=2, qos=Q1)
        r1.relegated = True
        r2.relegated = True
        stats = engine_scheduler_stats(FakeEngine([r1, r2]))
        assert stats["relegations_by_tier"] == {Q1.name: 2}
        assert stats["relegations_total"] == 2


class TestMultiObserver:
    def test_fans_out_every_hook(self, execution_model):
        from repro.obs.observer import MultiObserver

        sink_a, sink_b = ListSink(), ListSink()
        multi = MultiObserver([
            TracingObserver(recorder=TraceRecorder([sink_a])),
            TracingObserver(recorder=TraceRecorder([sink_b])),
        ])
        run_engine(execution_model, observer=multi)
        assert sink_a.events  # both children saw the full stream
        assert sink_a.events == sink_b.events

    def test_preserves_determinism_pin(self, execution_model):
        from repro.obs.observer import MultiObserver

        baseline, _ = run_engine(execution_model)
        multi = MultiObserver([TracingObserver(), NULL_OBSERVER])
        observed, _ = run_engine(execution_model, observer=multi)
        assert json.dumps(
            summary_to_dict(baseline), sort_keys=True
        ) == json.dumps(summary_to_dict(observed), sort_keys=True)


class TestDroppedEventsCounter:
    def test_ring_overflow_counted_as_metric(self, execution_model):
        from repro.obs.trace import RingSink

        ring = RingSink(capacity=8)  # tiny: guaranteed overflow
        observer = TracingObserver(recorder=TraceRecorder([ring]))
        run_engine(execution_model, observer=observer)
        entry = observer.registry.to_dict()[
            "repro_trace_events_dropped_total"
        ]
        [series] = entry["series"]
        assert series["value"] == ring.dropped > 0


class TestRelegationServedEvent:
    def test_emitted_once_per_relegated_request(self, execution_model):
        # Relegation needs the EDF base (hybrid prioritization masks
        # it) and real overload; qps 12 demotes a handful of requests.
        from repro.schedulers.qoserve import make_ablation_config

        sink = ListSink()
        observer = TracingObserver(recorder=TraceRecorder([sink]))
        trace = build_trace(
            AZURE_CODE, qps=1.0, num_requests=150, seed=5
        ).scaled_arrivals(12.0)
        config = make_ablation_config(
            dynamic_chunking=True, eager_relegation=True
        )
        scheduler = make_scheduler(
            "qoserve", execution_model, qoserve_config=config
        )
        summary, _ = drain_trace(
            execution_model, scheduler, trace, observer=observer
        )
        assert summary.scheduler_stats["relegations_total"] > 0, (
            "workload must actually trigger relegation"
        )
        relegated = {
            e["request_id"] for e in sink.events
            if e["kind"] == "relegated"
        }
        served = [
            e for e in sink.events if e["kind"] == "relegation_served"
        ]
        served_ids = {e["request_id"] for e in served}
        assert served_ids, "no relegated request was ever served"
        assert len(served) == len(served_ids), "must emit at most once"
        assert served_ids <= relegated
        for event in served:
            assert event["waited"] >= 0.0
