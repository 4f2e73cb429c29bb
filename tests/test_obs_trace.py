"""Unit tests for trace events, sinks, the recorder and the schema."""

import dataclasses
import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    ChunkSized,
    IterationScheduled,
    RequestCompleted,
    SpanEnd,
    SpanStart,
    TraceSchemaError,
    validate_event,
)
from repro.obs.trace import (
    JSONLSink,
    ListSink,
    RingSink,
    TraceRecorder,
    read_jsonl_trace,
)


def iteration_event(ts=1.0, replica=0):
    return IterationScheduled(
        ts=ts, replica_id=replica, iteration=3, dur=0.05,
        prefill_tokens=256, num_prefills=1, num_decodes=4,
        decode_context_tokens=900, prefill_request_ids=(7,),
    )


class TestEvents:
    def test_to_dict_is_flat_and_typed(self):
        payload = iteration_event().to_dict()
        assert payload["kind"] == "iteration_scheduled"
        assert payload["ts"] == 1.0
        assert payload["prefill_request_ids"] == [7]
        # Round-trips through json without custom encoders.
        assert json.loads(json.dumps(payload)) == payload

    def test_compiled_init_keeps_dataclass_semantics(self):
        event = iteration_event()
        positional = IterationScheduled(
            1.0, 0, 3, 0.05, 256, 1, 4, 900, (7,)
        )
        assert positional == event
        assert hash(positional) == hash(event)
        assert event.queue_depth == -1  # default applied
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.ts = 2.0
        assert dataclasses.replace(event, ts=2.0).ts == 2.0
        with pytest.raises(TypeError):
            IterationScheduled(ts=1.0)

    def test_to_dict_key_order_follows_fields(self):
        for event in (
            iteration_event(),
            SpanStart(ts=1.0, name="queue", request_id=4),
            SpanEnd(ts=2.0, name="queue", request_id=4, tier="Q1"),
        ):
            names = [field.name for field in dataclasses.fields(event)]
            assert list(event.to_dict()) == ["kind", *names]

    def test_non_finite_floats_become_null(self):
        event = ChunkSized(
            ts=0.0, chunk_budget=2500,
            latency_budget=float("inf"),
            predicted_latency=0.1, num_decodes=0,
        )
        assert event.to_dict()["latency_budget"] is None

    def test_every_kind_validates_its_own_serialization(self):
        samples = {
            "iteration_scheduled": iteration_event(),
            "chunk_sized": ChunkSized(
                ts=0.0, chunk_budget=32, latency_budget=0.02,
                predicted_latency=0.018, num_decodes=9,
            ),
            "request_completed": RequestCompleted(
                ts=9.0, replica_id=0, request_id=1, tier="Q1",
                arrival_time=0.5, scheduled_first_time=0.6,
                first_token_time=0.9, completion_time=9.0,
                relegated=False, violated=False, evictions=0,
            ),
        }
        for kind, event in samples.items():
            assert EVENT_TYPES[kind] is type(event)
            validate_event(event.to_dict())  # must not raise


class TestValidateEvent:
    def test_unknown_kind(self):
        with pytest.raises(TraceSchemaError, match="unknown event kind"):
            validate_event({"kind": "bogus", "ts": 0.0})

    def test_missing_field(self):
        payload = iteration_event().to_dict()
        del payload["dur"]
        with pytest.raises(TraceSchemaError, match="missing"):
            validate_event(payload)

    def test_extra_field(self):
        payload = iteration_event().to_dict()
        payload["surprise"] = 1
        with pytest.raises(TraceSchemaError, match="unexpected"):
            validate_event(payload)

    def test_wrong_type(self):
        payload = iteration_event().to_dict()
        payload["prefill_tokens"] = "lots"
        with pytest.raises(TraceSchemaError, match="expected"):
            validate_event(payload)

    def test_bool_is_not_an_int(self):
        payload = iteration_event().to_dict()
        payload["prefill_tokens"] = True
        with pytest.raises(TraceSchemaError, match="bool"):
            validate_event(payload)

    def test_non_finite_float_rejected(self):
        payload = iteration_event().to_dict()
        payload["dur"] = float("inf")
        with pytest.raises(TraceSchemaError, match="non-finite"):
            validate_event(payload)


class TestRingSink:
    def test_bounded_memory_and_drop_count(self):
        ring = RingSink(capacity=3)
        for i in range(5):
            ring.append(iteration_event(ts=float(i)))
        assert [e["ts"] for e in ring.events] == [2.0, 3.0, 4.0]
        assert ring.dropped == 2
        assert ring.appended == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingSink(capacity=0)

    def test_on_drop_callback_fires_per_shed_event(self):
        drops = []
        ring = RingSink(capacity=2, on_drop=lambda: drops.append(1))
        for i in range(5):
            ring.append(iteration_event(ts=float(i)))
        assert len(drops) == 3
        assert ring.dropped == 3


class TestSchemaEvolution:
    def test_v1_payload_without_defaulted_fields_validates(self):
        """Fields added in schema v2 carry defaults; a v1 trace that
        lacks them must still validate (old traces stay valid)."""
        payload = iteration_event().to_dict()
        del payload["queue_depth"]  # v2 addition
        validate_event(payload)  # must not raise

        completed = RequestCompleted(
            ts=9.0, replica_id=0, request_id=1, tier="Q1",
            arrival_time=0.5, scheduled_first_time=0.6,
            first_token_time=0.9, completion_time=9.0,
            relegated=False, violated=False, evictions=0,
        ).to_dict()
        del completed["qos_class"]  # v2 addition
        validate_event(completed)  # must not raise

    def test_missing_required_field_still_rejected(self):
        payload = iteration_event().to_dict()
        del payload["dur"]  # no default: required in every version
        with pytest.raises(TraceSchemaError, match="missing"):
            validate_event(payload)

    def test_relegation_served_round_trips(self):
        from repro.obs.events import RelegationServed

        event = RelegationServed(
            ts=4.0, replica_id=1, request_id=9, tier="Q3",
            tokens=256, waited=1.5,
        )
        payload = event.to_dict()
        assert payload["kind"] == "relegation_served"
        validate_event(payload)  # registered in EVENT_TYPES


class TestJSONLSink:
    def test_one_compact_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JSONLSink(path) as sink:
            sink.append(iteration_event(ts=1.0))
            sink.append(iteration_event(ts=2.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert " " not in lines[0]  # compact separators
        assert json.loads(lines[1]) == iteration_event(ts=2.0).to_dict()


class TestTraceRecorder:
    def test_fans_out_to_all_sinks_and_counts_kinds(self):
        a, b = ListSink(), ListSink()
        recorder = TraceRecorder([a, b])
        recorder.emit(iteration_event())
        recorder.emit(iteration_event(ts=2.0))
        assert len(a.events) == 2
        assert a.events == b.events
        assert recorder.counts["iteration_scheduled"] == 2
        assert recorder.total_events == 2

    def test_close_closes_sinks(self, tmp_path):
        sink = JSONLSink(tmp_path / "t.jsonl")
        recorder = TraceRecorder([sink])
        recorder.emit(iteration_event())
        recorder.close()
        assert sink._file.closed


class TestReadJsonlTrace:
    def test_round_trip_with_validation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JSONLSink(path) as sink:
            TraceRecorder([sink]).emit(iteration_event())
        events = read_jsonl_trace(path, validate=True)
        assert len(events) == 1
        assert events[0]["kind"] == "iteration_scheduled"

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl_trace(path)

    def test_schema_violation_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "bogus", "ts": 0.0}\n')
        with pytest.raises(TraceSchemaError, match=":1:"):
            read_jsonl_trace(path, validate=True)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"kind": "x"}\n\n')
        assert len(read_jsonl_trace(path)) == 1


class TestLazySinks:
    """Buffering sinks hold events and serialize on read; the result
    must equal what a writing sink serialized on append."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        from repro.api import ServeConfig, build_trace, simulate
        from repro.obs.observer import TracingObserver
        from repro.workload.datasets import AZURE_CODE

        path = tmp_path_factory.mktemp("lazy") / "t.jsonl"
        sinks = {
            "big": RingSink(capacity=1_000_000),
            "small": RingSink(capacity=50),
            "list": ListSink(),
            "jsonl": JSONLSink(path),
        }
        observer = TracingObserver(TraceRecorder(sinks.values()))
        simulate(
            config=ServeConfig(num_replicas=2, routing="round-robin"),
            trace=build_trace(AZURE_CODE, qps=8.0, num_requests=40, seed=3),
            observer=observer,
        )
        observer.close()
        return sinks, observer, read_jsonl_trace(path, validate=True)

    def test_ring_list_and_jsonl_agree(self, run):
        sinks, observer, written = run
        assert len(written) == observer.recorder.total_events > 50
        assert sinks["big"].events == written
        assert sinks["list"].events == written
        assert sinks["big"].dropped == 0

    def test_small_ring_returns_exactly_the_last_n(self, run):
        sinks, _, written = run
        assert sinks["small"].events == written[-50:]
        assert sinks["small"].dropped == len(written) - 50

    def test_dropped_counter_matches_the_ring(self, run):
        sinks, observer, _ = run
        [series] = observer.registry.to_dict()[
            "repro_trace_events_dropped_total"
        ]["series"]
        assert series["value"] == sinks["small"].dropped

    def test_each_read_returns_fresh_dicts(self, run):
        sinks, _, _ = run
        for sink in (sinks["small"], sinks["list"]):
            first, second = sink.events, sink.events
            assert first == second
            assert all(a is not b for a, b in zip(first, second))
            for event in first:
                event["ts"] = -1.0
                if "prefill_request_ids" in event:
                    event["prefill_request_ids"].append(-1)
            assert sink.events == second

    def test_events_a_ring_sheds_are_never_serialized(self, monkeypatch):
        from repro.obs.events import TraceEvent

        calls = []
        original = TraceEvent.to_dict
        monkeypatch.setattr(
            TraceEvent, "to_dict",
            lambda self: calls.append(self) or original(self),
        )
        ring = RingSink(capacity=3)
        recorder = TraceRecorder([ring])
        for i in range(10):
            recorder.emit(iteration_event(ts=float(i)))
        assert calls == []
        assert [e["ts"] for e in ring.events] == [7.0, 8.0, 9.0]
        assert len(calls) == 3
