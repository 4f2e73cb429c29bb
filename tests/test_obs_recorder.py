"""Unit tests for the SLO flight recorder (repro.obs.recorder)."""

import json

import pytest

from repro.api import build_trace, make_scheduler
from repro.experiments.configs import get_execution_model
from repro.obs import (
    FlightRecorder,
    TraceRecorder,
    TracingObserver,
    read_incidents,
    record_incidents,
)
from repro.workload.datasets import AZURE_CODE
from tests.test_obs_audit import completed, iteration
from tests.conftest import drain_trace


def noise(ts):
    """A filler event that never triggers anything."""
    return iteration(ts, 0.1, prefill_ids=[])


class TestDeadlineTrigger:
    def test_violation_opens_an_incident(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = FlightRecorder(path, post_context=0)
        recorder.append_payload(noise(0.5))
        recorder.append_payload(iteration(1.0, 0.5, prefill_ids=[7]))
        recorder.append_payload(completed(
            request_id=7, arrival=0.0, scheduled=1.0, first_token=1.5,
            completion=2.0, violated=True,
        ))
        recorder.close()
        [incident] = read_incidents(path)
        assert incident["trigger"] == "deadline_violation"
        assert incident["request_id"] == 7
        assert incident["tier"] == "Q1"
        assert incident["ts"] == 2.0
        # Pre-context is the whole ring, trigger event included.
        assert incident["num_events"] == 3
        assert incident["events"][0]["kind"] == "iteration_scheduled"
        assert recorder.triggered == 1
        assert recorder.incidents_written == 1

    def test_dominant_cause_comes_from_the_auditor(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        record_incidents([
            iteration(1.0, 0.2, prefill_ids=[1]),
            iteration(4.0, 0.2, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=4.2,
                      completion=4.5, violated=True),
        ], path)
        [incident] = read_incidents(path)
        assert incident["dominant_cause"] == "chunk_stall"

    def test_post_context_extends_the_window(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = FlightRecorder(path, post_context=2)
        recorder.append_payload(completed(violated=True))
        assert recorder.incidents_written == 0  # still collecting
        recorder.append_payload(noise(3.1))
        recorder.append_payload(noise(3.2))
        assert recorder.incidents_written == 1  # sealed by the 2nd
        recorder.append_payload(noise(3.3))  # after the seal: not included
        recorder.close()
        [incident] = read_incidents(path)
        assert incident["num_events"] == 3
        assert incident["events"][-1]["ts"] == 3.2

    def test_close_seals_open_incidents_early(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = FlightRecorder(path, post_context=100)
        recorder.append_payload(completed(violated=True))
        recorder.append_payload(noise(3.5))
        recorder.close()
        [incident] = read_incidents(path)
        assert incident["num_events"] == 2

    def test_ring_capacity_bounds_pre_context(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = FlightRecorder(path, capacity=3, post_context=0)
        for i in range(10):
            recorder.append_payload(noise(float(i)))
        recorder.append_payload(completed(violated=True))
        recorder.close()
        [incident] = read_incidents(path)
        assert incident["num_events"] == 3


class TestBurnRateTrigger:
    def _recorder(self, path, **kwargs):
        defaults = dict(
            post_context=0,
            burn_window=10.0,
            slo_budget=0.25,
            burn_threshold=1.0,
            min_window_total=3,
        )
        defaults.update(kwargs)
        return FlightRecorder(path, **defaults)

    def test_window_trips_once(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = self._recorder(path)
        # Window [0, 10): 1 violation out of 3 = 1.33x the 25% budget.
        recorder.append_payload(completed(request_id=1, completion=1.0))
        recorder.append_payload(completed(
            request_id=2, completion=2.0, violated=True,
        ))
        recorder.append_payload(completed(request_id=3, completion=3.0))
        recorder.append_payload(completed(request_id=4, completion=4.0))
        recorder.close()
        burn = [
            i for i in read_incidents(path)
            if i["trigger"] == "burn_rate"
        ]
        [incident] = burn  # the 4th completion must not re-trip
        assert incident["ts"] == 3.0
        assert incident["window_start"] == 0.0
        assert incident["window_end"] == 10.0
        assert incident["burn_rate"] == pytest.approx((1 / 3) / 0.25)
        assert incident["dominant_cause"] is not None

    def test_under_threshold_never_trips(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = self._recorder(path, slo_budget=0.9)
        recorder.append_payload(completed(
            request_id=1, completion=1.0, violated=True,
        ))
        recorder.append_payload(completed(request_id=2, completion=2.0))
        recorder.append_payload(completed(request_id=3, completion=3.0))
        recorder.close()
        assert not any(
            i["trigger"] == "burn_rate" for i in read_incidents(path)
        )

    def test_min_window_total_gates_early_windows(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = self._recorder(path, min_window_total=50)
        recorder.append_payload(completed(completion=1.0, violated=True))
        recorder.close()
        kinds = [i["trigger"] for i in read_incidents(path)]
        assert kinds == ["deadline_violation"]


class TestBehaviour:
    def test_no_incidents_no_file(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        count = record_incidents([noise(1.0), completed()], path)
        assert count == 0
        assert not path.exists()

    def test_max_incidents_caps_writes_not_counting(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        recorder = FlightRecorder(
            path, post_context=0, max_incidents=1
        )
        for i in range(3):
            recorder.append_payload(completed(
                request_id=i, completion=float(i + 1), violated=True,
            ))
        recorder.close()
        assert recorder.triggered == 3
        assert recorder.incidents_written == 1
        assert len(read_incidents(path)) == 1

    def test_deterministic_incident_files(self, tmp_path):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=1.5, completion=2.0,
                      violated=True),
            noise(2.5),
        ]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert record_incidents(events, first) == 1
        assert record_incidents(events, second) == 1
        assert first.read_bytes() == second.read_bytes()

    def test_parameter_validation(self, tmp_path):
        path = tmp_path / "x.jsonl"
        with pytest.raises(ValueError):
            FlightRecorder(path, capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(path, post_context=-1)
        with pytest.raises(ValueError):
            FlightRecorder(path, burn_threshold=0.0)

    def test_read_incidents_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trigger": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_incidents(path)


class TestEndToEnd:
    def test_overloaded_run_records_incidents(self, tmp_path):
        """An fcfs overload run must leave a readable incident file
        whose windows replay through the span builder."""
        from repro.obs import build_span_trees

        path = tmp_path / "incidents.jsonl"
        execution_model = get_execution_model("llama3-8b")
        trace = build_trace(
            AZURE_CODE, qps=1.0, num_requests=80, seed=11
        ).scaled_arrivals(8.0)
        flight = FlightRecorder(path, capacity=512, post_context=32)
        observer = TracingObserver(TraceRecorder([flight]))
        scheduler = make_scheduler("fcfs", execution_model)
        summary, _ = drain_trace(
            execution_model, scheduler, trace, observer=observer
        )
        flight.close()
        assert flight.incidents_written > 0
        incidents = read_incidents(path)
        assert len(incidents) == flight.incidents_written
        for incident in incidents:
            assert incident["trigger"] in {
                "deadline_violation", "burn_rate",
            }
            assert incident["num_events"] > 0
            json.dumps(incident)  # strict JSON all the way down
        # The incident window is a valid trace fragment.
        deadline = next(
            i for i in incidents
            if i["trigger"] == "deadline_violation"
        )
        trees = build_span_trees(deadline["events"])
        assert any(
            t.request_id == deadline["request_id"] for t in trees
        )
