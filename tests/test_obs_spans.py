"""Unit tests for request-scoped span trees (repro.obs.spans)."""

import json

import pytest

from repro.api import build_trace, make_scheduler
from repro.experiments.configs import get_execution_model
from repro.metrics.export import summary_to_dict
from repro.obs import (
    ListSink,
    TraceRecorder,
    TracingObserver,
    audit_events,
    build_span_trees,
    conservation_error,
    phase_durations,
    reconciliation_error,
    spans_to_chrome,
    spans_to_otlp,
    write_spans,
)
from repro.obs.audit import CONSERVATION_TOL
from repro.workload.datasets import AZURE_CODE
from tests.test_obs_audit import completed, iteration
from tests.conftest import drain_trace

#: The tentpole bound: span trees must reconcile with the auditor's
#: attribution to within 1e-9 (in practice they are bit-identical).
RECONCILIATION_TOL = 1e-9


def span_marker(kind, name, ts, request_id=1, replica_id=0, tier="Q1"):
    return {
        "kind": kind,
        "ts": ts,
        "name": name,
        "request_id": request_id,
        "replica_id": replica_id,
        "tier": tier,
    }


class TestTreeConstruction:
    def test_root_covers_request_lifetime(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=1.5,
                      completion=2.0),
        ]
        [root] = build_span_trees(events)
        assert root.category == "request"
        assert root.start == 0.0
        assert root.end == 2.0
        assert root.tier == "Q1"
        assert root.attrs["violated"] is False

    def test_phase_children_tile_the_root(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=1.5,
                      completion=2.0),
        ]
        [root] = build_span_trees(events)
        phases = [c for c in root.children if c.category == "phase"]
        assert [p.name for p in phases] == [
            "admission_queue", "prefill_compute", "decode",
        ]
        assert conservation_error(root) <= CONSERVATION_TOL
        # Consecutive phase segments share boundaries exactly.
        for prev, nxt in zip(phases, phases[1:]):
            assert prev.end == nxt.start

    def test_phase_durations_match_audit_exactly(self):
        events = [
            iteration(1.0, 0.2, prefill_ids=[1]),
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=2.2, completion=2.5),
        ]
        [audit] = audit_events(events).requests
        [root] = build_span_trees(events)
        durations = phase_durations(root)
        for name, seconds in audit.phases.items():
            if seconds:
                assert durations[name] == seconds  # bit-identical
        assert reconciliation_error(root, audit) == 0.0

    def test_chunk_children_under_prefill(self):
        events = [
            iteration(1.0, 0.2, prefill_ids=[1]),
            iteration(2.0, 0.2, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=2.2, completion=2.5),
        ]
        [root] = build_span_trees(events)
        chunks = [
            s for s in root.walk() if s.category == "chunk"
        ]
        assert len(chunks) == 2
        for chunk in chunks:
            assert chunk.attrs["replica_id"] == 0
            parents = [
                p for p in root.walk()
                if chunk in p.children
            ]
            assert [p.name for p in parents] == ["prefill_compute"]
            assert parents[0].start <= chunk.start <= chunk.end
            assert chunk.end <= parents[0].end

    def test_lifecycle_overlay_from_markers(self):
        events = [
            span_marker("span_start", "queue", 0.2),
            span_marker("span_start", "prefill", 1.0),
            span_marker("span_end", "queue", 1.0),
            iteration(1.0, 0.5, prefill_ids=[1]),
            span_marker("span_end", "prefill", 1.5),
            completed(arrival=0.0, scheduled=1.0, first_token=1.5,
                      completion=2.0),
        ]
        [root] = build_span_trees(events)
        lifecycle = {
            s.name: s for s in root.children if s.category == "lifecycle"
        }
        assert lifecycle["queue"].start == 0.2
        assert lifecycle["queue"].end == 1.0
        assert lifecycle["prefill"].duration == pytest.approx(0.5)
        # The overlay never affects the conservation invariant.
        assert conservation_error(root) <= CONSERVATION_TOL

    def test_unmatched_start_closes_at_completion(self):
        events = [
            span_marker("span_start", "decode", 1.5),
            completed(scheduled=1.0, first_token=1.5, completion=2.0),
        ]
        [root] = build_span_trees(events)
        [decode] = [
            s for s in root.children if s.category == "lifecycle"
        ]
        assert decode.end == 2.0

    def test_pre_v4_trace_has_no_lifecycle_children(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=1.5, completion=2.0),
        ]
        [root] = build_span_trees(events)
        assert not any(
            s.category == "lifecycle" for s in root.walk()
        )

    def test_trees_sorted_by_arrival(self):
        events = [
            completed(request_id=2, arrival=5.0, scheduled=6.0,
                      first_token=6.5, completion=7.0),
            completed(request_id=1, arrival=0.0, scheduled=1.0,
                      first_token=1.5, completion=2.0),
        ]
        trees = build_span_trees(events)
        assert [t.request_id for t in trees] == [1, 2]

    def test_walk_is_depth_first_self_first(self):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=1.5, completion=2.0),
        ]
        [root] = build_span_trees(events)
        order = [s.category for s in root.walk()]
        assert order[0] == "request"
        assert order.index("chunk") == order.index("phase") + 2


class TestExports:
    @pytest.fixture()
    def trees(self):
        events = [
            span_marker("span_start", "queue", 0.2),
            span_marker("span_end", "queue", 1.0),
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(arrival=0.0, scheduled=1.0, first_token=1.5,
                      completion=2.0),
        ]
        return build_span_trees(events)

    def test_otlp_shape_and_parent_links(self, trees):
        doc = spans_to_otlp(trees)
        [resource] = doc["resourceSpans"]
        [scope] = resource["scopeSpans"]
        spans = scope["spans"]
        assert len(spans) == sum(1 for t in trees for _ in t.walk())
        by_id = {s["spanId"]: s for s in spans}
        roots = [s for s in spans if not s["parentSpanId"]]
        assert len(roots) == len(trees)
        for span in spans:
            assert span["traceId"] == f"{1:032x}"
            if span["parentSpanId"]:
                parent = by_id[span["parentSpanId"]]
                assert int(parent["startTimeUnixNano"]) <= int(
                    span["startTimeUnixNano"]
                )

    def test_otlp_times_are_unix_nano_strings(self, trees):
        doc = spans_to_otlp(trees)
        span = doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert span["startTimeUnixNano"] == "0"
        assert span["endTimeUnixNano"] == str(int(2.0 * 1e9))

    def test_otlp_deterministic(self, trees):
        first = json.dumps(spans_to_otlp(trees), sort_keys=True)
        second = json.dumps(spans_to_otlp(trees), sort_keys=True)
        assert first == second

    def test_chrome_shape(self, trees):
        doc = spans_to_chrome(trees)
        events = doc["traceEvents"]
        phs = [e["ph"] for e in events]
        assert "M" in phs and "X" in phs
        assert phs.count("s") == phs.count("f")
        # Flow arrows chain consecutive phases.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        for s, f in zip(starts, finishes):
            assert s["id"] == f["id"]
            assert s["ts"] <= f["ts"]

    def test_write_spans_roundtrip(self, trees, tmp_path):
        events = [
            iteration(1.0, 0.5, prefill_ids=[1]),
            completed(scheduled=1.0, first_token=1.5, completion=2.0),
        ]
        otlp_path = tmp_path / "spans.json"
        chrome_path = tmp_path / "spans.chrome.json"
        assert write_spans(events, otlp_path) == 1
        assert write_spans(events, chrome_path, fmt="chrome") == 1
        assert "resourceSpans" in json.loads(otlp_path.read_text())
        assert "traceEvents" in json.loads(chrome_path.read_text())

    def test_write_spans_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_spans([], tmp_path / "x.json", fmt="protobuf")


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def smoke(self):
        """A fig05-sized overload run with live span emission."""
        execution_model = get_execution_model("llama3-8b")
        trace = build_trace(
            AZURE_CODE, qps=1.0, num_requests=80, seed=11
        ).scaled_arrivals(8.0)
        sink = ListSink()
        observer = TracingObserver(TraceRecorder([sink]))
        scheduler = make_scheduler("fcfs", execution_model)
        summary, _ = drain_trace(
            execution_model, scheduler, trace, observer=observer
        )
        return summary, trace, sink.events

    def test_span_markers_emitted(self, smoke):
        _, _, events = smoke
        starts = [e for e in events if e["kind"] == "span_start"]
        ends = [e for e in events if e["kind"] == "span_end"]
        assert {e["name"] for e in starts} == {
            "queue", "prefill", "decode",
        }
        assert len(starts) == len(ends)
        for event in starts + ends:
            assert event["tier"] in {"Q1", "Q2", "Q3"}

    def test_reconciliation_bound(self, smoke):
        _, _, events = smoke
        report = audit_events(events)
        audits = {a.request_id: a for a in report.requests}
        trees = build_span_trees(events)
        assert len(trees) == len(audits)
        worst = max(
            reconciliation_error(tree, audits[tree.request_id])
            for tree in trees
        )
        assert worst <= RECONCILIATION_TOL
        assert max(
            conservation_error(tree) for tree in trees
        ) <= CONSERVATION_TOL

    def test_every_tree_has_live_lifecycle_overlay(self, smoke):
        _, _, events = smoke
        trees = build_span_trees(events)
        for tree in trees:
            stages = {
                s.name for s in tree.children
                if s.category == "lifecycle"
            }
            assert {"queue", "prefill", "decode"} <= stages

    def test_spans_do_not_perturb_the_run(self, smoke):
        """Span emission is a pure read: the serialized RunSummary must
        be byte-identical to a run with the no-op observer."""
        summary, trace, _ = smoke
        execution_model = get_execution_model("llama3-8b")
        scheduler = make_scheduler("fcfs", execution_model)
        plain, _ = drain_trace(
            execution_model, scheduler, trace.fresh_copy()
        )
        spanned = json.dumps(summary_to_dict(summary), sort_keys=True)
        baseline = json.dumps(summary_to_dict(plain), sort_keys=True)
        assert spanned == baseline

    def test_exports_serialize(self, smoke, tmp_path):
        _, _, events = smoke
        count = write_spans(events, tmp_path / "spans.json")
        assert count == len(build_span_trees(events))
        assert count > 0
