"""Unit tests for the SLO-forensics dashboard and its CLI command."""

import json

import pytest

from repro.api import build_trace, make_scheduler
from repro.cli import main
from repro.experiments.configs import Scale, get_execution_model
from repro.obs import (
    JSONLSink,
    TraceRecorder,
    TracingObserver,
    build_dashboard_data,
    read_jsonl_trace,
    render_html,
    render_terminal,
)
from repro.workload.datasets import AZURE_CODE
from tests.conftest import drain_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A real recorded trace from one overloaded smoke run."""
    path = tmp_path_factory.mktemp("dash") / "run.jsonl"
    execution_model = get_execution_model("llama3-8b")
    scale = Scale(label="dash-smoke", num_requests=60, seed=3)
    trace = build_trace(
        AZURE_CODE, qps=1.0, num_requests=scale.num_requests,
        seed=scale.seed,
    ).scaled_arrivals(8.0)
    with JSONLSink(path) as sink:
        observer = TracingObserver(TraceRecorder([sink]))
        scheduler = make_scheduler("fcfs", execution_model)
        drain_trace(
            execution_model, scheduler, trace, observer=observer
        )
    return path


@pytest.fixture(scope="module")
def events(trace_file):
    return read_jsonl_trace(trace_file)


class TestBuildData:
    def test_structure(self, events):
        data = build_dashboard_data(events)
        assert data["num_events"] == len(events)
        assert data["completed"] > 0
        assert 0.0 <= data["goodput_pct"] <= 100.0
        assert data["tiers"]
        for tier_stats in data["tiers"]:
            assert set(tier_stats) >= {
                "tier", "completed", "violated", "goodput_pct",
                "ttft", "ttlt",
            }
        assert data["attribution"].max_conservation_error() <= 1e-9

    def test_empty_events(self):
        data = build_dashboard_data([])
        assert data["num_events"] == 0
        assert data["completed"] == 0
        assert render_terminal(data)  # renders without raising

    def test_burn_window_parameter(self, events):
        narrow = build_dashboard_data(events, burn_window=1.0)
        wide = build_dashboard_data(events, burn_window=1e6)
        assert len(narrow["burn"].series()) >= len(wide["burn"].series())


class TestRendering:
    def test_terminal_report_mentions_tiers(self, events):
        data = build_dashboard_data(events)
        text = render_terminal(data)
        assert "goodput" in text.lower()
        for row in data["tiers"]:
            assert row["tier"] in text

    def test_html_is_single_file(self, events):
        html = render_html(build_dashboard_data(events), title="t")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # No external fetches: the only URLs allowed are XML namespace
        # identifiers inside the inline SVGs.
        assert "<script src" not in html
        assert "<link" not in html
        assert 'src="http' not in html

    def test_html_contains_attribution_phases(self, events):
        html = render_html(build_dashboard_data(events), title="t")
        assert "admission_queue" in html or "admission" in html


class TestCli:
    def test_dashboard_command(self, trace_file, tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main(["dashboard", str(trace_file), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "goodput" in stdout.lower()
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_missing_trace(self, tmp_path, capsys):
        code = main(["dashboard", str(tmp_path / "nope.jsonl")])
        assert code != 0

    def test_schema_invalid_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"kind": "request_completed", "ts": 0.0}) + "\n"
        )
        assert main(["dashboard", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err.lower()

    def test_no_validate_skips_schema_check(self, tmp_path):
        # Same malformed event: --no-validate must not exit with the
        # schema error (the audit simply cannot use the event).
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"kind": "mystery", "ts": 0.0}) + "\n")
        assert main(["dashboard", str(bad), "--no-validate"]) == 0

    def test_bad_window_rejected(self, trace_file, capsys):
        assert main(
            ["dashboard", str(trace_file), "--window", "0"]
        ) == 2


class TestIncidents:
    """``repro dashboard --incidents``: flight-recorder cross-links."""

    @pytest.fixture(scope="class")
    def incidents_file(self, trace_file, events, tmp_path_factory):
        from repro.obs import record_incidents

        path = tmp_path_factory.mktemp("incidents") / "inc.jsonl"
        written = record_incidents(events, path)
        assert written > 0, "overloaded fcfs run should trip incidents"
        return path

    def test_data_carries_incidents(self, events, incidents_file):
        from repro.obs import read_incidents

        incidents = read_incidents(incidents_file)
        data = build_dashboard_data(events, incidents=incidents)
        assert data["incidents"] == incidents
        # Without the parameter the key is present but empty, so the
        # renderers never need to guard for its absence.
        assert build_dashboard_data(events)["incidents"] == []

    def test_terminal_lists_incidents(self, events, incidents_file):
        from repro.obs import read_incidents

        data = build_dashboard_data(
            events, incidents=read_incidents(incidents_file)
        )
        text = render_terminal(data)
        assert "flight-recorder incidents" in text
        assert "cause:" in text

    def test_html_cross_links_incidents(self, events, incidents_file):
        from repro.obs import read_incidents

        incidents = read_incidents(incidents_file)
        html = render_html(
            build_dashboard_data(events, incidents=incidents),
            title="t",
        )
        assert "Flight-recorder incidents" in html
        assert "dominant cause" in html

    def test_cli_incidents_flag(self, trace_file, incidents_file,
                                tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main([
            "dashboard", str(trace_file),
            "--incidents", str(incidents_file),
            "--out", str(out),
        ])
        assert code == 0
        assert "flight-recorder incidents" in capsys.readouterr().out
        assert "Flight-recorder incidents" in out.read_text()

    def test_cli_missing_incidents_file(self, trace_file, tmp_path):
        assert main([
            "dashboard", str(trace_file),
            "--incidents", str(tmp_path / "nope.jsonl"),
        ]) == 1
