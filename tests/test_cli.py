"""Unit tests for the experiment CLI."""

import pytest

from repro.cli import SCALES, _registry, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig04"])
        assert args.experiments == ["fig04"]
        assert args.scale == "smoke"

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig04", "--scale", "huge"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        names = set(_registry())
        expected = {
            "fig01", "fig02", "fig04", "fig05", "fig07", "fig08",
            "fig09", "fig10-11", "fig12-13", "fig14", "fig15",
            "tab04", "tab05", "tab06",
        }
        assert expected <= names

    def test_scales(self):
        assert set(SCALES) == {"smoke", "bench", "full"}


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out
        assert "tab05" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fig04(self, capsys, tmp_path):
        out_file = tmp_path / "results.txt"
        code = main(["run", "fig04", "--scale", "smoke",
                     "--out", str(out_file)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "figure-04" in stdout
        assert "figure-04" in out_file.read_text()


class TestTraceParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "t.jsonl"])
        assert args.command == "trace"
        assert str(args.trace) == "t.jsonl"
        assert args.chrome is None
        assert not args.validate

    def test_run_trace_flags(self):
        args = build_parser().parse_args(
            ["run", "fig09", "--trace-out", "t.jsonl",
             "--metrics-out", "m.prom"]
        )
        assert str(args.trace_out) == "t.jsonl"
        assert str(args.metrics_out) == "m.prom"


class TestTracingEndToEnd:
    def test_run_records_then_trace_converts(self, capsys, tmp_path):
        """Full loop: run with tracing, then validate + convert."""
        import json

        trace_file = tmp_path / "run.jsonl"
        metrics_file = tmp_path / "run.prom"
        # fig06 actually simulates engines (fig04 is analytic, so it
        # would record nothing) and finishes in well under a second.
        code = main(["run", "fig06", "--scale", "smoke",
                     "--trace-out", str(trace_file),
                     "--metrics-out", str(metrics_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "metrics written to" in out
        assert trace_file.stat().st_size > 0
        assert "repro_iterations_total" in metrics_file.read_text()

        # The default observer must be restored after the run.
        from repro.obs.observer import NULL_OBSERVER, get_default_observer

        assert get_default_observer() is NULL_OBSERVER

        assert main(["trace", str(trace_file), "--validate"]) == 0
        assert "schema ok" in capsys.readouterr().out

        chrome_file = tmp_path / "chrome.json"
        assert main(["trace", str(trace_file),
                     "--chrome", str(chrome_file)]) == 0
        payload = json.loads(chrome_file.read_text())
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert spans
        for span in spans:
            for key in ("pid", "tid", "ts", "dur"):
                assert key in span

        assert main(["trace", str(trace_file), "--timeline"]) == 0
        assert "request_id" in capsys.readouterr().out

    def test_trace_command_rejects_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "bogus", "ts": 0.0}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "invalid trace" in capsys.readouterr().err


class TestFaultsCLI:
    def test_validate_parser(self):
        args = build_parser().parse_args(
            ["faults", "validate", "p.json", "--num-replicas", "4"]
        )
        assert args.command == "faults"
        assert args.faults_command == "validate"
        assert str(args.plan) == "p.json"
        assert args.num_replicas == 4

    def test_run_fault_plan_flag(self):
        args = build_parser().parse_args(
            ["run", "faults", "--fault-plan", "chaos.json"]
        )
        assert str(args.fault_plan) == "chaos.json"

    def test_registry_has_faults_experiment(self):
        assert "faults" in _registry()

    def test_validate_good_plan(self, capsys, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [
            {"kind": "crash", "time": 1.0, "replica": 0,
             "recover_after": 2.0},
            {"kind": "slowdown", "time": 0.5, "replica": 1,
             "duration": 3.0},
        ]}))
        assert main(["faults", "validate", str(plan)]) == 0
        assert "valid fault plan (2 events)" in capsys.readouterr().out

    def test_validate_reports_every_problem(self, capsys, tmp_path):
        import json

        plan = tmp_path / "bad.json"
        plan.write_text(json.dumps({"events": [
            {"kind": "crash", "time": -1, "replica": 0},
            {"kind": "warp", "time": 0, "replica": 9},
        ]}))
        code = main(
            ["faults", "validate", str(plan), "--num-replicas", "4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "events[0]" in err and "events[1]" in err

    def test_validate_bad_json(self, capsys, tmp_path):
        plan = tmp_path / "broken.json"
        plan.write_text("{nope")
        assert main(["faults", "validate", str(plan)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_with_invalid_fault_plan(self, capsys, tmp_path):
        import json

        plan = tmp_path / "bad.json"
        plan.write_text(json.dumps(
            {"events": [{"kind": "warp", "time": 0, "replica": 0}]}
        ))
        assert main(["run", "fig04", "--fault-plan", str(plan)]) == 1
        assert "invalid fault plan" in capsys.readouterr().err

    def test_run_arms_and_clears_plan(self, capsys, tmp_path):
        import json

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"events": []}))
        code = main(["run", "fig04", "--scale", "smoke",
                     "--fault-plan", str(plan_file)])
        assert code == 0
        assert "armed (0 events)" in capsys.readouterr().out
        # The process default must be cleared after the run.
        from repro.faults import get_default_fault_plan

        assert get_default_fault_plan() is None


class TestPathErrorShape:
    """Every filesystem flag funnels OS errors through one helper, so
    the message shape is identical: ``cannot <action>: <error>``."""

    def test_consistent_prefixes(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir"
        cases = [
            (["trace", str(missing / "t.jsonl")],
             "cannot read trace:"),
            (["faults", "validate", str(missing / "p.json")],
             "cannot read fault plan:"),
            (["run", "fig04", "--fault-plan", str(missing / "p.json")],
             "cannot read --fault-plan:"),
            (["run", "fig04", "--scale", "smoke",
              "--trace-out", str(missing / "t.jsonl")],
             "cannot open --trace-out:"),
        ]
        for argv, prefix in cases:
            assert main(argv) == 1, argv
            assert prefix in capsys.readouterr().err


class TestHiddenAliases:
    """Underscore spellings are usage errors; help lists only the
    hyphenated flags."""

    @staticmethod
    def _rejected(capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert flag in err

    def test_underscore_spellings_parse(self, capsys):
        for argv in (
            ["run", "fig04", "--trace_out", "t.jsonl"],
            ["run", "fig04", "--metrics_out", "m.prom"],
            ["run", "fig04", "--fault_plan", "f.json"],
            ["run", "fig04", "--cache_dir", "c"],
            ["run", "fig04", "--log_y"],
            ["dashboard", "t.jsonl", "--slo_budget", "0.05"],
            ["dashboard", "t.jsonl", "--no_validate"],
            ["faults", "validate", "p.json", "--num_replicas", "3"],
        ):
            flag = next(a for a in argv if a.startswith("--"))
            self._rejected(capsys, argv, flag)

    def test_replicas_spelling_rejected(self, capsys):
        """``--num-replicas`` is the one spelling, as on every other
        subcommand."""
        self._rejected(
            capsys, ["faults", "validate", "p.json", "--replicas", "3"],
            "--replicas",
        )

    def test_aliases_hidden_from_help(self, capsys):
        for command in ("run", "serve", "dashboard"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            text = capsys.readouterr().out
            assert "--trace-out" in text
            assert "--trace_out" not in text
            assert "_out" not in text.replace("summary_out", "")


class TestServeParser:
    def test_defaults(self):
        import math

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port is None
        assert args.speed == math.inf
        assert args.scheduler == "qoserve"
        assert args.num_replicas == 1

    def test_speed_accepts_inf_and_floats(self):
        import math

        parser = build_parser()
        assert parser.parse_args(
            ["serve", "--speed", "inf"]
        ).speed == math.inf
        assert parser.parse_args(
            ["serve", "--speed", "2.5"]
        ).speed == 2.5
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--speed", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--speed", "fast"])

    def test_serve_underscore_aliases(self, capsys):
        for flag, value in (
            ("--num_replicas", "2"), ("--chunk_size", "512"),
            ("--max_queue_depth", "4"), ("--summary_out", "s.json"),
            ("--tier_rate", "Q1=3"),
        ):
            TestHiddenAliases._rejected(
                capsys, ["serve", flag, value], flag
            )


class TestServeCommand:
    @pytest.fixture
    def replay_csv(self, tmp_path):
        from repro.api import build_trace
        from repro.workload import write_azure_csv

        path = tmp_path / "trace.csv"
        trace = build_trace("AzConv", qps=3.0, num_requests=12, seed=5)
        write_azure_csv(trace, path)
        return path

    def test_requires_port_or_replay(self, capsys):
        assert main(["serve"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_offline_replay(self, capsys, tmp_path, replay_csv):
        import json

        summary_out = tmp_path / "summary.json"
        code = main(["serve", "--replay", str(replay_csv),
                     "--scheduler", "fcfs",
                     "--summary-out", str(summary_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted=12" in out
        payload = json.loads(summary_out.read_text())
        assert payload["gateway"]["admitted_total"] == 12
        assert payload["summary"]["num_requests"] == 12

    def test_offline_replay_with_shedding(self, capsys, replay_csv):
        code = main(["serve", "--replay", str(replay_csv),
                     "--scheduler", "fcfs", "--rate", "0.2",
                     "--burst", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shed=0" not in out

    def test_bad_tier_rate(self, capsys):
        assert main(["serve", "--replay", "x.csv",
                     "--tier-rate", "Q1"]) == 2
        assert "TIER=QPS" in capsys.readouterr().err

    def test_unknown_deployment(self, capsys, replay_csv):
        code = main(["serve", "--replay", str(replay_csv),
                     "--deployment", "bogus"])
        assert code == 2
        assert "unknown deployment" in capsys.readouterr().err

    def test_unknown_scheduler(self, capsys, replay_csv):
        code = main(["serve", "--replay", str(replay_csv),
                     "--scheduler", "bogus"])
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_replay_path_error(self, capsys, tmp_path):
        code = main(["serve", "--replay",
                     str(tmp_path / "missing" / "t.csv")])
        assert code == 1
        assert "cannot read --replay:" in capsys.readouterr().err

    def test_non_finite_replay_values(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "TIMESTAMP,ContextTokens,GeneratedTokens\n"
            "0,100,5\n1,inf,5\n"
        )
        code = main(["serve", "--replay", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "invalid replay trace" in err
        assert "line 3: non-finite context" in err
        assert "Traceback" not in err

    def test_summary_out_path_error(self, capsys, tmp_path, replay_csv):
        code = main(["serve", "--replay", str(replay_csv),
                     "--scheduler", "fcfs",
                     "--summary-out", str(tmp_path / "no" / "s.json")])
        assert code == 1
        assert "cannot write --summary-out:" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_replay_limit_below_one(self, capsys, replay_csv, limit):
        code = main(["serve", "--replay", str(replay_csv),
                     "--replay-limit", limit])
        assert code == 2
        assert "--replay-limit must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("qps", ["0", "-2", "nan", "inf"])
    def test_replay_qps_not_positive_finite(self, capsys, replay_csv, qps):
        code = main(["serve", "--replay", str(replay_csv),
                     "--replay-qps", qps])
        assert code == 1
        assert "target_qps must be positive and finite" in (
            capsys.readouterr().err
        )

    def test_malformed_replay_fuzz(self, capsys, tmp_path):
        """Seeded malformed trace CSVs (the loader fuzz's mutations)
        replay or exit 1 with a one-line error; none raises."""
        import random

        from tests.test_workload_azure_csv import TestMalformedFuzz

        path = tmp_path / "t.csv"
        served = refused = 0
        mutations = TestMalformedFuzz._mutations(random.Random(5), 30)
        for data in mutations:
            path.write_bytes(data)
            code = main(["serve", "--replay", str(path),
                         "--scheduler", "fcfs"])
            err = capsys.readouterr().err
            if code == 0:
                served += 1
                continue
            assert code == 1, (data, err)
            assert err.startswith(f"invalid replay trace: {path}: "), err
            assert err.count("\n") == 1, err
            refused += 1
        assert served and refused


class TestTopParser:
    def test_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.command == "top"
        assert args.url == "http://127.0.0.1:8080"
        assert args.incidents is None
        assert not args.once
        assert args.interval == 1.0
        assert args.frames == 0

    def test_incidents_mode(self):
        args = build_parser().parse_args(
            ["top", "--incidents", "i.jsonl", "--once"]
        )
        assert str(args.incidents) == "i.jsonl"
        assert args.once

    def test_spans_flags(self):
        args = build_parser().parse_args(
            ["trace", "t.jsonl", "--spans", "s.json",
             "--spans-format", "chrome"]
        )
        assert str(args.spans) == "s.json"
        assert args.spans_format == "chrome"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "t.jsonl", "--spans", "s.json",
                 "--spans-format", "protobuf"]
            )

    def test_observability_underscore_aliases(self, capsys):
        TestHiddenAliases._rejected(
            capsys, ["serve", "--incidents_out", "i.jsonl"],
            "--incidents_out",
        )
        TestHiddenAliases._rejected(
            capsys,
            ["trace", "t.jsonl", "--spans", "s.json",
             "--spans_format", "chrome"],
            "--spans_format",
        )


class TestFlightRecorderCLI:
    @pytest.fixture
    def overload_csv(self, tmp_path):
        """An arrival-compressed AzCode burst that overloads fcfs."""
        from repro.api import build_trace
        from repro.workload import write_azure_csv

        path = tmp_path / "burst.csv"
        trace = build_trace(
            "AzCode", qps=1.0, num_requests=60, seed=11
        ).scaled_arrivals(8.0)
        write_azure_csv(trace, path)
        return path

    def test_replay_records_incidents_then_top_renders(
        self, capsys, tmp_path, overload_csv
    ):
        incidents = tmp_path / "incidents.jsonl"
        code = main(["serve", "--replay", str(overload_csv),
                     "--scheduler", "fcfs",
                     "--incidents-out", str(incidents)])
        out = capsys.readouterr().out
        assert code == 0
        assert "flight recorder:" in out
        assert str(incidents) in out
        assert incidents.stat().st_size > 0

        assert main(["top", "--incidents", str(incidents),
                     "--once"]) == 0
        rendered = capsys.readouterr().out
        assert "deadline_violation" in rendered
        assert "incident(s)" in rendered

    def test_quiet_run_leaves_no_incident_file(
        self, capsys, tmp_path
    ):
        from repro.api import build_trace
        from repro.workload import write_azure_csv

        csv = tmp_path / "calm.csv"
        write_azure_csv(
            build_trace("AzConv", qps=0.5, num_requests=5, seed=5), csv
        )
        incidents = tmp_path / "incidents.jsonl"
        code = main(["serve", "--replay", str(csv),
                     "--scheduler", "qoserve",
                     "--incidents-out", str(incidents)])
        out = capsys.readouterr().out
        assert code == 0
        assert "flight recorder: 0 incident(s)" in out
        assert not incidents.exists()

    def test_top_incidents_path_error(self, capsys, tmp_path):
        code = main(["top", "--incidents",
                     str(tmp_path / "missing.jsonl")])
        assert code == 1
        assert "cannot read --incidents:" in capsys.readouterr().err


class TestSpansCLI:
    def test_trace_spans_exports(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "run.jsonl"
        assert main(["run", "fig06", "--scale", "smoke",
                     "--trace-out", str(trace_file)]) == 0
        capsys.readouterr()

        otlp = tmp_path / "spans.json"
        assert main(["trace", str(trace_file),
                     "--spans", str(otlp)]) == 0
        out = capsys.readouterr().out
        assert "span tree(s) written" in out
        assert "(otlp)" in out
        payload = json.loads(otlp.read_text())
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans

        chrome = tmp_path / "spans.chrome.json"
        assert main(["trace", str(trace_file), "--spans", str(chrome),
                     "--spans-format", "chrome"]) == 0
        assert "(chrome)" in capsys.readouterr().out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_spans_path_error(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        trace_file.write_text("")
        code = main(["trace", str(trace_file),
                     "--spans", str(tmp_path / "no" / "s.json")])
        assert code == 1
        assert "cannot write --spans:" in capsys.readouterr().err
