"""Command-line interface: run paper experiments by name.

Usage::

    python -m repro list
    python -m repro run fig04 [--scale smoke|bench|full] [--out FILE]
    python -m repro run all --scale smoke
    python -m repro run fig09 --trace-out run.jsonl --metrics-out run.prom
    python -m repro run faults --fault-plan chaos.json
    python -m repro trace run.jsonl --chrome run_chrome.json
    python -m repro trace run.jsonl --validate
    python -m repro dashboard run.jsonl --out dashboard.html
    python -m repro dashboard run.jsonl --incidents incidents.jsonl
    python -m repro diff base.jsonl other.jsonl --json delta.json
    python -m repro diff a.jsonl b.jsonl --expect-identical
    python -m repro run arena --scale smoke --jobs 4
    python -m repro bench --diff-baseline baseline_trace.jsonl
    python -m repro faults validate chaos.json --num-replicas 4
    python -m repro serve --port 8080 --speed 10
    python -m repro serve --replay azure.csv --summary-out run.json
    python -m repro serve --port 8080 --incidents-out incidents.jsonl
    python -m repro top --url http://127.0.0.1:8080 --once
    python -m repro top --incidents incidents.jsonl
    python -m repro trace run.jsonl --spans spans.json

``--trace-out`` records every engine built during the run through the
:mod:`repro.obs` subsystem (iteration-level JSONL events);
``--metrics-out`` dumps the aggregated Prometheus-text metrics.  The
``trace`` command post-processes a recorded JSONL file: schema
validation, per-request timeline table, and conversion to Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``.

``--fault-plan`` loads a :mod:`repro.faults` fault schedule (replica
crashes / slowdowns) and installs it as the process default, so
fault-aware experiments inject it; ``faults validate`` lints a plan
file and reports every problem with a clean message.

``diff`` runs the differential forensics of :mod:`repro.obs.diff`
over two (or more) recorded traces of the same workload: first
divergence, per-request attribution deltas, and a cause-delta
accounting that sums exactly to the goodput gap.  ``run arena`` races
every registered scheduler over a workload sweep and explains each
loss with the same machinery; ``bench --diff-baseline`` pins the
benchmark's pinned-trace *behavior* (not just its speed) against a
recorded baseline.

``serve`` starts the :mod:`repro.serve` online gateway: a stdlib HTTP
front end (``POST /v1/completions`` with SSE streaming, ``/metrics``,
``/healthz``) over a simulated deployment, paced against the wall
clock by ``--speed`` (``inf`` = deterministic as-fast-as-possible).
``--replay`` drives it open-loop from an Azure-format trace CSV; with
no ``--port`` and ``--speed inf`` the replay is a pure offline
simulation whose summary is byte-identical to the batch path.

Multi-word flags are spelled with dashes (``--trace-out``) only.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments import BENCH, FULL, SMOKE, Scale
from repro.experiments.result import ExperimentResult

SCALES = {"smoke": SMOKE, "bench": BENCH, "full": FULL}


def _registry() -> dict[str, tuple[str, Callable[[Scale], list]]]:
    """Experiment name -> (description, runner returning result list).

    Imports are deferred so ``python -m repro list`` stays instant.
    """

    def runner(module_name: str, *functions: str):
        def run(scale: Scale) -> list[ExperimentResult]:
            import importlib

            module = importlib.import_module(
                f"repro.experiments.{module_name}"
            )
            return [getattr(module, fn)(scale) for fn in functions]

        return run

    return {
        "fig01": ("headline: GPU savings + burst resilience",
                  runner("fig01_headline", "run", "run_burst")),
        "fig02": ("classic policies vs QoServe",
                  runner("fig02_policies", "run")),
        "fig04": ("chunk-size throughput/latency trade-off",
                  runner("fig04_chunk_tradeoff", "run")),
        "fig05": ("eager relegation under overload",
                  runner("fig05_relegation", "run")),
        "fig06": ("the five-request walkthrough, executed",
                  runner("fig06_illustration", "run")),
        "fig07": ("goodput per replica, PD colocation",
                  runner("fig07_goodput", "run")),
        "fig08": ("goodput per prefill replica, PD disaggregation",
                  runner("fig08_disagg", "run")),
        "fig09": ("dynamic chunk-size trace",
                  runner("fig09_chunk_trace", "run")),
        "fig10-11": ("latency and violations under load",
                     runner("fig10_11_load_sweep", "run")),
        "fig12-13": ("diurnal transient overload",
                     runner("fig12_13_transient", "run",
                            "run_rolling_latency")),
        "fig14": ("alpha sensitivity",
                  runner("fig14_alpha_sweep", "run")),
        "fig15": ("Medha and PolyServe comparisons",
                  runner("fig15_concurrent_work", "run_medha_comparison",
                         "run_medha_goodput", "run_polyserve_comparison")),
        "tab04": ("cluster-scale silo vs QoServe",
                  runner("tab04_cluster_scale", "run")),
        "tab05": ("technique ablation",
                  runner("tab05_ablation", "run")),
        "tab06": ("workload mixes and SLO variation",
                  runner("tab06_composition", "run", "run_slo_variation")),
        "ablations": ("design-choice ablations (predictor, preemption, "
                      "estimator)",
                      runner("ablation_extras", "run_predictor_ablation",
                             "run_preemption_ablation",
                             "run_estimator_ablation")),
        "ext-decode": ("extension: multi-TBT decode pools",
                       runner("ext_qos_decode", "run")),
        "ext-conserve": ("extension: ConServe-style binary collocation",
                         runner("ext_conserve", "run")),
        "ext-autoscaling": ("extension: autoscaled vs static provisioning",
                            runner("ext_autoscaling", "run")),
        "ext-routing": ("extension: cluster load-balancing ablation",
                        runner("ext_routing", "run")),
        "faults": ("chaos: crash anatomy + goodput vs MTBF "
                   "(honours --fault-plan)",
                   runner("fig_faults", "run", "run_mtbf_sweep")),
        "fleet-chaos": ("chaos: heterogeneous fleet autoscaling under "
                        "diurnal load + faults, goodput per GPU-hour",
                        runner("fig_fleet_chaos", "run")),
        "arena": ("policy arena: every scheduler raced over a load "
                  "sweep, losses explained by cause-delta attribution",
                  runner("arena", "run")),
        "fig-prefix": ("radix KV prefix reuse: hit rate x load x "
                       "scheduler on multi-turn session traffic",
                       runner("fig_prefix", "run")),
    }


def _parse_speed(text: str) -> float:
    """``--speed`` values: a positive float, or ``inf`` (no pacing)."""
    lowered = text.strip().lower()
    if lowered in {"inf", "infinity"}:
        return math.inf
    try:
        value = float(lowered)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid speed {text!r} (a number, or 'inf')"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError("speed must be > 0")
    return value


def _observability_parent() -> argparse.ArgumentParser:
    """Shared ``--trace-out`` / ``--metrics-out`` flags.

    ``run`` and ``serve`` record through the same observer plumbing,
    so the flags are defined once and inherited via ``parents=``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="record an iteration-level JSONL trace of every "
             "simulated engine to FILE",
    )
    parent.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write aggregated metrics in Prometheus text format "
             "to FILE after the run",
    )
    parent.add_argument(
        "--incidents-out", type=Path, default=None, metavar="FILE",
        help="arm the SLO flight recorder: dump a JSONL incident "
             "window around every deadline violation or burn-rate "
             "trip to FILE (see docs/OBSERVABILITY.md)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QoServe reproduction experiment runner",
    )
    observability = _observability_parent()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    report_parser = sub.add_parser(
        "report", help="regenerate a markdown reproduction report"
    )
    report_parser.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke",
    )
    report_parser.add_argument(
        "--out", type=Path, default=Path("reproduction_report.md"),
    )
    run_parser = sub.add_parser(
        "run", help="run experiments", parents=[observability]
    )
    run_parser.add_argument(
        "experiments", nargs="+",
        help="experiment names (see 'list') or 'all'",
    )
    run_parser.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke",
        help="run size preset (default: smoke)",
    )
    run_parser.add_argument(
        "--out", type=Path, default=None,
        help="also append rendered tables to this file",
    )
    run_parser.add_argument(
        "--plot", metavar="COLUMN", default=None,
        help="also render an ASCII chart of COLUMN (x axis and series "
             "are auto-detected)",
    )
    run_parser.add_argument(
        "--log-y", action="store_true",
        help="log-scale the --plot y axis",
    )
    run_parser.add_argument(
        "--fault-plan", type=Path, default=None, metavar="FILE",
        help="JSON fault schedule (see docs/RESILIENCE.md) injected "
             "into fault-aware experiments",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for experiment grid fan-out "
             "(default: 1 = serial; results are byte-identical at "
             "any job count)",
    )
    run_parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="disk-backed run cache for experiment cells (default: "
             "disabled; see docs/PERFORMANCE.md for invalidation)",
    )
    bench_parser = sub.add_parser(
        "bench", help="perf-trajectory benchmark harness"
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions and a smaller end-to-end trace "
             "(CI smoke mode)",
    )
    bench_parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write results to FILE instead of the next free "
             "BENCH_<n>.json at the repo root",
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="job count for the sweep benchmark (default: min(4, "
             "cpu_count))",
    )
    bench_parser.add_argument(
        "--diff-baseline", type=Path, default=None, metavar="FILE",
        help="behavioral-identity gate: record the end-to-end "
             "benchmark's pinned trace to FILE on first use, then "
             "diff every later run against it and fail on any "
             "divergence (repro.obs.diff)",
    )
    faults_parser = sub.add_parser(
        "faults", help="fault-plan tooling (repro.faults)"
    )
    faults_sub = faults_parser.add_subparsers(
        dest="faults_command", required=True
    )
    validate_parser = faults_sub.add_parser(
        "validate", help="lint a fault-plan JSON file"
    )
    validate_parser.add_argument(
        "plan", type=Path, help="fault-plan JSON file",
    )
    validate_parser.add_argument(
        "--num-replicas", type=int, default=None,
        metavar="N",
        help="also range-check replica indices against a deployment "
             "of N replicas (the same check FaultInjector.arm applies "
             "at deployment time)",
    )
    trace_parser = sub.add_parser(
        "trace", help="inspect / convert a recorded JSONL trace"
    )
    trace_parser.add_argument(
        "trace", type=Path, help="JSONL trace recorded via --trace-out",
    )
    trace_parser.add_argument(
        "--chrome", type=Path, default=None, metavar="FILE",
        help="write a Chrome trace-event JSON (open in Perfetto or "
             "chrome://tracing)",
    )
    trace_parser.add_argument(
        "--validate", action="store_true",
        help="check every event against the trace schema; non-zero "
             "exit on the first mismatch",
    )
    trace_parser.add_argument(
        "--timeline", action="store_true",
        help="print the per-request timeline table (default when no "
             "other action is requested)",
    )
    trace_parser.add_argument(
        "--spans", type=Path, default=None, metavar="FILE",
        help="export request-scoped span trees (repro.obs.spans) "
             "to FILE",
    )
    trace_parser.add_argument(
        "--spans-format", choices=("otlp", "chrome"), default="otlp",
        help="span export format: OTLP/JSON (default) or Chrome "
             "trace-event JSON with flow arrows",
    )
    dashboard_parser = sub.add_parser(
        "dashboard",
        help="SLO-forensics report from a recorded JSONL trace",
    )
    dashboard_parser.add_argument(
        "trace", type=Path, help="JSONL trace recorded via --trace-out",
    )
    dashboard_parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write a single-file HTML report (inline SVG, no "
             "external assets) to FILE",
    )
    dashboard_parser.add_argument(
        "--window", type=float, default=60.0, metavar="SECONDS",
        help="burn-rate window in simulated seconds (default: 60)",
    )
    dashboard_parser.add_argument(
        "--slo-budget", type=float, default=0.01, metavar="FRACTION",
        help="allowed violation fraction per window (default: 0.01, "
             "the paper's 1%% goodput bar)",
    )
    dashboard_parser.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation of the trace (validation is on "
             "by default; invalid events are a non-zero exit)",
    )
    dashboard_parser.add_argument(
        "--incidents", type=Path, default=None, metavar="FILE",
        help="cross-link a flight-recorder incident JSONL file "
             "(--incidents-out) into the report",
    )
    diff_parser = sub.add_parser(
        "diff",
        help="differential forensics between recorded runs of the "
             "same workload (repro.obs.diff)",
    )
    diff_parser.add_argument(
        "traces", nargs="+", type=Path, metavar="TRACE",
        help="two or more JSONL traces recorded via --trace-out; the "
             "first is the baseline every other trace is diffed "
             "against",
    )
    diff_parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="write the full deterministic diff (sorted keys, "
             "byte-identical across reruns) as JSON to FILE",
    )
    diff_parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write a single-file HTML diff report to FILE (multiple "
             "comparisons are concatenated)",
    )
    diff_parser.add_argument(
        "--context", type=int, default=8, metavar="N",
        help="shared pre-context events kept around the first "
             "divergence (default: 8)",
    )
    diff_parser.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation of the input traces",
    )
    diff_parser.add_argument(
        "--expect-identical", action="store_true",
        help="exit non-zero unless every comparison is byte-identical "
             "(the determinism assertion mode)",
    )
    serve_parser = sub.add_parser(
        "serve",
        help="online serving gateway (repro.serve)",
        parents=[observability],
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="HTTP listen address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve the HTTP API on PORT (0 = OS-assigned; omit for "
             "a pure offline --replay)",
    )
    serve_parser.add_argument(
        "--deployment", default="llama3-8b", metavar="NAME",
        help="execution-model preset (default: llama3-8b)",
    )
    serve_parser.add_argument(
        "--scheduler", default="qoserve", metavar="KIND",
        help="scheduler kind (default: qoserve; see "
             "repro.api.SCHEDULER_KINDS)",
    )
    serve_parser.add_argument(
        "--kv-reuse", default="off", choices=("off", "radix"),
        help="cross-request KV prefix reuse: 'radix' skips prefill "
             "for prompt prefixes already resident in the KV cache "
             "(multi-turn sessions, shared system prompts); 'off' is "
             "byte-identical to stacks without the prefix cache "
             "(default: off)",
    )
    serve_parser.add_argument(
        "--num-replicas", type=int, default=1, metavar="N",
        help="replica count (default: 1)",
    )
    serve_parser.add_argument(
        "--chunk-size", type=int, default=256, metavar="TOKENS",
        help="prefill chunk size (default: 256)",
    )
    serve_parser.add_argument(
        "--routing", default=None, metavar="STRATEGY",
        help="multi-replica routing strategy (default: round-robin, "
             "or perf-aware with --fleet)",
    )
    serve_parser.add_argument(
        "--fleet", default=None, metavar="SPEC",
        help="serve from a heterogeneous elastic fleet instead of a "
             "fixed pool; SPEC lists initial replicas per hardware "
             "class, e.g. 'a100:2,h100:1' (see docs/RESILIENCE.md)",
    )
    serve_parser.add_argument(
        "--autoscaler", default="burn-rate",
        choices=("off", "busy-fraction", "burn-rate"),
        help="fleet autoscaling policy (default: burn-rate; needs "
             "--fleet)",
    )
    serve_parser.add_argument(
        "--max-replicas", type=int, default=8, metavar="N",
        help="fleet size ceiling for the autoscaler (default: 8)",
    )
    serve_parser.add_argument(
        "--fault-plan", type=Path, default=None, metavar="FILE",
        help="JSON fault schedule injected into the fleet (needs "
             "--fleet; see docs/RESILIENCE.md)",
    )
    serve_parser.add_argument(
        "--speed", type=_parse_speed, default=math.inf, metavar="FACTOR",
        help="virtual seconds simulated per wall second; 'inf' (the "
             "default) disables pacing entirely",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=None, metavar="QPS",
        help="global token-bucket admission rate in requests per "
             "virtual second (default: unlimited)",
    )
    serve_parser.add_argument(
        "--tier-rate", action="append", default=None, metavar="TIER=QPS",
        help="per-tier admission-rate override (repeatable, e.g. "
             "--tier-rate Q3=2)",
    )
    serve_parser.add_argument(
        "--burst", type=float, default=8.0, metavar="N",
        help="token-bucket burst capacity (default: 8)",
    )
    serve_parser.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="backpressure threshold: above this many queued requests "
             "the relegation victim ordering picks what to shed "
             "(default: unlimited)",
    )
    serve_parser.add_argument(
        "--replay", type=Path, default=None, metavar="CSV",
        help="drive the gateway open-loop from an Azure-format trace "
             "CSV (TIMESTAMP / ContextTokens / GeneratedTokens)",
    )
    serve_parser.add_argument(
        "--replay-qps", type=float, default=None, metavar="QPS",
        help="rescale --replay arrival gaps to this mean rate",
    )
    serve_parser.add_argument(
        "--replay-limit", type=int, default=None, metavar="N",
        help="offer only the first N --replay arrivals",
    )
    serve_parser.add_argument(
        "--summary-out", type=Path, default=None, metavar="FILE",
        help="write the final gateway counters and run summary as "
             "JSON to FILE",
    )
    top_parser = sub.add_parser(
        "top",
        help="live terminal dashboard over /v1/live (or an incident "
             "file)",
    )
    top_parser.add_argument(
        "--url", default="http://127.0.0.1:8080", metavar="URL",
        help="gateway base URL (default: http://127.0.0.1:8080)",
    )
    top_parser.add_argument(
        "--incidents", type=Path, default=None, metavar="FILE",
        help="render a flight-recorder incident JSONL file instead of "
             "connecting to a gateway",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit",
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="wall seconds between frames (default: 1)",
    )
    top_parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (default: 0 = until interrupted)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into `head`); behave
        # like a Unix filter: point the fd at devnull so the interpreter
        # does not complain again at shutdown, exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    registry = _registry()

    if args.command == "list":
        width = max(len(name) for name in registry)
        for name, (description, _) in registry.items():
            print(f"{name:<{width}}  {description}")
        return 0

    if args.command == "report":
        from repro.experiments.report import write_report

        path = write_report(
            registry, SCALES[args.scale], args.out,
            scale_label=args.scale,
        )
        print(f"report written to {path}")
        return 0

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "dashboard":
        return _dashboard_command(args)

    if args.command == "diff":
        return _diff_command(args)

    if args.command == "faults":
        return _faults_command(args)

    if args.command == "bench":
        return _bench_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "top":
        return _top_command(args)

    names = list(args.experiments)
    if names == ["all"]:
        names = list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    from repro.experiments.parallel import (
        ParallelConfig,
        set_parallel_config,
    )

    if args.cache_dir is not None:
        # Fail fast with a clean message rather than mid-sweep inside
        # a worker process.
        try:
            args.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            return _path_error("create --cache-dir", error)
    set_parallel_config(
        ParallelConfig(jobs=max(1, args.jobs), cache_dir=args.cache_dir)
    )
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import (
            FaultPlan,
            FaultPlanError,
            set_default_fault_plan,
        )

        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except OSError as error:
            return _path_error("read --fault-plan", error)
        except FaultPlanError as error:
            print(f"invalid fault plan {args.fault_plan}: {error}",
                  file=sys.stderr)
            return 1
    try:
        observer = _install_observer(args)
    except OSError as error:
        return _path_error("open --trace-out", error)
    if fault_plan is not None:
        set_default_fault_plan(fault_plan)
        print(f"fault plan {args.fault_plan} armed "
              f"({len(fault_plan)} events)")
    exit_code = 0
    try:
        for name in names:
            description, run = registry[name]
            print(f"--- {name}: {description} (scale={args.scale}) ---")
            started = time.time()
            results = run(scale)
            elapsed = time.time() - started
            for result in results:
                text = result.render()
                print(text)
                print()
                if args.plot is not None:
                    from repro.experiments.plotting import plot_result

                    try:
                        print(plot_result(result, args.plot,
                                          log_y=args.log_y))
                    except KeyError as error:
                        print(f"(plot skipped: {error})")
                    print()
                if args.out is not None:
                    with args.out.open("a") as sink:
                        sink.write(text + "\n\n")
            print(f"[{name} done in {elapsed:.1f}s]")
    finally:
        if fault_plan is not None:
            set_default_fault_plan(None)
        try:
            _teardown_observer(observer, args)
        except OSError as error:
            exit_code = _path_error("write observability output", error)
    return exit_code


def _path_error(context: str, error: Exception) -> int:
    """Uniform exit for an unreadable or unwritable user-supplied path.

    Every CLI flag that touches the filesystem (``--trace-out``,
    ``--metrics-out``, ``--fault-plan``, ``--replay``,
    ``--summary-out``, ``trace`` / ``faults`` inputs) funnels OS
    errors through here so the message shape is identical:
    ``cannot <action>: <os error>``.
    """
    print(f"cannot {context}: {error}", file=sys.stderr)
    return 1


def _serve_command(args) -> int:
    """Implement ``repro serve``: the online gateway front end."""
    if args.port is None and args.replay is None:
        print("serve needs --port (HTTP API), --replay (trace-driven), "
              "or both", file=sys.stderr)
        return 2

    tier_rates: dict[str, float] = {}
    for item in args.tier_rate or []:
        name, sep, value = item.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            tier_rates[name] = float(value)
        except ValueError:
            print(f"--tier-rate expects TIER=QPS, got {item!r}",
                  file=sys.stderr)
            return 2

    from repro.api import ServeConfig, Session
    from repro.serve import AdmissionConfig, GatewayConfig, ServeGateway

    trace = None
    if args.replay is not None:
        from repro.workload import load_azure_trace

        if args.replay_limit is not None and args.replay_limit < 1:
            print(f"--replay-limit must be >= 1, got {args.replay_limit}",
                  file=sys.stderr)
            return 2
        try:
            trace = load_azure_trace(
                args.replay,
                target_qps=args.replay_qps,
                max_requests=args.replay_limit,
            )
        except OSError as error:
            return _path_error("read --replay", error)
        except ValueError as error:
            # The loader's errors name the file and line themselves.
            print(f"invalid replay trace: {error}", file=sys.stderr)
            return 1

    fleet_config = None
    if args.fleet is not None:
        from repro.cluster.fleet import parse_fleet_spec

        try:
            fleet_config = parse_fleet_spec(
                args.fleet, max_replicas=args.max_replicas
            )
        except ValueError as error:
            print(f"invalid --fleet spec: {error}", file=sys.stderr)
            return 2

    fault_plan = None
    if args.fault_plan is not None:
        if fleet_config is None:
            print("--fault-plan needs --fleet (chaos runs on the "
                  "fault-tolerant fleet deployment)", file=sys.stderr)
            return 2
        from repro.faults.plan import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except OSError as error:
            return _path_error("read --fault-plan", error)
        except (KeyError, ValueError) as error:
            print(f"invalid fault plan {args.fault_plan}: {error}",
                  file=sys.stderr)
            return 1

    routing = args.routing or (
        "perf-aware" if fleet_config is not None else "round-robin"
    )

    try:
        observer = _install_observer(args)
    except OSError as error:
        return _path_error("open --trace-out", error)

    exit_code = 0
    try:
        try:
            session = Session(ServeConfig(
                deployment=args.deployment,
                scheduler=args.scheduler,
                kv_reuse=args.kv_reuse,
                chunk_size=args.chunk_size,
                num_replicas=args.num_replicas,
                routing=routing,
                fleet=fleet_config,
                fleet_autoscaler=args.autoscaler,
                fault_plan=fault_plan,
            ))
            gateway = ServeGateway(session, config=GatewayConfig(
                speed=args.speed,
                admission=AdmissionConfig(
                    rate=args.rate,
                    burst=args.burst,
                    max_queue_depth=args.max_queue_depth,
                    per_tier_rate=tier_rates,
                ),
            ))
        except (KeyError, ValueError) as error:
            # ServeConfig / deployment-lookup messages are already
            # user-facing.
            print(error.args[0] if error.args else error,
                  file=sys.stderr)
            return 2

        if args.port is None and not gateway.clock.is_realtime:
            summary = gateway.replay(trace)
            exit_code = _serve_epilogue(gateway, summary, args)
        else:
            exit_code = _serve_online(gateway, trace, args)
    finally:
        try:
            _teardown_observer(observer, args)
        except OSError as error:
            exit_code = _path_error("write observability output", error)
    return exit_code


def _serve_online(gateway, trace, args) -> int:
    """Run the asyncio gateway: HTTP front end and/or paced replay."""
    import signal
    import threading

    from repro.serve import GatewayHTTPServer, GatewayRuntime

    runtime = GatewayRuntime(gateway)
    runtime.start()
    server = None
    try:
        if args.port is not None:
            try:
                server = GatewayHTTPServer(
                    (args.host, args.port), runtime
                )
            except OSError as error:
                return _path_error(
                    f"bind {args.host}:{args.port}", error
                )
            server.start_background()
            print(f"serving on http://{args.host}:{server.port}",
                  flush=True)

        stop = threading.Event()
        previous = {}
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(
                    signum, lambda *_: stop.set()
                )
        except ValueError:
            pass  # not the main thread (in-process tests); no signals
        try:
            if trace is not None:
                from repro.workload import OpenLoopReplay, wait_drained

                report = runtime.call(
                    OpenLoopReplay(trace).drive(gateway)
                )
                runtime.call(wait_drained(gateway))
                print(f"replay complete: {report.offered} offered, "
                      f"{report.admitted} admitted, "
                      f"{report.shed} shed")
            else:
                stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    finally:
        if server is not None:
            server.stop()
        runtime.stop()
    summary = (
        gateway.session.summary(requests=gateway.offered)
        if gateway.offered else None
    )
    code = _serve_epilogue(gateway, summary, args)
    print("gateway shut down cleanly")
    return code


def _serve_epilogue(gateway, summary, args) -> int:
    """Print final gateway counters; honour ``--summary-out``."""
    import json

    stats = gateway.stats
    print(f"gateway: admitted={stats.admitted_total} "
          f"shed={stats.shed_total} "
          f"tokens_streamed={stats.tokens_streamed_total}")
    if summary is not None:
        print(f"summary: {summary.finished}/{summary.num_requests} "
              f"finished, {summary.violations.overall_pct:.1f}% "
              "violations")
    fleet = getattr(gateway.session, "fleet", None)
    if fleet is not None:
        fstats = fleet.fleet_stats()
        by_hw = " ".join(
            f"{name}={count}"
            for name, count in sorted(fstats["by_hardware"].items())
        )
        print(f"fleet: size={fstats['fleet_size']} ({by_hw}) "
              f"gpu_hours={fstats['gpu_hours']:.3f} "
              f"scaling_actions={fstats['scaling_actions']} "
              f"crashes={fstats['crashes']} "
              f"faults_skipped={fstats['faults_skipped']} "
              f"max_burn={fstats['max_burn_rate']:.2f}x")
    if args.summary_out is not None:
        from repro.metrics import summary_to_dict

        payload = {
            "gateway": stats.to_dict(),
            "summary": (
                summary_to_dict(summary) if summary is not None
                else None
            ),
        }
        if fleet is not None:
            payload["fleet"] = fleet.fleet_stats()
        try:
            args.summary_out.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        except OSError as error:
            return _path_error("write --summary-out", error)
        print(f"summary written to {args.summary_out}")
    return 0


def _top_command(args) -> int:
    """Implement ``repro top``: live dashboard or incident viewer."""
    from repro.obs import read_incidents, render_incidents, render_top

    if args.incidents is not None:
        try:
            incidents = read_incidents(args.incidents)
        except OSError as error:
            return _path_error("read --incidents", error)
        except ValueError as error:
            print(f"invalid incident file: {error}", file=sys.stderr)
            return 1
        print(render_incidents(incidents))
        return 0

    import json
    import urllib.error
    import urllib.request

    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    frames = 1 if args.once else max(0, args.frames)
    url = (f"{args.url.rstrip('/')}/v1/live"
           f"?frames={frames}&interval={args.interval}")
    try:
        response = urllib.request.urlopen(url)
    except (urllib.error.URLError, OSError) as error:
        print(f"cannot connect to {args.url}: {error}", file=sys.stderr)
        return 1
    rendered = 0
    try:
        with response:
            for raw in response:
                line = raw.decode().strip()
                if not line.startswith("data: "):
                    continue
                snapshot = json.loads(line[len("data: "):])
                if rendered:
                    print()
                print(render_top(snapshot), flush=True)
                rendered += 1
    except KeyboardInterrupt:
        pass
    if rendered == 0:
        print("no frames received", file=sys.stderr)
        return 1
    return 0


def _bench_command(args) -> int:
    """Implement ``repro bench``: run the perf-trajectory harness."""
    from repro.bench import diff_baseline_check, run_bench, write_bench

    report = run_bench(quick=args.quick, jobs=args.jobs)
    diverged = False
    if args.diff_baseline is not None:
        try:
            section = diff_baseline_check(
                args.diff_baseline, quick=args.quick
            )
        except OSError as error:
            return _path_error("read --diff-baseline", error)
        report["behavioral_diff"] = section
        if section["recorded"]:
            print(f"behavioral baseline recorded to "
                  f"{args.diff_baseline} "
                  f"({section['num_events']} events)")
        elif section["identical"]:
            print(f"behavioral diff vs {args.diff_baseline}: "
                  "byte-identical")
        else:
            diverged = True
            where = section.get("first_divergence_index", "count")
            print(f"behavioral diff vs {args.diff_baseline}: "
                  f"DIVERGED at event #{where} "
                  f"(good_delta={section.get('good_delta', 0):+d})",
                  file=sys.stderr)
    try:
        path = write_bench(report, out=args.out)
    except OSError as error:
        return _path_error("write bench report", error)
    print(f"benchmark report written to {path}")
    return 1 if diverged else 0


def _faults_command(args) -> int:
    """Implement ``repro faults validate``: lint a plan file."""
    import json

    from repro.faults import validate_plan_dict

    try:
        text = args.plan.read_text()
    except OSError as error:
        return _path_error("read fault plan", error)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"{args.plan}: not valid JSON: {error}", file=sys.stderr)
        return 1
    problems = validate_plan_dict(payload, num_replicas=args.num_replicas)
    if problems:
        for problem in problems:
            print(f"{args.plan}: {problem}", file=sys.stderr)
        return 1
    count = len(payload.get("events", []))
    print(f"{args.plan}: valid fault plan ({count} events)")
    return 0


def _install_observer(args):
    """Enable process-wide tracing when ``run`` asked for outputs."""
    incidents_out = getattr(args, "incidents_out", None)
    if (
        args.trace_out is None
        and args.metrics_out is None
        and incidents_out is None
    ):
        return None
    from repro.obs import (
        FlightRecorder,
        JSONLSink,
        TraceRecorder,
        TracingObserver,
        set_default_observer,
    )

    sinks = [JSONLSink(args.trace_out)] if args.trace_out else []
    if incidents_out is not None:
        sinks.append(FlightRecorder(incidents_out))
    observer = TracingObserver(recorder=TraceRecorder(sinks))
    if incidents_out is not None:
        # Surfaced in /v1/live frames and the epilogue line.
        observer.flight_recorder = sinks[-1]
    set_default_observer(observer)
    return observer


def _teardown_observer(observer, args) -> None:
    if observer is None:
        return
    from repro.obs import set_default_observer

    set_default_observer(None)
    observer.close()
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out} "
              f"({observer.recorder.total_events} events)")
    if args.metrics_out is not None:
        observer.registry.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    recorder = getattr(observer, "flight_recorder", None)
    if recorder is not None:
        print(f"flight recorder: {recorder.incidents_written} "
              f"incident(s) written to {recorder.path}")


def _trace_command(args) -> int:
    """Implement ``repro trace``: validate / convert / tabulate."""
    from repro.obs import (
        TraceSchemaError,
        read_jsonl_trace,
        render_timeline,
        write_chrome_trace,
    )

    try:
        events = read_jsonl_trace(args.trace, validate=args.validate)
    except OSError as error:
        return _path_error("read trace", error)
    except (TraceSchemaError, ValueError) as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.trace}: {len(events)} events, schema ok")
    if args.chrome is not None:
        write_chrome_trace(events, args.chrome)
        print(f"chrome trace written to {args.chrome} "
              f"(open in Perfetto or chrome://tracing)")
    if args.spans is not None:
        from repro.obs import write_spans

        try:
            count = write_spans(events, args.spans,
                                fmt=args.spans_format)
        except OSError as error:
            return _path_error("write --spans", error)
        print(f"{count} span tree(s) written to {args.spans} "
              f"({args.spans_format})")
    if args.timeline or (
        not args.validate and args.chrome is None and args.spans is None
    ):
        print(render_timeline(events))
    return 0


def _dashboard_command(args) -> int:
    """Implement ``repro dashboard``: SLO forensics from a trace."""
    from repro.obs import (
        TraceSchemaError,
        build_dashboard_data,
        read_jsonl_trace,
        render_html,
        render_terminal,
    )

    if args.window <= 0:
        print("--window must be > 0", file=sys.stderr)
        return 2
    if not 0.0 < args.slo_budget <= 1.0:
        print("--slo-budget must be in (0, 1]", file=sys.stderr)
        return 2
    try:
        events = read_jsonl_trace(
            args.trace, validate=not args.no_validate
        )
    except OSError as error:
        return _path_error("read trace", error)
    except (TraceSchemaError, ValueError) as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    incidents = None
    if args.incidents is not None:
        from repro.obs import read_incidents

        try:
            incidents = read_incidents(args.incidents)
        except OSError as error:
            return _path_error("read --incidents", error)
        except ValueError as error:
            print(f"invalid incident file: {error}", file=sys.stderr)
            return 1
    data = build_dashboard_data(
        events, burn_window=args.window, slo_budget=args.slo_budget,
        incidents=incidents,
    )
    print(render_terminal(data), end="")
    if args.out is not None:
        html_report = render_html(
            data, title=f"repro dashboard — {args.trace.name}"
        )
        try:
            args.out.write_text(html_report)
        except OSError as error:
            return _path_error("write --out", error)
        print(f"html report written to {args.out}")
    return 0


def _diff_command(args) -> int:
    """Implement ``repro diff``: differential forensics over traces."""
    import json

    from repro.obs import (
        TraceSchemaError,
        diff_runs,
        read_jsonl_trace,
        render_diff_html,
        render_diff_terminal,
    )

    if len(args.traces) < 2:
        print("diff needs at least two traces (baseline first)",
              file=sys.stderr)
        return 2
    if args.context < 0:
        print("--context must be >= 0", file=sys.stderr)
        return 2

    runs = []
    for path in args.traces:
        try:
            events = read_jsonl_trace(
                path, validate=not args.no_validate
            )
        except OSError as error:
            return _path_error("read trace", error)
        except (TraceSchemaError, ValueError) as error:
            print(f"invalid trace {path}: {error}", file=sys.stderr)
            return 1
        runs.append((path, events))

    # Labels: file stems, disambiguated by position when they collide
    # (diffing run.jsonl against a re-recorded run.jsonl is common).
    stems = [path.stem for path, _ in runs]
    labels = [
        stem if stems.count(stem) == 1 else f"{stem}#{i}"
        for i, stem in enumerate(stems)
    ]

    base_events = runs[0][1]
    diffs = [
        diff_runs(
            base_events, events,
            base_label=labels[0], other_label=labels[i],
            context=args.context,
        )
        for i, (_, events) in enumerate(runs[1:], start=1)
    ]

    for i, diff in enumerate(diffs):
        if i:
            print()
        print(render_diff_terminal(diff), end="")

    if args.json is not None:
        payload = (
            diffs[0].to_dict() if len(diffs) == 1
            else [diff.to_dict() for diff in diffs]
        )
        try:
            args.json.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        except OSError as error:
            return _path_error("write --json", error)
        print(f"diff json written to {args.json}")

    if args.out is not None:
        html = "\n".join(
            render_diff_html(
                diff,
                title=f"repro diff — {diff.base_label} vs "
                      f"{diff.other_label}",
            )
            for diff in diffs
        )
        try:
            args.out.write_text(html)
        except OSError as error:
            return _path_error("write --out", error)
        print(f"html report written to {args.out}")

    if args.expect_identical:
        broken = [diff for diff in diffs if not diff.identical]
        if broken:
            for diff in broken:
                assert diff.first_divergence is not None or (
                    diff.num_events[0] != diff.num_events[1]
                )
                where = (
                    f"event #{diff.first_divergence.index}"
                    if diff.first_divergence is not None
                    else "event counts"
                )
                print(
                    f"{diff.base_label} vs {diff.other_label}: "
                    f"runs diverge at {where}",
                    file=sys.stderr,
                )
            return 1
        print("all runs byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
