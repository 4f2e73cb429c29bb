"""Perf-trajectory harness: pinned workloads timed release over release.

``repro bench`` times a fixed set of hot paths — the ones the fast-path
engine work optimizes — plus the pinned traces end to end and a tiny
figure-10/11 sweep, and writes the measurements to ``BENCH_<n>.json``
at the repository root.  Committing one report per perf-focused change
turns the repo history into a performance trajectory: any regression
shows up as two adjacent files disagreeing on the same pinned workload.

The pinned micro workloads:

* ``forest_fit``              — cold :class:`ForestBatchPredictor`
  training (profile + 16-tree fit), best of N
* ``forest_predict_pertree``  — reference per-tree scalar prediction
* ``forest_predict_fused``    — fused flat-array scalar prediction
* ``forest_predict_batch``    — vectorized batch prediction (per row)
* ``predictor_memo_hit``      — :class:`ForestBatchPredictor` memo path
* ``chunker_prefill_budget``  — dynamic chunking incl. warm-started
  budget inversion, its slack swept from an engine view's decode rows
* ``execution_batch_time``    — analytical batch latency
* ``execution_prefill_time``  — memoized prefill-time lookup

plus the ``engine_soa`` pairs (an iteration's decode accounting,
bulk KV growth and eviction-victim selection vs the per-request or
per-row loops they replace, and one iteration's accounting at three
batch sizes) and the ``engine_e2e`` section driving the pinned traces
through the engine end to end (see ``docs/PERFORMANCE.md``).

All workloads are deterministic; wall-clock numbers obviously vary by
host, which is why each report embeds the host fingerprint (CPU count,
Python/NumPy versions).  Compare reports only within one host class.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: History: 2 — ``end_to_end`` grew a ``profile`` section (wall-clock
#: totals per ``obs.timed`` hot path during the replica trace).
#: 3 — new ``span_overhead`` section: the pinned end-to-end trace
#: re-run with the no-op observer and with full span tracing, and the
#: overhead ratios vs the unobserved run (the tentpole bound is <= 5%
#: with spans on and ~0% with the no-op observer).
#: 4 — new ``engine_soa`` micro section (struct-of-arrays kernels vs
#: their per-object reference loops) and ``engine_e2e`` section (the
#: same pinned trace driven end to end through both engine cores,
#: interleaved best-of-N; ``speedup`` is the array engine's headline).
#: 5 — optional ``behavioral_diff`` section (``--diff-baseline``): the
#: pinned end-to-end trace's recorded events diffed against a stored
#: baseline via :mod:`repro.obs.diff`, so perf runs assert behavioral
#: identity, not just speed.
#: 6 — new ``prefix_reuse`` section: a pinned decode-heavy multi-turn
#: session trace served with the radix KV prefix cache off and on;
#: ``goodput_x`` is the *simulated* goodput ratio (deterministic — the
#: CI gate asserts >= 1.2), wall times ride along for the trajectory.
#: 7 — ``engine_e2e`` grew a ``fleet`` row (AzConv at 16 QPS on 8
#: least-loaded replicas) and every row a ``stretch`` block with the
#: array engine's decode-stretch counters; ``derived`` grew
#: ``engine_e2e_fleet_speedup``.
#: 8 — one engine core: ``engine_e2e`` rows report the engine's best
#: ``wall_s`` and ``host_s`` (``wall_s`` scaled to simbench's reference
#: host by its yardstick) instead of ``objects_s``/``arrays_s``/
#: ``speedup``, and the three ``engine_e2e_*_speedup`` derived rows are
#: gone; ``engine_soa.object_kv_grow`` became ``row_kv_grow`` (48
#: per-row ``ArrayKVLedger.grow`` calls, the pressure fallback).
#: 9 — the ``prefix_reuse`` radix row reports ``kv_pressure_iterations``
#: (iterations whose decode growth fell back to the per-row path, which
#: since decode growth reclaims prefix blocks in one call happens only
#: when a decode must be evicted) beside ``evictions`` and
#: ``prefill_saved_tokens``; ``engine_e2e`` reports ``conv_reps``, the
#: conv row's own rep count (15 under ``--quick``), and each row's
#: ``host_s`` is the median of its per-rep scaled times instead of the
#: best.
#: 10 — ``span_overhead``'s three ``*_overhead`` ratios are the median
#: over reps of each rep's paired ratio (its configurations run back to
#: back) instead of a ratio of best times, and ``--quick`` runs 21 reps
#: instead of 7; the ``*_s`` times stay each configuration's best.
#: 11 — ``prefix_reuse`` grew a ``radix_pressure`` row (120 agent
#: sessions at 0.2 sessions/s, radix reuse, the same in ``--quick``)
#: whose prefix cache fills the KV pool, so its ``evictions`` count the
#: tree's LRU reclaim; every radix row reports ``cached_blocks``.
#: 12 — the ``end_to_end`` section is gone: its workload (AzCode, 60
#: or 150 requests at qps 1.0 x3, one qoserve replica) is exactly the
#: ``engine_e2e`` ``code`` row, and its ``profile`` came from the
#: deleted ``obs.timed`` profiler (``simbench/run.py --trace 1`` times
#: the same scheduler sections).
#: 13 — ``micro_us`` grew a ``forest_fit`` row: one cold
#: ``ForestBatchPredictor.train`` on llama3-8b (profiling plus the
#: 16-tree fit that every cold ``Session`` pays), best of N.
#: 14 — ``chunker_prefill_budget`` takes its latency budget from the
#: decode slack of an engine view over 16 decode rows, swept each
#: call as QoServe plans, instead of from the request objects.
#: 15 — decode rows derive from an iteration log: ``soa_advance`` times
#: 16 logged iterations of 48 rows plus the fold of every row's stats
#: (reported per iteration; the fold is where the per-token work went),
#: ``engine_soa`` grew ``soa_iteration_8``/``_48``/``_512`` (one
#: iteration's finish plus KV reservation at 8, 48 and 512 rows), and
#: ``engine_e2e`` grew a ``fleet32`` row (AzConv at 64 QPS on 32
#: least-loaded replicas).
SCHEMA_VERSION = 15

#: Repo root (``src/repro/bench.py`` -> two levels up from ``repro``).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Pinned sweep grid for the end-to-end benchmark (a miniature of the
#: Figure 10/11 load sweep; small enough for CI, big enough to touch
#: every layer: trace build, scheduling, chunking, forest inference).
SWEEP_SCHEMES = ("fcfs", "qoserve")
SWEEP_LOADS = (2.0, 3.0)


def _timeit(
    fn: Callable[[], Any], *, reps: int, loops: int
) -> dict[str, float]:
    """Best-of-``reps`` mean time per call over ``loops`` calls.

    Best-of (not mean-of-reps) is the standard noise filter for micro
    benchmarks: scheduling hiccups only ever make a rep slower.
    """
    fn()  # warm caches, JIT-free but memo-ful paths stabilize
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / loops)
    return {"best_us": best * 1e6, "reps": reps, "loops": loops}


def _micro_benchmarks(quick: bool) -> dict[str, dict[str, float]]:
    import numpy as np

    from repro.core.predictor import (
        ForestBatchPredictor,
        cached_forest_predictor,
    )
    from repro.core.chunking import NI_PACE_FLOOR, DynamicChunker
    from repro.engine.interface import EngineView
    from repro.engine.rows import ArrayKVLedger, _RowStore
    from repro.experiments.configs import get_execution_model
    from repro.perfmodel.execution import BatchShape, PrefillChunk
    from repro.perfmodel.profiler import batch_features
    from repro.workload.datasets import AZURE_CODE
    from repro.api import build_trace

    execution_model = get_execution_model("llama3-8b")
    predictor = cached_forest_predictor(execution_model)
    forest = predictor.forest
    quantile = predictor.quantile

    reps = 3 if quick else 5
    loops = 200 if quick else 1000

    # A representative mixed batch: one mid-size chunk + a decode pool.
    shape = BatchShape(
        prefill_chunks=[PrefillChunk(512, 1024)],
        num_decodes=24,
        decode_context_total=24 * 900,
    )
    features = batch_features(shape)
    rows = np.asarray([features] * 256, dtype=np.float64)

    results: dict[str, dict[str, float]] = {}
    # Training bypasses the predictor cache: every rep fits from scratch.
    results["forest_fit"] = _timeit(
        lambda: ForestBatchPredictor.train(execution_model),
        reps=reps, loops=1,
    )
    results["forest_predict_pertree"] = _timeit(
        lambda: forest.predict_one_pertree(features, quantile=quantile),
        reps=reps, loops=loops,
    )
    results["forest_predict_fused"] = _timeit(
        lambda: forest.predict_one(features, quantile=quantile),
        reps=reps, loops=loops,
    )
    batch = _timeit(
        lambda: forest.predict_batch(rows, quantile=quantile),
        reps=reps, loops=max(1, loops // 50),
    )
    batch["best_us_per_row"] = batch["best_us"] / len(rows)
    results["forest_predict_batch"] = batch
    results["predictor_memo_hit"] = _timeit(
        lambda: predictor.predict(shape), reps=reps, loops=loops,
    )

    # The chunker exercised the way QoServe drives it: the slack of
    # the same decode rows swept each call, advancing clock, so the
    # warm-started inversion path is active.
    trace = build_trace(AZURE_CODE, qps=1.0, num_requests=40, seed=7)
    decode_rows = _RowStore()
    kv_cache = ArrayKVLedger(
        execution_model.kv_capacity_tokens, rows=decode_rows
    )
    for request in trace.requests[:16]:
        request.prefill_done = request.prompt_tokens
        request.first_token_time = request.arrival_time
        decode_rows.add(request, *kv_cache.attach_row(request.request_id))
    view = EngineView(
        0.0,
        decode_rows,
        sum(r.context_length for r in decode_rows.req),
        kv_cache,
        execution_model,
        max_decode_slots=256,
    )
    chunker = DynamicChunker(predictor)

    def chunk_once() -> None:
        view.now += 0.001
        chunker.prefill_budget(
            view.now,
            view.num_decodes,
            view.decode_context_total,
            view.decode_slack(NI_PACE_FLOOR),
            prefill_context_before=256,
        )

    results["chunker_prefill_budget"] = _timeit(
        chunk_once, reps=reps, loops=max(1, loops // 5),
    )
    results["execution_batch_time"] = _timeit(
        lambda: execution_model.batch_time(shape), reps=reps, loops=loops,
    )
    results["execution_prefill_time"] = _timeit(
        lambda: execution_model.prefill_time(2048, 512),
        reps=reps, loops=loops,
    )
    return results


def _engine_soa_micro_benchmarks(quick: bool) -> dict[str, dict[str, float]]:
    """SoA engine accounting vs the per-request loops it replaces.

    Three pinned 48-row workloads, each timed both ways:

    * ``advance`` — one decode token for every row, per iteration:
      16 finished iterations (:meth:`_RowStore.finish_iteration`: log
      the finish time, pop the completion bucket) plus the fold of
      every row's 16 tokens (:meth:`_RowStore.sync_row`), divided by
      16, vs 48 :meth:`Request.record_output_token` calls;
    * ``kv_grow`` — the whole batch grows one token
      (:meth:`ArrayKVLedger.bulk_decode_grow`, one phase-count lookup)
      vs 48 per-row :meth:`ArrayKVLedger.grow` calls on the same
      ledger, the path the engine falls back to under KV pressure;
    * ``victim_select`` — stall-recovery victim choice
      (``np.argmax`` over the deadline column vs ``max()`` over the
      decode queue).

    ``soa_iteration_<n>`` times one iteration's accounting, finish plus
    KV reservation, at 8, 48 and 512 rows: it should not grow with the
    batch (the folds it defers are what ``advance`` adds).  Targets
    and capacity are set far out of reach so the timed loops never
    complete a request or exhaust KV — every call exercises the
    steady-state path.
    """
    from repro.core.qos import Q1_INTERACTIVE
    from repro.core.request import Request
    from repro.engine.replica import ReplicaEngine
    from repro.engine.rows import ArrayKVLedger, _RowStore

    reps = 3 if quick else 5
    loops = 200 if quick else 1000
    num_rows = 48
    block_size = 16

    def make_requests(count: int = num_rows) -> list[Request]:
        requests = []
        for i in range(count):
            request = Request(
                request_id=i,
                arrival_time=0.001 * i,
                prompt_tokens=700 + 13 * i,
                decode_tokens=1 << 40,  # unreachable: no completions
                qos=Q1_INTERACTIVE,
            )
            request.prefill_done = request.prompt_tokens
            request.record_output_token(0.02)
            requests.append(request)
        return requests

    def make_soa_state(count: int = num_rows):
        """A populated row store + ledger, detached from any engine,
        with its batch stamped."""
        rows = _RowStore()
        ledger = ArrayKVLedger(10**8, block_size, rows)
        for request in make_requests(count):
            ledger.grow(request.request_id, request.context_length)
            rows.add(request, *ledger.attach_row(request.request_id))
        rows.batch_n = rows.n
        return rows, ledger

    results: dict[str, dict[str, float]] = {}

    # --- advance: one decode token for every row --------------------
    # Timed per ``fold_every`` iterations, reported per iteration.
    fold_every = 16

    def per_iteration(timing: dict[str, float]) -> dict[str, float]:
        return {**timing, "best_us": timing["best_us"] / fold_every}

    rows, _ = make_soa_state()
    clock = {"now": 0.02}

    def soa_advance() -> None:
        for _ in range(fold_every):
            clock["now"] += 0.01
            rows.finish_iteration(clock["now"])
        for i in range(rows.n):
            rows.sync_row(i)

    results["soa_advance"] = per_iteration(
        _timeit(soa_advance, reps=reps, loops=loops // fold_every)
    )

    object_requests = make_requests()
    obj_clock = {"now": 0.02}

    def object_advance() -> None:
        for _ in range(fold_every):
            obj_clock["now"] += 0.01
            now = obj_clock["now"]
            for request in object_requests:
                request.record_output_token(now)

    results["object_advance"] = per_iteration(
        _timeit(object_advance, reps=reps, loops=loops // fold_every)
    )

    # --- kv_grow: the whole batch grows one token -------------------
    _, ledger = make_soa_state()
    results["soa_kv_grow"] = _timeit(
        ledger.bulk_decode_grow, reps=reps, loops=loops
    )

    def row_kv_grow() -> None:
        for request_id in range(num_rows):
            ledger.grow(request_id, 1)

    results["row_kv_grow"] = _timeit(row_kv_grow, reps=reps, loops=loops)

    # --- iteration: finish plus reservation, by batch size ----------
    for count in (8, 48, 512):
        batch_rows, batch_ledger = make_soa_state(count)
        batch_clock = {"now": 0.02}

        def iteration(
            rows=batch_rows, ledger=batch_ledger, clock=batch_clock
        ) -> None:
            clock["now"] += 0.01
            rows.finish_iteration(clock["now"])
            ledger.bulk_decode_grow()

        results[f"soa_iteration_{count}"] = _timeit(
            iteration, reps=reps, loops=loops
        )

    # --- victim_select: stall-recovery eviction choice --------------
    class _VictimHarness:
        _pick_eviction_victim = ReplicaEngine._pick_eviction_victim

        def __init__(self) -> None:
            self._rows, _ = make_soa_state()

    victim_harness = _VictimHarness()
    exclude = victim_harness._rows.req[0]
    results["soa_victim_select"] = _timeit(
        lambda: victim_harness._pick_eviction_victim(exclude),
        reps=reps, loops=loops,
    )

    decode_queue = make_requests()
    obj_exclude = decode_queue[0]

    def object_victim_select() -> Request | None:
        candidates = [r for r in decode_queue if r is not obj_exclude]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.next_token_deadline)

    results["object_victim_select"] = _timeit(
        object_victim_select, reps=reps, loops=loops
    )
    return results


def _host_speed():
    """simbench's :class:`HostSpeed`: scales a wall time to seconds on
    its reference host, bracketing it with yardstick runs.

    Loaded from the checkout's ``simbench/run.py`` (``repro bench``
    already writes its reports at the checkout root).
    """
    spec = importlib.util.spec_from_file_location(
        "simbench_run", REPO_ROOT / "simbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.HostSpeed()


def _engine_e2e_benchmark(quick: bool) -> dict[str, Any]:
    """The pinned traces through the engine end to end.

    Four workloads: the decode-heavy conversational trace on one
    replica (where the iteration loop and decode-stretch fast-forward
    dominate), the prefill-heavy code trace (where scheduler planning
    dominates), and the conversational trace on 8- and 32-replica
    least-loaded fleets (where a stretch is bounded by other replicas'
    events, so nearly every attempt must be rejected cheaply, and the
    32-replica row runs the largest decode batches).  Engines are constructed outside the timed region.  Each
    row reports ``wall_s``, its best rep as measured, and ``host_s``,
    the median over reps of each rep scaled to simbench's reference
    host by the yardstick runs bracketing it, so a gate on it holds
    across host speeds.  The median, not the best: the host changes
    speed within a row, and the best scaled rep is the one whose
    yardsticks saw a slower host than the run did.  ``completed`` and
    the decode-stretch counters are deterministic behaviour, pinned
    by CI.
    """
    from functools import partial

    from repro.api import build_trace, make_scheduler
    from repro.cluster.deployment import ClusterDeployment
    from repro.engine import ReplicaConfig, ReplicaEngine
    from repro.experiments.configs import get_execution_model
    from repro.simcore import Simulator
    from repro.workload.datasets import AZURE_CODE, AZURE_CONV

    execution_model = get_execution_model("llama3-8b")
    num_requests = 60 if quick else 150
    fleet_requests = 800 if quick else 2000
    fleet32_requests = 3200 if quick else 8000
    reps = 3 if quick else 5
    # The quick conv row serves 60 requests in ~10 ms: the median of
    # three reps is too noisy for its CI-gated host_s to tell a
    # slowdown apart.
    conv_reps = 15 if quick else reps

    def replica(dataset, scale):
        base = build_trace(
            dataset, qps=1.0, num_requests=num_requests, seed=42
        )

        def build():
            simulator = Simulator()
            engine = ReplicaEngine(
                simulator,
                execution_model,
                make_scheduler("qoserve", execution_model),
                ReplicaConfig(),
            )
            for request in base.fresh_copy().scaled_arrivals(scale):
                engine.submit(request)
            return simulator.run, [engine]

        return f"{dataset.name} qps=1.0 x{scale} qoserve", build

    def fleet(qps, num_replicas, count):
        base = build_trace(AZURE_CONV, qps=qps, num_requests=count, seed=42)

        def build():
            cluster = ClusterDeployment(
                execution_model,
                partial(make_scheduler, "qoserve", execution_model),
                num_replicas=num_replicas,
                routing="least-loaded",
            )
            for request in base.fresh_copy():
                cluster.submit(request)
            return cluster.run, cluster.replicas

        label = (
            f"{AZURE_CONV.name} qps={qps} {num_replicas} replicas "
            "least-loaded"
        )
        return label, build

    workloads = {
        "conv": (replica(AZURE_CONV, 5.0), conv_reps),
        "code": (replica(AZURE_CODE, 3.0), reps),
        "fleet": (fleet(16.0, 8, fleet_requests), reps),
        "fleet32": (fleet(64.0, 32, fleet32_requests), reps),
    }
    report: dict[str, Any] = {
        "num_requests": num_requests,
        "fleet_requests": fleet_requests,
        "fleet32_requests": fleet32_requests,
        "reps": reps,
        "conv_reps": conv_reps,
    }
    speed = _host_speed()
    for name, ((label, build), row_reps) in workloads.items():
        wall_s = math.inf
        host_times = []
        completed = None
        for rep in range(row_reps + 1):  # the first pass is warm-up
            run, replicas = build()
            started = time.perf_counter()
            run(max_events=50_000_000)
            elapsed = time.perf_counter() - started
            scaled = speed.scale(elapsed)
            done = sum(len(e.completed) for e in replicas)
            if completed is None:
                completed = done
            elif completed != done:
                raise RuntimeError(f"{name}: nondeterministic run")
            if rep:
                wall_s = min(wall_s, elapsed)
                host_times.append(scaled)
        report[name] = {
            "workload": label,
            "wall_s": wall_s,
            "host_s": statistics.median(host_times),
            "completed": completed,
            "stretch": {
                c: sum(getattr(e, f"stretch_{c}") for e in replicas)
                for c in ("attempts", "rejected_cheap", "hits", "iterations")
            },
        }
    return report


def _capture_pinned_trace(quick: bool) -> list[dict[str, Any]]:
    """Record the pinned AzCode workload as events.

    Exactly the workload of the ``engine_e2e`` ``code`` row (AzCode,
    qps=1.0 x3, qoserve), run once with full tracing — the event stream
    is deterministic, so any change between two captures is a real
    behavior change, not noise.
    """
    from repro.api import ServeConfig, build_trace, simulate
    from repro.obs import ListSink, TraceRecorder, TracingObserver
    from repro.workload.datasets import AZURE_CODE

    num_requests = 60 if quick else 150
    base = build_trace(
        AZURE_CODE, qps=1.0, num_requests=num_requests, seed=42
    )
    trace = base.scaled_arrivals(3.0)
    sink = ListSink()
    simulate(
        config=ServeConfig(),
        trace=trace,
        observer=TracingObserver(recorder=TraceRecorder([sink])),
    )
    return sink.events


def diff_baseline_check(
    baseline: Path, quick: bool = False
) -> dict[str, Any]:
    """``--diff-baseline``: behavioral identity against a stored trace.

    First use (no file at ``baseline``): records the pinned end-to-end
    trace there and reports ``recorded``.  Later runs re-capture the
    same workload and diff it against the stored events with
    :func:`repro.obs.diff.diff_runs`; the returned section carries
    ``identical`` plus the first-divergence index and goodput delta
    when behavior changed, and the CLI turns that into a non-zero
    exit.
    """
    import json as _json

    from repro.obs import read_jsonl_trace
    from repro.obs.diff import diff_runs

    events = _capture_pinned_trace(quick)
    workload = f"AzCode qps=3.0 qoserve ({'quick' if quick else 'full'})"
    if not baseline.exists():
        with baseline.open("w") as sink:
            for event in events:
                sink.write(_json.dumps(
                    event, sort_keys=True, separators=(",", ":")
                ) + "\n")
        return {
            "workload": workload,
            "baseline": str(baseline),
            "recorded": True,
            "num_events": len(events),
        }
    base_events = read_jsonl_trace(baseline, validate=False)
    diff = diff_runs(
        base_events, events,
        base_label="baseline", other_label="current",
    )
    section: dict[str, Any] = {
        "workload": workload,
        "baseline": str(baseline),
        "recorded": False,
        "identical": diff.identical,
        "events": {"baseline": diff.num_events[0],
                   "current": diff.num_events[1]},
    }
    if not diff.identical:
        section["good_delta"] = diff.goodput["good_delta"]
        section["cause_goodput_delta"] = {
            cause: diff.cause_goodput_delta[cause]
            for cause in sorted(diff.cause_goodput_delta)
        }
        if diff.first_divergence is not None:
            section["first_divergence_index"] = (
                diff.first_divergence.index
            )
            section["first_divergence_kind"] = (
                (diff.first_divergence.other_event or
                 diff.first_divergence.base_event or {}).get("kind")
            )
    return section


def _span_overhead_benchmark(quick: bool) -> dict[str, Any]:
    """Marginal cost of span tracing on the pinned end-to-end trace.

    Four identical runs after a warm-up: the no-op
    :data:`~repro.obs.NULL_OBSERVER` twice (baseline + noise floor; span
    hooks on the no-op path must be free), a
    :class:`~repro.obs.TracingObserver` with span emission suppressed
    (the pre-span tracing cost), and the full observer.
    ``spans_overhead`` is the span hooks' marginal cost over the
    otherwise-identical tracing run — the quantity the "<= 5%" bound in
    ``docs/OBSERVABILITY.md`` refers to; ``tracing_overhead`` is the
    long-standing cost of full event tracing vs no observer at all.
    Each rep runs the configurations back to back, and each ratio is
    the median over reps of that rep's paired ratio: the host changes
    speed within a second, so a ratio of two best times, taken from
    different reps, compares runs that saw different hosts.  The
    ``*_s`` times are each configuration's best run.
    """
    from repro.api import ServeConfig, build_trace, simulate
    from repro.obs import RingSink, TraceRecorder, TracingObserver
    from repro.workload.datasets import AZURE_CODE

    class _NoSpanObserver(TracingObserver):
        def on_span_start(self, name, request, now, replica_id=-1):
            pass

        def on_span_end(self, name, request, now, replica_id=-1):
            pass

    num_requests = 150 if quick else 400
    base = build_trace(
        AZURE_CODE, qps=1.0, num_requests=num_requests, seed=42
    )
    reps = 21 if quick else 11

    def run_once(observer) -> float:
        trace = base.fresh_copy()
        started = time.perf_counter()
        simulate(config=ServeConfig(), trace=trace, observer=observer)
        return time.perf_counter() - started

    def tracing(cls) -> Any:
        return cls(recorder=TraceRecorder([RingSink(capacity=4096)]))

    # None adopts the engine's no-op default observer.
    configs: list[Any] = [
        lambda: None,
        lambda: None,
        lambda: tracing(_NoSpanObserver),
        lambda: tracing(TracingObserver),
    ]
    run_once(None)  # warm-up: model tables and allocator caches
    runs = [
        [run_once(make_observer()) for make_observer in configs]
        for _ in range(reps)
    ]

    def overhead(numerator: int, denominator: int) -> float:
        return statistics.median(
            run[numerator] / run[denominator] - 1.0 for run in runs
        )

    baseline_s, null_s, no_span_s, spans_s = map(min, zip(*runs))
    return {
        "workload": "AzCode qps=1.0 qoserve",
        "num_requests": num_requests,
        "reps": reps,
        "baseline_s": baseline_s,
        "null_observer_s": null_s,
        "tracing_no_spans_s": no_span_s,
        "spans_on_s": spans_s,
        "null_observer_overhead": overhead(1, 0),
        "tracing_overhead": overhead(2, 0),
        "spans_overhead": overhead(3, 2),
    }


def _prefix_reuse_benchmark(quick: bool) -> dict[str, Any]:
    """Radix prefix reuse vs off on a pinned decode-heavy session trace.

    Multi-turn agent sessions (shared 1024-token system prompt, long
    completions) at a load where prefilling every turn's full history
    from scratch overloads the replica.  Both runs replay identical
    arrivals; ``goodput_x`` compares *simulated* goodput (requests
    finished within SLO per second of arrival span), which is
    deterministic for the pinned seed — the ``prefix-smoke`` CI job
    gates on it staying >= 1.2.  Wall-clock times ride along like
    every other section but carry no gate.

    That trace never fills the KV pool, so ``radix_pressure`` serves
    a longer one (120 sessions at 0.2 sessions/s, ``--quick`` too) whose
    prefix cache does: its ``evictions`` and ``cached_blocks`` pin the
    radix tree's LRU reclaim.
    """
    from dataclasses import replace

    from repro.api import ServeConfig, Session
    from repro.workload.distributions import LognormalLengths
    from repro.workload.sessions import AGENT_PROFILE, SessionWorkload

    profile = replace(
        AGENT_PROFILE,
        completion=LognormalLengths(p50=500, p90=1200, max_tokens=2048),
    )
    num_sessions = 30 if quick else 60
    load = 0.8

    def build(sessions: int, session_qps: float) -> list:
        return list(
            SessionWorkload(profile, session_qps=session_qps, seed=42).build(
                sessions
            )
        )

    base = build(num_sessions, load)

    def run_once(kv_reuse: str, trace: list) -> dict[str, Any]:
        session = Session(ServeConfig(
            scheduler="qoserve", kv_reuse=kv_reuse,
        ))
        requests = [r.clone_fresh() for r in trace]
        started = time.perf_counter()
        for request in requests:
            session.submit(request)
        session.drain()
        elapsed = time.perf_counter() - started
        good = sum(
            1 for r in requests
            if r.is_finished and not r.violated_deadline
        )
        span = max(
            1e-9,
            max(r.arrival_time for r in requests)
            - min(r.arrival_time for r in requests),
        )
        out: dict[str, Any] = {
            "goodput_rps": good / span,
            "wall_s": elapsed,
        }
        engine = session.engines[0]
        cache = engine.prefix_cache
        if cache is not None:
            assert cache.total_refs() == 0, "prefix refcounts leaked"
            lookups = cache.hits + cache.misses
            out["hit_rate"] = cache.hits / lookups if lookups else 0.0
            out["prefill_saved_tokens"] = cache.hit_tokens
            out["evictions"] = cache.evictions
            out["kv_pressure_iterations"] = engine.kv_pressure_iterations
            out["cached_blocks"] = cache.cached_blocks
        return out

    off = run_once("off", base)
    radix = run_once("radix", base)
    radix_pressure = run_once("radix", build(120, 0.2))
    return {
        "workload": (
            f"agent sessions x{num_sessions} qps={load} qoserve "
            "(decode-heavy completions)"
        ),
        "num_requests": len(base),
        "off": off,
        "radix": radix,
        "radix_pressure": radix_pressure,
        "goodput_x": (
            radix["goodput_rps"] / off["goodput_rps"]
            if off["goodput_rps"] else float("inf")
        ),
    }


def _sweep_benchmark(quick: bool, jobs: int | None) -> dict[str, Any]:
    """The pinned mini fig10/11 sweep: serial vs ``jobs`` workers.

    Rows must be identical at any job count; the report records the
    comparison so CI can assert determinism alongside the timings.
    """
    from repro.experiments import fig10_11_load_sweep as sweep
    from repro.experiments.configs import Scale

    scale = Scale(
        num_requests=40 if quick else 120,
        min_duration_s=0.0,
        seed=42,
        label="bench-pinned",
    )
    if jobs is None:
        jobs = min(4, os.cpu_count() or 1)
    jobs = max(1, jobs)

    started = time.perf_counter()
    serial = sweep.run(
        scale, schemes=SWEEP_SCHEMES, loads=SWEEP_LOADS, jobs=1
    )
    serial_s = time.perf_counter() - started

    report: dict[str, Any] = {
        "grid": f"{len(SWEEP_SCHEMES)} schemes x {len(SWEEP_LOADS)} loads",
        "num_requests": scale.num_requests,
        "serial_s": serial_s,
        "jobs": jobs,
    }
    if jobs > 1:
        started = time.perf_counter()
        parallel = sweep.run(
            scale, schemes=SWEEP_SCHEMES, loads=SWEEP_LOADS, jobs=jobs
        )
        report["parallel_s"] = time.perf_counter() - started
        report["rows_identical"] = parallel.rows == serial.rows
        if (os.cpu_count() or 1) < 2:
            report["note"] = (
                "single-CPU host: worker processes timeshare one "
                "core, so parallel_s measures pool overhead, not "
                "speedup; rows_identical is the meaningful signal"
            )
    return report


def run_bench(quick: bool = False, jobs: int | None = None) -> dict:
    """Run the full pinned-workload suite and return the report dict."""
    import numpy as np

    micro = _micro_benchmarks(quick)
    engine_soa = _engine_soa_micro_benchmarks(quick)
    engine_e2e = _engine_e2e_benchmark(quick)
    span_overhead = _span_overhead_benchmark(quick)
    sweep = _sweep_benchmark(quick, jobs)
    prefix_reuse = _prefix_reuse_benchmark(quick)

    pertree = micro["forest_predict_pertree"]["best_us"]
    fused = micro["forest_predict_fused"]["best_us"]
    per_row = micro["forest_predict_batch"]["best_us_per_row"]
    derived = {
        "fused_scalar_speedup_vs_pertree": pertree / fused,
        "fused_batch_speedup_vs_pertree": pertree / per_row,
        "soa_advance_speedup": (
            engine_soa["object_advance"]["best_us"]
            / engine_soa["soa_advance"]["best_us"]
        ),
        "soa_kv_grow_speedup": (
            engine_soa["row_kv_grow"]["best_us"]
            / engine_soa["soa_kv_grow"]["best_us"]
        ),
        "soa_victim_select_speedup": (
            engine_soa["object_victim_select"]["best_us"]
            / engine_soa["soa_victim_select"]["best_us"]
        ),
    }
    return {
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "quick": quick,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "micro_us": micro,
        "engine_soa": engine_soa,
        "engine_e2e": engine_e2e,
        "derived": derived,
        "span_overhead": span_overhead,
        "sweep": sweep,
        "prefix_reuse": prefix_reuse,
    }


def next_bench_path(root: Path = REPO_ROOT) -> Path:
    """First free ``BENCH_<n>.json`` slot at the repo root."""
    taken = set()
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            taken.add(int(match.group(1)))
    index = 1
    while index in taken:
        index += 1
    return root / f"BENCH_{index:03d}.json"


def write_bench(report: dict, out: Path | None = None) -> Path:
    """Write ``report`` to ``out`` or the next free ``BENCH_<n>.json``."""
    path = out if out is not None else next_bench_path()
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    result = run_bench(quick="--quick" in sys.argv)
    print(json.dumps(result, indent=2, sort_keys=True))
