"""Layered simulator benchmark: one workload, timed end to end or traced per layer.

Run from the repository root::

    python3 simbench/run.py --workload fleet_conv --seed 1 --seconds 20 --trace 0

The workloads are described in ``workloads.py``. One run generates the
workload's requests from ``--seed``, serves them once untimed (warm-up and
reference behaviour), then serves them again and again, each time on a fresh
session, for ``--seconds`` seconds. Then:

* ``--trace 0`` prints the end-to-end metrics. ``setup_s`` is the median of
  three cold ``Session`` builds (cost model and forest trained from scratch),
  ``wall_s`` the median time from the first submit to the end of drain.
  Both are scaled to the reference host's speed by a yardstick timed around
  each measurement (see :class:`HostSpeed`). Peak RSS and the simulated
  behaviour (``sim.*``, deterministic per seed) complete the set.
* ``--trace 1`` alternates untimed and traced repeats, the traced ones under
  :class:`spans.LayerTracer`, and prints the per-layer metrics (medians
  over the traced repeats).

Every repeat passes the correctness gate (finished plus failed equals
submitted; after drain each replica's KV ledger holds exactly its prefix
cache's blocks and no radix path is locked) and reproduces the warm-up's
behaviour digest, a hash over every request's first-token time, completion
time and SLO verdict. A traced repeat must reproduce it too, which shows the
wrappers change no behaviour. A violation, or a traced run whose layer self
times cover less than 90% of its wall time, exits non-zero without a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and the
digest go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim.goodput_rps": "1/s",
    "sim.ttft_p50_s": "s",
    "sim.ttft_p99_s": "s",
    "sim.max_tbt_mean_s": "s",
}

SETUP_REPEATS = 3
MIN_REPEATS = 3
MIN_COVERAGE = 0.9


class GateError(RuntimeError):
    """A correctness check failed; the run must not report a result."""


def log(message: str) -> None:
    print(f"simbench: {message}", file=sys.stderr, flush=True)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"simbench: program sources not found under {src}")
    sys.path.insert(0, str(src))


def host_fingerprint() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# --- serving one repeat ------------------------------------------------------


def reset_caches(cold: bool) -> None:
    """Return the process-wide model caches to a known state.

    ``cold`` drops the cost models and trained forests, so the next
    ``Session`` builds them from scratch (what ``setup_s`` times). Otherwise
    only their memo tables are emptied: every timed repeat then starts where
    the first simulation after set-up starts, with a trained forest and no
    memoized predictions.
    """
    from repro.core import predictor
    from repro.experiments import configs

    if cold:
        predictor._FOREST_CACHE.clear()
        configs._MODEL_CACHE.clear()
        return
    for forest_predictor in predictor._FOREST_CACHE.values():
        forest_predictor._memo.clear()
    for model in configs._MODEL_CACHE.values():
        model._prefill_time_cache.clear()


def build_session(workload):
    from repro.api import Session

    return Session(workload.serve_config(), observer=workload.observer())


def measure_setup(workload) -> float:
    """Time one cold ``Session`` build (cost model and forest from scratch)."""
    reset_caches(cold=True)
    started = time.perf_counter()
    build_session(workload)
    return time.perf_counter() - started


@dataclass
class Repeat:
    wall: float
    session: object
    requests: list
    failed: int
    digest: str


def digest(requests) -> str:
    """Behaviour hash over (id, first-token time, completion time, verdict)."""
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.request_id):
        h.update(
            f"{r.request_id},{r.first_token_time!r},{r.completion_time!r},"
            f"{r.violated_deadline}\n".encode()
        )
    return h.hexdigest()[:16]


def check_gate(session, requests) -> int:
    """Raise :class:`GateError` on a broken conservation law; return failed."""
    engines = session.engines
    if len(session.requests) != len(requests):
        raise GateError(
            f"stack holds {len(session.requests)} requests, "
            f"{len(requests)} were submitted"
        )
    failed = sum(
        len(e.rejected) + len(e.dropped) + len(e.cancelled) for e in engines
    )
    finished = sum(1 for r in requests if r.is_finished)
    if finished + failed != len(requests):
        raise GateError(
            f"finished {finished} + failed {failed} != submitted "
            f"{len(requests)}"
        )
    for engine in engines:
        cache = engine.prefix_cache
        cached = cache.cached_blocks if cache is not None else 0
        if engine.kv_cache.used_blocks != cached:
            raise GateError(
                f"replica {engine.replica_id}: KV ledger holds "
                f"{engine.kv_cache.used_blocks} blocks after drain, prefix "
                f"cache {cached}"
            )
        if cache is not None and cache.total_refs() != 0:
            raise GateError(
                f"replica {engine.replica_id}: {cache.total_refs()} radix "
                "references still held after drain"
            )
    return failed


def serve(workload, templates, tracer=None) -> Repeat:
    """Serve fresh copies of ``templates`` on a fresh session."""
    reset_caches(cold=False)
    session = build_session(workload)
    requests = [r.clone_fresh() for r in templates]
    # Start every repeat from a collected heap, so garbage left by the
    # previous one does not bill its collection to this one.
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        for request in requests:
            session.submit(request)
        session.drain()
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    failed = check_gate(session, requests)
    return Repeat(wall, session, requests, failed, digest(requests))


# --- metrics -----------------------------------------------------------------


def behaviour_metrics(requests) -> dict[str, float]:
    """Simulated behaviour: deterministic for a given seed."""
    import numpy as np

    finished = [r for r in requests if r.is_finished]
    ttft = np.array([r.ttft for r in finished])
    max_tbt = np.array([r.max_tbt for r in finished])
    arrivals = [r.arrival_time for r in requests]
    span = max(arrivals) - min(arrivals)
    good = sum(1 for r in finished if not r.violated_deadline)
    return {
        "sim.goodput_rps": good / span,
        "sim.ttft_p50_s": float(np.quantile(ttft, 0.5)),
        "sim.ttft_p99_s": float(np.quantile(ttft, 0.99)),
        "sim.max_tbt_mean_s": float(max_tbt.mean()),
    }


def layer_metrics(tracer, repeat: Repeat, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced repeat."""
    from repro.api import aggregate_scheduler_stats
    from spans import KV_FNS, LAYERS, PREFIX_FNS, SCHED_FNS

    t = tracer
    engines = repeat.session.engines
    wall = repeat.wall
    layers = t.layer_self_s()
    stats = aggregate_scheduler_stats(engines)
    m: dict[str, float] = {}

    m["simcore.events"] = repeat.session.simulator.events_processed
    m["simcore.push_calls"] = t.calls["simcore.push"]
    m["simcore.push_s"] = t.self_s["simcore.push"]
    m["simcore.pop_s"] = t.self_s["simcore.pop"]
    m["simcore.loop_s"] = t.self_s["simcore.run"]
    m["simcore.fast_forward_s"] = t.self_s["simcore.fast_forward"]
    m["simcore.heap_depth_mean"] = (
        t.heap_depth_total / max(1, t.calls["simcore.pop"])
    )
    m["simcore.self_s"] = layers["simcore"]

    tries = t.calls["perfmodel.decode_batch_times_flat"]
    hits = t.calls["simcore.fast_forward"]
    m["engine.self_s"] = layers["engine"]
    m["engine.actions"] = t.calls["engine.action"]
    m["engine.iterations"] = sum(e.iterations_run for e in engines)
    m["engine.decode_batch_mean"] = t.decode_rows / max(1, t.decode_batches)
    m["engine.stretch_tries"] = tries
    m["engine.stretch_hits"] = hits
    m["engine.stretch_hit_ratio"] = hits / tries if tries else 0.0

    for fn in KV_FNS:
        m[f"kv.{fn}_calls"] = t.calls[f"kv.{fn}"]
        m[f"kv.{fn}_s"] = t.self_s[f"kv.{fn}"]
    m["kv.self_s"] = layers["kv"]
    m["kv.high_water_util"] = stats["kv_high_water_utilization"]
    m["kv.preemptions"] = stats["preemptions"]
    m["kv.decode_evictions"] = stats["decode_evictions"]

    caches = [e.prefix_cache for e in engines if e.prefix_cache is not None]
    lookups = sum(c.hits + c.misses for c in caches)
    prompt_tokens = sum(r.prompt_tokens for r in repeat.requests)
    for fn in PREFIX_FNS:
        m[f"prefix.{fn}_calls"] = t.calls[f"prefix.{fn}"]
        m[f"prefix.{fn}_s"] = t.self_s[f"prefix.{fn}"]
    m["prefix.self_s"] = layers["prefix"]
    m["prefix.hit_rate"] = (
        sum(c.hits for c in caches) / lookups if lookups else 0.0
    )
    m["prefix.saved_token_share"] = (
        sum(c.hit_tokens for c in caches) / prompt_tokens
    )
    m["prefix.evictions"] = sum(c.evictions for c in caches)

    for fn in SCHED_FNS:
        m[f"sched.{fn}_calls"] = t.calls[f"sched.{fn}"]
        m[f"sched.{fn}_s"] = t.self_s[f"sched.{fn}"]
    m["sched.self_s"] = layers["sched"]
    m["sched.relegations"] = stats["relegations_total"]

    m["forest.predict_calls"] = t.layer_calls("forest")
    m["forest.predict_s"] = layers["forest"]
    m["perfmodel.batch_time_calls"] = t.layer_calls("perfmodel")
    m["perfmodel.batch_time_s"] = layers["perfmodel"]

    per_replica = [len(e.submitted) for e in engines]
    m["router.self_s"] = layers["router"]
    m["router.actions"] = t.calls["router.action"]
    m["router.imbalance"] = max(per_replica) / (
        sum(per_replica) / len(per_replica)
    )

    m["obs.hook_calls"] = t.calls["obs.hook"]
    m["obs.hook_s"] = t.self_s["obs.hook"]
    m["obs.emit_calls"] = t.calls["obs.emit"]
    m["obs.emit_s"] = t.self_s["obs.emit"]
    m["obs.to_dict_s"] = t.self_s["obs.to_dict"]
    m["obs.labels_calls"] = t.calls["obs.labels"]
    m["obs.labels_s"] = t.self_s["obs.labels"]
    m["obs.self_s"] = layers["obs"]
    observer = engines[0].observer
    sinks = getattr(getattr(observer, "recorder", None), "sinks", ())
    m["obs.events_dropped"] = sum(getattr(s, "dropped", 0) for s in sinks)

    m["api.submit_s"] = t.self_s["api.submit"]

    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_x"] = wall / untraced_wall
    m["trace.coverage"] = sum(layers.values()) / wall
    for layer in LAYERS:
        m[f"share.{layer}"] = layers[layer] / wall
    return m


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name in (
        "trace.coverage", "engine.stretch_hit_ratio", "kv.high_water_util",
        "prefix.hit_rate", "prefix.saved_token_share", "router.imbalance",
    ):
        return "ratio"
    if name == "trace.overhead_x":
        return "x"
    if name == "simcore.heap_depth_mean":
        return "events"
    if name == "engine.decode_batch_mean":
        return "requests"
    return "count"


# --- host speed ----------------------------------------------------------------

#: Rounds of :func:`yardstick` work, and the time they take on the reference
#: host (2 vCPUs at 2.0 GHz, Python 3.11.7, NumPy 2.4.6) with no neighbour
#: contending for the core.
YARDSTICK_ROUNDS = 150
YARDSTICK_REF_S = 0.25


def yardstick() -> float:
    """Time one fixed slice of interpreter work: the host-speed yardstick.

    It mixes the simulator's staples (dict updates, a bounded heap of tuples,
    small NumPy kernels) and runs no program code, so no change to the
    program can move it.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    for _ in range(YARDSTICK_ROUNDS):
        table: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        for i in range(2000):
            key = (i * 2654435761) & 1023
            table[key] = table.get(key, 0) + 1
            heapq.heappush(heap, (key, i))
            if len(heap) > 256:
                total += heapq.heappop(heap)[0]
        column = np.arange(64, dtype=np.float64)
        for _ in range(60):
            column = np.sqrt(np.add.accumulate(column))
    return time.perf_counter() - started


class HostSpeed:
    """Scales timings to the reference host's speed.

    Shared hosts change speed by up to 2x within seconds, with no steal time
    reported, and every wall time moves with them. Each
    measurement is bracketed by yardstick runs and multiplied by
    ``YARDSTICK_REF_S`` over their mean, so the speed change cancels and the
    result reads as seconds on the uncontended reference host.
    """

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        """Take a fresh yardstick (after unmeasured work)."""
        self._before = yardstick()

    def scale(self, seconds: float) -> float:
        after = yardstick()
        speed = (self._before + after) / (2 * YARDSTICK_REF_S)
        self._before = after
        return seconds / speed


# --- measuring ---------------------------------------------------------------


def check_digest(repeat: Repeat, reference: Repeat, what: str) -> Repeat:
    if repeat.digest != reference.digest:
        raise GateError(
            f"{what} digest {repeat.digest} != reference {reference.digest}"
        )
    return repeat


def timed_run(workload, templates, seconds: float) -> dict:
    """End-to-end metrics: set-up, scaled wall time, memory, behaviour."""
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(speed.scale(measure_setup(workload)))
    reference = serve(workload, templates)
    reference.session = None
    log(f"{workload.name} digest {reference.digest}")

    walls: list[float] = []
    scaled: list[float] = []
    failed = 0
    speed.mark()
    started = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - started < seconds:
        repeat = check_digest(serve(workload, templates), reference, "repeat")
        walls.append(repeat.wall)
        scaled.append(speed.scale(repeat.wall))
        failed += repeat.failed
    log(f"{workload.name} {len(walls)} repeats, wall "
        f"{', '.join(f'{w:.3f}' for w in walls)} s, scaled to the "
        f"reference host {', '.join(f'{w:.3f}' for w in scaled)} s")

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": peak_kib / 1024.0,
        **behaviour_metrics(reference.requests),
    }
    return {
        "correct": True,
        "attempted": len(walls) * len(templates),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()
        },
    }


def traced_run(workload, templates, seconds: float) -> dict:
    """Per-layer metrics: untimed and traced repeats, alternating."""
    from spans import LayerTracer

    reference = serve(workload, templates)
    reference.session = None
    log(f"{workload.name} digest {reference.digest}")

    walls: list[float] = []
    traced: list[dict] = []
    failed = 0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain = check_digest(serve(workload, templates), reference, "repeat")
        tracer = LayerTracer()
        repeat = check_digest(
            serve(workload, templates, tracer), reference, "traced repeat"
        )
        walls.append(plain.wall)
        traced.append(layer_metrics(tracer, repeat, plain.wall))
        failed += plain.failed + repeat.failed

    metrics = {
        name: statistics.median(run[name] for run in traced)
        for name in traced[0]
    }
    metrics["trace.overhead_x"] = (
        statistics.median(run["trace.wall_s"] for run in traced)
        / statistics.median(walls)
    )
    log(f"{workload.name} traced {len(traced)}x, overhead "
        f"{metrics['trace.overhead_x']:.2f}x, coverage "
        f"{metrics['trace.coverage']:.3f}")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        raise GateError(
            f"layer self times cover {metrics['trace.coverage']:.3f} of "
            f"the traced wall time (< {MIN_COVERAGE})"
        )
    return {
        "correct": True,
        "attempted": 2 * len(traced) * len(templates),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()
        },
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; raises :class:`GateError` on a failed check."""
    import repro.cluster.deployment  # noqa: F401  (imports out of setup_s)
    import repro.engine.arrays  # noqa: F401
    import repro.experiments.configs  # noqa: F401

    templates = workload.generate(seed, workload.size)
    log(f"{workload.name} seed={seed}: {len(templates)} requests, "
        f"host {json.dumps(host_fingerprint(), sort_keys=True)}")
    if trace:
        return traced_run(workload, templates, seconds)
    return timed_run(workload, templates, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"options: {sorted(WORKLOADS)}"
        )
    try:
        result = run(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    except GateError as error:
        log(f"correctness gate failed: {error}")
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
