"""Cross-commit pins: SHA-256 of canonical trace JSONL for cluster runs.

Determinism tests elsewhere compare two runs of the *same* code.  These
checksums were recorded before the static, fault-tolerant and elastic
deployments were merged into one :class:`ClusterDeployment`, so any
refactor that adds, drops or reorders a routing decision, fault, retry,
watchdog or resize event breaks them.  Both engine cores must produce
the same bytes.

Canonical JSONL: one ``json.dumps(event, sort_keys=True,
separators=(",", ":"))`` line per recorded trace event, in emission
order.  If a deliberate behaviour change moves a pin, regenerate it and
say why in the change description.
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from repro.api import (
    ServeConfig,
    Session,
    build_trace,
    make_scheduler,
    resolve_engine_cls,
)
from repro.cluster.deployment import ClusterDeployment
from repro.cluster.fleet import parse_fleet_spec
from repro.experiments.configs import get_execution_model
from repro.faults import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
from repro.faults.policy import ResilienceConfig
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.workload.arrivals import DiurnalArrivals
from repro.workload.datasets import AZURE_CODE

EXEC = get_execution_model("llama3-8b")

STATIC_LOAD_AWARE = (
    "c198abee1b79056792d4d1504d49fbde598e1a1027c0aaa397a9bde83cec40e2"
)

PINS = {
    # perf-aware reduces to least-loaded on a homogeneous pool.
    "static-least-loaded": STATIC_LOAD_AWARE,
    "static-perf-aware": STATIC_LOAD_AWARE,
    "static-power-of-two": (
        "7fdf01d6229615c5e110a01963f8445287fe28a5c6b22837d939a6129965e935"
    ),
    "resilient-crash-slowdown": (
        "fcb36feebea6654d988d53b6124373d8085544cb1397142d807a8e45ff392728"
    ),
    "fleet-chaos-burn-rate": (
        "7bc207eee0ede5788d64871165f3109ba958c16ba19ff3f343fd4a3ee2c1841a"
    ),
    "fleet-chaos-busy-fraction": (
        "a35fe4ae568af07f37084560bf3fdfc616033fe88d5d1f55ea861dbf8332cbd5"
    ),
}


def _recording():
    sink = ListSink()
    return sink, TracingObserver(TraceRecorder([sink]))


def _digest(sink: ListSink) -> str:
    text = "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in sink.events
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _chaos_trace():
    """The trace of tests/test_cluster_resilient.py."""
    return build_trace(
        AZURE_CODE, qps=10.0, num_requests=120, seed=7,
        low_priority_fraction=0.3,
    )


def _static(routing: str, engine: str) -> str:
    sink, observer = _recording()
    cluster = ClusterDeployment(
        EXEC, partial(make_scheduler, "qoserve", EXEC), 4, routing=routing,
        observer=observer, engine_cls=resolve_engine_cls(engine),
    )
    cluster.submit_trace(_chaos_trace())
    cluster.run(max_events=50_000_000)
    return _digest(sink)


def _resilient(engine: str) -> str:
    trace = _chaos_trace()
    times = [r.arrival_time for r in trace]
    lo, span = min(times), max(times) - min(times)
    plan = FaultPlan(events=(
        ReplicaCrash(time=lo + 0.25 * span, replica_id=1,
                     recover_after=0.25 * span),
        ReplicaSlowdownFault(time=lo + 1.0, replica_id=0,
                             duration=0.5 * span, factor=4.0),
    ))
    sink, observer = _recording()
    cluster = ClusterDeployment(
        EXEC, partial(make_scheduler, "qoserve", EXEC), 4,
        observer=observer, engine_cls=resolve_engine_cls(engine),
        fault_plan=plan, resilience=ResilienceConfig(shed_free_below=0.8),
    )
    cluster.submit_trace(trace)
    cluster.run(max_events=50_000_000)
    return _digest(sink)


def _fleet_chaos(autoscaler: str, engine: str) -> str:
    """The CI fleet-chaos smoke run: diurnal AzCode replay plus a
    Poisson crash plan on an ``a100:1,h100:1`` fleet bounded at 4,
    perf-aware routed as ``repro serve --fleet`` does."""
    trace = build_trace(
        "AzCode", qps=6.0, num_requests=400, seed=11,
        low_priority_fraction=0.3,
        arrivals=DiurnalArrivals(2.0, 10.0, 30.0),
    )
    plan = FaultPlan.poisson(
        num_replicas=4, duration=120.0, mtbf=60.0, mttr=15.0,
        rng=np.random.default_rng(3),
    )
    sink, observer = _recording()
    session = Session(
        ServeConfig(
            fleet=parse_fleet_spec("a100:1,h100:1", max_replicas=4),
            fleet_autoscaler=autoscaler, fault_plan=plan, engine=engine,
            routing="perf-aware",
        ),
        observer=observer,
    )
    for request in trace:
        session.submit(request)
    session.drain()
    return _digest(sink)


RUNS = {
    "static-least-loaded": lambda e: _static("least-loaded", e),
    "static-perf-aware": lambda e: _static("perf-aware", e),
    "static-power-of-two": lambda e: _static("power-of-two", e),
    "resilient-crash-slowdown": _resilient,
    "fleet-chaos-burn-rate": lambda e: _fleet_chaos("burn-rate", e),
    "fleet-chaos-busy-fraction": lambda e: _fleet_chaos("busy-fraction", e),
}


@pytest.mark.parametrize("engine", ["objects", "arrays"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_checksum_pinned(run, engine):
    assert RUNS[run](engine) == PINS[run]
