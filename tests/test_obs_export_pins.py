"""Cross-commit pins: SHA-256 of a traced run's raw exports.

``tests/test_cluster_trace_pins.py`` hashes traces re-serialized with
``sort_keys=True`` and ignores metrics.  These pins cover what it
cannot see: the exact bytes :class:`~repro.obs.trace.JSONLSink` writes
(key order as emitted), the Prometheus text scrape, and the JSON
metrics dump, so the set of exported series is pinned too.  A change
to how events are serialized or how metric series are resolved must
leave all three untouched.

The run is a traced, overloaded 4-replica AzCode replay (relegations
included) recorded into a JSONL file plus a small ring, so the
ring's drop counter is part of the metrics.  If a deliberate
behaviour change moves a pin, regenerate it and say why in the change
description.
"""

import hashlib
import json

import pytest

from repro.api import ServeConfig, build_trace, simulate
from repro.obs import JSONLSink, RingSink, TraceRecorder, TracingObserver
from repro.workload.datasets import AZURE_CODE

JSONL_SHA256 = (
    "e0f45bc36615fdddfe3152aea522777c377d1c162883864518c3cde4f20b4738"
)
PROMETHEUS_SHA256 = (
    "bf29e27854b1bc9bf3a301e36ef2bf6850e142f7d25f362f20ab5210b63dbbbb"
)
METRICS_JSON_SHA256 = (
    "d5c955d8826b8fc42bad36fcf364f0a15cb24baa8236717965b02a4291d59207"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "trace.jsonl"
    observer = TracingObserver(
        TraceRecorder([JSONLSink(path), RingSink(capacity=256)])
    )
    trace = build_trace(
        AZURE_CODE, qps=200.0, num_requests=400, seed=11,
        low_priority_fraction=0.3,
    )
    simulate(
        config=ServeConfig(
            engine="arrays", scheduler="qoserve", num_replicas=4,
            routing="round-robin",
        ),
        trace=trace,
        observer=observer,
    )
    observer.close()
    return path.read_bytes(), observer.registry


def test_jsonl_bytes_pinned(traced_run):
    raw, _ = traced_run
    assert _sha256(raw) == JSONL_SHA256


def test_prometheus_text_pinned(traced_run):
    _, registry = traced_run
    text = registry.to_prometheus_text()
    assert _sha256(text.encode()) == PROMETHEUS_SHA256


def test_metrics_json_pinned(traced_run):
    _, registry = traced_run
    dump = json.dumps(registry.to_dict(), sort_keys=True)
    assert _sha256(dump.encode()) == METRICS_JSON_SHA256
