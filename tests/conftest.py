"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api import ServeConfig, Session
from repro.core.predictor import OracleBatchPredictor, cached_forest_predictor
from repro.core.qos import Q1_INTERACTIVE, Q2_RELAXED, Q3_BATCH
from repro.core.request import Request
from repro.engine.interface import EngineView
from repro.engine.rows import ArrayKVLedger, _RowStore
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.perfmodel import A100_80GB, LLAMA3_8B, ExecutionModel
from repro.perfmodel.execution import KV_MEMORY_RESERVE_FRACTION
from repro.simcore import Simulator


@pytest.fixture(scope="session")
def execution_model() -> ExecutionModel:
    """Llama3-8B on one A100 — the paper's workhorse deployment."""
    return ExecutionModel(LLAMA3_8B, A100_80GB)


@pytest.fixture(scope="session")
def oracle_predictor(execution_model) -> OracleBatchPredictor:
    return OracleBatchPredictor(execution_model)


@pytest.fixture(scope="session")
def forest_predictor(execution_model):
    """Trained once per test session (a few seconds of CPU)."""
    return cached_forest_predictor(execution_model)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_request(
    request_id: int = 0,
    arrival_time: float = 0.0,
    prompt_tokens: int = 1000,
    decode_tokens: int = 50,
    qos=Q1_INTERACTIVE,
    app_id: str = "test-app",
    important: bool = True,
) -> Request:
    """Request factory with sensible defaults for unit tests."""
    return Request(
        request_id=request_id,
        arrival_time=arrival_time,
        prompt_tokens=prompt_tokens,
        decode_tokens=decode_tokens,
        qos=qos,
        app_id=app_id,
        important=important,
    )


@pytest.fixture
def request_factory():
    return make_request


def make_view(
    execution_model=None,
    decodes=(),
    *,
    now: float = 0.0,
    kv_tokens: int = 400_000,
    max_slots: int = 256,
    inflight=frozenset(),
) -> EngineView:
    """A scheduler's view of an engine whose decode rows hold
    ``decodes`` (requests), attached through the KV ledger as the engine
    attaches a finished prefill."""
    rows = _RowStore()
    kv_cache = ArrayKVLedger(capacity_tokens=kv_tokens, rows=rows)
    context_total = 0
    for request in decodes:
        rows.add(request, *kv_cache.attach_row(request.request_id))
        context_total += request.context_length
    return EngineView(
        now=now,
        rows=rows,
        decode_context_total=context_total,
        kv_cache=kv_cache,
        execution_model=execution_model,
        max_decode_slots=max_slots,
        inflight_prefill_ids=inflight,
    )


def small_memory_model(kv_tokens: int = 4096) -> ExecutionModel:
    """Llama3-8B on an A100 whose memory leaves room for exactly
    ``kv_tokens`` tokens of KV, so every engine core builds a tiny
    ledger of its own."""
    memory = (
        LLAMA3_8B.weight_bytes()
        + (kv_tokens + 0.5) * LLAMA3_8B.kv_bytes_per_token()
    ) / (1.0 - KV_MEMORY_RESERVE_FRACTION)
    model = ExecutionModel(
        LLAMA3_8B, dataclasses.replace(A100_80GB, mem_capacity=memory)
    )
    assert model.kv_capacity_tokens == kv_tokens
    return model


def stall_requests(seed: int, count: int = 8) -> list[Request]:
    """Prompts of 800-3,500 tokens arriving within 2 s: on a 4,096-token
    cache several partial prefills wedge it, which forces stall
    recovery."""
    rng = random.Random(seed)
    return [
        Request(
            request_id=i,
            arrival_time=rng.uniform(0.0, 2.0),
            prompt_tokens=rng.randint(800, 3500),
            decode_tokens=rng.randint(1, 40),
            qos=rng.choice([Q1_INTERACTIVE, Q2_RELAXED]),
        )
        for i in range(count)
    ]


def drain_trace(execution_model, scheduler, trace, *, observer=None,
                **config):
    """Run ``trace`` to drain on one replica driven by a pre-built
    ``scheduler`` under ``execution_model``; ``config`` forwards to
    :class:`ServeConfig` (e.g. ``audit``, ``kv_reuse``).
    Returns ``(summary, engine)``."""
    session = Session(
        ServeConfig(**config),
        execution_model=execution_model,
        scheduler=scheduler,
        observer=observer,
    )
    for request in trace:
        session.submit(request)
    session.drain()
    return session.summary(requests=list(trace)), session.engines[0]


def traced() -> tuple[TracingObserver, ListSink]:
    """A tracing observer over an in-memory sink, for tests that read
    the engine's per-iteration events; returns ``(observer, sink)``."""
    sink = ListSink()
    return TracingObserver(TraceRecorder([sink])), sink


def events_of(sink: ListSink, kind: str) -> list[dict]:
    """The ``kind`` events recorded in ``sink``, in emission order."""
    return [event for event in sink.events if event["kind"] == kind]


# Re-export tier presets so tests can import them from one place.
Q1 = Q1_INTERACTIVE
Q2 = Q2_RELAXED
Q3 = Q3_BATCH
