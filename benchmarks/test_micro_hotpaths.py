"""Micro-benchmarks of the simulator's hot paths.

These time the operations that dominate simulation wall-clock — and
back the paper's Section 4.5.3 scalability argument: QoServe's
scheduling step must stay cheap (the paper claims O(log N_new) for
selection) even with thousands of queued requests, in contrast to
SLOs-Serve's per-iteration dynamic program over all requests and KV
blocks.
"""

import numpy as np
import pytest

from repro.core.predictor import OracleBatchPredictor, cached_forest_predictor
from repro.core.chunking import DynamicChunker
from repro.core.qos import DEFAULT_TIERS
from repro.core.request import Request
from repro.engine.rows import ArrayKVLedger
from repro.experiments.configs import get_execution_model
from repro.perfmodel.execution import BatchShape, PrefillChunk
from repro.schedulers import EDFScheduler, QoServeScheduler, QoServeConfig
from tests.conftest import make_view

EM = get_execution_model("llama3-8b")


def make_queue(n, seed=0):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        requests.append(
            Request(
                request_id=i,
                arrival_time=float(rng.uniform(0, 100)),
                prompt_tokens=int(rng.integers(100, 8000)),
                decode_tokens=int(rng.integers(1, 500)),
                qos=DEFAULT_TIERS[int(rng.integers(0, 3))],
            )
        )
    return requests


def make_decode_view(decodes=32):
    requests = []
    for i in range(decodes):
        r = Request(
            request_id=10_000 + i, arrival_time=0.0,
            prompt_tokens=1000, decode_tokens=100,
            qos=DEFAULT_TIERS[0],
        )
        r.prefill_done = 1000
        r.decoded = 5
        requests.append(r)
    return make_view(EM, requests, now=50.0)


def test_batch_time(benchmark):
    """Ground-truth cost model: called once per simulated iteration."""
    shape = BatchShape([PrefillChunk(512, 1024)], 64, 64 * 1500)
    result = benchmark(EM.batch_time, shape)
    assert result > 0


def test_forest_predict(benchmark):
    """Forest prediction with memoization (the chunker's inner loop)."""
    predictor = cached_forest_predictor(EM)
    shape = BatchShape([PrefillChunk(512, 1024)], 64, 64 * 1500)
    result = benchmark(predictor.predict, shape)
    assert result > 0


def test_forest_predict_pertree(benchmark):
    """Reference per-tree scalar prediction (the pre-fused path)."""
    from repro.perfmodel.profiler import batch_features

    forest = cached_forest_predictor(EM).forest
    features = batch_features(BatchShape([PrefillChunk(512, 1024)], 64,
                                         64 * 1500))
    result = benchmark(forest.predict_one_pertree, features, quantile=0.75)
    assert result > 0


def test_forest_predict_fused(benchmark):
    """Fused flat-array scalar prediction (memo-miss inner loop)."""
    from repro.perfmodel.profiler import batch_features

    forest = cached_forest_predictor(EM).forest
    features = batch_features(BatchShape([PrefillChunk(512, 1024)], 64,
                                         64 * 1500))
    result = benchmark(forest.predict_one, features, quantile=0.75)
    assert result > 0


def test_forest_predict_batch(benchmark):
    """Vectorized many-row prediction (validation / training error)."""
    from repro.perfmodel.profiler import batch_features

    forest = cached_forest_predictor(EM).forest
    features = batch_features(BatchShape([PrefillChunk(512, 1024)], 64,
                                         64 * 1500))
    rows = np.asarray([features] * 512)
    result = benchmark(forest.predict_batch, rows, quantile=0.75)
    assert result.shape == (512,)


def test_dynamic_chunker_budget(benchmark):
    """Full chunk-size inversion against the oracle predictor."""
    chunker = DynamicChunker(OracleBatchPredictor(EM))
    view = make_decode_view(decodes=32)

    def budget():
        return chunker.prefill_budget(
            view.now,
            view.num_decodes,
            view.decode_context_total,
            view.decode_slack(chunker.ni_pace_floor),
            prefill_context_before=1024,
        )

    decision = benchmark(budget)
    assert decision.prefill_budget >= chunker.min_chunk


@pytest.mark.parametrize("queue_size", [100, 1000, 4000])
def test_qoserve_plan_with_queue(benchmark, queue_size):
    """QoServe's full scheduling step at growing queue depth.

    Section 4.5.3: the per-iteration cost must grow gently with queue
    size (sort + linear relegation scan here, amortized by the replan
    interval) — this is the measurement behind 'efficiently scales to
    larger configurations'.
    """
    scheduler = QoServeScheduler(
        EM, QoServeConfig(use_forest_predictor=False)
    )
    for r in make_queue(queue_size):
        scheduler.enqueue(r, 0.0)
    view = make_decode_view(decodes=16)

    def plan():
        scheduler._order_dirty = True  # force the full replan path
        return scheduler.plan_prefill(view)

    assignments = benchmark(plan)
    assert assignments


@pytest.mark.parametrize("queue_size", [100, 4000])
def test_edf_heap_plan_with_queue(benchmark, queue_size):
    """The lazy-heap baselines: near-constant per-iteration cost."""
    scheduler = EDFScheduler(chunk_size=256)
    for r in make_queue(queue_size):
        scheduler.enqueue(r, 0.0)
    view = make_decode_view(decodes=16)
    assignments = benchmark(scheduler.plan_prefill, view)
    assert assignments


def test_kv_cache_grow_release(benchmark):
    kv = ArrayKVLedger(capacity_tokens=400_000)

    def cycle():
        for rid in range(32):
            kv.grow(rid, 100)
        for rid in range(32):
            kv.release(rid)

    benchmark(cycle)
    assert kv.used_blocks == 0
