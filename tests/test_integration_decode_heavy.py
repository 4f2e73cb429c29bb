"""Decode-heavy workload coverage (ShareGPT-shaped).

AzCode exercises the prefill path; these runs stress the opposite
regime — hundreds of output tokens per request — where decode slots,
KV growth and TTLT pacing dominate scheduling.
"""

import pytest

from repro.api import build_trace, make_scheduler
from repro.experiments.configs import get_execution_model
from repro.workload.datasets import SHAREGPT
from tests.conftest import drain_trace, events_of, traced


@pytest.fixture(scope="module")
def em():
    return get_execution_model("llama3-8b")


@pytest.fixture(scope="module")
def trace():
    return build_trace(SHAREGPT, qps=1.0, num_requests=500, seed=17)


class TestDecodeHeavyRegime:
    @pytest.mark.parametrize("scheme", ["fcfs", "edf", "qoserve-oracle"])
    def test_completes_at_moderate_load(self, em, trace, scheme):
        scaled = trace.scaled_arrivals(1.5)
        summary, engine = drain_trace(
            em, make_scheduler(scheme, em), scaled
        )
        assert summary.finished == len(scaled)
        assert engine.kv_cache.used_blocks == 0

    def test_decode_queue_grows_deep(self, em, trace):
        """ShareGPT's long decodes keep many requests resident — the
        mixed batches the execution model's decode terms exist for."""
        scaled = trace.scaled_arrivals(2.0)
        observer, sink = traced()
        drain_trace(
            em, make_scheduler("qoserve-oracle", em), scaled,
            observer=observer,
        )
        peak_decodes = max(
            r["num_decodes"] for r in events_of(sink, "iteration_scheduled")
        )
        assert peak_decodes >= 20

    def test_qoserve_tbt_clean_under_decode_pressure(self, em, trace):
        scaled = trace.scaled_arrivals(1.5)
        summary, _ = drain_trace(
            em, make_scheduler("qoserve-oracle", em), scaled
        )
        assert summary.violations.tbt_miss_pct < 1.5

    def test_qoserve_beats_fcfs_here_too(self, em, trace):
        scaled = trace.scaled_arrivals(2.5)
        fcfs, _ = drain_trace(
            em, make_scheduler("fcfs", em), scaled.fresh_copy()
        )
        qoserve, _ = drain_trace(
            em, make_scheduler("qoserve-oracle", em), scaled.fresh_copy()
        )
        assert (
            qoserve.violations.overall_pct
            <= fcfs.violations.overall_pct
        )

    def test_decode_slots_bound_concurrency(self, em, trace):
        from repro.engine import ReplicaConfig, ReplicaEngine
        from repro.simcore import Simulator

        sim = Simulator()
        observer, sink = traced()
        engine = ReplicaEngine(
            sim, em, make_scheduler("edf", em),
            ReplicaConfig(max_decode_slots=24), observer=observer,
        )
        for r in trace.scaled_arrivals(2.0):
            engine.submit(r)
        sim.run(max_events=30_000_000)
        assert all(r.is_finished for r in engine.submitted)
        assert max(
            rec["num_decodes"]
            for rec in events_of(sink, "iteration_scheduled")
        ) <= 24
