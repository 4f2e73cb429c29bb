"""Property-based tests over whole simulations.

Random small workloads are run end-to-end through random scheduler
choices, and system-level invariants (conservation, causality, KV
hygiene, TBT bounds) are asserted on the result.  This is the
failure-injection layer: weird token counts, bursty arrivals and tiny
KV caches all flow through the same assertions.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import make_scheduler
from repro.core.qos import DEFAULT_TIERS
from repro.core.request import Request
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.experiments.configs import get_execution_model
from repro.simcore import Simulator
from tests.conftest import events_of, traced

EM = get_execution_model("llama3-8b")

request_strategy = st.builds(
    Request,
    request_id=st.integers(0, 10_000),
    arrival_time=st.floats(0.0, 60.0, allow_nan=False),
    prompt_tokens=st.integers(1, 6000),
    decode_tokens=st.integers(1, 300),
    qos=st.sampled_from(DEFAULT_TIERS),
    app_id=st.sampled_from(["a", "b"]),
    important=st.booleans(),
)


def unique_ids(requests):
    seen = {}
    for i, r in enumerate(requests):
        seen[i] = r
        r.request_id = i
    return requests


@given(
    requests=st.lists(request_strategy, min_size=1, max_size=25),
    kind=st.sampled_from(["fcfs", "sjf", "srpf", "edf", "qoserve-oracle"]),
)
@settings(max_examples=40, deadline=None)
def test_simulation_invariants(requests, kind):
    requests = unique_ids(requests)
    simulator = Simulator()
    engine = ReplicaEngine(
        simulator, EM, make_scheduler(kind, EM), ReplicaConfig()
    )
    for r in requests:
        engine.submit(r)
    simulator.run(max_events=2_000_000)

    # Conservation: every request fully served, exactly once.
    assert len(engine.completed) == len(requests)
    for r in requests:
        assert r.is_finished
        assert r.decoded == r.decode_tokens
        assert r.prefill_done == r.prefill_target

    # Causality of recorded timestamps.
    for r in requests:
        assert r.scheduled_first_time >= r.arrival_time - 1e-9
        assert r.first_token_time >= r.scheduled_first_time - 1e-9
        assert (r.completion_time or 0) >= r.first_token_time - 1e-9

    # KV hygiene: nothing leaks after the drain.
    assert engine.kv_cache.used_blocks == 0

    # The engine never does more iterations than tokens processed.
    total_tokens = sum(r.prefill_target + r.decode_tokens
                      for r in requests)
    assert engine.iterations_run <= total_tokens


@given(
    requests=st.lists(request_strategy, min_size=1, max_size=15),
)
@settings(max_examples=25, deadline=None)
def test_fixed_chunk_bounds_iteration_latency(requests):
    """With a 256-token budget, no iteration may exceed the latency of
    a maximal 256-token batch plus decode costs — i.e. decode gaps stay
    bounded regardless of workload shape."""
    requests = unique_ids(requests)
    simulator = Simulator()
    observer, sink = traced()
    engine = ReplicaEngine(
        simulator, EM, make_scheduler("edf", EM, chunk_size=256),
        ReplicaConfig(), observer=observer,
    )
    for r in requests:
        engine.submit(r)
    simulator.run(max_events=2_000_000)
    for record in events_of(sink, "iteration_scheduled"):
        assert record["prefill_tokens"] + record["num_decodes"] <= 256
        assert record["dur"] < 0.25  # generous static bound


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_trace_reproducibility(seed):
    """Same seed, same simulation outcome, bit-for-bit."""
    from repro.api import build_trace
    from repro.workload.datasets import AZURE_CONV
    from tests.conftest import drain_trace

    def once():
        trace = build_trace(AZURE_CONV, qps=3.0, num_requests=30,
                            seed=seed)
        summary, engine = drain_trace(
            EM, make_scheduler("qoserve-oracle", EM), trace
        )
        return [
            (r.request_id, r.first_token_time, r.completion_time)
            for r in engine.submitted
        ]

    assert once() == once()
