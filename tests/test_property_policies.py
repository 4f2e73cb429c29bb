"""Property-based tests on policy invariants: relegation fairness,
heap ordering under re-keying, and chunker safety."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.chunking import DynamicChunker
from repro.core.predictor import OracleBatchPredictor
from repro.core.qos import DEFAULT_TIERS
from repro.core.relegation import RelegationPolicy, ViolationChecker
from repro.core.request import Request
from repro.experiments.configs import get_execution_model
from repro.schedulers.classic import EDFScheduler
from tests.conftest import make_view

EM = get_execution_model("llama3-8b")

queued_request = st.builds(
    Request,
    request_id=st.integers(0, 10_000),
    arrival_time=st.floats(0.0, 100.0, allow_nan=False),
    prompt_tokens=st.integers(1, 10_000),
    decode_tokens=st.integers(1, 500),
    qos=st.sampled_from(DEFAULT_TIERS),
    important=st.booleans(),
)


def fresh_ids(requests):
    for i, r in enumerate(requests):
        r.request_id = i
    return requests


@given(queue=st.lists(queued_request, max_size=30),
       now=st.floats(0.0, 200.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_relegation_plan_invariants(queue, now):
    queue = fresh_ids(queue)
    checker = ViolationChecker(
        seconds_per_prefill_token=1e-4,
        seconds_per_decode_token=0.03,
    )
    policy = RelegationPolicy(checker, use_hints=True)
    # Priority order: EDF-ish by governing deadline.
    queue.sort(key=lambda r: r.first_token_deadline)
    plan = policy.plan(queue, now)

    ids = [r.request_id for r in plan.to_relegate]
    # No duplicates, all members of the queue.
    assert len(ids) == len(set(ids))
    assert set(ids) <= {r.request_id for r in queue}
    # An important request is only relegated if its own deadline is
    # unreachable even with immediate service.
    for victim in plan.to_relegate:
        if victim.important:
            assert checker.deadline_slack(victim, now) < 0

    # Idempotence-ish: marking the victims and re-planning the
    # remaining active queue relegates no *important* survivors whose
    # deadline is reachable.
    survivors = [r for r in queue if r.request_id not in set(ids)]
    plan2 = policy.plan(survivors, now)
    for victim in plan2.to_relegate:
        if victim.important:
            assert checker.deadline_slack(victim, now) < 0


@given(
    entries=st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False),
                  st.integers(1, 5000)),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_heap_pops_in_priority_order(entries):
    """The lazy heap yields live entries in (key, insertion) order."""
    scheduler = EDFScheduler()
    requests = []
    for i, (arrival, prompt) in enumerate(entries):
        r = Request(i, arrival, prompt, 1, DEFAULT_TIERS[0])
        requests.append(r)
        scheduler.enqueue(r, arrival)
    popped = scheduler._pop_candidates()
    keys = [scheduler.priority(r, 0.0) for r in popped]
    assert keys == sorted(keys)
    assert len(popped) == min(len(requests), scheduler.MAX_EXAMINED)


@given(
    num_decodes=st.integers(0, 64),
    context=st.integers(1, 8192),
    now=st.floats(0.0, 50.0, allow_nan=False),
    arrival=st.floats(0.0, 50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_chunker_budget_always_in_bounds(num_decodes, context, now,
                                         arrival):
    chunker = DynamicChunker(OracleBatchPredictor(EM))
    decodes = []
    for i in range(num_decodes):
        r = Request(i, arrival, context, 100, DEFAULT_TIERS[i % 3])
        r.prefill_done = context
        r.decoded = 1
        decodes.append(r)
    view = make_view(EM, decodes, now=max(now, arrival))
    decision = chunker.prefill_budget(
        view.now,
        view.num_decodes,
        view.decode_context_total,
        view.decode_slack(chunker.ni_pace_floor),
        prefill_context_before=context,
    )
    assert chunker.min_chunk <= decision.prefill_budget <= chunker.max_chunk
    assert decision.latency_budget > 0
