"""Unit tests for dynamic chunk sizing (Section 3.3)."""

import pytest

from repro.core.chunking import DynamicChunker
from repro.core.predictor import BatchLatencyPredictor
from tests.conftest import Q1, Q2, Q3, make_request, make_view


@pytest.fixture
def chunker(oracle_predictor):
    return DynamicChunker(oracle_predictor)


def decode_request(qos=Q1, arrival=0.0, decoded=1, decode_tokens=50,
                   prompt=500, rid=0):
    r = make_request(
        request_id=rid, arrival_time=arrival, prompt_tokens=prompt,
        decode_tokens=decode_tokens, qos=qos,
    )
    r.prefill_done = prompt
    r.decoded = decoded
    return r


def slack(chunker, now, decodes):
    """The Eq. 2 slack of ``decodes`` as QoServe reads it: the engine
    view's sweep over their decode rows, paced at the chunker's floor."""
    view = make_view(decodes=decodes, now=now)
    return view.decode_slack(chunker.ni_pace_floor)


def decide(chunker, now, decodes, latency_budget=None):
    """Size a chunk the way QoServe plans: decode count and context
    total from an engine view over ``decodes``, and its slack unless a
    fixed ``latency_budget`` (Medha's TBT target) is given."""
    view = make_view(decodes=decodes, now=now)
    if latency_budget is None:
        latency_budget = view.decode_slack(chunker.ni_pace_floor)
    return chunker.prefill_budget(
        now, view.num_decodes, view.decode_context_total, latency_budget
    )


class TestLatencyBudget:
    def test_no_decodes_is_unbounded(self, chunker):
        assert slack(chunker, 0.0, []) == float("inf")

    def test_interactive_slack_is_next_token_headroom(self, chunker):
        r = decode_request(decoded=1)
        # Next token (2nd) deadline: 0 + 6 + 0.05 = 6.05.
        assert slack(chunker, 6.0, [r]) == pytest.approx(0.05)

    def test_accumulated_slack_grows_budget(self, chunker):
        """A decode running ahead of its deadlines donates slack —
        the core dynamic-chunking insight (Figure 6)."""
        r = decode_request(decoded=1)
        early = slack(chunker, 1.0, [r])   # 5.05 s of slack
        late = slack(chunker, 6.0, [r])    # 0.05 s
        assert early > late

    def test_min_over_requests(self, chunker):
        tight = decode_request(decoded=1, rid=1)
        loose = decode_request(decoded=1, arrival=5.0, rid=2)
        assert slack(chunker, 6.0, [tight, loose]) == pytest.approx(
            0.05
        )

    def test_blown_deadline_clamped_to_floor(self, chunker):
        r = decode_request(decoded=10)
        # Way past all token deadlines.
        budget = slack(chunker, 100.0, [r])
        assert budget == pytest.approx(chunker.ni_pace_floor)

    def test_non_interactive_paced_by_ttlt(self, chunker):
        r = decode_request(qos=Q2, decoded=0, decode_tokens=100)
        r.decoded = 50
        # 600 s deadline, 550 s left, 50 tokens to go -> 11 s/token.
        assert slack(chunker, 50.0, [r]) == pytest.approx(11.0)

    def test_non_interactive_floor(self, chunker):
        r = decode_request(qos=Q2, decode_tokens=50)
        r.decoded = 1
        budget = slack(chunker, 599.9, [r])
        assert budget == pytest.approx(chunker.ni_pace_floor)


class TestPrefillBudget:
    def test_unconstrained_gives_max_chunk(self, chunker):
        decision = decide(chunker, 0.0, [])
        assert decision.prefill_budget == chunker.max_chunk

    def test_tight_budget_gives_small_chunk(self, chunker):
        r = decode_request(decoded=1)
        decision = decide(chunker, 6.0, [r])
        assert decision.prefill_budget < 512

    def test_loose_budget_gives_larger_chunk(self, chunker):
        r = decode_request(qos=Q3, decode_tokens=100)
        r.decoded = 1
        tight = decide(chunker, 1795.0, [r]).prefill_budget
        loose = decide(chunker, 0.0, [r]).prefill_budget
        assert loose > tight

    def test_chosen_chunk_respects_budget(self, chunker, oracle_predictor):
        r = decode_request(decoded=1, arrival=3.0)
        decision = decide(chunker, 6.0, [r])
        if decision.prefill_budget > chunker.min_chunk:
            assert decision.predicted_latency <= decision.latency_budget

    def test_floor_granted_when_budget_too_small(self, chunker):
        r = decode_request(decoded=1)
        decision = decide(chunker, 6.049, [r])
        assert decision.prefill_budget == chunker.min_chunk

    def test_extra_budget_caps(self, chunker):
        decision = decide(chunker, 0.0, [], latency_budget=0.050)
        assert decision.prefill_budget < chunker.max_chunk

    def test_ignore_decode_slack_overrides_tight_decode(self, chunker):
        tight = decode_request(decoded=1)
        constrained = decide(chunker, 6.0, [tight]).prefill_budget
        medha_style = decide(
            chunker, 6.0, [tight], latency_budget=0.2
        ).prefill_budget
        assert medha_style > constrained

    def test_monotone_in_budget(self, chunker):
        sizes = [
            decide(chunker, 0.0, [], latency_budget=b).prefill_budget
            for b in (0.03, 0.06, 0.12, 0.24)
        ]
        assert sizes == sorted(sizes)


class TestValidation:
    def test_bad_chunk_bounds(self, oracle_predictor):
        with pytest.raises(ValueError):
            DynamicChunker(oracle_predictor, min_chunk=0)
        with pytest.raises(ValueError):
            DynamicChunker(oracle_predictor, min_chunk=100, max_chunk=50)


class _CountingPredictor(BatchLatencyPredictor):
    """Wraps a predictor, counting distinct predict() invocations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, shape):
        self.calls += 1
        return self.inner.predict(shape)


class TestSearchEfficiency:
    def test_one_eval_per_distinct_chunk(self, oracle_predictor):
        """The search never re-predicts a chunk size it has already
        evaluated (the old code evaluated predict(top) twice and the
        inf branch re-predicted)."""
        counting = _CountingPredictor(oracle_predictor)
        chunker = DynamicChunker(counting)
        r = decode_request(decoded=1)
        decide(chunker, 6.0, [r])
        # Binary search over [min, max] with tolerance t probes at most
        # ceil(log2(range/t)) midpoints, plus the two bracket ends; the
        # final-answer re-check must come from the evaluation memo.
        probes = (
            (chunker.max_chunk - chunker.min_chunk)
            // chunker.search_tolerance
        ).bit_length()
        assert counting.calls <= 2 + probes

    def test_unconstrained_costs_one_prediction(self, oracle_predictor):
        counting = _CountingPredictor(oracle_predictor)
        chunker = DynamicChunker(counting)
        decision = decide(chunker, 0.0, [])
        assert decision.prefill_budget == chunker.max_chunk
        assert counting.calls == 1  # inf branch must not re-predict

    def test_warm_start_skips_search(self, oracle_predictor):
        """A repeated budget resolves from the verified bracket with
        ~3 predictions instead of a full binary search."""
        counting = _CountingPredictor(oracle_predictor)
        chunker = DynamicChunker(counting)
        r = decode_request(decoded=1)
        cold = decide(chunker, 6.0, [r])
        cold_calls = counting.calls
        counting.calls = 0
        warm = decide(chunker, 6.0, [r])
        assert warm.prefill_budget == cold.prefill_budget
        assert counting.calls < cold_calls
        assert counting.calls <= 4  # top, floor(cached? no), lo, hi

    def test_warm_start_decisions_match_cold(self, oracle_predictor):
        """Across a drifting budget, a warm chunker and a fresh cold
        chunker must agree on every decision."""
        warm_chunker = DynamicChunker(oracle_predictor)
        r = decode_request(decoded=1)
        for step in range(20):
            now = 5.95 + 0.005 * step
            warm = decide(warm_chunker, now, [r])
            cold = decide(DynamicChunker(oracle_predictor), now, [r])
            assert warm == cold, step

    def test_precomputed_decode_context_matches(self, oracle_predictor):
        """The view's incrementally kept context total prices the
        chunk exactly as the decodes' summed context lengths do."""
        chunker_a = DynamicChunker(oracle_predictor)
        chunker_b = DynamicChunker(oracle_predictor)
        decodes = [decode_request(rid=i, decoded=2) for i in range(8)]
        total = sum(r.context_length for r in decodes)
        view = make_view(decodes=decodes, now=6.0)
        assert view.decode_context_total == total
        latency_budget = view.decode_slack(chunker_a.ni_pace_floor)
        a = decide(chunker_a, 6.0, decodes)
        b = chunker_b.prefill_budget(6.0, len(decodes), total, latency_budget)
        assert a == b
