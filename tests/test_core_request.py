"""Unit tests for the request lifecycle."""

import pytest

from repro.core.request import RequestPhase
from tests.conftest import Q1, Q2, make_request


class TestLifecycle:
    def test_initial_phase_is_prefill(self):
        assert make_request().phase is RequestPhase.PREFILL

    def test_moves_to_decode_when_prompt_done(self):
        r = make_request(prompt_tokens=100, decode_tokens=5)
        r.prefill_done = 100
        assert r.phase is RequestPhase.DECODE

    def test_finishes_after_all_tokens(self):
        r = make_request(prompt_tokens=10, decode_tokens=2)
        r.prefill_done = 10
        r.record_output_token(1.0)
        assert r.phase is RequestPhase.DECODE
        r.record_output_token(1.1)
        assert r.phase is RequestPhase.FINISHED
        assert r.is_finished

    def test_remaining_counters(self):
        r = make_request(prompt_tokens=100, decode_tokens=10)
        r.prefill_done = 30
        assert r.remaining_prefill == 70
        r.record_output_token(1.0)  # engine would not do this mid-prefill,
        assert r.remaining_decode == 9  # but the counter math must hold

    def test_token_after_finish_raises(self):
        r = make_request(prompt_tokens=10, decode_tokens=1)
        r.prefill_done = 10
        r.record_output_token(1.0)
        with pytest.raises(RuntimeError):
            r.record_output_token(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_request(prompt_tokens=0)
        with pytest.raises(ValueError):
            make_request(decode_tokens=0)


class TestLatencies:
    def test_ttft_recorded_on_first_token(self):
        r = make_request(arrival_time=5.0, prompt_tokens=10, decode_tokens=3)
        assert r.ttft is None
        r.prefill_done = 10
        r.record_output_token(7.5)
        assert r.ttft == pytest.approx(2.5)

    def test_ttlt_recorded_on_last_token(self):
        r = make_request(arrival_time=0.0, prompt_tokens=10, decode_tokens=2)
        r.prefill_done = 10
        r.record_output_token(1.0)
        assert r.ttlt is None
        r.record_output_token(2.0)
        assert r.ttlt == pytest.approx(2.0)

    def test_max_tbt_tracks_largest_gap(self):
        r = make_request(prompt_tokens=10, decode_tokens=4)
        r.prefill_done = 10
        for t in (1.0, 1.02, 1.30, 1.33):
            r.record_output_token(t)
        assert r.max_tbt == pytest.approx(0.28)

    def test_tbt_gap_misses_counted(self):
        r = make_request(prompt_tokens=10, decode_tokens=3, qos=Q1)
        r.prefill_done = 10
        r.record_output_token(1.0)
        r.record_output_token(1.03)   # 30 ms gap: fine
        r.record_output_token(1.20)   # 170 ms gap: miss
        assert r.tbt_gap_misses == 1

    def test_tbt_deadline_misses_cumulative(self):
        r = make_request(
            arrival_time=0.0, prompt_tokens=10, decode_tokens=3, qos=Q1
        )
        r.prefill_done = 10
        # Token deadlines: 6.0, 6.05, 6.10.
        r.record_output_token(5.0)
        r.record_output_token(6.04)
        r.record_output_token(6.20)
        assert r.tbt_deadline_misses == 1


class TestDeadlinesAndViolations:
    def test_deadline_properties(self):
        r = make_request(arrival_time=10.0, decode_tokens=5, qos=Q1)
        assert r.first_token_deadline == 16.0
        assert r.next_token_deadline == 16.0
        r.decoded = 2
        assert r.next_token_deadline == pytest.approx(16.10)

    def test_interactive_violation_is_ttft(self):
        r = make_request(prompt_tokens=10, decode_tokens=2, qos=Q1)
        r.prefill_done = 10
        r.record_output_token(7.0)  # past the 6 s TTFT
        r.record_output_token(7.1)
        assert r.violated_deadline

    def test_non_interactive_violation_is_ttlt(self):
        r = make_request(prompt_tokens=10, decode_tokens=2, qos=Q2)
        r.prefill_done = 10
        r.record_output_token(100.0)
        r.record_output_token(700.0)  # past the 600 s TTLT
        assert r.violated_deadline

    def test_violated_by_pending_request(self):
        r = make_request(qos=Q1)
        assert not r.violated_by(3.0)
        assert r.violated_by(6.5)

    def test_unfinished_counts_violated_without_now(self):
        assert make_request().violated_deadline


class TestEviction:
    def test_evict_resets_kv_state(self):
        r = make_request(prompt_tokens=100, decode_tokens=10)
        r.prefill_done = 100
        r.record_output_token(1.0)
        r.record_output_token(1.1)
        assert r.context_length == 102
        r.evict()
        assert r.context_length == 0
        assert r.prefill_target == 102
        assert r.remaining_prefill == 102
        assert r.evictions == 1
        assert r.phase is RequestPhase.PREFILL

    def test_post_eviction_recompute_restores_context(self):
        r = make_request(prompt_tokens=50, decode_tokens=5)
        r.prefill_done = 50
        r.record_output_token(1.0)
        r.evict()
        r.prefill_done = r.prefill_target
        assert r.phase is RequestPhase.DECODE
        assert r.context_length == 51
        r.record_output_token(2.0)
        assert r.context_length == 52

    def test_clone_fresh_resets_everything(self):
        r = make_request(prompt_tokens=40, decode_tokens=3)
        r.prefill_done = 40
        r.record_output_token(1.0)
        r.relegated = True
        clone = r.clone_fresh()
        assert clone.prefill_done == 0
        assert clone.decoded == 0
        assert clone.first_token_time is None
        assert not clone.relegated
        assert clone.prompt_tokens == 40


class TestIdentity:
    def test_fresh_clones_compare_unequal(self):
        """Queue membership must never match a value-equal clone."""
        r = make_request(prompt_tokens=40, decode_tokens=3)
        a, b = r.clone_fresh(), r.clone_fresh()
        assert a != b
        assert a == a
        assert [a].count(b) == 0
        assert b not in [a]
        assert len({a, b}) == 2
