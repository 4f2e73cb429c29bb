"""Unit tests for the multi-turn session workload generator."""

import numpy as np
import pytest

from repro.api import make_scheduler
from repro.experiments.configs import get_execution_model
from repro.workload.sessions import (
    SessionProfile,
    SessionWorkload,
    session_turn_index,
)
from tests.conftest import drain_trace


@pytest.fixture(scope="module")
def trace():
    return SessionWorkload(session_qps=0.5, seed=7).build(120)


class TestStructure:
    def test_sorted_arrivals(self, trace):
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)

    def test_sessions_grouped(self, trace):
        sessions = session_turn_index(trace)
        assert len(sessions) == 120
        assert sum(len(t) for t in sessions.values()) == len(trace)

    def test_context_grows_within_session(self, trace):
        sessions = session_turn_index(trace)
        grew = checked = 0
        for turns in sessions.values():
            for a, b in zip(turns, turns[1:]):
                checked += 1
                if b.prompt_tokens > a.prompt_tokens:
                    grew += 1
                # Never shrinks (clipping can only flatten).
                assert b.prompt_tokens >= a.prompt_tokens
        assert checked > 0
        assert grew / checked > 0.9

    def test_context_window_respected(self):
        profile = SessionProfile(max_context=4096, mean_turns=12.0)
        trace = SessionWorkload(profile, session_qps=1.0, seed=1).build(40)
        assert max(r.prompt_tokens for r in trace) <= 4096

    def test_mean_turns_roughly_matches(self):
        profile = SessionProfile(mean_turns=5.0)
        trace = SessionWorkload(profile, session_qps=1.0, seed=3).build(500)
        sessions = session_turn_index(trace)
        mean = np.mean([len(t) for t in sessions.values()])
        assert mean == pytest.approx(5.0, rel=0.2)

    def test_turns_spaced_by_think_time(self, trace):
        sessions = session_turn_index(trace)
        gaps = [
            b.arrival_time - a.arrival_time
            for turns in sessions.values()
            for a, b in zip(turns, turns[1:])
        ]
        if gaps:
            # Think 20 s mean + 5 s service estimate.
            assert np.mean(gaps) == pytest.approx(25.0, rel=0.3)

    def test_deterministic(self):
        a = SessionWorkload(session_qps=1.0, seed=9).build(30)
        b = SessionWorkload(session_qps=1.0, seed=9).build(30)
        assert [r.prompt_tokens for r in a] == [r.prompt_tokens for r in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionWorkload(session_qps=0.0)
        with pytest.raises(ValueError):
            SessionWorkload().build(0)


class TestSimulation:
    def test_sessions_serve_end_to_end(self):
        em = get_execution_model("llama3-8b")
        trace = SessionWorkload(session_qps=0.3, seed=5).build(40)
        summary, _ = drain_trace(
            em, make_scheduler("qoserve-oracle", em), trace.fresh_copy()
        )
        assert summary.finished == len(trace)

    def test_decode_estimator_learns_per_session_app(self):
        """Each session is its own app id, so the history estimator
        keys per session — late turns inherit earlier turns' decode
        statistics."""
        from repro.core.decode_estimator import HistoryDecodeEstimator

        trace = SessionWorkload(
            SessionProfile(mean_turns=8.0), session_qps=1.0, seed=6
        ).build(30)
        estimator = HistoryDecodeEstimator(min_history=2)
        sessions = session_turn_index(trace)
        long_session = max(sessions.values(), key=len)
        for turn in long_session[:4]:
            estimator.observe(turn)
        estimate = estimator.estimate(long_session[-1])
        observed_mean = np.mean(
            [t.decode_tokens for t in long_session[:4]]
        )
        assert estimate >= observed_mean
