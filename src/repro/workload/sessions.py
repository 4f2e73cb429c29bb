"""Multi-turn conversation sessions.

ShareGPT-style workloads are conversations: each turn's prompt carries
the running history (previous prompts and completions) plus the new
user message, so prompt lengths *grow within a session* and successive
turns of one session arrive separated by user think time.  The plain
per-request generators in :mod:`repro.workload.datasets` reproduce the
marginal length distributions; this generator reproduces the session
*structure*, which stresses exactly what dynamic chunking exploits —
late turns with large contexts and strict interactive deadlines.

Sessions are generated open-loop: turn ``k+1`` arrives a think-time
plus estimated-service gap after turn ``k``, so traces remain
precomputable (closed-loop replay would need simulation feedback).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.core.qos import Q1_INTERACTIVE, QoSSpec
from repro.core.request import Request, token_array
from repro.simcore.rng import RngStreams
from repro.workload.distributions import LengthDistribution, LognormalLengths
from repro.workload.trace import Trace


@dataclass(frozen=True)
class SessionProfile:
    """Shape of one conversational application.

    Attributes:
        qos: QoS bucket for every turn (interactive, typically).
        first_prompt: Length distribution of a session's opening
            prompt (system prompt + first user message).
        user_turn: Length distribution of each *additional* user
            message appended on later turns.
        completion: Output-length distribution per turn.
        mean_turns: Mean session length in turns (geometric).
        think_time_mean: Mean user think time between turns, seconds.
        service_estimate: Added to the think gap per turn so arrival
            spacing roughly accounts for generation time (open loop).
        max_context: Sessions stop growing past this prompt size (the
            serving context window).
        shared_prefix_tokens: Leading tokens identical across *every*
            session — a shared system prompt or RAG template.  Token
            ids ``0 .. n-1`` open each session's stream before its
            private tokens, so a radix prefix cache shares them
            cluster-wide, not just within one conversation.
    """

    qos: QoSSpec = Q1_INTERACTIVE
    first_prompt: LengthDistribution = LognormalLengths(
        p50=700, p90=2500, max_tokens=8192
    )
    user_turn: LengthDistribution = LognormalLengths(
        p50=60, p90=400, max_tokens=2048
    )
    completion: LengthDistribution = LognormalLengths(
        p50=300, p90=800, max_tokens=2048
    )
    mean_turns: float = 4.0
    think_time_mean: float = 20.0
    service_estimate: float = 5.0
    max_context: int = 8192
    shared_prefix_tokens: int = 0


#: Agent/RAG-style traffic: every session opens with the same 1024
#: shared system-prompt tokens, exchanges short tool-call-ish turns,
#: and runs longer conversations with tight think gaps — the profile
#: the prefix-reuse experiments lean on.
AGENT_PROFILE = SessionProfile(
    first_prompt=LognormalLengths(p50=1400, p90=3000, max_tokens=8192),
    user_turn=LognormalLengths(p50=120, p90=500, max_tokens=2048),
    completion=LognormalLengths(p50=200, p90=600, max_tokens=1024),
    mean_turns=6.0,
    think_time_mean=4.0,
    service_estimate=2.0,
    shared_prefix_tokens=1024,
)


class SessionWorkload:
    """Generates multi-turn session traces."""

    def __init__(
        self,
        profile: SessionProfile | None = None,
        session_qps: float = 1.0,
        seed: int = 0,
    ) -> None:
        """Args:
        profile: Conversation shape; defaults to chat-like settings.
        session_qps: Poisson rate of *session starts* per second.
        seed: Master seed.
        """
        if session_qps <= 0:
            raise ValueError("session_qps must be positive")
        self.profile = profile or SessionProfile()
        self.session_qps = float(session_qps)
        self.seed = int(seed)

    def _token_ids(self, session_index: int, count: int) -> array:
        """First ``count`` token ids of a session's deterministic stream.

        Position ``k`` maps to the global shared-prefix id ``k`` while
        ``k < shared_prefix_tokens``, then to a per-session namespace
        (offset by ``(session_index + 1) * max_context``, which no
        prompt can outgrow) — a pure counter scheme, so emitting ids
        costs no RNG draws and leaves lengths and timings untouched.
        The ids go straight into an ``array('q')`` (8 B per token).
        """
        profile = self.profile
        shared = min(profile.shared_prefix_tokens, count)
        base = (session_index + 1) * profile.max_context
        ids = token_array(range(shared))
        ids.extend(range(base + shared, base + count))
        return ids

    def build(self, num_sessions: int) -> Trace:
        """Generate ``num_sessions`` sessions as one arrival-sorted trace.

        Every request's ``app_id`` (and ``session_id``) is
        ``session-<n>``; within a session prompts grow by the previous
        turn's prompt + completion + the new user message, clipped at
        the context window.  Each turn carries concrete ``token_ids``:
        later turns extend the earlier turn's exact token stream
        (clipping keeps the *first* ``max_context`` tokens, preserving
        the prefix property), so a radix KV cache sees true shared
        prefixes — within a session, and across sessions for the
        profile's ``shared_prefix_tokens``.
        """
        if num_sessions < 1:
            raise ValueError("num_sessions must be >= 1")
        profile = self.profile
        streams = RngStreams(self.seed)
        rng = streams.stream("sessions")

        starts = np.cumsum(
            rng.exponential(scale=1.0 / self.session_qps,
                            size=num_sessions)
        )
        # Geometric turn counts with the requested mean (>= 1 turn).
        p = min(1.0, 1.0 / max(1.0, profile.mean_turns))
        turn_counts = rng.geometric(p, size=num_sessions)

        requests: list[Request] = []
        request_id = 0
        for session_index in range(num_sessions):
            t = float(starts[session_index])
            context = int(
                profile.first_prompt.sample(rng, 1)[0]
            )
            parent_id: int | None = None
            for turn in range(int(turn_counts[session_index])):
                decode = int(profile.completion.sample(rng, 1)[0])
                prompt = max(1, min(context, profile.max_context))
                requests.append(
                    Request(
                        request_id=request_id,
                        arrival_time=t,
                        prompt_tokens=prompt,
                        decode_tokens=max(1, decode),
                        qos=profile.qos,
                        app_id=f"session-{session_index}",
                        token_ids=self._token_ids(session_index, prompt),
                        session_id=f"session-{session_index}",
                        parent_request_id=parent_id,
                    )
                )
                parent_id = request_id
                request_id += 1
                # Next turn: history grows by this completion plus a
                # fresh user message; arrival after think + service.
                user_tokens = int(profile.user_turn.sample(rng, 1)[0])
                context = min(
                    profile.max_context,
                    prompt + decode + user_tokens,
                )
                t += float(
                    rng.exponential(profile.think_time_mean)
                    + profile.service_estimate
                )
        requests.sort(key=lambda r: (r.arrival_time, r.request_id))
        return Trace(
            requests,
            dataset_name="sessions",
            seed=self.seed,
        )


def session_turn_index(trace: Trace) -> dict[str, list[Request]]:
    """Group a session trace's requests by session id, in turn order."""
    sessions: dict[str, list[Request]] = {}
    for request in trace:
        sessions.setdefault(request.app_id, []).append(request)
    for turns in sessions.values():
        turns.sort(key=lambda r: r.arrival_time)
    return sessions
