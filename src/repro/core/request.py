"""The inference request lifecycle shared by every scheduler.

A request arrives with a prompt, is prefilled in chunks, emits its
first output token when the last prefill chunk completes, then decodes
one token per engine iteration until ``decode_tokens`` outputs exist.
The dataclass records both the static trace attributes and the mutable
runtime state (progress counters, token timestamps, relegation flags)
that metrics and schedulers read.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.qos import QoSSpec


def token_array(token_ids: Iterable[int]) -> array:
    """``token_ids`` as an ``array('q')``, the one compact token form.

    An ``array('q')`` is returned as is (no copy); anything else is
    converted once, raising ``OverflowError`` for an id outside the
    signed 64-bit range.
    """
    if type(token_ids) is array and token_ids.typecode == "q":
        return token_ids
    return array("q", token_ids)


class RequestPhase(enum.Enum):
    """Where a request currently is in its lifecycle."""

    PREFILL = "prefill"  # arrived, prompt not fully processed
    DECODE = "decode"  # prompt done, generating output tokens
    FINISHED = "finished"  # all output tokens produced


@dataclass(eq=False)
class Request:
    """One LLM inference request with QoS metadata and runtime state.

    Requests compare by identity: engine queues use ``in`` and
    ``.remove()``, which must never match a value-equal clone.

    Static trace attributes:
        request_id: Unique identifier within a trace.
        arrival_time: Simulated arrival timestamp in seconds.
        prompt_tokens: Prompt length; must be >= 1.
        decode_tokens: Number of output tokens to generate (>= 1; the
            first output token is produced by the final prefill chunk).
        qos: The QoS bucket with its SLO targets.
        app_id: Application the request belongs to (drives the
            per-application decode-length history of Section 3.4).
        important: Application hint — True for paid-tier/important
            requests, False for relegation-preferred free-tier traffic.
        token_ids: Optional concrete prompt token ids (length must
            equal ``prompt_tokens`` when present), stored as one
            ``array('q')`` of signed 64-bit ids (8 B per token).  Any
            other sequence is converted once at construction; an
            ``array('q')`` is adopted as is, so :meth:`clone_fresh`
            shares the buffer.  The request owns the array: callers
            must not mutate it.  An ``array`` never equals a tuple, so
            compare through ``tuple(...)`` or ``.tolist()``.  Only
            prefix-aware KV reuse reads them; traces without token ids
            behave exactly as before.
        session_id: Conversation this request belongs to, if any.
            Turns of one session share a token-id prefix, which is
            what the radix KV cache exploits.
        parent_request_id: The previous turn of the same session, if
            any (forensics and gateway bookkeeping; the engine does
            not read it).

    Runtime state (owned by the engine):
        prefill_done: Prompt tokens processed so far.
        decoded: Output tokens produced so far.
        first_token_time: Timestamp of output token 1 (TTFT anchor).
        completion_time: Timestamp of the final output token.
        relegated: True once eager relegation demoted the request.
        relegated_time: When the demotion happened.
        max_tbt: Largest observed gap between consecutive tokens.
        tbt_gap_misses: Inter-token gaps exceeding the TBT SLO
            (interactive tiers only) — the paper's TBT-violation
            metric.
        tbt_deadline_misses: Output tokens produced after their
            cumulative Eq. 2 deadline (interactive tiers only); late
            TTFT poisons all of these, so gap misses are the fairer
            pacing measure.
        last_token_time: Timestamp of the most recent output token.
        scheduled_first_time: When the first prefill chunk ran (queueing
            delay diagnostics).

    Resilience state (owned by the fault layer, see ``repro.faults``):
        attempts: Times the request was dispatched to a replica; >1
            means it was re-dispatched after a replica crash.
        cancelled: True once the request was abandoned (client deadline
            timeout, retry budget exhausted) and will never finish.
        cancelled_time / cancel_reason: When and why.
        shed: True when admission control refused the request under
            degraded capacity (it was never dispatched).
    """

    request_id: int
    arrival_time: float
    prompt_tokens: int
    decode_tokens: int
    qos: QoSSpec
    app_id: str = "default"
    important: bool = True
    token_ids: array | None = None
    session_id: str | None = None
    parent_request_id: int | None = None

    prefill_done: int = 0
    decoded: int = 0
    folded: int = 0  # decode tokens folded back into prefill after eviction
    evictions: int = 0
    first_token_time: float | None = None
    completion_time: float | None = None
    relegated: bool = False
    relegated_time: float | None = None
    max_tbt: float = 0.0
    tbt_gap_misses: int = 0
    tbt_deadline_misses: int = 0
    last_token_time: float | None = None
    scheduled_first_time: float | None = None
    attempts: int = 0
    cancelled: bool = False
    cancelled_time: float | None = None
    cancel_reason: str | None = None
    shed: bool = False
    _extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1:
            raise ValueError(
                f"request {self.request_id}: prompt_tokens must be >= 1"
            )
        if self.decode_tokens < 1:
            raise ValueError(
                f"request {self.request_id}: decode_tokens must be >= 1"
            )
        if self.token_ids is not None:
            self.token_ids = token_array(self.token_ids)
            if len(self.token_ids) != self.prompt_tokens:
                raise ValueError(
                    f"request {self.request_id}: token_ids length "
                    f"{len(self.token_ids)} != prompt_tokens "
                    f"{self.prompt_tokens}"
                )

    # --- lifecycle -----------------------------------------------------

    @property
    def prefill_target(self) -> int:
        """Tokens that must pass through prefill processing.

        Normally the prompt length; after a KV eviction the generated
        tokens are folded back in and must be recomputed too.
        """
        return self.prompt_tokens + self.folded

    @property
    def phase(self) -> RequestPhase:
        if self.decoded >= self.decode_tokens:
            return RequestPhase.FINISHED
        if self.prefill_done >= self.prefill_target:
            return RequestPhase.DECODE
        return RequestPhase.PREFILL

    @property
    def remaining_prefill(self) -> int:
        return max(0, self.prefill_target - self.prefill_done)

    @property
    def remaining_decode(self) -> int:
        return max(0, self.decode_tokens - self.decoded)

    @property
    def context_length(self) -> int:
        """Tokens currently held in the KV cache for this request."""
        return self.prefill_done + (self.decoded - self.folded)

    def evict(self) -> None:
        """Reset KV-resident state after the engine dropped this
        request's cache; everything generated so far must recompute."""
        self.folded = self.decoded
        self.prefill_done = 0
        self.evictions += 1

    def cancel(self, now: float, reason: str) -> None:
        """Mark the request as abandoned; it will never finish.

        Cancellation is terminal and idempotent: the first call wins,
        so the recorded reason reflects what actually gave up first
        (a deadline timeout racing an exhausted retry budget).
        """
        if self.is_finished:
            raise RuntimeError(
                f"request {self.request_id} already finished; "
                "cannot cancel"
            )
        if self.cancelled:
            return
        self.cancelled = True
        self.cancelled_time = now
        self.cancel_reason = reason

    @property
    def retries(self) -> int:
        """Re-dispatches after the initial attempt (>= 0)."""
        return max(0, self.attempts - 1)

    @property
    def is_interactive(self) -> bool:
        return self.qos.is_interactive

    @property
    def is_finished(self) -> bool:
        return self.phase is RequestPhase.FINISHED

    # --- deadlines (Section 3.2) ---------------------------------------

    @property
    def first_token_deadline(self) -> float:
        return self.qos.first_token_deadline(self.arrival_time)

    def token_deadline(self, token_index: int) -> float:
        return self.qos.token_deadline(self.arrival_time, token_index)

    @property
    def next_token_deadline(self) -> float:
        """Deadline of the next output token this request will emit."""
        return self.token_deadline(self.decoded + 1)

    @property
    def total_deadline(self) -> float:
        return self.qos.total_deadline(self.arrival_time, self.decode_tokens)

    # --- observed latencies ---------------------------------------------

    @property
    def ttft(self) -> float | None:
        """Observed time to first token, or None if not yet produced."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def ttlt(self) -> float | None:
        """Observed time to last token, or None if unfinished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def violated_deadline(self) -> bool:
        """Whether the request's headline SLO was missed.

        Interactive requests are judged on TTFT (the paper tracks TBT
        separately and reports <0.1% TBT violations); non-interactive
        requests on TTLT.  An unfinished request counts as violated
        once its deadline has passed — callers evaluating mid-run
        should prefer :meth:`violated_by`.  Cancelled or shed requests
        can never meet their SLO and count as violated immediately.
        """
        if self.cancelled or self.shed:
            return True
        if self.is_interactive:
            if self.first_token_time is None:
                return True
            return self.first_token_time > self.first_token_deadline
        if self.completion_time is None:
            return True
        return self.completion_time > self.total_deadline

    def violated_by(self, now: float) -> bool:
        """SLO-violation status as observable at simulated time ``now``."""
        if self.cancelled or self.shed:
            return True
        if self.is_interactive:
            if self.first_token_time is not None:
                return self.first_token_time > self.first_token_deadline
            return now > self.first_token_deadline
        if self.completion_time is not None:
            return self.completion_time > self.total_deadline
        return now > self.total_deadline

    # --- engine callbacks -----------------------------------------------

    def record_output_token(self, time: float) -> None:
        """Register production of the next output token at ``time``."""
        if self.is_finished:
            raise RuntimeError(
                f"request {self.request_id} is finished; no more tokens"
            )
        self.decoded += 1
        if self.decoded == 1:
            self.first_token_time = time
        elif self.last_token_time is not None:
            gap = time - self.last_token_time
            if gap > self.max_tbt:
                self.max_tbt = gap
            if (
                self.is_interactive
                and self.qos.tbt_slo is not None
                and gap > self.qos.tbt_slo
            ):
                self.tbt_gap_misses += 1
        if time > self.token_deadline(self.decoded) and self.is_interactive:
            self.tbt_deadline_misses += 1
        self.last_token_time = time
        if self.decoded >= self.decode_tokens:
            self.completion_time = time

    def clone_fresh(self) -> "Request":
        """Copy with all runtime state reset (for re-running traces)."""
        return Request(
            request_id=self.request_id,
            arrival_time=self.arrival_time,
            prompt_tokens=self.prompt_tokens,
            decode_tokens=self.decode_tokens,
            qos=self.qos,
            app_id=self.app_id,
            important=self.important,
            token_ids=self.token_ids,
            session_id=self.session_id,
            parent_request_id=self.parent_request_id,
        )
