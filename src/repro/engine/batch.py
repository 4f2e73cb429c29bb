"""Prefill-assignment and iteration-record types shared by engine and
schedulers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.request import Request


@dataclass(frozen=True)
class PrefillAssignment:
    """A scheduler's decision to run ``tokens`` of one request's prompt."""

    request: Request
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 1:
            raise ValueError("a prefill assignment needs >= 1 token")
        if self.tokens > self.request.remaining_prefill:
            raise ValueError(
                f"request {self.request.request_id}: assignment of "
                f"{self.tokens} exceeds remaining prefill "
                f"{self.request.remaining_prefill}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one executed iteration (Figure 9's raw data)."""

    start_time: float
    exec_time: float
    prefill_tokens: int
    num_decodes: int
    decode_context_total: int
    kv_utilization: float
