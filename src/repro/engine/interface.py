"""The scheduler-facing engine interface.

Schedulers decide *which prefill tokens* run each iteration; the engine
owns everything else (decode batching, KV accounting, token emission).
:class:`EngineView` is the read-only window a scheduler gets into the
engine's state, and :class:`Scheduler` is the contract every policy in
:mod:`repro.schedulers` implements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.perfmodel.execution import ExecutionModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.prefix import PrefixReclaimer


@runtime_checkable
class KVLedger(Protocol):
    """Block-granular KV accounting as schedulers see it.

    :class:`repro.engine.rows.ArrayKVLedger` implements this contract;
    schedulers, admission control and the prefix cache program against
    it rather than the concrete class.  Allocations round up to
    ``block_size`` and ``blocks == ceil(tokens / block_size)`` holds
    for every holding.
    """

    block_size: int
    capacity_blocks: int
    high_water_blocks: int

    @property
    def used_blocks(self) -> int: ...

    @property
    def free_blocks(self) -> int: ...

    @property
    def capacity_tokens(self) -> int:
        """Usable token capacity (whole blocks only)."""
        ...

    @property
    def used_tokens(self) -> int: ...

    @property
    def reclaimable_blocks(self) -> int:
        """Blocks a registered reclaimer could free on demand (0 when
        no prefix cache is installed).  Planners treat these as
        spendable: :meth:`grow` raids the reclaimer before failing."""
        ...

    @property
    def utilization(self) -> float: ...

    @property
    def high_water_utilization(self) -> float: ...

    def holding(self, request_id: int) -> int:
        """Tokens currently cached for ``request_id`` (0 if none)."""
        ...

    def holders(self) -> list[int]:
        """Request ids with a live holding, in insertion order."""
        ...

    def blocks_needed(self, request_id: int, extra_tokens: int) -> int: ...

    def can_grow(self, request_id: int, extra_tokens: int) -> bool: ...

    def grow(self, request_id: int, extra_tokens: int) -> None: ...

    def shrink(self, request_id: int, tokens: int, blocks: int) -> None:
        """Give back part of a holding (prefix dedupe / ownership moves)."""
        ...

    def release(self, request_id: int) -> int:
        """Free a request's entire holding; returns blocks released."""
        ...

    def set_reclaimer(self, reclaimer: PrefixReclaimer | None) -> None:
        """Install a prefix cache to raid when allocation would fail."""
        ...


def decode_slack(
    now: float, decode_requests: Iterable[Request], floor: float
) -> float:
    """Eq. 2-style slack: min over decodes of next-token headroom.

    Interactive decodes contribute their next-token deadline minus
    ``now``.  Non-interactive decodes contribute an even pace:
    remaining TTLT slack divided by remaining tokens, floored at
    ``floor``.  Returns ``inf`` when no decode constrains the
    iteration.
    """
    budget = float("inf")
    for request in decode_requests:
        if request.is_interactive:
            slack = request.next_token_deadline - now
            if slack <= 0.0:
                # Deadline already blown (e.g. a relegated request
                # that finally reached decode): honouring it is
                # impossible, so pace it best-effort at the floor
                # instead of strangling the whole iteration.
                slack = floor
        else:
            remaining = max(1, request.remaining_decode)
            slack = (request.total_deadline - now) / remaining
            slack = max(slack, floor)
        if slack < budget:
            budget = slack
    return budget


@dataclass
class EngineView:
    """Read-only snapshot handed to the scheduler each iteration.

    Attributes:
        now: Current simulated time.
        decode_requests: Requests that will decode this iteration
            (always the entire decode queue, per Section 3.1).
        kv_cache: The replica's KV manager (for admission checks).
        execution_model: Ground-truth cost model of the replica.
        max_decode_slots: Engine cap on concurrently decoding requests.
        inflight_prefill_ids: Request ids whose prefill has started but
            not completed; they already hold a decode slot.  Treat as
            read-only.
        decode_context_total: Sum of ``decode_requests`` context
            lengths, maintained incrementally by the engine; ``None``
            (bare views built in tests) means "compute it yourself".
    """

    now: float
    decode_requests: list[Request]
    kv_cache: KVLedger
    execution_model: ExecutionModel
    max_decode_slots: int
    inflight_prefill_ids: frozenset[int] = frozenset()
    decode_context_total: int | None = None

    def decode_slack(self, floor: float) -> float:
        """Smallest next-token headroom among ``decode_requests``
        (:func:`decode_slack`); the engine's row-backed view overrides
        this with an equivalent sweep over its columns."""
        return decode_slack(self.now, self.decode_requests, floor)


class Scheduler(ABC):
    """A prefill-selection policy plugged into a replica engine."""

    #: Human-readable policy name used in experiment tables.
    name: str = "scheduler"

    #: Observability hooks; the no-op default costs one dispatch per
    #: notification.  The engine installs its own observer here via
    #: :meth:`set_observer` so scheduler-level events (relegations,
    #: chunk sizing) land in the same trace as engine events.
    observer: Observer = NULL_OBSERVER

    def set_observer(self, observer: Observer) -> None:
        """Install observability hooks; subclasses that own further
        instrumented components (chunker, relegation policy) override
        this to propagate the observer to them."""
        self.observer = observer

    @abstractmethod
    def enqueue(self, request: Request, now: float) -> None:
        """Admit a newly arrived request to the prefill queue."""

    @abstractmethod
    def plan_prefill(self, view: EngineView) -> list[PrefillAssignment]:
        """Choose the prefill chunks for the next iteration.

        Implementations must only assign tokens from requests they
        previously received via :meth:`enqueue` that still have prompt
        tokens remaining, and must respect KV-cache availability via
        ``view.kv_cache.can_grow``.
        """

    @abstractmethod
    def has_pending_prefill(self) -> bool:
        """Whether any enqueued request still has prompt tokens left."""

    def on_prefill_complete(self, request: Request, now: float) -> None:
        """Notification that a request's prompt finished processing."""

    def remove(self, request: Request, now: float) -> None:
        """Withdraw a request from the prefill queue entirely.

        Used by the fault layer when a request is cancelled or its
        replica crashes: unlike :meth:`on_prefill_complete` (which may
        leave lazily-invalidated bookkeeping behind for a request that
        is *progressing*), after ``remove`` the scheduler must never
        assign tokens to the request again.  The default forwards to
        :meth:`on_prefill_complete`, which is sufficient for
        schedulers with strict queue bookkeeping.
        """
        self.on_prefill_complete(request, now)

    def on_request_complete(self, request: Request, now: float) -> None:
        """Notification that a request produced its final token."""

    def pending_requests(self) -> list[Request]:
        """Requests currently waiting in the prefill queue (any order)."""
        return []

    def queue_length(self) -> int:
        """Number of requests waiting in the prefill queue.

        Subclasses with internal membership tracking override this with
        an O(1) count; the default pays for the list copy.
        """
        return len(self.pending_requests())
