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

import numpy as np

from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.rows import ArrayKVLedger, _RowStore
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.perfmodel.execution import ExecutionModel

#: Below this batch size a per-row scalar sweep beats NumPy kernel
#: launch overhead; both forms execute the identical float operations.
_SMALL_BATCH = 32


@dataclass
class EngineView:
    """Read-only snapshot handed to the scheduler each iteration.

    The decode batch is given as numbers, not request objects: its
    rows, their count and their summed context.  Chunk sizing needs
    nothing more (the decode count, context total and minimum slack
    price an iteration), and the request objects may lag their rows.

    Attributes:
        now: Current simulated time.
        rows: The engine's decode rows (always the entire decode
            queue, per Section 3.1); rows ``[0, rows.n)`` are live.
            Treat as read-only.
        decode_context_total: Sum of the decode rows' context lengths,
            maintained incrementally by the engine.
        kv_cache: The replica's KV manager (for admission checks).
        execution_model: Ground-truth cost model of the replica.
        max_decode_slots: Engine cap on concurrently decoding requests.
        inflight_prefill_ids: Request ids whose prefill has started but
            not completed; they already hold a decode slot.  Treat as
            read-only.
    """

    now: float
    rows: _RowStore
    decode_context_total: int
    kv_cache: ArrayKVLedger
    execution_model: ExecutionModel
    max_decode_slots: int
    inflight_prefill_ids: frozenset[int] | set[int] = frozenset()

    @property
    def num_decodes(self) -> int:
        """Requests that decode this iteration."""
        return self.rows.n

    def has_interactive_decode(self) -> bool:
        """Whether any decoding request is interactive."""
        return bool(self.rows.inter[: self.rows.n].any())

    def decode_slack(self, floor: float) -> float:
        """Eq. 2-style slack: min over decodes of next-token headroom.

        Interactive rows contribute their next-token deadline minus
        ``now``; a deadline already blown (e.g. a relegated request
        that finally reached decode) is paced best-effort at ``floor``
        instead of strangling the whole iteration.  Non-interactive
        rows contribute an even pace: remaining TTLT slack divided by
        remaining tokens, floored at ``floor``.  Returns ``inf`` when
        no decode constrains the iteration.

        Float-exact against the request objects: interactive slack is
        ``(ttft_base + decoded*tbt) - now``
        (``Request.next_token_deadline``'s association),
        non-interactive pace is ``(total_deadline - now) / max(1,
        remaining)`` floored.
        """
        rows = self.rows
        now = self.now
        n = rows.n
        if n == 0:
            return float("inf")
        k = rows.iterations
        if n < _SMALL_BATCH:
            # Scalar sweep: identical float ops, no kernel launches.
            inter = rows.inter
            dec_off = rows.dec_off
            ttft_base = rows.ttft_base
            tbt = rows.tbt
            target = rows.target
            ni_ddl = rows.ni_ddl
            best = float("inf")
            for i in range(n):
                decoded = dec_off.item(i) + k
                if inter.item(i):
                    slack = (
                        ttft_base.item(i) + decoded * tbt.item(i)
                    ) - now
                    if slack <= 0.0:
                        slack = floor
                else:
                    remaining = target.item(i) - decoded
                    if remaining < 1:
                        remaining = 1
                    slack = (ni_ddl.item(i) - now) / remaining
                    if slack < floor:
                        slack = floor
                if slack < best:
                    best = slack
            return best
        decoded = rows.dec_off[:n] + k
        interactive_slack = (
            rows.ttft_base[:n] + decoded * rows.tbt[:n]
        ) - now
        interactive_slack = np.where(
            interactive_slack <= 0.0, floor, interactive_slack
        )
        remaining = np.maximum(rows.target[:n] - decoded, 1)
        pace = (rows.ni_ddl[:n] - now) / remaining
        np.maximum(pace, floor, out=pace)
        slack = np.where(rows.inter[:n], interactive_slack, pace)
        return float(slack.min())


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

    def is_pending(self, request: Request) -> bool:
        """Whether ``request`` waits in the prefill queue.

        The default scans :meth:`pending_requests`; subclasses with
        membership tracking override it with an O(1) lookup.
        """
        request_id = request.request_id
        return any(
            r.request_id == request_id for r in self.pending_requests()
        )

    def queue_length(self) -> int:
        """Number of requests waiting in the prefill queue.

        Subclasses with internal membership tracking override this with
        an O(1) count; the default pays for the list copy.
        """
        return len(self.pending_requests())
