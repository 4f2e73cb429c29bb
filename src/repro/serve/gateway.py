"""The asyncio serving gateway: continuous arrivals over a Session.

:class:`ServeGateway` exposes OpenAI-style ``submit`` / ``stream`` /
``result`` coroutines over a :class:`repro.api.Session` and drives the
simulation through a :class:`~repro.serve.clock.VirtualClock`:

* **Online mode** (:meth:`start` / :meth:`run`): a background task
  advances the simulator to the wall clock's virtual target, sleeping
  exactly until the next pending event (or a new submission wakes it).
  With ``speed=inf`` it drains instead of pacing.
* **Offline replay** (:meth:`replay`): the deterministic
  ``--speed inf`` path — every trace arrival is scheduled as a
  simulator event, admission runs at the arrival's virtual time, and
  the resulting :class:`~repro.metrics.summary.RunSummary` is
  byte-identical to the batch path when admission is unlimited (the
  regression test pins this).

Tokens stream through the engine's ``token_hook`` into per-request
``asyncio.Queue``s; admission decisions flow to the observer as
gateway events and Prometheus counters.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterable, Sequence

from repro.api import Session
from repro.core.qos import DEFAULT_TIERS, QoSSpec
from repro.core.relegation import ViolationChecker
from repro.core.request import Request
from repro.engine.replica import ReplicaEngine
from repro.metrics.summary import RunSummary
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import fleet_gauges
from repro.serve.admission import (
    REASON_BACKPRESSURE,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.clock import VirtualClock

#: Cancel reason recorded on requests evicted by gateway backpressure.
SHED_CANCEL_REASON = "gateway_backpressure"

#: Upper bound in wall seconds on one sleep of the drive loop, so
#: shutdown and new submissions stay responsive.
MAX_TICK = 0.2


@dataclass(kw_only=True)
class GatewayConfig:
    """Gateway knobs.

    Attributes:
        speed: Virtual seconds per wall second; ``inf`` disables wall
            pacing (deterministic as-fast-as-possible mode).
        admission: Rate-limit / backpressure configuration.

    One wall sleep of the drive loop lasts at most :data:`MAX_TICK`.
    """

    speed: float = math.inf
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)


@dataclass(frozen=True)
class TokenEvent:
    """One streamed output token."""

    request_id: int
    index: int  # 1-based output-token index
    virtual_time: float


class AdmissionRefused(Exception):
    """Raised by :meth:`ServeGateway.submit` when admission says no."""

    def __init__(self, request: Request, reason: str) -> None:
        super().__init__(
            f"request {request.request_id} refused: {reason}"
        )
        self.request = request
        self.reason = reason


class GatewayStats:
    """Always-on plain-integer gateway counters (observer-independent)."""

    def __init__(self) -> None:
        self.admitted: dict[str, int] = {}
        self.shed: dict[tuple[str, str], int] = {}
        self.tokens_streamed: dict[str, int] = {}

    @property
    def admitted_total(self) -> int:
        return sum(self.admitted.values())

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def tokens_streamed_total(self) -> int:
        return sum(self.tokens_streamed.values())

    def to_dict(self) -> dict:
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "admitted_total": self.admitted_total,
            "shed": {
                f"{tier}/{reason}": count
                for (tier, reason), count in sorted(self.shed.items())
            },
            "shed_total": self.shed_total,
            "tokens_streamed": dict(sorted(self.tokens_streamed.items())),
            "tokens_streamed_total": self.tokens_streamed_total,
        }

    def to_registry(self) -> MetricsRegistry:
        """The counters as a fresh registry, under the series names and
        help strings the tracing observer uses."""
        registry = MetricsRegistry()
        admitted = registry.counter(
            "repro_gateway_admitted_total",
            "Requests admitted by the serving gateway", ("tier",),
        )
        for tier, count in self.admitted.items():
            admitted.labels(tier).inc(count)
        shed = registry.counter(
            "repro_gateway_shed_total",
            "Requests refused or evicted by the serving gateway",
            ("tier", "reason"),
        )
        for (tier, reason), count in self.shed.items():
            shed.labels(tier, reason).inc(count)
        streamed = registry.counter(
            "repro_gateway_tokens_streamed_total",
            "Output tokens delivered to streaming consumers", ("tier",),
        )
        for tier, count in self.tokens_streamed.items():
            streamed.labels(tier).inc(count)
        return registry


class _Ticket:
    """Per-request delivery state inside the gateway."""

    __slots__ = ("request", "engine", "queue", "done")

    def __init__(
        self,
        request: Request,
        queue: "asyncio.Queue[TokenEvent | None] | None",
    ) -> None:
        self.request = request
        self.engine: ReplicaEngine | None = None
        self.queue = queue
        self.done = False


class ServeGateway:
    """Online request front door over a :class:`repro.api.Session`.

    Args:
        session: The serving stack to drive.  The gateway installs
            token and completion hooks on it; the session must not be
            advanced by anyone else while the gateway runs.
        config: Speed and admission knobs.
        tiers: Tier-name → :class:`QoSSpec` for :meth:`submit`;
            defaults to the paper's Q1/Q2/Q3.
    """

    def __init__(
        self,
        session: Session,
        *,
        config: GatewayConfig | None = None,
        tiers: Iterable[QoSSpec] | None = None,
    ) -> None:
        self.session = session
        self.config = config or GatewayConfig()
        self.clock = VirtualClock(self.config.speed)
        self.tiers: dict[str, QoSSpec] = {
            spec.name: spec for spec in (tiers or DEFAULT_TIERS)
        }
        checker = ViolationChecker(
            session.execution_model.seconds_per_prefill_token()
        )
        self.admission = AdmissionController(
            self.config.admission, checker
        )
        self.stats = GatewayStats()
        #: Every request offered to the gateway (admitted or shed).
        self.offered: list[Request] = []
        self._observer = session.engines[0].observer
        self._tickets: dict[int, _Ticket] = {}
        self._next_id = 0
        self._running = False
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        session.set_token_hook(self._on_token)
        session.set_completion_hook(self._on_completion)

    # --- engine callbacks (fire during Session.advance) -------------------

    def _on_token(self, request: Request, now: float) -> None:
        ticket = self._tickets.get(request.request_id)
        if ticket is None or ticket.request is not request:
            return
        tier = request.qos.name
        self.stats.tokens_streamed[tier] = (
            self.stats.tokens_streamed.get(tier, 0) + 1
        )
        self._observer.on_token_streamed(request, now)
        if ticket.queue is not None:
            ticket.queue.put_nowait(
                TokenEvent(request.request_id, request.decoded, now)
            )

    def _on_completion(self, request: Request, now: float) -> None:
        ticket = self._tickets.get(request.request_id)
        if ticket is None or ticket.request is not request:
            return
        self._observer.on_span_end("gateway", request, now)
        self._close_ticket(ticket)

    def _close_ticket(self, ticket: _Ticket) -> None:
        if ticket.done:
            return
        ticket.done = True
        if ticket.queue is not None:
            ticket.queue.put_nowait(None)

    # --- admission (shared by online submit and offline replay) -----------

    def _pending_unstarted(self) -> list[Request]:
        """Queued requests no engine has served yet — the only work
        backpressure may shed without wasting done computation."""
        pending: list[Request] = []
        for engine in self.session.engines:
            for request in engine.scheduler.pending_requests():
                if request.prefill_done == 0 and not request.cancelled:
                    pending.append(request)
        return pending

    def _arrive(self, request: Request) -> str | None:
        """Run admission at the current virtual time; inject on accept.

        Returns the refusal reason, or ``None`` when admitted.
        """
        now = self.session.now
        depth = self.session.queue_depth()
        self._observer.on_span_start("gateway", request, now)
        self._observer.on_span_start("admission", request, now)
        decision = self.admission.decide(
            request,
            now,
            queue_depth=depth,
            pending=self._pending_unstarted(),
        )
        self._observer.on_span_end("admission", request, now)
        if not decision.admitted:
            request.shed = True
            self._record_shed(request, now, decision.reason, depth)
            self._observer.on_span_end("gateway", request, now)
            ticket = self._tickets.get(request.request_id)
            if ticket is not None:
                self._close_ticket(ticket)
            return decision.reason
        if decision.victim is not None:
            self._shed_victim(decision.victim, now, depth)
        engine = self.session.submit_now(request)
        ticket = self._tickets.get(request.request_id)
        if ticket is not None:
            ticket.engine = engine
        tier = request.qos.name
        self.stats.admitted[tier] = self.stats.admitted.get(tier, 0) + 1
        self._observer.on_gateway_admitted(request, now, depth)
        return None

    def _shed_victim(
        self, victim: Request, now: float, depth: int
    ) -> None:
        ticket = self._tickets.get(victim.request_id)
        if ticket is not None and ticket.engine is not None:
            ticket.engine.cancel_request(victim, SHED_CANCEL_REASON)
        else:
            self.session.cancel(victim, SHED_CANCEL_REASON)
        self._record_shed(victim, now, REASON_BACKPRESSURE, depth)
        self._observer.on_span_end("gateway", victim, now)
        if ticket is not None:
            self._close_ticket(ticket)

    def _record_shed(
        self, request: Request, now: float, reason: str | None, depth: int
    ) -> None:
        reason = reason or "unknown"
        key = (request.qos.name, reason)
        self.stats.shed[key] = self.stats.shed.get(key, 0) + 1
        self._observer.on_gateway_shed(request, now, reason, depth)

    # --- offline deterministic replay --------------------------------------

    def replay(
        self,
        trace: Iterable[Request],
        *,
        max_events: int | None = None,
    ) -> RunSummary:
        """Replay a trace as fast as possible (the ``--speed inf`` path).

        Each arrival is a simulator event at its trace timestamp;
        admission runs at that virtual instant with live queue depths.
        No asyncio is involved, and with admission unlimited the event
        sequence — and therefore the summary — is byte-identical to
        submitting the trace through the batch helpers.
        """
        if self.clock.is_realtime:
            raise ValueError(
                "replay() is the speed=inf path; drive paced replays "
                "through repro.workload.replay.OpenLoopReplay"
            )
        requests = list(trace)
        simulator = self.session.simulator
        for request in requests:
            self.offered.append(request)
            self._tickets[request.request_id] = _Ticket(request, None)
            simulator.schedule(
                max(request.arrival_time, simulator.now),
                lambda r=request: self._arrive(r),
            )
        self.session.drain(
            max_events=(
                max_events
                if max_events is not None
                else self.session.config.max_events
            )
        )
        return self.session.summary(requests=requests)

    # --- online mode -------------------------------------------------------

    async def start(self) -> None:
        """Start the drive loop on the running event loop."""
        if self._running:
            raise RuntimeError("gateway already running")
        self._running = True
        self._wake = asyncio.Event()
        self.clock.start(self.session.now)
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop the drive loop and terminate all open streams."""
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        for ticket in self._tickets.values():
            self._close_ticket(ticket)

    async def _run(self) -> None:
        assert self._wake is not None
        while self._running:
            target = self.clock.target()
            if target is None:
                self.session.advance()
            elif target > self.session.now:
                self.session.advance(until=target)
            next_time = self.session.next_event_time()
            if not self._running:
                break
            if next_time is not None:
                timeout: float | None = min(
                    MAX_TICK,
                    self.clock.wall_delay_until(next_time),
                )
            elif self.clock.is_realtime:
                timeout = MAX_TICK
            else:
                timeout = None  # drained; sleep until a submission
            try:
                if timeout is None:
                    await self._wake.wait()
                else:
                    await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                continue
            self._wake.clear()

    def _fresh_id(self) -> int:
        while self._next_id in self._tickets:
            self._next_id += 1
        request_id = self._next_id
        self._next_id += 1
        return request_id

    async def submit(
        self,
        *,
        prompt_tokens: int,
        decode_tokens: int = 16,
        tier: str = "Q1",
        important: bool = True,
        app_id: str = "api",
        arrival_time: float | None = None,
        token_ids: Sequence[int] | None = None,
        session_id: str | None = None,
        parent_request_id: int | None = None,
    ) -> Request:
        """Accept one request at the current virtual time.

        Returns the admitted :class:`Request` (stream its tokens with
        :meth:`stream` / :meth:`next_token`); raises
        :class:`AdmissionRefused` when admission sheds it at the door.
        ``arrival_time`` backdates the request's latency anchor (the
        open-loop replay driver uses it); admission still runs now.
        ``token_ids`` (length ``prompt_tokens``) gives the prompt a
        concrete identity so stacks with ``kv_reuse="radix"`` can skip
        prefill for prefixes already resident (the request stores it
        as an ``array('q')``, adopting one uncopied); ``session_id`` /
        ``parent_request_id`` link multi-turn conversation turns.
        """
        if not self._running:
            raise RuntimeError("gateway is not running")
        spec = self.tiers.get(tier)
        if spec is None:
            raise KeyError(
                f"unknown tier {tier!r}; options: {sorted(self.tiers)}"
            )
        # A request no replica can hold would be rejected by the engine
        # with no completion, leaving its ticket open forever.
        capacity = max(
            engine.kv_cache.capacity_tokens for engine in self.session.engines
        )
        if prompt_tokens + decode_tokens > capacity:
            raise ValueError(
                f"prompt_tokens + max_tokens = "
                f"{prompt_tokens + decode_tokens} exceeds every replica's "
                f"KV capacity ({capacity} tokens)"
            )
        target = self.clock.target()
        if target is not None and target > self.session.now:
            # Catch the simulator up so admission sees current state.
            self.session.advance(until=target)
        now = self.session.now
        request = Request(
            request_id=self._fresh_id(),
            arrival_time=(
                min(arrival_time, now) if arrival_time is not None else now
            ),
            prompt_tokens=prompt_tokens,
            decode_tokens=decode_tokens,
            qos=spec,
            app_id=app_id,
            important=important,
            token_ids=token_ids,
            session_id=session_id,
            parent_request_id=parent_request_id,
        )
        self.offered.append(request)
        self._tickets[request.request_id] = _Ticket(
            request, asyncio.Queue()
        )
        reason = self._arrive(request)
        assert self._wake is not None
        self._wake.set()
        if reason is not None:
            raise AdmissionRefused(request, reason)
        return request

    async def next_token(self, request_id: int) -> TokenEvent | None:
        """Await the request's next streamed token; ``None`` when done."""
        ticket = self._tickets[request_id]
        if ticket.queue is None:
            return None
        if ticket.done and ticket.queue.empty():
            return None
        return await ticket.queue.get()

    async def stream(
        self, request_id: int
    ) -> AsyncIterator[TokenEvent]:
        """Async-iterate the request's tokens until completion."""
        while True:
            event = await self.next_token(request_id)
            if event is None:
                return
            yield event

    async def result(self, request_id: int) -> Request:
        """Drain the request's stream and return it once finished."""
        while await self.next_token(request_id) is not None:
            pass
        return self._tickets[request_id].request

    # --- introspection -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def request_state(self, request_id: int) -> Request | None:
        ticket = self._tickets.get(request_id)
        return ticket.request if ticket is not None else None

    def prometheus_text(self) -> str:
        """Prometheus exposition for ``/metrics``.

        Rendered from the observer's registry when one is attached (the
        CLI wires a :class:`~repro.obs.observer.TracingObserver`, whose
        hooks count the gateway series); otherwise from a fresh registry
        filled from the always-on :class:`GatewayStats`, so the gateway
        series are never absent.  The scrape-time gauges are set here.
        """
        registry = getattr(self._observer, "registry", None)
        if registry is None:
            registry = self.stats.to_registry()
        registry.gauge(
            "repro_gateway_queue_depth",
            "Cluster-wide prefill backlog seen by admission",
        ).set(self.session.queue_depth())
        fills = self.admission.fill_levels(self.session.now)
        if fills:
            fill_gauge = registry.gauge(
                "repro_gateway_token_bucket_fill",
                "Admission token-bucket fill per tier",
                labelnames=("tier",),
            )
            for tier, level in fills.items():
                fill_gauge.labels(tier=tier).set(level)
        fleet = self._fleet_snapshot()
        if fleet is not None:
            size_gauge, hw_gauge = fleet_gauges(registry)
            size_gauge.set(fleet["size"])
            for name, count in fleet["by_hardware"].items():
                hw_gauge.labels(hardware=name).set(count)
            registry.gauge(
                "repro_fleet_burn_rate",
                "Recent SLO error-budget burn rate of the fleet",
            ).set(fleet["burn_rate"])
        return registry.to_prometheus_text()

    def _fleet_snapshot(self) -> dict | None:
        """Fleet gauges for ``/metrics`` and ``/v1/live`` (None when
        the session is not fleet-backed)."""
        fleet = self.session.fleet
        if fleet is None:
            return None
        return {
            "size": fleet.fleet_size,
            "active": fleet.active_replicas,
            "by_hardware": fleet.size_by_hardware(),
            "burn_rate": fleet.recent_burn_rate(self.session.now),
            "alive_fraction": fleet.alive_fraction,
            "gpu_hours": fleet.gpu_hours,
            "faults_skipped": fleet.faults_skipped,
        }
