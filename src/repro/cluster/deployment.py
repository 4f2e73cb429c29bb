"""Shared and siloed cluster deployments (Sections 2.2 and 4.1.1).

A *shared* deployment co-schedules all QoS tiers on every replica
behind one router — QoServe's model.  A *siloed* deployment
partitions replicas into per-tier pools, each pool running its own
scheduler and chunk size — the production state of the art the paper
compares against (Sarathi-Silo), with round-robin inside each pool.

:class:`ClusterDeployment` builds every shared pool.  A *static*
cluster is a fixed set of replicas behind the router.  Two optional
components extend it:

* **Fault tolerance** (``fault_plan=`` / ``resilience=``):
  1. *Fault injection* — a :class:`~repro.faults.plan.FaultPlan` is
     armed on the cluster's simulator; crashes drop a replica's KV
     cache and in-flight batch, slowdowns stretch its iteration time.
  2. *Health-aware routing & retry* — routing only considers healthy
     replicas; requests lost to a crash are re-dispatched after capped
     exponential backoff (:class:`~repro.faults.policy.RetryPolicy`),
     keeping their *original* arrival time so SLO accounting spans
     every attempt.  A request that exhausts its attempt budget is
     cancelled.
  3. *Client deadline timeouts* — a per-request watchdog abandons
     work still unfinished at ``abandonment_factor ×`` its governing
     deadline span and frees its KV.
  4. *Graceful degradation* — when the alive fraction of replicas
     drops below the configured thresholds, admission sheds free-tier
     arrivals first, then non-interactive traffic, mirroring the QoS
     victim ordering of :mod:`repro.core.relegation`.
* **Elasticity** (``fleet=`` / ``autoscaler=``): heterogeneous
  :class:`~repro.cluster.fleet.FleetConfig` slots, an autoscaler
  control loop with provision-delay cold starts and drain-don't-kill
  scale-down, exact per-slot GPU-hour and cost accounting, and
  ``fault_skipped`` trace events for faults aimed at slots that are
  drained, released or not yet provisioned.  A fleet always carries
  fault tolerance: a draining replica is never a routing or retry
  target, and a crashed replica does not count toward the pool bound.

Determinism: a static cluster decides round-robin at submit time and
defers load-aware routing to arrival; it arms no injector and
schedules no watchdog.  With fault tolerance every request is
admitted at arrival (when health is knowable); with an empty plan the
run summaries are byte-identical to the static cluster's on
arrival-ordered traces, because watchdogs are disarmed on completion
and never stretch the drained clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.fleet import (
    BURN_WINDOW,
    CONTROL_PRIORITY,
    SLO_BUDGET,
    FleetConfig,
    HardwareClass,
)
from repro.core.request import Request
from repro.engine.interface import Scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, get_default_fault_plan
from repro.faults.policy import ResilienceConfig
from repro.metrics.summary import RunSummary, summarize_run
from repro.obs.sketch import BurnRateTracker
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.events import Event
from repro.simcore.simulator import Simulator
from repro.workload.trace import Trace

SchedulerFactory = Callable[[], Scheduler]


def _chain(existing, hook):
    """Compose per-replica callbacks without displacing earlier ones."""
    if existing is None:
        return hook

    def chained(request, now):
        existing(request, now)
        hook(request, now)

    return chained

#: Routing strategies for :class:`ClusterDeployment`.  The paper's
#: deployments use round-robin ("Both deployments use round-robin load
#: balancing across replicas"); least-loaded and power-of-two-choices
#: are provided for provisioning studies — with heavy-tailed prompt
#: lengths, load-aware routing smooths the per-replica work imbalance
#: round-robin leaves behind.  perf-aware extends least-loaded for
#: heterogeneous pools: prefill-heavy requests prefer compute-rich
#: replicas, decode-heavy requests prefer memory-rich ones, by scoring
#: outstanding work against the hardware capability that governs the
#: request's bottleneck phase.  On a homogeneous pool it reduces
#: exactly to least-loaded (same replica-index tie-break).
ROUTING_STRATEGIES = (
    "round-robin", "least-loaded", "power-of-two", "perf-aware",
)

#: A request whose prompt is at least this many times its decode
#: length is classified prefill-heavy by perf-aware routing.
PREFILL_HEAVY_RATIO = 4.0


@dataclass
class _Slot:
    """Bookkeeping for one replica's life in the pool."""

    engine: ReplicaEngine
    hw_class: HardwareClass | None
    provisioned_at: float
    draining: bool = False
    released: bool = False
    released_at: float | None = None
    last_busy_time: float = 0.0

    def gpu_hours(self, now: float) -> float:
        end = self.released_at if self.released_at is not None else now
        return (
            max(0.0, end - self.provisioned_at)
            * self.engine.execution_model.tp_degree
            / 3600.0
        )


class ClusterDeployment:
    """A pool of replicas behind a load balancer.

    Args:
        execution_model: Cost model of every replica of a static or
            fault-tolerant pool; a fleet deploys its
            :class:`~repro.perfmodel.models.ModelSpec` on each
            hardware class instead.
        scheduler_factory: Fresh scheduler per replica.
        num_replicas: Pool size; a fleet sizes itself from
            ``fleet.initial`` and takes ``None`` here.
        routing: One of :data:`ROUTING_STRATEGIES`.
        fault_plan: Enables fault tolerance.  ``None`` with fault
            tolerance on falls back to the process default plan
            (:func:`~repro.faults.plan.get_default_fault_plan`).  A
            fleet arms it against ``fleet.max_replicas``: targeting a
            slot the fleet *could* provision is legal, and firing at
            one that is currently absent becomes a ``fault_skipped``
            trace event.
        resilience: Enables fault tolerance with these policies
            (default :class:`~repro.faults.policy.ResilienceConfig`).
        fleet: Enables elasticity (and fault tolerance) with these
            composition bounds and control timing.
        autoscaler: :class:`~repro.cluster.fleet.BurnRateAutoscaler`,
            :class:`~repro.cluster.fleet.BusyFractionAutoscaler`, any
            object with the same ``decide``/``choose_class`` surface,
            or ``None`` for a fleet without a control loop.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        num_replicas: int | None = None,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
        routing: str = "round-robin",
        observer=None,
        engine_cls: type[ReplicaEngine] | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        fleet: FleetConfig | None = None,
        autoscaler: object | None = None,
    ) -> None:
        if fleet is not None:
            if num_replicas is not None:
                raise ValueError("a fleet is sized by fleet.initial")
            initial = [fleet.class_named(n) for n in fleet.initial]
        elif autoscaler is not None:
            raise ValueError("autoscaler requires fleet=...")
        elif num_replicas is None or num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        else:
            initial = [None] * num_replicas
        if routing not in ROUTING_STRATEGIES:
            raise ValueError(
                f"unknown routing {routing!r}; "
                f"options: {ROUTING_STRATEGIES}"
            )
        self.simulator = simulator or Simulator()
        self.execution_model = execution_model
        self.scheduler_factory = scheduler_factory
        self.replica_config = replica_config or ReplicaConfig()
        self.routing = routing
        #: Engine implementation every replica (including ones
        #: provisioned later by the autoscaler) is built from.
        self.engine_cls = engine_cls or ReplicaEngine
        self.fleet = fleet
        self.autoscaler = autoscaler
        self.resilience: ResilienceConfig | None = None
        if fleet is not None or fault_plan is not None or (
            resilience is not None
        ):
            self.resilience = resilience or ResilienceConfig()
        self.replicas: list[ReplicaEngine] = []
        self._slots: list[_Slot] = []
        #: Hooks replayed onto replicas provisioned later.
        self._completion_hooks: list = []
        self._token_hooks: list = []
        for cls in initial:
            self._add_replica(cls, observer)
        self._next_replica = 0
        self._submitted: list[Request] = []
        # Deterministic stream for power-of-two sampling.
        self._route_rng = np.random.default_rng(0xC1053E)

        #: request_id -> replica currently serving the request.
        self._owner: dict[int, ReplicaEngine] = {}
        #: request_id -> armed deadline-watchdog event.
        self._watchdogs: dict[int, Event] = {}
        #: Admitted requests stranded while no replica is healthy.
        self._waiting: deque[Request] = deque()
        self.shed_requests: list[Request] = []
        self.cancelled_requests: list[Request] = []
        self.retries_scheduled = 0
        self.total_lost_to_crashes = 0
        self.faults_skipped = 0
        if self.resilience is not None:
            if fault_plan is None:
                fault_plan = get_default_fault_plan() or FaultPlan()
            FaultInjector(self.simulator, self, fault_plan).arm(
                num_replicas=fleet.max_replicas
                if fleet is not None
                else len(initial)
            )
        self.fault_plan = fault_plan

        self._pending: list[HardwareClass] = []
        #: The pool's own burn trackers: observer-independent, so
        #: autoscaling decisions are identical with tracing on or off.
        #: ``burn`` is the *total* SLO spend (completed violations and
        #: shed arrivals) — the number an operator watches.
        #: ``capacity_burn`` sees completions and cancellations only:
        #: shedding is admission control while degraded, ending with
        #: recovery, and buying replicas cannot shorten an MTTR — so
        #: procurement reacts to capacity evidence alone.
        self.burn = BurnRateTracker(window=BURN_WINDOW, slo_budget=SLO_BUDGET)
        self.capacity_burn = BurnRateTracker(
            window=BURN_WINDOW, slo_budget=SLO_BUDGET
        )
        self._violations_interactive = 0
        self._violations_batch = 0
        self.last_mean_utilization = 0.0
        self.scaling_events: list[tuple[float, str, int]] = []
        #: Last time a bought replica came online — burn windows that
        #: straddle it are pre-resize evidence (see
        #: :meth:`capacity_burn_rate`).
        self._last_capacity_change = 0.0
        self._control_active = autoscaler is not None
        #: True while the control loop has parked itself because the
        #: event queue is empty (see :meth:`_control_tick`).
        self._control_dormant = False
        self._schedule_control()

    def _add_replica(
        self, hw_class: HardwareClass | None, observer
    ) -> ReplicaEngine:
        if hw_class is None:
            execution_model = self.execution_model
        else:
            execution_model = ExecutionModel(
                self.execution_model.model,
                hw_class.hardware,
                tp_degree=hw_class.tp_degree,
            )
        engine = self.engine_cls(
            self.simulator,
            execution_model,
            self.scheduler_factory(),
            self.replica_config,
            replica_id=len(self.replicas),
            observer=observer,
        )
        if self.resilience is not None:
            engine.completion_hook = self._on_request_complete
        for hook in self._completion_hooks:
            engine.completion_hook = _chain(engine.completion_hook, hook)
        for hook in self._token_hooks:
            engine.token_hook = _chain(engine.token_hook, hook)
        self.replicas.append(engine)
        self._slots.append(
            _Slot(engine, hw_class, provisioned_at=self.simulator.now)
        )
        return engine

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def gpus_used(self) -> int:
        return sum(
            replica.execution_model.tp_degree for replica in self.replicas
        )

    def _outstanding(self, replica: ReplicaEngine) -> int:
        return (
            replica.running_requests
            + len(replica.scheduler.pending_requests())
        )

    # --- health / routing -------------------------------------------------

    def _eligible_replicas(self) -> list[ReplicaEngine]:
        """Replicas routing may dispatch to right now: healthy, not
        draining and not released."""
        return [
            s.engine
            for s in self._slots
            if s.engine.healthy and not s.draining and not s.released
        ]

    @property
    def alive_fraction(self) -> float:
        """Healthy share of the provisioned (non-released) pool."""
        provisioned = [s for s in self._slots if not s.released]
        if not provisioned:
            return 0.0
        healthy = sum(1 for s in provisioned if s.engine.healthy)
        return healthy / len(provisioned)

    @staticmethod
    def _phase_capability(
        replica: ReplicaEngine, prefill_heavy: bool
    ) -> float:
        """Hardware capability governing the request's bottleneck phase.

        Prefill is compute-bound (effective linear FLOPs); decode is
        memory-bound (weight/KV streaming bandwidth).  Per-rank values
        are equivalent here because routing only compares ratios.
        """
        hardware = replica.execution_model.hardware
        if prefill_heavy:
            return hardware.peak_flops * hardware.mfu_linear
        return hardware.mem_bandwidth

    def _pick_replica(self, request: Request | None = None) -> ReplicaEngine:
        candidates = self._eligible_replicas()
        if not candidates:
            raise RuntimeError("routing found no eligible replica")
        if self.routing == "perf-aware":
            # Score queue depth against the capability that governs
            # this request's bottleneck phase, so prefill-heavy work
            # prefers compute-rich replicas and decode-heavy work
            # prefers memory-rich ones.  Capabilities are normalized
            # to the fastest candidate so the score stays a pure
            # load ratio: on a homogeneous pool every weight is 1.0
            # and this is exactly least-loaded.
            prefill_heavy = (
                request is not None
                and request.prompt_tokens
                >= PREFILL_HEAVY_RATIO * request.decode_tokens
            )
            best = max(
                self._phase_capability(r, prefill_heavy)
                for r in candidates
            )
            # outstanding + 1 counts the request being placed, so an
            # all-idle pool still prefers the fastest hardware instead
            # of degenerating to replica 0.
            return min(
                candidates,
                key=lambda r: (
                    (self._outstanding(r) + 1)
                    * best
                    / self._phase_capability(r, prefill_heavy),
                    r.replica_id,
                ),
            )
        if self.routing == "round-robin" or len(candidates) == 1:
            # Walk the rotation cursor to the next eligible replica so
            # rotation order survives replicas leaving and rejoining.
            for _ in range(self.num_replicas):
                replica = self.replicas[self._next_replica]
                self._next_replica = (
                    self._next_replica + 1
                ) % self.num_replicas
                if replica in candidates:
                    return replica
            # candidates is a non-empty subset of self.replicas, so
            # the walk above always returns; keep a hard stop anyway.
            raise RuntimeError("eligible replicas not in deployment")
        if self.routing == "least-loaded":
            # Ties break on replica index, not list position, so equal
            # loads route the same way no matter who crashed earlier.
            return min(
                candidates,
                key=lambda r: (self._outstanding(r), r.replica_id),
            )
        # power-of-two: sample two distinct candidates, keep the
        # lighter; a tie goes to the lower replica index rather than
        # whichever the RNG happened to sample first.
        if len(candidates) == 2:
            a, b = candidates
        else:
            first, second = self._route_rng.choice(
                len(candidates), size=2, replace=False
            )
            a, b = candidates[int(first)], candidates[int(second)]
        load_a, load_b = self._outstanding(a), self._outstanding(b)
        if load_a != load_b:
            return a if load_a < load_b else b
        return a if a.replica_id < b.replica_id else b

    # --- submission -------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Register a request that arrives at ``request.arrival_time``.

        A static round-robin pool picks the replica immediately (it
        needs no system state); every other pool routes at the
        request's arrival, when queue depths and health are knowable.
        """
        self._wake_control()
        self._submitted.append(request)
        if self.resilience is None and self.routing == "round-robin":
            self._pick_replica(request).submit(request)
            return
        self.simulator.schedule(
            max(request.arrival_time, self.simulator.now),
            lambda: self._admit(request),
        )

    def submit_now(self, request: Request) -> ReplicaEngine:
        """Inject a request immediately (online gateway path).

        Routing is decided at the current simulated time — queue
        depths are live — and the chosen replica is returned so the
        caller can later cancel or stream against it.
        """
        self._wake_control()
        self._submitted.append(request)
        replica = self._pick_replica(request)
        now = self.simulator.now
        observer = replica.observer
        observer.on_span_start(
            "dispatch", request, now, replica.replica_id
        )
        replica.submit_now(request)
        observer.on_span_end(
            "dispatch", request, now, replica.replica_id
        )
        return replica

    def _admit(self, request: Request) -> None:
        if self.resilience is None:
            self._pick_replica(request).submit_now(request)
            return
        now = self.simulator.now
        alive = self.alive_fraction
        level = self.resilience.degradation_level(alive)
        if level >= 1 and self._sheddable(request, level):
            self._shed(request, now, alive)
            return
        if not self._eligible_replicas():
            # Total outage: hold the request until capacity returns;
            # the deadline watchdog still covers it.
            self._arm_watchdog(request)
            self._waiting.append(request)
            return
        self._dispatch(request)

    def _shed(self, request: Request, now: float, alive: float) -> None:
        request.shed = True
        self.shed_requests.append(request)
        self.replicas[0].observer.on_request_shed(request, now, alive)
        # A shed arrival spends error budget too — without this the
        # total burn gauge only sees requests that *complete*.  It is
        # deliberately kept out of ``capacity_burn``: sheds end with
        # the crashed replica's recovery, not with procurement.
        self.burn.observe(now, True)

    def _sheddable(self, request: Request, level: int) -> bool:
        """Victim ordering mirrors relegation: free tier first, then
        non-interactive paid traffic; paid interactive is shed last
        (never, by admission — it only fails with the whole fleet)."""
        if not request.important:
            return True
        return level >= 2 and not request.is_interactive

    def _dispatch(self, request: Request) -> None:
        engine = self._pick_replica(request)
        request.attempts += 1
        self._owner[request.request_id] = engine
        if request.attempts == 1:
            self._arm_watchdog(request)
        engine.submit_now(request)

    def _drain_waiting(self) -> None:
        """Dispatch stranded requests in FIFO order while capacity
        lasts (after a recovery or a newly provisioned replica)."""
        while self._waiting and self._eligible_replicas():
            request = self._waiting.popleft()
            if request.cancelled or request.is_finished:
                continue
            self._dispatch(request)

    # --- injector hooks (FaultTarget) -------------------------------------

    def _skip_fault(self, replica_id: int, fault_kind: str) -> bool:
        """Downgrade a fault aimed at a slot that is not provisioned,
        released or draining to a ``fault_skipped`` event."""
        if 0 <= replica_id < len(self._slots):
            slot = self._slots[replica_id]
            if slot.released:
                reason = "released"
            elif slot.draining:
                reason = "drained"
            else:
                return False
        else:
            reason = "not_provisioned"
        self.faults_skipped += 1
        self.replicas[0].observer.on_fault_skipped(
            replica_id, self.simulator.now, fault_kind, reason
        )
        return True

    def on_replica_crash(self, replica_id: int) -> None:
        if self._skip_fault(replica_id, "crash"):
            return
        engine = self.replicas[replica_id]
        if not engine.healthy:
            return
        lost = engine.crash()
        self.total_lost_to_crashes += len(lost)
        now = self.simulator.now
        for request in lost:
            self._owner.pop(request.request_id, None)
            if request.cancelled:
                continue
            self._schedule_retry(request, replica_id, now)

    def on_replica_recover(self, replica_id: int) -> None:
        if self._skip_fault(replica_id, "recover"):
            return
        engine = self.replicas[replica_id]
        if engine.healthy:
            return
        engine.recover()
        # A recovery may be the only healthy capacity.
        self._drain_waiting()

    def on_replica_slowdown(self, replica_id: int, factor: float) -> None:
        if self._skip_fault(replica_id, "slowdown"):
            return
        engine = self.replicas[replica_id]
        engine.set_slowdown(factor)
        engine.observer.on_replica_slowdown(
            replica_id, self.simulator.now, factor
        )

    # --- retry ------------------------------------------------------------

    def _schedule_retry(
        self, request: Request, from_replica: int, now: float
    ) -> None:
        policy = self.resilience.retry
        if policy.exhausted(request.attempts):
            self._cancel_unowned(request, now, "retry-budget")
            return
        backoff = policy.backoff(request.attempts)
        self.retries_scheduled += 1
        self.replicas[0].observer.on_request_retried(
            request, now, request.attempts, backoff, from_replica
        )
        self.simulator.schedule(
            now + backoff, lambda: self._redispatch(request)
        )
        # A request whose watchdog already passed (e.g. it was happily
        # streaming) gets a fresh abandonment budget measured from the
        # crash — the client's stream just broke, the wait restarts.
        self._arm_watchdog(request, rebase_from=now)

    def _redispatch(self, request: Request) -> None:
        if request.cancelled or request.is_finished:
            return
        if not self._eligible_replicas():
            self._waiting.append(request)
            return
        self._dispatch(request)

    def _record_cancel(self, request: Request, now: float) -> None:
        """Bookkeeping for a definitive give-up on a request.

        An abandoned or retry-exhausted request never completes, so
        the completion hook cannot see it — yet it is the most
        definitive SLO violation there is, and under sustained
        overload *most* violations end this way.  Both burn trackers
        see it: procurement can absorb the queueing that caused it.
        """
        self.cancelled_requests.append(request)
        self._observe_violation(request, now, True)

    def _cancel_unowned(
        self, request: Request, now: float, reason: str
    ) -> None:
        """Cancel a request not resident on any replica (lost to a
        crash, waiting out a backoff, or stranded in the outage
        queue)."""
        request.cancel(now, reason)
        self._record_cancel(request, now)
        self._disarm_watchdog(request)
        self.replicas[0].observer.on_request_cancelled(
            -1, request, now, reason
        )

    # --- deadline watchdog ------------------------------------------------

    def _arm_watchdog(
        self, request: Request, rebase_from: float | None = None
    ) -> None:
        factor = self.resilience.abandonment_factor
        if factor is None or request.request_id in self._watchdogs:
            return
        if request.is_finished or request.cancelled or request.shed:
            return
        if request.is_interactive:
            deadline = request.first_token_deadline
        else:
            deadline = request.total_deadline
        span = max(0.0, deadline - request.arrival_time)
        base = (
            rebase_from if rebase_from is not None else request.arrival_time
        )
        fire_at = max(self.simulator.now, base + factor * span)
        self._watchdogs[request.request_id] = self.simulator.schedule(
            fire_at, lambda: self._watchdog_fired(request)
        )

    def _disarm_watchdog(self, request: Request) -> None:
        event = self._watchdogs.pop(request.request_id, None)
        if event is not None:
            event.cancel()

    def _watchdog_fired(self, request: Request) -> None:
        self._watchdogs.pop(request.request_id, None)
        if request.is_finished or request.cancelled or request.shed:
            return
        if (
            request.is_interactive
            and request.first_token_time is not None
            and request.remaining_prefill == 0
        ):
            # The client is reading an unbroken stream; late tokens
            # are an SLO miss, not an abandonment.  (A crash resets
            # prefill progress, so a broken stream fails this check
            # and the rebased watchdog may abandon it.)
            return
        now = self.simulator.now
        owner = self._owner.pop(request.request_id, None)
        if owner is not None:
            # The engine cancels the request (resident or not), frees
            # its KV and fires the observer hook.
            owner.cancel_request(request, "deadline")
            self._record_cancel(request, now)
            return
        # Not resident (backoff or outage queue): cancel directly.
        try:
            self._waiting.remove(request)
        except ValueError:
            pass
        request.cancel(now, "deadline")
        self._record_cancel(request, now)
        self.replicas[0].observer.on_request_cancelled(
            -1, request, now, "deadline"
        )

    def _on_request_complete(self, request: Request, now: float) -> None:
        self._owner.pop(request.request_id, None)
        self._disarm_watchdog(request)
        self._observe_violation(request, now, request.violated_deadline)

    def _observe_violation(
        self, request: Request, now: float, violated: bool
    ) -> None:
        self.burn.observe(now, violated)
        self.capacity_burn.observe(now, violated)
        if violated:
            if request.is_interactive:
                self._violations_interactive += 1
            else:
                self._violations_batch += 1

    # --- hooks ------------------------------------------------------------

    def set_completion_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` on every replica's completions,
        including replicas provisioned later.

        Chains after any hook already installed (e.g. the watchdog
        disarm) rather than displacing it.
        """
        self._completion_hooks.append(hook)
        for replica in self.replicas:
            replica.completion_hook = _chain(replica.completion_hook, hook)

    def set_token_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` for every output token emitted
        by any replica (streaming delivery)."""
        self._token_hooks.append(hook)
        for replica in self.replicas:
            replica.token_hook = _chain(replica.token_hook, hook)

    # --- fleet composition ------------------------------------------------

    @property
    def fleet_size(self) -> int:
        """Replicas provisioned and not yet released (any health)."""
        return sum(1 for s in self._slots if not s.released)

    @property
    def active_replicas(self) -> int:
        """Replicas accepting new work right now."""
        return len(self._eligible_replicas())

    def size_by_hardware(self) -> dict[str, int]:
        """Provisioned (non-released) replica count per class name."""
        counts: dict[str, int] = {c.name: 0 for c in self.fleet.classes}
        for slot in self._slots:
            if not slot.released:
                counts[slot.hw_class.name] += 1
        return counts

    def _pool_occupancy(self) -> int:
        """Slots counted against ``max_replicas``: healthy non-released
        replicas plus pending provisions.  Crashed replicas do not
        count — the bound limits *working* capacity, and a crash may
        be replaced immediately."""
        healthy = sum(
            1
            for s in self._slots
            if not s.released and s.engine.healthy
        )
        return healthy + len(self._pending)

    # --- autoscaler inputs ------------------------------------------------

    def recent_burn_rate(self, now: float, lookback_windows: int = 2) -> float:
        """Max *total* burn over recent windows (operator view)."""
        horizon = now - lookback_windows * self.burn.window
        recent = [
            row["burn_rate"]
            for row in self.burn.series()
            if row["end"] > horizon
        ]
        return max(recent, default=0.0)

    def capacity_burn_rate(
        self, now: float, lookback_windows: int = 1
    ) -> float:
        """Completion-only burn, the autoscaler's scale-up signal.

        Windows that started before the last capacity arrival are
        excluded: violations completing now were queued under the
        *previous* fleet size, and re-reacting to them would over-buy
        for the entire completion lag.  The current fleet is judged
        only on evidence gathered while it existed.
        """
        horizon = now - lookback_windows * self.capacity_burn.window
        recent = [
            row["burn_rate"]
            for row in self.capacity_burn.series()
            if row["end"] > horizon
            and row["start"] >= self._last_capacity_change
        ]
        return max(recent, default=0.0)

    def recent_violation_mix(self) -> tuple[int, int]:
        """(interactive, non-interactive) violations since last tick."""
        return self._violations_interactive, self._violations_batch

    def cheapest_class(self, compute_bound: bool) -> HardwareClass:
        """Best cost per unit of bottleneck capability (tie: name)."""
        return min(
            self.fleet.classes,
            key=lambda c: (
                c.cost_rate / (c.capability(compute_bound) * c.tp_degree),
                c.name,
            ),
        )

    # --- control loop -----------------------------------------------------

    def _schedule_control(self) -> None:
        if not self._control_active:
            return
        self._control_dormant = False
        self.simulator.schedule_after(
            self.fleet.control_interval,
            self._control_tick,
            priority=CONTROL_PRIORITY,
        )

    def _wake_control(self) -> None:
        """Restart a parked control loop (new work arrived)."""
        if self._control_active and self._control_dormant:
            self._schedule_control()

    def stop_control(self) -> None:
        self._control_active = False

    def _control_tick(self) -> None:
        now = self.simulator.now
        self._release_drained(now)
        active = [
            s
            for s in self._slots
            if not s.draining and not s.released and s.engine.healthy
        ]
        if active:
            utilizations = []
            for slot in active:
                delta = slot.engine.busy_time - slot.last_busy_time
                slot.last_busy_time = slot.engine.busy_time
                utilizations.append(
                    min(1.0, delta / self.fleet.control_interval)
                )
            self.last_mean_utilization = sum(utilizations) / len(
                utilizations
            )
        else:
            self.last_mean_utilization = 1.0

        delta = self.autoscaler.decide(self, now)
        if delta > 0 and not self._pending:
            # Capacity is already on the way: re-reacting to the same
            # hot signal every tick of the provision delay would
            # overshoot far past the needed fleet size.
            self._scale_up(min(delta, self.fleet.max_step_up), now)
        elif delta < 0:
            self._scale_down(now)
        self._violations_interactive = 0
        self._violations_batch = 0
        # Park instead of rescheduling when nothing else is pending:
        # a self-perpetuating tick would make run-to-drain spin
        # forever.  ``submit`` / ``submit_now`` wake the loop.
        if (
            not self._pending
            and self.simulator.next_event_time() is None
        ):
            self._control_dormant = True
            return
        self._schedule_control()

    def _resized(
        self, now: float, action: str, replica_id: int, cls: HardwareClass
    ) -> None:
        self.scaling_events.append((now, action, self.fleet_size))
        self.replicas[0].observer.on_fleet_resized(
            now, action, replica_id, cls.name, self.fleet_size,
            by_hardware=self.size_by_hardware(),
        )

    def _scale_up(self, steps: int, now: float) -> None:
        room = self.fleet.max_replicas - self._pool_occupancy()
        for _ in range(min(steps, max(0, room))):
            cls = self.autoscaler.choose_class(self)
            self._pending.append(cls)
            self._resized(now, "provision", -1, cls)
            self.simulator.schedule_after(
                self.fleet.provision_delay,
                self._replica_ready,
                priority=CONTROL_PRIORITY,
            )

    def _scale_down(self, now: float) -> None:
        candidates = [
            s
            for s in self._slots
            if not s.draining and not s.released and s.engine.healthy
        ]
        if (
            len(candidates) <= self.fleet.min_replicas
            or self._pending
        ):
            return

        def drain_key(slot: _Slot):
            outstanding = self._outstanding(slot.engine)
            # Prefer the emptiest replica; among equals, the most
            # expensive hardware; then the newest slot.
            return (
                outstanding,
                -slot.hw_class.cost_rate,
                -slot.engine.replica_id,
            )

        victim = min(candidates, key=drain_key)
        victim.draining = True
        self._resized(
            now, "drain", victim.engine.replica_id, victim.hw_class
        )

    def _replica_ready(self) -> None:
        cls = self._pending.pop(0)
        now = self.simulator.now
        engine = self._add_replica(cls, self.replicas[0].observer)
        self._last_capacity_change = now
        self._resized(now, "ready", engine.replica_id, cls)
        # New capacity may be the first capacity (total outage while
        # provisioning).
        self._drain_waiting()

    def _release_drained(self, now: float) -> None:
        for slot in self._slots:
            if slot.released or not slot.draining:
                continue
            empty = (
                not slot.engine.has_work()
                and slot.engine.running_requests == 0
            )
            if empty or not slot.engine.healthy:
                slot.released = True
                slot.released_at = now
                self._resized(
                    now, "release", slot.engine.replica_id, slot.hw_class
                )

    # --- running & reporting ----------------------------------------------

    def next_event_time(self) -> float | None:
        """When the shared simulator fires next (None when idle)."""
        return self.simulator.next_event_time()

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def run_until_drained(
        self, max_events: int | None = None
    ) -> float:
        """Drain the event queue, then stop control and release slots.

        Termination relies on the control loop's parking behaviour
        (see :meth:`_control_tick`): once all work is processed the
        tick stops rescheduling itself and the queue empties.
        """
        now = self.simulator.run(max_events=max_events)
        self.stop_control()
        self._release_drained(now)
        return now

    def all_requests(self) -> list[Request]:
        return list(self._submitted)

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(), now=now if now is not None else self.simulator.now
        )

    @property
    def gpu_hours(self) -> float:
        now = self.simulator.now
        return sum(s.gpu_hours(now) for s in self._slots)

    @property
    def cost(self) -> float:
        """Accumulated price of the fleet in cost units."""
        now = self.simulator.now
        return sum(
            s.gpu_hours(now) * s.hw_class.cost_per_gpu_hour
            for s in self._slots
        )

    def fault_stats(self) -> dict:
        """Counters for experiment tables and the chaos smoke test."""
        return {
            "crashes": sum(r.crash_count for r in self.replicas),
            "lost_to_crashes": self.total_lost_to_crashes,
            "retries_scheduled": self.retries_scheduled,
            "shed": len(self.shed_requests),
            "cancelled": len(self.cancelled_requests),
            "still_waiting": len(self._waiting),
            "kv_blocks_resident": sum(
                r.kv_cache.used_blocks for r in self.replicas
            ),
        }

    def fleet_stats(self) -> dict:
        """Fleet-level counters for experiment tables and smoke tests."""
        stats = self.fault_stats()
        stats.update(
            fleet_size=self.fleet_size,
            active_replicas=self.active_replicas,
            by_hardware=self.size_by_hardware(),
            gpu_hours=self.gpu_hours,
            cost=self.cost,
            faults_skipped=self.faults_skipped,
            max_burn_rate=self.burn.max_burn_rate(),
            scaling_actions=len(self.scaling_events),
        )
        return stats


@dataclass(frozen=True)
class SiloSpec:
    """One silo: which tiers it serves and with how many replicas."""

    tier_names: tuple[str, ...]
    num_replicas: int
    scheduler_factory: SchedulerFactory


class SiloedDeployment:
    """Per-tier replica pools, as in current production practice.

    Requests are routed to the silo owning their QoS bucket; each silo
    is its own :class:`ClusterDeployment` sharing one simulator so the
    silos advance in lock-step simulated time.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        silos: list[SiloSpec],
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
    ) -> None:
        if not silos:
            raise ValueError("need at least one silo")
        self.simulator = simulator or Simulator()
        self.execution_model = execution_model
        self.pools: list[ClusterDeployment] = []
        self._route: dict[str, ClusterDeployment] = {}
        for spec in silos:
            pool = ClusterDeployment(
                execution_model,
                spec.scheduler_factory,
                spec.num_replicas,
                replica_config=replica_config,
                simulator=self.simulator,
            )
            self.pools.append(pool)
            for tier in spec.tier_names:
                if tier in self._route:
                    raise ValueError(f"tier {tier} assigned to two silos")
                self._route[tier] = pool

    @property
    def gpus_used(self) -> int:
        return sum(pool.gpus_used for pool in self.pools)

    def submit(self, request: Request) -> None:
        pool = self._route.get(request.qos.name)
        if pool is None:
            raise KeyError(
                f"no silo serves QoS bucket {request.qos.name!r}"
            )
        pool.submit(request)

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def all_requests(self) -> list[Request]:
        return [r for pool in self.pools for r in pool.all_requests()]

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(), now=now if now is not None else self.simulator.now
        )
