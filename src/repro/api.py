"""The unified public Python API: config in, summary out.

This module is the one front door to the serving stack; every
experiment driver, example and the online gateway go through it:

* :class:`ServeConfig` — a keyword-only description of the serving
  stack (deployment, scheduler, replica count, routing).
* :func:`simulate` — one call from workload to
  :class:`~repro.metrics.summary.RunSummary`.
* :class:`Session` — an incremental handle over the same stack for
  callers that interleave submission with simulation or read the
  engines afterwards (the online gateway in :mod:`repro.serve` is
  built on it).
* :func:`make_scheduler`, :func:`build_trace` and
  :func:`goodput_search` — the building blocks the experiment
  drivers share.  Deployments that need one scheduler per replica
  take ``functools.partial(make_scheduler, kind, execution_model)``.

Example::

    from repro.api import ServeConfig, simulate
    from repro.workload import AZURE_CODE

    summary = simulate(
        dataset=AZURE_CODE, qps=3.0, num_requests=500, seed=7,
        config=ServeConfig(scheduler="qoserve"),
    )
    print(summary.violations.overall_pct)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.cluster.capacity import CapacityResult, find_max_goodput
from repro.cluster.deployment import ROUTING_STRATEGIES, ClusterDeployment
from repro.cluster.fleet import (
    BurnRateAutoscaler,
    BusyFractionAutoscaler,
    FleetConfig,
)
from repro.core.qos import DEFAULT_TIERS, QoSSpec
from repro.core.request import Request, token_array
from repro.engine.interface import Scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.experiments.configs import get_execution_model
from repro.faults.plan import FaultPlan
from repro.metrics.summary import RunSummary, summarize_run
from repro.obs.metrics import DEFAULT_CHUNK_BUCKETS, bucket_counts
from repro.obs.audit import audit_events
from repro.obs.observer import (
    MultiObserver,
    Observer,
    TracingObserver,
    get_default_observer,
)
from repro.obs.trace import ListSink, TraceRecorder
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers import (
    ConServeScheduler,
    EDFScheduler,
    FCFSScheduler,
    MedhaScheduler,
    QoServeConfig,
    QoServeScheduler,
    SJFScheduler,
    SRPFScheduler,
)
from repro.simcore.simulator import Simulator
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.datasets import DATASETS, DatasetSpec
from repro.workload.tiers import TierAssigner, TierMix
from repro.workload.trace import Trace, TraceBuilder

#: Autoscaling policies a fleet-backed :class:`ServeConfig` accepts.
FLEET_AUTOSCALERS = ("off", "busy-fraction", "burn-rate")

#: Scheduler identifiers accepted by :func:`make_scheduler`.  The
#: "sarathi-" prefix used in the paper's figures maps to the bare
#: policies: every baseline here runs on the chunked Sarathi engine.
SCHEDULER_KINDS = (
    "fcfs",
    "sjf",
    "srpf",
    "edf",
    "qoserve",
    "qoserve-oracle",
    "medha",
    "conserve",
)


def make_scheduler(
    kind: str,
    execution_model: ExecutionModel,
    chunk_size: int = 256,
    qoserve_config: QoServeConfig | None = None,
    **kwargs,
) -> Scheduler:
    """Instantiate a scheduler by name.

    Args:
        kind: One of :data:`SCHEDULER_KINDS` (case-insensitive,
            "sarathi-" prefix tolerated).
        execution_model: Needed by predictor-backed schedulers.
        chunk_size: Fixed token budget for the Sarathi baselines.
        qoserve_config: Overrides the default QoServe configuration.
        **kwargs: Forwarded to the scheduler constructor.
    """
    key = kind.lower().removeprefix("sarathi-")
    if key == "fcfs":
        return FCFSScheduler(chunk_size=chunk_size, **kwargs)
    if key == "sjf":
        return SJFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "srpf":
        return SRPFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "edf":
        return EDFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "qoserve":
        return QoServeScheduler(
            execution_model, qoserve_config or QoServeConfig(), **kwargs
        )
    if key == "qoserve-oracle":
        config = qoserve_config or QoServeConfig(use_forest_predictor=False)
        return QoServeScheduler(execution_model, config, **kwargs)
    if key == "medha":
        return MedhaScheduler(execution_model, **kwargs)
    if key == "conserve":
        return ConServeScheduler(**kwargs)
    raise KeyError(f"unknown scheduler kind {kind!r}")


def build_trace(
    dataset: DatasetSpec | str,
    qps: float,
    num_requests: int,
    seed: int = 42,
    mix: TierMix | None = None,
    low_priority_fraction: float = 0.0,
    arrivals: ArrivalProcess | None = None,
) -> Trace:
    """Standard trace construction used across experiments.

    ``dataset`` accepts a :class:`DatasetSpec` or one of the registered
    preset names (:data:`repro.workload.DATASETS`).
    """
    if isinstance(dataset, str):
        spec = DATASETS.get(dataset)
        if spec is None:
            raise KeyError(
                f"unknown dataset {dataset!r}; "
                f"options: {sorted(DATASETS)}"
            )
        dataset = spec
    assigner = TierAssigner(
        mix=mix or TierMix.equal_thirds(),
        low_priority_fraction=low_priority_fraction,
    )
    return TraceBuilder(
        dataset,
        arrivals=arrivals or PoissonArrivals(qps),
        tier_assigner=assigner,
        seed=seed,
    ).build(num_requests)


def engine_scheduler_stats(engine: ReplicaEngine) -> dict:
    """Flatten the engine's always-on decision counters for export.

    These come from plain integer counters kept by the engine itself
    (not the optional :mod:`repro.obs` observer), so they are available
    — and identical — whether or not tracing is enabled.
    """
    relegations_by_tier: dict[str, int] = {}
    for request in engine.submitted:
        if request.relegated:
            tier = request.qos.name
            relegations_by_tier[tier] = relegations_by_tier.get(tier, 0) + 1
    return {
        "relegations_by_tier": dict(sorted(relegations_by_tier.items())),
        "relegations_total": sum(relegations_by_tier.values()),
        "preemptions": engine.stall_preemptions,
        "decode_evictions": engine.decode_evictions,
        "kv_high_water_utilization": engine.kv_cache.high_water_utilization,
        "chunk_size_histogram": bucket_counts(
            engine.chunk_tokens_hist, DEFAULT_CHUNK_BUCKETS
        ),
        "iterations": engine.iterations_run,
    }


def aggregate_scheduler_stats(engines: Iterable[ReplicaEngine]) -> dict:
    """Merge per-replica :func:`engine_scheduler_stats` cluster-wide.

    Counts sum; the KV high-water mark is the max across replicas (the
    binding capacity constraint); chunk-size buckets add element-wise.
    """
    merged: dict = {
        "relegations_by_tier": {},
        "relegations_total": 0,
        "preemptions": 0,
        "decode_evictions": 0,
        "kv_high_water_utilization": 0.0,
        "chunk_size_histogram": {},
        "iterations": 0,
    }
    for engine in engines:
        stats = engine_scheduler_stats(engine)
        for tier, count in stats["relegations_by_tier"].items():
            merged["relegations_by_tier"][tier] = (
                merged["relegations_by_tier"].get(tier, 0) + count
            )
        merged["relegations_total"] += stats["relegations_total"]
        merged["preemptions"] += stats["preemptions"]
        merged["decode_evictions"] += stats["decode_evictions"]
        merged["kv_high_water_utilization"] = max(
            merged["kv_high_water_utilization"],
            stats["kv_high_water_utilization"],
        )
        for bucket, count in stats["chunk_size_histogram"].items():
            merged["chunk_size_histogram"][bucket] = (
                merged["chunk_size_histogram"].get(bucket, 0) + count
            )
        merged["iterations"] += stats["iterations"]
    merged["relegations_by_tier"] = dict(
        sorted(merged["relegations_by_tier"].items())
    )
    return merged


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Keyword-only description of one serving stack.

    Per-iteration telemetry comes from the ``observer`` a
    :class:`Session` is given (``iteration_scheduled`` and
    ``kv_cache_snapshot`` events from a
    :class:`~repro.obs.observer.TracingObserver`), not from a field.

    Attributes:
        deployment: Named (model, hardware, TP) row of Table 1; see
            :data:`repro.experiments.configs.DEPLOYMENTS`.
        scheduler: Policy name from :data:`SCHEDULER_KINDS`.
        chunk_size: Fixed token budget for the Sarathi baselines.
        qoserve_config: Optional QoServe scheduler overrides.
        scheduler_kwargs: Extra keyword arguments forwarded to the
            scheduler constructor.
        num_replicas: Size of the static
            :class:`~repro.cluster.deployment.ClusterDeployment` pool
            the session builds; 1 is a pool of one.
        routing: Cluster load-balancing strategy.
        fleet: Heterogeneous elastic pool description
            (:class:`repro.cluster.fleet.FleetConfig`); when set the
            session builds an elastic
            :class:`~repro.cluster.deployment.ClusterDeployment` and
            ``num_replicas`` is ignored (the fleet's ``initial`` list
            sizes the pool).
        fleet_autoscaler: One of :data:`FLEET_AUTOSCALERS`
            (fleet-backed sessions only).
        fault_plan: Chaos plan armed on the fleet
            (:class:`repro.faults.plan.FaultPlan`; fleet-backed
            sessions only).
        audit: Attribute per-request latency to named phases
            (:mod:`repro.obs.audit`); lands in ``summary.attribution``.
        max_events: Safety valve on simulator events per run.
        engine: Accepts only ``"arrays"``, the struct-of-arrays
            :class:`~repro.engine.replica.ReplicaEngine` every session
            runs; the per-request object engine was removed.
        kv_reuse: Cross-request KV prefix reuse, one of
            :data:`~repro.engine.replica.ReplicaConfig.KV_REUSE_KINDS`:
            ``"off"`` (every request prefills from scratch —
            byte-identical to stacks predating the prefix cache) or
            ``"radix"`` (requests whose ``token_ids`` share a prefix
            with resident KV skip that prefix's prefill; see
            :mod:`repro.engine.prefix`).
    """

    deployment: str = "llama3-8b"
    scheduler: str = "qoserve"
    chunk_size: int = 256
    qoserve_config: QoServeConfig | None = None
    scheduler_kwargs: Mapping = field(default_factory=dict)
    num_replicas: int = 1
    routing: str = "round-robin"
    fleet: FleetConfig | None = None
    fleet_autoscaler: str = "burn-rate"
    fault_plan: FaultPlan | None = None
    audit: bool = False
    max_events: int = 50_000_000
    engine: str = "arrays"
    kv_reuse: str = "off"

    def __post_init__(self) -> None:
        if self.engine != "arrays":
            raise ValueError(
                f"engine {self.engine!r} is not available: the object "
                "engine was removed, and \"arrays\" (the default) is "
                "the only engine core"
            )
        key = self.scheduler.lower().removeprefix("sarathi-")
        if key not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"options: {SCHEDULER_KINDS}"
            )
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.routing not in ROUTING_STRATEGIES:
            raise ValueError(
                f"unknown routing {self.routing!r}; "
                f"options: {ROUTING_STRATEGIES}"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.fleet_autoscaler not in FLEET_AUTOSCALERS:
            raise ValueError(
                f"unknown fleet_autoscaler {self.fleet_autoscaler!r}; "
                f"options: {FLEET_AUTOSCALERS}"
            )
        if self.fault_plan is not None and self.fleet is None:
            raise ValueError(
                "fault_plan requires fleet=... (chaos runs on the "
                "fault-tolerant fleet deployment)"
            )
        if self.kv_reuse not in ReplicaConfig.KV_REUSE_KINDS:
            raise ValueError(
                f"unknown kv_reuse {self.kv_reuse!r}; "
                f"options: {ReplicaConfig.KV_REUSE_KINDS}"
            )


class Session:
    """An incremental simulation handle over one serving stack.

    Where :func:`simulate` is submit-everything-then-drain, a session
    lets callers interleave submission with bounded simulation — the
    contract the online gateway needs:

    * :meth:`submit` registers a request at its ``arrival_time``;
      :meth:`submit_now` injects one immediately.
    * :meth:`advance` processes events up to a virtual time (or to
      drain), :meth:`next_event_time` peeks at the pending horizon.
    * :meth:`set_token_hook` / :meth:`set_completion_hook` register
      streaming callbacks fired as tokens and completions happen.
    * :meth:`summary` produces the same :class:`RunSummary` (including
      ``scheduler_stats``) as the batch helpers.

    The stack is always one
    :class:`~repro.cluster.deployment.ClusterDeployment`
    (:attr:`deployment`), and a single replica is a pool of one.  A
    round-robin pool hands each submitted request straight to its
    replica, so a pool of one runs exactly as a bare engine does.

    Args:
        config: Stack description; defaults to :class:`ServeConfig`.
        execution_model: Override the deployment's cost model (a
            custom or pre-trained :class:`ExecutionModel`).
        scheduler: Pre-built scheduler for the one replica of a
            static single-replica session (``ValueError`` with
            ``num_replicas > 1`` or ``fleet=``); by default every
            replica gets a fresh one from ``config``.
        simulator: Share an existing event loop.
        observer: Observability hooks; ``None`` adopts the process
            default at engine construction, as engines always have.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        execution_model: ExecutionModel | None = None,
        scheduler: Scheduler | None = None,
        simulator: Simulator | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.config = config = config or ServeConfig()
        elastic = config.fleet is not None
        if scheduler is not None and (elastic or config.num_replicas > 1):
            raise ValueError(
                "a pre-built scheduler serves one static replica; "
                "pools and fleets build theirs from ServeConfig.scheduler"
            )
        self.execution_model = (
            execution_model or get_execution_model(config.deployment)
        )
        self.simulator = simulator or Simulator()
        self._audit_sink = None
        if config.audit:
            self._audit_sink = ListSink()
            collector = TracingObserver(TraceRecorder([self._audit_sink]))
            effective = (
                observer if observer is not None else get_default_observer()
            )
            observer = MultiObserver([collector, effective])

        replica_config = ReplicaConfig(kv_reuse=config.kv_reuse)
        self.deployment = ClusterDeployment(
            self.execution_model,
            self._scheduler if scheduler is None else lambda: scheduler,
            None if elastic else config.num_replicas,
            replica_config=replica_config,
            simulator=self.simulator,
            routing=config.routing,
            observer=observer,
            fault_plan=config.fault_plan,
            fleet=config.fleet,
            autoscaler=self._fleet_autoscaler() if elastic else None,
        )
        #: The deployment when it is an elastic fleet, else None.
        self.fleet = self.deployment if elastic else None

        self._conversations = 0

    def _fleet_autoscaler(self):
        return {
            "off": None,
            "busy-fraction": BusyFractionAutoscaler(),
            "burn-rate": BurnRateAutoscaler(),
        }[self.config.fleet_autoscaler]

    @property
    def engines(self) -> list[ReplicaEngine]:
        """Live view of the serving replicas (a fleet can grow)."""
        return list(self.deployment.replicas)

    def _scheduler(self) -> Scheduler:
        config = self.config
        return make_scheduler(
            config.scheduler,
            self.execution_model,
            chunk_size=config.chunk_size,
            qoserve_config=config.qoserve_config,
            **dict(config.scheduler_kwargs),
        )

    # --- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.simulator.now

    def next_event_time(self) -> float | None:
        """When the next pending simulator event fires (None if idle)."""
        return self.simulator.next_event_time()

    # --- submission -----------------------------------------------------

    def submit(self, request: Request) -> None:
        """Register a request; it arrives at ``request.arrival_time``."""
        self.deployment.submit(request)

    def submit_now(self, request: Request) -> ReplicaEngine:
        """Inject a request immediately; returns the serving replica."""
        return self.deployment.submit_now(request)

    def conversation(
        self,
        session_id: str | None = None,
        *,
        system_prompt_tokens: int = 0,
    ) -> "Conversation":
        """Open a multi-turn conversation handle over this session.

        The returned :class:`Conversation` mints successive
        :class:`~repro.core.request.Request` turns whose prompts carry
        the running history (prior prompts and completions), each a
        strict prefix-extension of the last with concrete
        ``token_ids`` — so with ``kv_reuse="radix"`` the engine skips
        every turn's shared-history prefill.  Conversations opened
        with the same ``system_prompt_tokens`` also share those
        leading tokens with each other (a shared system prompt).

        Args:
            session_id: Stable id stamped on every turn; defaults to
                ``conv-<n>`` numbered per session.
            system_prompt_tokens: Leading tokens drawn from the
                session-global shared namespace (identical across all
                conversations of this session).
        """
        index = self._conversations
        self._conversations += 1
        return Conversation(
            self,
            session_id or f"conv-{index}",
            system_prompt_tokens=system_prompt_tokens,
            token_namespace=(index + 1) << 32,
        )

    def cancel(self, request: Request, reason: str) -> bool:
        """Withdraw an unfinished request from whichever replica holds
        it.  Returns True if a replica had it resident."""
        for engine in self.engines:
            if engine.holds(request):
                return engine.cancel_request(request, reason)
        return False

    # --- simulation -----------------------------------------------------

    def advance(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Process events up to ``until`` (or to drain); returns now."""
        if until is None:
            return self.drain(max_events=max_events)
        return self.simulator.run(until=until, max_events=max_events)

    def drain(self, max_events: int | None = None) -> float:
        """Run until every pending event has been processed.

        Terminates on autoscaled fleets too: their control tick parks
        itself once the queue is otherwise empty (and wakes on the
        next submission), so run-to-empty cannot spin.  Draining
        replicas that emptied are released so GPU-hour accounting
        stops at the drain point.
        """
        now = self.simulator.run(max_events=max_events)
        if self.fleet is not None:
            self.fleet._release_drained(now)
        return now

    # --- streaming hooks ------------------------------------------------

    def set_token_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` on every output token emitted.

        Hooks chain: earlier ones keep firing, and a fleet replays them
        onto replicas provisioned later.
        """
        self.deployment.set_token_hook(hook)

    def set_completion_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` when a request completes."""
        self.deployment.set_completion_hook(hook)

    # --- state ----------------------------------------------------------

    @property
    def requests(self) -> list[Request]:
        """Every request submitted to the stack so far."""
        return self.deployment.all_requests()

    def queue_depth(self) -> int:
        """Prefill backlog across all replicas (admission signal)."""
        return sum(
            engine.scheduler.queue_length() for engine in self.engines
        )

    def summary(
        self,
        now: float | None = None,
        *,
        requests: Iterable[Request] | None = None,
    ) -> RunSummary:
        """Summarize the run exactly as the batch helpers do.

        ``requests`` overrides the measured population (a gateway
        includes requests it shed before they reached any replica).
        """
        now = self.simulator.now if now is None else now
        offered = (
            list(requests) if requests is not None else self.requests
        )
        summary = summarize_run(offered, now=now)
        if offered:
            last_arrival = max(r.arrival_time for r in offered)
            first_arrival = min(r.arrival_time for r in offered)
            summary.drain_time = now - last_arrival
            summary.arrival_span = last_arrival - first_arrival
        summary.scheduler_stats = aggregate_scheduler_stats(self.engines)
        if self._audit_sink is not None:
            summary.attribution = audit_events(self._audit_sink.events)
        return summary


class Conversation:
    """Mints the turns of one multi-turn conversation, in order.

    Each turn's prompt is the full running context — every prior
    prompt and completion — plus the new user message, realised as
    concrete deterministic ``token_ids`` so the radix prefix cache can
    recognise the shared history.  Turns carry ``session_id`` and
    ``parent_request_id`` linking them into a chain.

    The helper only *builds* requests; submit them through
    :meth:`Session.submit` / :meth:`Session.submit_now` (or hand the
    field values to the gateway) like any other request.  Created via
    :meth:`Session.conversation`.
    """

    def __init__(
        self,
        session: Session,
        session_id: str,
        *,
        system_prompt_tokens: int = 0,
        token_namespace: int = 1 << 32,
    ) -> None:
        if system_prompt_tokens < 0:
            raise ValueError("system_prompt_tokens must be >= 0")
        self.session = session
        self.session_id = session_id
        # Shared system-prompt ids are session-global (0..n-1); all
        # later tokens come from this conversation's own namespace.
        self._context = token_array(range(system_prompt_tokens))
        self._next_private = token_namespace
        self._pending_completion = 0
        self._last_request_id: int | None = None
        self.turns = 0

    @property
    def context_tokens(self) -> int:
        """Prompt length the *next* turn will carry before its user
        message (history grows by each turn's completion)."""
        return len(self._context) + self._pending_completion

    def _mint(self, count: int) -> range:
        start = self._next_private
        self._next_private += count
        return range(start, start + count)

    def turn(
        self,
        *,
        request_id: int,
        user_tokens: int,
        decode_tokens: int,
        arrival_time: float = 0.0,
        qos: QoSSpec | None = None,
        important: bool = True,
    ) -> Request:
        """Build the conversation's next turn.

        Args:
            request_id: Unique id for the minted request (caller
                managed, like every other submission path).
            user_tokens: Length of the new user message appended to
                the running context (>= 1).
            decode_tokens: Output budget; the completion joins the
                context seen by the following turn.
            arrival_time: The request's arrival anchor.
            qos: Tier; defaults to the first (interactive) tier.
            important: Relegation-exemption flag.
        """
        if user_tokens < 1:
            raise ValueError("user_tokens must be >= 1")
        if self._pending_completion:
            self._context.extend(self._mint(self._pending_completion))
            self._pending_completion = 0
        self._context.extend(self._mint(user_tokens))
        request = Request(
            request_id=request_id,
            arrival_time=arrival_time,
            prompt_tokens=len(self._context),
            decode_tokens=decode_tokens,
            qos=qos or DEFAULT_TIERS[0],
            app_id=self.session_id,
            important=important,
            # A copy: the request must never alias the buffer this
            # conversation keeps extending.
            token_ids=self._context[:],
            session_id=self.session_id,
            parent_request_id=self._last_request_id,
        )
        self._pending_completion = decode_tokens
        self._last_request_id = request_id
        self.turns += 1
        return request


def simulate(
    *,
    config: ServeConfig | None = None,
    trace: Trace | Iterable[Request] | None = None,
    dataset: DatasetSpec | None = None,
    qps: float = 1.0,
    num_requests: int | None = None,
    seed: int = 42,
    mix: TierMix | None = None,
    low_priority_fraction: float = 0.0,
    arrivals: ArrivalProcess | None = None,
    observer: Observer | None = None,
) -> RunSummary:
    """Run one simulation end to end and return its summary.

    Provide either a pre-built ``trace`` or a ``dataset`` +
    ``num_requests`` (+ ``qps``/``seed``/``mix``) recipe; the stack
    itself comes from ``config``.  A single-replica config is
    byte-identical to a bare engine driven directly — the golden test
    in ``tests/test_api.py`` pins this.
    """
    config = config or ServeConfig()
    if trace is None:
        if dataset is None or num_requests is None:
            raise ValueError(
                "simulate() needs either trace=... or dataset=... with "
                "num_requests=..."
            )
        trace = build_trace(
            dataset,
            qps=qps,
            num_requests=num_requests,
            seed=seed,
            mix=mix,
            low_priority_fraction=low_priority_fraction,
            arrivals=arrivals,
        )
    requests = list(trace)
    session = Session(config, observer=observer)
    for request in requests:
        session.submit(request)
    session.advance(max_events=config.max_events)
    return session.summary(requests=requests)


def default_tier_names() -> tuple[str, ...]:
    """Names of the Table 3 tiers, in order."""
    return tuple(t.name for t in DEFAULT_TIERS)


def goodput_search(
    kind: str,
    execution_model: ExecutionModel,
    dataset: DatasetSpec,
    num_requests: int,
    seed: int = 42,
    mix: TierMix | None = None,
    chunk_size: int = 256,
    qoserve_config: QoServeConfig | None = None,
    qps_high: float = 16.0,
    tolerance: float = 0.15,
    min_duration: float = 420.0,
    scheduler_kwargs: dict | None = None,
) -> CapacityResult:
    """Max per-replica goodput for one (scheduler, dataset) pair.

    Every probe's trace spans at least ``min_duration`` simulated
    seconds: a short burst at high QPS would hide beyond-capacity
    operation inside the long-TTLT tiers and the drain phase, so the
    probe size grows with the probed rate (the base trace is built
    once at the largest size and prefix-truncated per probe, keeping
    request bodies comparable across rates).
    """
    num_requests = max(num_requests, int(3.5 * 180))
    max_requests = max(num_requests, int(qps_high * min_duration))
    base = build_trace(dataset, qps=1.0, num_requests=max_requests,
                       seed=seed, mix=mix)
    config = ServeConfig(
        scheduler=kind,
        chunk_size=chunk_size,
        qoserve_config=qoserve_config,
        scheduler_kwargs=scheduler_kwargs or {},
    )

    def evaluate(qps: float) -> RunSummary:
        needed = max(num_requests, int(qps * min_duration))
        trace = base.scaled_arrivals(qps)
        if needed < len(trace):
            trace = Trace(
                trace.requests[:needed],
                dataset_name=trace.dataset_name,
                seed=trace.seed,
            )
        session = Session(config, execution_model=execution_model)
        for request in trace:
            session.submit(request)
        session.drain(max_events=config.max_events)
        return session.summary(requests=list(trace))

    return find_max_goodput(
        evaluate, qps_high=qps_high, tolerance=tolerance
    )
