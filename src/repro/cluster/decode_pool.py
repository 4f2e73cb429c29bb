"""Decode nodes for PD disaggregation (Section 4.1.3).

A disaggregated prefill tier is a
:class:`~repro.cluster.deployment.ClusterDeployment` whose
:class:`~repro.engine.replica.ReplicaConfig` carries a
``prefill_sink``: the prefill replicas run QoServe's hybrid
prioritization and eager relegation (with a large 8K chunk budget,
since no colocated decodes constrain them) and hand each prefilled
request to a decode pool's ``accept(request, now)``.

The paper holds the decode side constant: "the number of decode
replicas and their SLO attainment is identical as they work with a
maximum batch size that meets the strictest TBT."
:class:`DecodePool` models that as a fixed-pace token generator (one
token per ``token_pace`` seconds per request, the strictest-TBT
iteration time) with unconstrained parallelism, so every scheme under
test sees the same decode service.

"Efficiently supporting different TBT SLOs in the decode nodes is left
to future work."  The other pools implement that future work in three
flavours:

* :class:`StrictSharedDecodePool` — the paper's status quo: every
  replica caps its batch by the *strictest* TBT class, regardless of
  what is actually resident.
* :class:`PartitionedDecodePool` — PolyServe-style: replicas are
  dedicated per TBT class, each capped by its own class's target.
  No cross-class sharing.
* :class:`QoSSharedDecodePool` — the QoServe-flavoured design: all
  replicas are shared, and admission is governed by the *predicted
  iteration time against the minimum TBT among resident requests*.
  A replica full of relaxed-TBT requests batches deep; admitting a
  strict request dynamically tightens its budget.

These three route to real :class:`ReplicaEngine` instances running
in decode-only mode via :meth:`ReplicaEngine.submit_prefilled`.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.deployment import ClusterDeployment
from repro.core.request import Request
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers.classic import FCFSScheduler
from repro.simcore.simulator import Simulator


class DecodePool:
    """Fixed-pace decode service shared by all schemes under test.

    Generates each handed-off request's tokens at ``token_pace``
    intervals starting one pace after the handoff.  Token timestamps
    are materialized directly (no events) because the pool is
    explicitly unconstrained — its capacity is identical across the
    schemes being compared, so it cancels out of the comparison.
    """

    def __init__(self, token_pace: float = 0.025) -> None:
        if token_pace <= 0:
            raise ValueError("token_pace must be positive")
        self.token_pace = float(token_pace)
        self.completed: list[Request] = []

    def accept(self, request: Request, handoff_time: float) -> None:
        """Receive a prefilled request and synthesize its decode."""
        for i in range(request.remaining_decode):
            request.record_output_token(
                handoff_time + (i + 1) * self.token_pace
            )
        self.completed.append(request)


def max_batch_for_tbt(
    execution_model: ExecutionModel,
    tbt: float,
    avg_context: int = 1500,
    max_batch: int = 256,
) -> int:
    """Largest decode batch whose iteration stays within ``tbt``.

    This is the static sizing rule of the paper's disaggregation setup
    ("a maximum batch size that meets the strictest TBT").
    """
    if tbt <= 0:
        raise ValueError("tbt must be positive")
    lo, hi = 1, max_batch
    if execution_model.decode_batch_time(1, avg_context) > tbt:
        return 1  # even a single request misses; serve it anyway
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if execution_model.decode_batch_time(mid, mid * avg_context) <= tbt:
            lo = mid
        else:
            hi = mid - 1
    return lo


class _DecodeReplicaGroup:
    """A set of decode-only replicas with FIFO overflow queueing."""

    RETRY_INTERVAL = 0.050  # poll pending admissions every 50 ms

    def __init__(
        self,
        simulator: Simulator,
        execution_model: ExecutionModel,
        num_replicas: int,
        max_decode_slots: int,
    ) -> None:
        self.simulator = simulator
        self.replicas = ClusterDeployment(
            execution_model,
            FCFSScheduler,  # never used: no prefill work arrives
            num_replicas,
            ReplicaConfig(max_decode_slots=max_decode_slots),
            simulator,
        ).replicas
        self.pending: deque[Request] = deque()
        self._retry_scheduled = False

    def admit_or_queue(
        self, request: Request, can_admit=None
    ) -> None:
        """Place the request on the least-loaded admissible replica."""
        candidates = sorted(
            self.replicas, key=lambda r: r.running_requests
        )
        for replica in candidates:
            if replica.running_requests >= replica.config.max_decode_slots:
                continue
            if can_admit is not None and not can_admit(replica, request):
                continue
            replica.submit_prefilled(request)
            return
        self.pending.append(request)
        self._schedule_retry(can_admit)

    def _schedule_retry(self, can_admit) -> None:
        if self._retry_scheduled:
            return
        self._retry_scheduled = True

        def retry() -> None:
            self._retry_scheduled = False
            # One admission attempt per pending request per tick; a
            # bounced request re-enters at the tail, so the loop
            # terminates after exactly len(pending) pops.
            for _ in range(len(self.pending)):
                request = self.pending.popleft()
                self.admit_or_queue(request, can_admit)

        self.simulator.schedule_after(self.RETRY_INTERVAL, retry)

    def all_requests(self) -> list[Request]:
        return [r for replica in self.replicas for r in replica.submitted]


class StrictSharedDecodePool:
    """Shared replicas, batch cap from the strictest TBT (status quo)."""

    name = "strict-shared"

    def __init__(
        self,
        simulator: Simulator,
        execution_model: ExecutionModel,
        num_replicas: int,
        strictest_tbt: float,
        avg_context: int = 1500,
    ) -> None:
        cap = max_batch_for_tbt(execution_model, strictest_tbt, avg_context)
        self.group = _DecodeReplicaGroup(
            simulator, execution_model, num_replicas, cap
        )
        self.batch_cap = cap

    def accept(self, request: Request, now: float) -> None:
        self.group.admit_or_queue(request)

    def all_requests(self) -> list[Request]:
        return self.group.all_requests()


class PartitionedDecodePool:
    """Per-TBT-class replica groups (PolyServe-style isolation)."""

    name = "partitioned"

    def __init__(
        self,
        simulator: Simulator,
        execution_model: ExecutionModel,
        replicas_per_class: dict[str, int],
        tbt_per_class: dict[str, float],
        avg_context: int = 1500,
    ) -> None:
        if set(replicas_per_class) != set(tbt_per_class):
            raise ValueError("class maps must agree")
        self.groups = {
            name: _DecodeReplicaGroup(
                simulator,
                execution_model,
                replicas,
                max_batch_for_tbt(
                    execution_model, tbt_per_class[name], avg_context
                ),
            )
            for name, replicas in replicas_per_class.items()
        }

    def accept(self, request: Request, now: float) -> None:
        group = self.groups.get(request.qos.name)
        if group is None:
            raise KeyError(
                f"no decode partition for tier {request.qos.name!r}"
            )
        group.admit_or_queue(request)

    def all_requests(self) -> list[Request]:
        return [
            r for group in self.groups.values()
            for r in group.all_requests()
        ]


class QoSSharedDecodePool:
    """Shared replicas with TBT-aware dynamic admission (the extension).

    A request may join a replica only if the predicted decode
    iteration time *after* admission stays within the minimum TBT SLO
    across the replica's residents and the newcomer.  Replicas holding
    only relaxed-TBT work therefore batch deeper than the strictest
    class would allow, recovering the capacity the status-quo sizing
    leaves on the table — the decode-side analogue of dynamic
    chunking's slack exploitation.
    """

    name = "qos-shared"

    def __init__(
        self,
        simulator: Simulator,
        execution_model: ExecutionModel,
        num_replicas: int,
        default_tbt: float = 0.100,
        headroom: float = 0.9,
        max_decode_slots: int = 256,
    ) -> None:
        """Args:
        simulator: Shared event loop.
        execution_model: Decode-node cost model.
        num_replicas: Decode replicas in the pool.
        default_tbt: TBT assumed for requests without a TBT SLO.
        headroom: Fraction of the TBT budget the predicted iteration
            may consume (guards against context growth mid-flight).
        max_decode_slots: Hard per-replica cap.
        """
        self.execution_model = execution_model
        self.default_tbt = float(default_tbt)
        self.headroom = float(headroom)
        self.group = _DecodeReplicaGroup(
            simulator, execution_model, num_replicas, max_decode_slots
        )

    def _tbt_of(self, request: Request) -> float:
        if request.qos.tbt_slo is not None:
            return request.qos.tbt_slo
        return self.default_tbt

    def _can_admit(self, replica: ReplicaEngine, request: Request) -> bool:
        residents, context = replica.decode_load()
        if not residents:
            # An empty replica always accepts: a request that cannot
            # meet its TBT even alone must still be served best-effort
            # somewhere (mirrors max_batch_for_tbt's floor of 1).
            return True
        budget = min(
            [self._tbt_of(r) for r in residents] + [self._tbt_of(request)]
        )
        context += request.context_length
        predicted = self.execution_model.decode_batch_time(
            len(residents) + 1, context
        )
        return predicted <= self.headroom * budget

    def accept(self, request: Request, now: float) -> None:
        self.group.admit_or_queue(request, can_admit=self._can_admit)

    def all_requests(self) -> list[Request]:
        return self.group.all_requests()
