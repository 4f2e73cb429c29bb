"""Turns a :class:`FaultPlan` into simulator events.

The injector is deliberately decoupled from the cluster: it only
needs a *target* exposing three hooks —

* ``on_replica_crash(replica_id)``
* ``on_replica_recover(replica_id)``
* ``on_replica_slowdown(replica_id, factor)`` (``factor`` 1.0 restores
  nominal speed)

— which a fault-tolerant
:class:`repro.cluster.deployment.ClusterDeployment` implements.
Tests can pass any stub.

Fault events are scheduled at priority ``FAULT_PRIORITY`` (< 0) so a
fault taking effect at time *t* is visible to all regular work
scheduled at the same instant — a request arriving exactly when its
replica dies must not land on it.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.faults.plan import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
from repro.simcore.simulator import Simulator

#: Faults fire before same-timestamp regular events (priority 0).
FAULT_PRIORITY = -10


class FaultTarget(Protocol):
    def on_replica_crash(self, replica_id: int) -> None: ...

    def on_replica_recover(self, replica_id: int) -> None: ...

    def on_replica_slowdown(self, replica_id: int, factor: float) -> None: ...


class FaultInjector:
    """Schedules every event of a plan onto a simulator once."""

    def __init__(
        self,
        simulator: Simulator,
        target: FaultTarget,
        plan: FaultPlan,
    ) -> None:
        self.simulator = simulator
        self.target = target
        self.plan = plan
        self._armed = False

    def arm(self, num_replicas: int | None = None) -> int:
        """Schedule the plan's events; returns how many were armed.

        Idempotent: a second call is a no-op (the plan is a schedule,
        not a rate).  An empty plan schedules nothing, so it cannot
        perturb event ordering — the determinism-pin guarantee.

        Args:
            num_replicas: When given, reject plans targeting replica
                indices outside ``range(num_replicas)`` — previously
                such events were silently armed and fired into
                nothingness.  Elastic fleets arm against their
                *maximum* pool size and downgrade faults on
                since-drained slots to ``fault_skipped`` trace events
                at fire time.
        """
        if self._armed:
            return 0
        if num_replicas is not None:
            out_of_range = {
                rid
                for rid in self.plan.replicas_touched()
                if rid < 0 or rid >= num_replicas
            }
            if out_of_range:
                raise ValueError(
                    f"fault plan targets replicas {sorted(out_of_range)} "
                    f"but the deployment has only {num_replicas}"
                )
        self._armed = True
        armed = 0
        for event in self.plan.events:
            if event.time < self.simulator.now:
                raise ValueError(
                    f"fault at t={event.time} is in the past "
                    f"(now={self.simulator.now})"
                )
            if isinstance(event, ReplicaCrash):
                armed += self._arm_crash(event)
            elif isinstance(event, ReplicaSlowdownFault):
                armed += self._arm_slowdown(event)
            else:  # pragma: no cover - plan types are closed
                raise TypeError(f"unknown fault event {event!r}")
        return armed

    def _arm_crash(self, event: ReplicaCrash) -> int:
        replica_id = event.replica_id
        self.simulator.schedule(
            event.time,
            lambda: self.target.on_replica_crash(replica_id),
            priority=FAULT_PRIORITY,
        )
        if math.isfinite(event.recover_after):
            self.simulator.schedule(
                event.time + event.recover_after,
                lambda: self.target.on_replica_recover(replica_id),
                priority=FAULT_PRIORITY,
            )
            return 2
        return 1

    def _arm_slowdown(self, event: ReplicaSlowdownFault) -> int:
        replica_id, factor = event.replica_id, event.factor
        self.simulator.schedule(
            event.time,
            lambda: self.target.on_replica_slowdown(replica_id, factor),
            priority=FAULT_PRIORITY,
        )
        self.simulator.schedule(
            event.time + event.duration,
            lambda: self.target.on_replica_slowdown(replica_id, 1.0),
            priority=FAULT_PRIORITY,
        )
        return 2
