"""Fault injection and resilience (``repro.faults``).

Chaos for the simulated cluster: deterministic fault schedules
(:class:`FaultPlan`), the injector that replays them onto a
simulator, and the policies — retry backoff, deadline abandonment,
tier-aware load shedding — that
a fault-tolerant :class:`repro.cluster.deployment.ClusterDeployment`
applies when faults land.  See ``docs/RESILIENCE.md``.
"""

from repro.faults.injector import FAULT_PRIORITY, FaultInjector, FaultTarget
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    ReplicaCrash,
    ReplicaSlowdownFault,
    get_default_fault_plan,
    set_default_fault_plan,
    validate_plan_dict,
)
from repro.faults.policy import ResilienceConfig, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FAULT_PRIORITY",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultTarget",
    "ReplicaCrash",
    "ReplicaSlowdownFault",
    "ResilienceConfig",
    "RetryPolicy",
    "get_default_fault_plan",
    "set_default_fault_plan",
    "validate_plan_dict",
]
