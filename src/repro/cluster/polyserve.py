"""PolyServe-style capacity planning (Section 4.5.2).

PolyServe "partitions requests into separate deployments based on TBT
SLO categories, employing dedicated resources ... for each
deployment."  This module packages that design as a planner: given the
per-class goodput of a dedicated deployment (measured with the
Medha-style adaptive chunking PolyServe uses) and a load mix, it
returns the GPU bill — the quantity Figure 15b compares against
QoServe's colocated bill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PolyServePlan:
    """A sizing decision for one load mix.

    Attributes:
        replicas_per_class: Dedicated replicas per TBT class.
        gpus: Total GPUs across all dedicated deployments.
        per_class_load_qps: The load each class carries.
    """

    replicas_per_class: dict[str, int] = field(default_factory=dict)
    gpus: int = 0
    per_class_load_qps: dict[str, float] = field(default_factory=dict)


class PolyServePlanner:
    """Sizes per-TBT-class dedicated deployments."""

    def __init__(
        self,
        class_goodputs: dict[str, float],
        tp_degree: int = 1,
    ) -> None:
        """Args:
        class_goodputs: Max goodput (QPS/replica) of a dedicated
            deployment per class, e.g. measured via
            :func:`repro.api.goodput_search` with a
            Medha scheduler at the class's TBT target.
        tp_degree: GPUs per replica.
        """
        if not class_goodputs:
            raise ValueError("need at least one class")
        if any(g <= 0 for g in class_goodputs.values()):
            raise ValueError("goodputs must be positive")
        if tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        self.class_goodputs = dict(class_goodputs)
        self.tp_degree = int(tp_degree)

    def plan(
        self,
        total_qps: float,
        shares: dict[str, float],
    ) -> PolyServePlan:
        """Size every class's deployment for its share of the load.

        Args:
            total_qps: Cluster load.
            shares: Fraction of the load per class; must cover only
                known classes and sum to ~1.

        Returns:
            The per-class replica counts and total GPU bill.  A class
            with zero share gets zero replicas (PolyServe would scale
            its deployment to nothing).
        """
        if total_qps < 0:
            raise ValueError("total_qps must be non-negative")
        unknown = set(shares) - set(self.class_goodputs)
        if unknown:
            raise KeyError(f"unknown classes: {sorted(unknown)}")
        total_share = sum(shares.values())
        if shares and not math.isclose(total_share, 1.0, abs_tol=0.01):
            raise ValueError(
                f"shares must sum to 1, got {total_share:.3f}"
            )
        replicas: dict[str, int] = {}
        loads: dict[str, float] = {}
        for name, share in shares.items():
            load = share * total_qps
            loads[name] = load
            replicas[name] = (
                math.ceil(load / self.class_goodputs[name])
                if load > 0
                else 0
            )
        return PolyServePlan(
            replicas_per_class=replicas,
            gpus=sum(replicas.values()) * self.tp_degree,
            per_class_load_qps=loads,
        )
