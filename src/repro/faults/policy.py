"""Resilience policies: retries, deadline abandonment, load shedding.

These are pure-data knobs consumed by a fault-tolerant
:class:`repro.cluster.deployment.ClusterDeployment`; keeping
them here lets experiments sweep policies without touching the
deployment wiring.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for crash-lost requests.

    A request lost to a replica crash is re-dispatched after
    ``backoff(attempt)`` seconds, where ``attempt`` counts dispatches
    already made (so the first retry waits ``base_backoff``).  Once a
    request has burned ``max_attempts`` dispatches it is cancelled
    instead — its user has given up.

    Retried requests keep their **original arrival time**, so SLO
    accounting stays honest: the latency a client saw spans every
    attempt, not just the last.
    """

    max_attempts: int = 3
    base_backoff: float = 0.5
    backoff_factor: float = 2.0
    max_backoff: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff < self.base_backoff:
            raise ValueError("max_backoff must be >= base_backoff")

    def backoff(self, attempt: int) -> float:
        """Delay before dispatch number ``attempt + 1``.

        ``attempt`` is the number of dispatches already made (>= 1
        when retrying).  Growth is geometric and capped:
        ``min(base * factor**(attempt-1), max_backoff)``.
        """
        if attempt < 1:
            return 0.0
        return min(
            self.base_backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )

    def exhausted(self, attempts: int) -> bool:
        return attempts >= self.max_attempts


@dataclass(frozen=True)
class ResilienceConfig:
    """Cluster-level degradation behavior under faults.

    Attributes:
        retry: Backoff schedule for crash-lost requests.
        abandonment_factor: A request still unfinished at
            ``abandonment_factor × deadline`` after arrival is
            cancelled and its KV freed (the client hung up).  ``None``
            disables timeouts.  Interactive (TBT-deadline) requests
            are only abandoned while waiting for their *first* token —
            once streaming, the client is reading the output.
        shed_free_below: When the alive fraction of replicas drops
            below this, admission sheds free-tier (``not important``)
            arrivals.  (Degradation level 1.)
        shed_batch_below: When the alive fraction drops below this,
            admission additionally sheds non-interactive arrivals,
            keeping only paid interactive traffic.  (Level 2.)
    """

    retry: RetryPolicy = RetryPolicy()
    abandonment_factor: float | None = 4.0
    shed_free_below: float = 0.75
    shed_batch_below: float = 0.25

    def __post_init__(self) -> None:
        if (
            self.abandonment_factor is not None
            and self.abandonment_factor <= 0
        ):
            raise ValueError("abandonment_factor must be positive or None")
        for name in ("shed_free_below", "shed_batch_below"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.shed_batch_below > self.shed_free_below:
            raise ValueError(
                "shed_batch_below must not exceed shed_free_below "
                "(level-2 shedding implies level 1)"
            )

    def degradation_level(self, alive_fraction: float) -> int:
        """0 = admit everything, 1 = shed free tier, 2 = also shed
        non-interactive paid traffic."""
        if alive_fraction < self.shed_batch_below:
            return 2
        if alive_fraction < self.shed_free_below:
            return 1
        return 0
