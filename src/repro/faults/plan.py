"""Deterministic fault schedules (the ``FaultPlan``).

A :class:`FaultPlan` is a declarative, fully deterministic list of
infrastructure faults to inject into a simulated cluster: replica
crashes (with a recovery delay) and transient slowdowns (stragglers).
Plans come from three places:

* hand-written JSON files (``repro run --fault-plan plan.json``,
  linted by ``repro faults validate``);
* the :meth:`FaultPlan.poisson` chaos generator, which draws
  crash/recover cycles from exponential MTBF/MTTR distributions using
  a named :mod:`repro.simcore.rng` stream, so a (seed, mtbf, mttr)
  triple always yields the same schedule;
* tests, which construct event dataclasses directly.

An **empty plan is a strict no-op**: attaching it to a deployment
must leave every simulation byte-identical (the determinism pin test
enforces this), which is why injection is event-driven rather than a
per-iteration check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np


class FaultPlanError(ValueError):
    """A fault plan file or payload is malformed."""


@dataclass(frozen=True)
class ReplicaCrash:
    """Replica ``replica_id`` fails at ``time``.

    Attributes:
        time: Simulated seconds at which the crash fires.
        replica_id: Index of the replica in the deployment.
        recover_after: Seconds of downtime before the replica rejoins
            with a cold cache; ``inf`` means it never recovers.
    """

    time: float
    replica_id: int
    recover_after: float = math.inf

    kind = "crash"

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "time": self.time,
            "replica": self.replica_id,
        }
        if math.isfinite(self.recover_after):
            payload["recover_after"] = self.recover_after
        return payload


@dataclass(frozen=True)
class ReplicaSlowdownFault:
    """Replica ``replica_id`` runs ``factor``× slower for ``duration``."""

    time: float
    replica_id: int
    duration: float
    factor: float = 3.0

    kind = "slowdown"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "time": self.time,
            "replica": self.replica_id,
            "duration": self.duration,
            "factor": self.factor,
        }


FaultEvent = ReplicaCrash | ReplicaSlowdownFault

#: Accepted ``kind`` discriminators in serialized plans.
FAULT_KINDS = ("crash", "slowdown")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.replica_id))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def replicas_touched(self) -> set[int]:
        return {event.replica_id for event in self.events}

    # --- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Parse a plan payload; raises :class:`FaultPlanError` with
        every problem found (not just the first)."""
        errors = validate_plan_dict(payload)
        if errors:
            raise FaultPlanError("; ".join(errors))
        events: list[FaultEvent] = []
        for entry in payload.get("events", []):
            if entry["kind"] == "crash":
                events.append(ReplicaCrash(
                    time=float(entry["time"]),
                    replica_id=int(entry["replica"]),
                    recover_after=float(
                        entry.get("recover_after", math.inf)
                    ),
                ))
            else:
                events.append(ReplicaSlowdownFault(
                    time=float(entry["time"]),
                    replica_id=int(entry["replica"]),
                    duration=float(entry["duration"]),
                    factor=float(entry.get("factor", 3.0)),
                ))
        return cls(events=tuple(events))

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        text = Path(path).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"not valid JSON: {error}") from error
        return cls.from_dict(payload)

    # --- generation ------------------------------------------------------

    @classmethod
    def poisson(
        cls,
        num_replicas: int,
        duration: float,
        mtbf: float,
        mttr: float,
        rng: np.random.Generator,
        slowdown_mtbf: float | None = None,
        slowdown_duration: float = 10.0,
        slowdown_factor: float = 3.0,
        spare_replica: int | None = 0,
    ) -> "FaultPlan":
        """Draw a chaos schedule from exponential MTBF/MTTR clocks.

        Each replica alternates exponential up-times (mean ``mtbf``)
        and down-times (mean ``mttr``) over ``[0, duration)``; when
        ``slowdown_mtbf`` is set, straggler windows are drawn the same
        way.  ``spare_replica`` (default replica 0) never faults so a
        plan can never take the whole fleet down at once — pass
        ``None`` to allow total outages.

        Determinism: draws consume ``rng`` in replica order, so the
        same generator state always yields the same plan (use a named
        :class:`~repro.simcore.rng.RngStreams` stream).
        """
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if duration <= 0 or mtbf <= 0 or mttr <= 0:
            raise ValueError("duration, mtbf and mttr must be positive")
        events: list[FaultEvent] = []
        for replica in range(num_replicas):
            if spare_replica is not None and replica == spare_replica:
                continue
            t = float(rng.exponential(mtbf))
            while t < duration:
                downtime = float(rng.exponential(mttr))
                events.append(ReplicaCrash(
                    time=t, replica_id=replica, recover_after=downtime,
                ))
                t += downtime + float(rng.exponential(mtbf))
            if slowdown_mtbf is not None:
                t = float(rng.exponential(slowdown_mtbf))
                while t < duration:
                    events.append(ReplicaSlowdownFault(
                        time=t,
                        replica_id=replica,
                        duration=slowdown_duration,
                        factor=slowdown_factor,
                    ))
                    t += slowdown_duration + float(
                        rng.exponential(slowdown_mtbf)
                    )
        return cls(events=tuple(events))


def validate_plan_dict(
    payload: Any, num_replicas: int | None = None
) -> list[str]:
    """Lint a serialized fault plan; returns human-readable errors.

    Used by ``repro faults validate`` and :meth:`FaultPlan.from_dict`.
    An empty list means the payload is a valid plan.  When
    ``num_replicas`` is given, replica indices are range-checked too.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"plan must be a JSON object, got {type(payload).__name__}"]
    unknown = set(payload) - {"events"}
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")
    events = payload.get("events")
    if events is None:
        errors.append("missing required key 'events' (use [] for none)")
        return errors
    if not isinstance(events, list):
        errors.append(f"'events' must be a list, got {type(events).__name__}")
        return errors

    def check_number(
        entry: dict, where: str, key: str, minimum: float | None = None,
        required: bool = True, strict: bool = False,
    ) -> None:
        if key not in entry:
            if required:
                errors.append(f"{where}: missing '{key}'")
            return
        value = entry[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}: '{key}' must be a number, got {value!r}")
            return
        if not math.isfinite(value):
            errors.append(f"{where}: '{key}' must be finite, got {value!r}")
            return
        if minimum is not None:
            if strict and value <= minimum:
                errors.append(f"{where}: '{key}' must be > {minimum}")
            elif not strict and value < minimum:
                errors.append(f"{where}: '{key}' must be >= {minimum}")

    for index, entry in enumerate(events):
        where = f"events[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object, got {entry!r}")
            continue
        kind = entry.get("kind")
        if kind not in FAULT_KINDS:
            errors.append(
                f"{where}: unknown kind {kind!r}; options: {FAULT_KINDS}"
            )
            continue
        check_number(entry, where, "time", minimum=0.0)
        replica = entry.get("replica")
        if replica is None:
            errors.append(f"{where}: missing 'replica'")
        elif isinstance(replica, bool) or not isinstance(replica, int):
            errors.append(
                f"{where}: 'replica' must be an integer, got {replica!r}"
            )
        elif replica < 0:
            errors.append(f"{where}: 'replica' must be >= 0")
        elif num_replicas is not None and replica >= num_replicas:
            errors.append(
                f"{where}: replica {replica} out of range for a "
                f"{num_replicas}-replica deployment"
            )
        if kind == "crash":
            check_number(entry, where, "recover_after", minimum=0.0,
                         required=False, strict=True)
            extra = set(entry) - {"kind", "time", "replica", "recover_after"}
        else:
            check_number(entry, where, "duration", minimum=0.0, strict=True)
            check_number(entry, where, "factor", minimum=0.0,
                         required=False, strict=True)
            extra = set(entry) - {"kind", "time", "replica", "duration",
                                  "factor"}
        if extra:
            errors.append(f"{where}: unknown keys {sorted(extra)}")
    return errors


# --- process-wide default plan (the CLI's --fault-plan) ----------------

_DEFAULT_PLAN: FaultPlan | None = None


def get_default_fault_plan() -> FaultPlan | None:
    """The plan fault-tolerant deployments adopt when none is passed."""
    return _DEFAULT_PLAN


def set_default_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install a process-wide default fault plan; returns the previous.

    Mirrors :func:`repro.obs.set_default_observer`: the CLI installs
    the ``--fault-plan`` file here so fault-aware experiments pick it
    up without threading an argument through every driver.
    """
    global _DEFAULT_PLAN
    previous = _DEFAULT_PLAN
    _DEFAULT_PLAN = plan
    return previous
