"""Fleet composition and autoscaling policies for elastic pools.

:class:`~repro.cluster.deployment.ClusterDeployment` becomes a
heterogeneous, elastic fleet when given ``fleet=`` (a
:class:`FleetConfig`) and optionally ``autoscaler=``.  This module
holds the pieces that describe such a fleet:

1. **Hardware classes** — every replica carries its own
   :class:`~repro.perfmodel.execution.ExecutionModel` (A100 vs H100,
   different TP widths), described by a :class:`HardwareClass` with a
   $/GPU-hour price.  The ``perf-aware`` routing strategy sends
   prefill-heavy work to compute-rich replicas and decode-heavy work
   to memory-rich ones.
2. **Autoscaling policies** — :class:`BurnRateAutoscaler` drives
   resizing from the error-budget burn rate of completed requests
   (scale up when the budget burns hot, drain only when burn is cold
   *and* utilization is low) and picks *which* hardware to provision
   by cost per unit of bottleneck capability.
   :class:`BusyFractionAutoscaler` is the classic load-following
   baseline that scales on mean replica busy fraction, so the two
   policies can be compared on goodput per GPU-hour.

Determinism: all control decisions are pure functions of simulated
time and engine state, and GPU-hours/cost are integrated exactly per
slot — two same-seed runs produce byte-identical summaries (pinned in
``tests/test_cluster_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.hardware import A100_80GB, H100_80GB, HardwareSpec

#: Control ticks and provisioning fire before same-timestamp regular
#: work.
CONTROL_PRIORITY = -1

#: Width in simulated seconds of the fleet's SLO burn-rate windows.
BURN_WINDOW = 60.0

#: Allowed violation fraction behind the fleet's burn rate (the
#: paper's 1% goodput bar).
SLO_BUDGET = 0.01


@dataclass(frozen=True)
class HardwareClass:
    """One procurable hardware flavour with its market price.

    ``cost_per_gpu_hour`` is in arbitrary but consistent units
    (defaults roughly track the on-demand A100/H100 price ratio).
    """

    name: str
    hardware: HardwareSpec
    tp_degree: int = 1
    cost_per_gpu_hour: float = 1.0

    def __post_init__(self) -> None:
        if self.tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        if self.cost_per_gpu_hour <= 0:
            raise ValueError("cost_per_gpu_hour must be > 0")

    @property
    def cost_rate(self) -> float:
        """Cost per replica-hour (all TP ranks)."""
        return self.cost_per_gpu_hour * self.tp_degree

    def capability(self, compute_bound: bool) -> float:
        """Per-GPU capability on the governing bottleneck."""
        if compute_bound:
            return self.hardware.peak_flops * self.hardware.mfu_linear
        return self.hardware.mem_bandwidth


@dataclass(frozen=True)
class FleetConfig:
    """Fleet composition bounds and control-loop timing.

    Attributes:
        classes: The procurable hardware classes (unique names).
        initial: Hardware-class name per initially provisioned
            replica (its length is the starting fleet size).
        min_replicas / max_replicas: Pool-size bounds counted over
            healthy, non-released replicas — a crashed replica does
            not occupy a slot, so its replacement can be provisioned.
        control_interval: Seconds between autoscaler decisions.
        provision_delay: Cold-start seconds before a newly bought
            replica serves (VM allocation + weight loading).
        max_step_up: Replicas added per control decision at most.
    """

    classes: tuple[HardwareClass, ...]
    initial: tuple[str, ...]
    min_replicas: int = 1
    max_replicas: int = 8
    control_interval: float = 30.0
    provision_delay: float = 60.0
    max_step_up: int = 2

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one hardware class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate hardware class names: {names}")
        if not self.initial:
            raise ValueError("need at least one initial replica")
        unknown = set(self.initial) - set(names)
        if unknown:
            raise ValueError(
                f"initial classes {sorted(unknown)} not in {names}"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if len(self.initial) > self.max_replicas:
            raise ValueError("initial fleet exceeds max_replicas")
        if self.control_interval <= 0 or self.provision_delay < 0:
            raise ValueError("invalid timing parameters")

    def class_named(self, name: str) -> HardwareClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"unknown hardware class {name!r}")


#: Built-in procurable catalog for the CLI and experiments.  Prices
#: track the on-demand A100/H100 ratio: H100 wins on cost-per-FLOP
#: (2.9x compute at 2.5x price), A100 on cost-per-bandwidth (H100 is
#: only 1.6x), so the burn-rate hardware chooser has a real decision.
DEFAULT_HARDWARE_CLASSES = (
    HardwareClass("a100", A100_80GB, cost_per_gpu_hour=1.0),
    HardwareClass("h100", H100_80GB, cost_per_gpu_hour=2.5),
)


def parse_fleet_spec(
    spec: str,
    *,
    classes: tuple[HardwareClass, ...] = DEFAULT_HARDWARE_CLASSES,
    min_replicas: int = 1,
    max_replicas: int = 8,
    control_interval: float = 30.0,
    provision_delay: float = 60.0,
    max_step_up: int = 2,
) -> FleetConfig:
    """Parse ``"a100:2,h100:1"`` into a :class:`FleetConfig`.

    Each comma-separated entry is ``class`` or ``class:count``;
    classes resolve against the built-in catalog by default.
    """
    by_name = {c.name: c for c in classes}
    initial: list[str] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, count_text = entry.partition(":")
        name = name.strip()
        if name not in by_name:
            raise ValueError(
                f"unknown hardware class {name!r}; "
                f"options: {sorted(by_name)}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"invalid replica count in fleet entry {entry!r}"
            ) from None
        if count < 1:
            raise ValueError(
                f"invalid replica count in fleet entry {entry!r}"
            )
        initial.extend([name] * count)
    if not initial:
        raise ValueError(f"empty fleet spec {spec!r}")
    return FleetConfig(
        classes=tuple(classes),
        initial=tuple(initial),
        min_replicas=min_replicas,
        max_replicas=max(max_replicas, len(initial)),
        control_interval=control_interval,
        provision_delay=provision_delay,
        max_step_up=max_step_up,
    )


class BusyFractionAutoscaler:
    """Classic load-following policy: scale on mean busy fraction.

    Add replicas when the mean busy fraction over the last control
    interval reaches ``scale_up_threshold``; drain one when it falls to
    ``scale_down_threshold``.  Hardware choice is pure cost efficiency
    (cheapest compute capability).
    """

    def __init__(
        self,
        scale_up_threshold: float = 0.85,
        scale_down_threshold: float = 0.45,
    ) -> None:
        if not 0 < scale_down_threshold < scale_up_threshold <= 1:
            raise ValueError(
                "need 0 < scale_down_threshold < scale_up_threshold <= 1"
            )
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold

    def decide(self, fleet: "ClusterDeployment", now: float) -> int:
        utilization = fleet.last_mean_utilization
        if utilization >= self.scale_up_threshold:
            return 1
        if utilization <= self.scale_down_threshold:
            return -1
        return 0

    def choose_class(self, fleet: "ClusterDeployment") -> HardwareClass:
        return fleet.cheapest_class(compute_bound=True)


class BurnRateAutoscaler:
    """Error-budget-driven policy: capacity follows the SLO burn rate.

    Scale **up** when the recent burn rate (violation rate over the
    SLO budget, from the fleet's own
    :class:`~repro.obs.sketch.BurnRateTracker`) is at or above
    ``burn_hot`` — the budget is being spent faster than allowed, so
    waiting for utilization to saturate would ship the violations
    first.  Scale **down** only when burn is at or below ``burn_cold``
    *and* mean utilization is at or below ``scale_down_utilization``:
    cold burn alone can mean the fleet is merely keeping up.  The
    default ``burn_cold`` of 1.0 is the SRE framing — spending budget
    at exactly the sustainable rate is, by definition, affordable.

    Hardware choice follows the violation mix: mostly-interactive
    violations are TTFT misses (prefill, compute-bound), so provision
    the best cost-per-FLOP class; otherwise TTLT misses dominate
    (decode, memory-bound) and the best cost-per-bandwidth class wins.
    """

    def __init__(
        self,
        burn_hot: float = 2.0,
        burn_cold: float = 1.0,
        scale_down_utilization: float = 0.45,
        lookback_windows: int = 1,
    ) -> None:
        if not 0 <= burn_cold < burn_hot:
            raise ValueError("need 0 <= burn_cold < burn_hot")
        if not 0 < scale_down_utilization <= 1:
            raise ValueError("need 0 < scale_down_utilization <= 1")
        if lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        self.burn_hot = burn_hot
        self.burn_cold = burn_cold
        self.scale_down_utilization = scale_down_utilization
        self.lookback_windows = lookback_windows

    def decide(self, fleet: "ClusterDeployment", now: float) -> int:
        # Buy on *capacity* evidence (completion violations under the
        # current fleet size); hold on *total* burn — never drain
        # while the budget is being spent for any reason, including
        # degradation sheds that procurement cannot fix.
        if fleet.capacity_burn_rate(now, self.lookback_windows) >= (
            self.burn_hot
        ):
            return 1
        if (
            fleet.recent_burn_rate(now, self.lookback_windows)
            <= self.burn_cold
            and fleet.last_mean_utilization <= self.scale_down_utilization
        ):
            return -1
        return 0

    def choose_class(self, fleet: "ClusterDeployment") -> HardwareClass:
        interactive, batch = fleet.recent_violation_mix()
        return fleet.cheapest_class(compute_bound=interactive >= batch)
