"""Multi-replica deployments: shared vs siloed clusters, load
balancing, capacity planning, PD disaggregation, and fault-tolerant,
heterogeneous, elastic fleets."""

from repro.cluster.deployment import (
    ClusterDeployment,
    SiloedDeployment,
    SiloSpec,
)
from repro.cluster.capacity import (
    CapacityResult,
    find_max_goodput,
    replicas_needed,
)
from repro.cluster.decode_pool import (
    DecodePool,
    PartitionedDecodePool,
    QoSSharedDecodePool,
    StrictSharedDecodePool,
    max_batch_for_tbt,
)
from repro.cluster.fleet import (
    DEFAULT_HARDWARE_CLASSES,
    BurnRateAutoscaler,
    BusyFractionAutoscaler,
    FleetConfig,
    HardwareClass,
    parse_fleet_spec,
)

__all__ = [
    "DEFAULT_HARDWARE_CLASSES",
    "parse_fleet_spec",
    "BurnRateAutoscaler",
    "BusyFractionAutoscaler",
    "FleetConfig",
    "HardwareClass",
    "ClusterDeployment",
    "SiloedDeployment",
    "SiloSpec",
    "CapacityResult",
    "find_max_goodput",
    "replicas_needed",
    "DecodePool",
    "PartitionedDecodePool",
    "QoSSharedDecodePool",
    "StrictSharedDecodePool",
    "max_batch_for_tbt",
]
