"""QoServe reproduction: QoS-driven LLM inference serving.

A full reimplementation of "QoServe: Breaking the Silos of LLM
Inference Serving" (ASPLOS 2026) on a discrete-event serving
simulator.  The public API re-exports the pieces a downstream user
composes:

* Workloads — :class:`TraceBuilder`, dataset presets, arrival
  processes, QoS tiers.
* Engine — :class:`ReplicaEngine` running a scheduler over the
  analytical :class:`ExecutionModel`.
* Schedulers — the QoServe policy and the classic baselines.
* Clusters — shared/siloed/disaggregated deployments and capacity
  planning.
* Metrics — SLO accounting and run summaries.
* Facade — :class:`ServeConfig` / :class:`Session` /
  :func:`simulate`, the one-stop API over all of the above
  (see ``repro.api``); :mod:`repro.serve` adds the online gateway.

Quickstart::

    from repro import (
        ExecutionModel, LLAMA3_8B, A100_80GB, Simulator,
        ReplicaEngine, QoServeScheduler, TraceBuilder,
        AZURE_CODE, PoissonArrivals, summarize_run,
    )

    em = ExecutionModel(LLAMA3_8B, A100_80GB)
    trace = TraceBuilder(AZURE_CODE, PoissonArrivals(3.0)).build(500)
    sim = Simulator()
    engine = ReplicaEngine(sim, em, QoServeScheduler(em))
    for request in trace:
        engine.submit(request)
    sim.run()
    print(summarize_run(engine.submitted, now=sim.now).violations)
"""

from repro.simcore import Simulator, RngStreams
from repro.perfmodel import (
    A100_80GB,
    H100_80GB,
    LLAMA3_70B,
    LLAMA3_8B,
    QWEN_7B,
    BatchShape,
    ExecutionModel,
    HardwareSpec,
    ModelSpec,
    PrefillChunk,
)
from repro.core import (
    DEFAULT_TIERS,
    Q1_INTERACTIVE,
    Q2_RELAXED,
    Q3_BATCH,
    QoSClass,
    QoSSpec,
    Request,
    RequestPhase,
)
from repro.workload import (
    AZURE_CODE,
    AZURE_CONV,
    DATASETS,
    SHAREGPT,
    DiurnalArrivals,
    PoissonArrivals,
    TierAssigner,
    TierMix,
    Trace,
    TraceBuilder,
)
from repro.engine import ReplicaConfig, ReplicaEngine
from repro.schedulers import (
    EDFScheduler,
    FCFSScheduler,
    MedhaScheduler,
    QoServeConfig,
    QoServeScheduler,
    SJFScheduler,
    SRPFScheduler,
)
from repro.cluster import (
    ClusterDeployment,
    SiloedDeployment,
    SiloSpec,
    find_max_goodput,
    replicas_needed,
)
from repro.metrics import summarize_run, violation_report
from repro.api import ServeConfig, Session, simulate

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RngStreams",
    "A100_80GB",
    "H100_80GB",
    "LLAMA3_8B",
    "LLAMA3_70B",
    "QWEN_7B",
    "BatchShape",
    "ExecutionModel",
    "HardwareSpec",
    "ModelSpec",
    "PrefillChunk",
    "DEFAULT_TIERS",
    "Q1_INTERACTIVE",
    "Q2_RELAXED",
    "Q3_BATCH",
    "QoSClass",
    "QoSSpec",
    "Request",
    "RequestPhase",
    "AZURE_CODE",
    "AZURE_CONV",
    "DATASETS",
    "SHAREGPT",
    "DiurnalArrivals",
    "PoissonArrivals",
    "TierAssigner",
    "TierMix",
    "Trace",
    "TraceBuilder",
    "ReplicaConfig",
    "ReplicaEngine",
    "EDFScheduler",
    "FCFSScheduler",
    "MedhaScheduler",
    "QoServeConfig",
    "QoServeScheduler",
    "SJFScheduler",
    "SRPFScheduler",
    "ClusterDeployment",
    "SiloedDeployment",
    "SiloSpec",
    "find_max_goodput",
    "replicas_needed",
    "summarize_run",
    "violation_report",
    "ServeConfig",
    "Session",
    "simulate",
    "__version__",
]
