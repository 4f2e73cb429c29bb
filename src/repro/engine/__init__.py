"""Single-replica serving engine.

Implements the iteration-level, chunked-prefill execution loop of a
Sarathi/vLLM replica on top of the discrete-event simulator: requests
arrive, prefill in scheduler-chosen chunks, join the running decode
batch when their prompt completes, and emit one token per iteration
until done — all gated by a paged KV-cache ledger.
"""

from repro.engine.batch import IterationRecord, PrefillAssignment
from repro.engine.interface import EngineView, Scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.engine.rows import ArrayKVLedger

__all__ = [
    "ArrayKVLedger",
    "IterationRecord",
    "PrefillAssignment",
    "EngineView",
    "Scheduler",
    "ReplicaConfig",
    "ReplicaEngine",
]
