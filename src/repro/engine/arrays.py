"""The names ``simbench/spans.py`` patches the engine by.

The struct-of-arrays loop is the one engine core: its iteration loop
is :class:`repro.engine.replica.ReplicaEngine` and its KV ledger is
:class:`repro.engine.rows.ArrayKVLedger`.  The simulator benchmark's
span table resolves both through this module, so these aliases stay
until the benchmark's own table changes.
"""

from repro.engine.replica import ReplicaEngine
from repro.engine.rows import ArrayKVLedger

#: The engine, under the name the benchmark's span table uses.
ArrayReplicaEngine = ReplicaEngine

__all__ = ["ArrayKVLedger", "ArrayReplicaEngine"]
