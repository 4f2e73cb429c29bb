"""Decode-mirror, KV-block and iteration-log laws, checked after
every iteration.

The engine keeps redundant state in step by hand: the decode-context
mirror ``_decode_context_total`` (the row store's running ``ctx_off``
sum), each decode row's derived ``kv_blocks`` next to its
``kv_tokens``, the ledger's running ``used_blocks``/``used_tokens``
counters next to the holdings they sum, and the row store's phase
counts, completion buckets and iteration log next to the rows they
index.  These tests wrap the two methods that advance decode rows
(``_finish_iteration`` and ``_decode_stretch``) and assert after every
call, on pinned runs that cover token hooks, mid-flight batch changes,
decode stretches, radix reuse on a full pool, decode eviction and a
500-request randomized run:

* ``_decode_context_total == rows.ctx[:n].sum()``;
* ``kv_blocks == ceil(kv_tokens / block_size)`` on every row;
* ``used_blocks`` and ``used_tokens`` equal the dict holdings plus the
  row columns;
* ``phase_count`` equals a recount of the live rows' ``kv_off %
  block_size``;
* every live row sits in exactly one completion bucket, the one of the
  iteration where its derived ``decoded`` reaches its target;
* the log spans exactly the iterations after ``log_base``, within its
  fixed buffer, and no live row still needs an entry below
  ``log_base``; an empty batch keeps an empty log.

Each run must still produce its pinned checksum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ReplicaEngine
from repro.engine import rows as rows_module
from tests.test_engine_pins import CASES, PINS, _digest

LAW_CASES = (
    "mid-flight-untraced-hook",
    "mid-flight-traced-hook",
    "stretch-single",
    "stretch-fleet",
    "radix-pressure-untraced",
    "pressure-evict-untraced",
    "randomized-500",
)


def check_laws(engine: ReplicaEngine) -> None:
    rows = engine._rows
    ledger = engine.kv_cache
    n = rows.n
    assert engine._decode_context_total == int(rows.ctx[:n].sum())
    bs = ledger.block_size
    tokens = rows.kv_tokens[:n]
    assert (rows.kv_blocks[:n] == -(-tokens // bs)).all()
    held = [h for h in ledger._holdings.values() if h is not None]
    assert ledger.used_blocks == (
        sum(blocks for _, blocks in held) + int(rows.kv_blocks[:n].sum())
    )
    assert ledger.used_tokens == (
        sum(t for t, _ in held) + int(tokens.sum())
    )

    phases = np.bincount(rows.kv_off[:n] % bs, minlength=bs)
    assert rows.phase_count == phases.tolist()

    k = rows.iterations
    decoded = rows.decoded[:n]
    target = rows.target[:n]
    assert (decoded < target).all()
    buckets: dict[int, list[int]] = {}
    for request_id, due in zip(
        rows.ids[:n].tolist(), (k + target - decoded).tolist()
    ):
        buckets.setdefault(due, []).append(request_id)
    assert rows.done_at == buckets

    assert rows.log_base + rows.log_len == k
    assert rows.log_len <= len(rows.log) == rows_module._LOG_SIZE
    if n == 0:
        assert rows.log_len == 0
    else:
        assert rows.log_base <= int(rows.fold[:n].min())
        assert int(rows.fold[:n].max()) <= k


@pytest.mark.parametrize("case", LAW_CASES)
def test_laws_hold_after_every_iteration(case, execution_model, monkeypatch):
    checks = []

    def checked(method):
        def wrapper(self, *args):
            result = method(self, *args)
            check_laws(self)
            checks.append(1)
            return result

        return wrapper

    for name in ("_finish_iteration", "_decode_stretch"):
        monkeypatch.setattr(
            ReplicaEngine, name, checked(getattr(ReplicaEngine, name))
        )
    assert _digest(CASES[case](execution_model)) == PINS[case]
    assert checks
