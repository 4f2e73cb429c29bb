"""Decode-mirror and KV-block laws, checked after every iteration.

The engine keeps three pieces of redundant state in step by hand: the
decode-context mirror ``_decode_context_total``, each decode row's
``kv_blocks`` next to its ``kv_tokens``, and the ledger's running
``used_blocks``/``used_tokens`` counters next to the holdings they
sum.  These tests wrap the two methods that advance decode rows
(``_finish_iteration`` and ``_decode_stretch``) and assert after every
call, on pinned runs that cover token hooks, mid-flight batch changes,
decode stretches, radix reuse on a full pool, decode eviction and a
500-request randomized run:

* ``_decode_context_total == rows.ctx[:n].sum()``;
* ``kv_blocks == ceil(kv_tokens / block_size)`` on every row;
* ``used_blocks`` and ``used_tokens`` equal the dict holdings plus the
  row columns.

Each run must still produce its pinned checksum.
"""

from __future__ import annotations

import pytest

from repro.engine import ReplicaEngine
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
