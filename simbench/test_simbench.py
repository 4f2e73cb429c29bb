"""Self-tests of the benchmark harness, on tiny traces.

Run from the repository root::

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"fleet_conv": 40, "sessions_radix": 6, "code_traced": 40}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], size=TINY[name])


def counting_layer():
    counts: Counter[str] = Counter()

    def wrap(key, fn):
        def shim(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return shim

    return counts, wrap


def target_attrs():
    return [getattr(owner, attr) for _, owner, attr in spans._targets()]


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_span_counts_one_call_per_call(name):
    workload = tiny(name)
    session = run.build_session(workload)
    requests = [r.clone_fresh() for r in workload.generate(3, workload.size)]
    before = target_attrs()
    counts, wrap = counting_layer()
    inner = spans.LayerTracer()
    inner.install(wrap=wrap)
    tracer = spans.LayerTracer()
    tracer.install()
    try:
        for request in requests:
            session.submit(request)
        session.drain()
    finally:
        tracer.restore()
        inner.restore()

    assert target_attrs() == before, "restore must put every original back"
    keys = {key for key, _, _ in spans._targets()}
    for key in keys:
        assert tracer.calls[key] == counts[key], key
    assert counts["simcore.push"] > 0 and counts["api.submit"] == len(requests)
    # Every popped event ran exactly one classified action span.
    actions = sum(
        calls for key, calls in tracer.calls.items()
        if key.endswith(".action")
    )
    assert actions == tracer.calls["simcore.pop"]
    assert actions == session.simulator.events_processed
    assert len(tracer._stack) == 1, "every span must close"


def test_same_seed_same_digest_other_seed_other_digest():
    workload = tiny("fleet_conv")
    first = run.serve(workload, workload.generate(5, workload.size))
    again = run.serve(workload, workload.generate(5, workload.size))
    other = run.serve(workload, workload.generate(6, workload.size))
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_gate_catches_a_leaked_block():
    workload = tiny("sessions_radix")
    repeat = run.serve(workload, workload.generate(2, workload.size))
    assert run.check_gate(repeat.session, repeat.requests) == 0
    repeat.session.engines[0].kv_cache.grow(-10**9, 1)
    with pytest.raises(run.GateError):
        run.check_gate(repeat.session, repeat.requests)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_run_reports_every_declared_metric(monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(tiny(name), seed=4, seconds=0.0, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == units
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    for metric in metrics.values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert metrics["trace.coverage"]["value"] >= run.MIN_COVERAGE


def test_declared_names_and_units_are_well_formed():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(workloads) == sorted(WORKLOADS)
    names = workloads + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert set(run.END_TO_END) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fleet_conv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_speed_scales_to_the_reference(monkeypatch):
    yardsticks = iter([0.5, 0.5, 1.0])
    monkeypatch.setattr(run, "yardstick", lambda: next(yardsticks))
    speed = run.HostSpeed()
    assert speed.scale(2.0) == pytest.approx(2.0 * run.YARDSTICK_REF_S / 0.5)
    assert speed.scale(2.0) == pytest.approx(2.0 * run.YARDSTICK_REF_S / 0.75)
