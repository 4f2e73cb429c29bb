"""Per-layer self-time tracing wrapped around the simulator's public functions.

The wrappers live in the benchmark, not in the program: :meth:`LayerTracer.install`
replaces each named function on its class (or every module that imports it)
with a timing shim, and :meth:`LayerTracer.restore` puts the originals back, so
the timed runs execute the program exactly as shipped.

Every shim records one span per call. A span's *self time* is its duration
minus the durations of the spans it encloses, so summing self times over all
spans counts each interval once; their total over the traced wall time is the
coverage the report checks. Event actions handed to ``EventQueue.push`` are
wrapped too, classified by the module that defined them: actions from
``repro.cluster`` are the router's arrival decisions, actions from
``repro.engine`` are replica iterations and arrivals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Layers in report order. ``api`` is ``Session.submit`` itself; ``other``
#: catches event actions from modules outside the cluster and engine.
LAYERS = (
    "api", "simcore", "engine", "kv", "prefix", "sched", "forest",
    "perfmodel", "router", "obs", "other",
)

KV_FNS = ("grow", "can_grow", "release", "bulk_decode_grow", "stretch_grow")
PREFIX_FNS = ("match_and_lock", "insert_and_lock", "unlock", "reclaim")
SCHED_FNS = (
    "enqueue", "plan_prefill", "plan_fast", "pack_prefill_assignments",
    "prefill_budget", "relegation_plan",
)
BATCH_TIME_FNS = ("batch_time", "batch_time_flat", "decode_batch_times_flat")


def _targets() -> list[tuple[str, object, str]]:
    """``(span key, owner, attribute)`` for every wrapped function.

    The key's prefix before the first dot names the layer. An owner is a
    class (the method is patched where it is looked up) or a module (the
    function is patched in every loaded module that imported it).
    """
    import repro.schedulers.base as sched_base
    from repro.api import Session
    from repro.core.chunking import DynamicChunker
    from repro.core.relegation import RelegationPolicy
    from repro.engine.arrays import ArrayKVLedger, ArrayReplicaEngine
    from repro.engine.prefix import RadixPrefixCache
    from repro.engine.replica import ReplicaEngine
    from repro.forest.forest import RandomForestRegressor
    from repro.obs.events import SpanEnd, SpanStart, TraceEvent
    from repro.obs.metrics import MetricFamily
    from repro.obs.observer import TracingObserver
    from repro.obs.trace import TraceRecorder
    from repro.perfmodel.execution import ExecutionModel
    from repro.schedulers.qoserve import QoServeScheduler
    from repro.simcore.events import EventQueue
    from repro.simcore.simulator import Simulator

    targets = [
        ("api.submit", Session, "submit"),
        ("simcore.run", Simulator, "run"),
        ("simcore.push", EventQueue, "push"),
        ("simcore.pop", EventQueue, "pop"),
        ("simcore.fast_forward", Simulator, "fast_forward"),
        ("engine.submit_now", ReplicaEngine, "submit_now"),
        ("sched.enqueue", sched_base.FixedChunkScheduler, "enqueue"),
        ("sched.enqueue", QoServeScheduler, "enqueue"),
        ("sched.plan_prefill", sched_base.FixedChunkScheduler, "plan_prefill"),
        ("sched.plan_prefill", QoServeScheduler, "plan_prefill"),
        # The array engine's QoServe fast path plans without calling
        # ``plan_prefill``; this is that path's planning entry point.
        ("sched.plan_fast", ArrayReplicaEngine, "_plan_qoserve_fast"),
        ("sched.pack_prefill_assignments", sched_base,
         "pack_prefill_assignments"),
        ("sched.prefill_budget", DynamicChunker, "prefill_budget"),
        ("sched.relegation_plan", RelegationPolicy, "plan"),
        ("forest.predict_one", RandomForestRegressor, "predict_one"),
        ("forest.predict_batch", RandomForestRegressor, "predict_batch"),
        ("obs.emit", TraceRecorder, "emit"),
        ("obs.to_dict", TraceEvent, "to_dict"),
        ("obs.to_dict", SpanStart, "to_dict"),
        ("obs.to_dict", SpanEnd, "to_dict"),
        ("obs.labels", MetricFamily, "labels"),
    ]
    targets += [(f"kv.{fn}", ArrayKVLedger, fn) for fn in KV_FNS]
    targets += [(f"prefix.{fn}", RadixPrefixCache, fn) for fn in PREFIX_FNS]
    targets += [
        (f"perfmodel.{fn}", ExecutionModel, fn) for fn in BATCH_TIME_FNS
    ]
    targets += [
        ("obs.hook", TracingObserver, name)
        for name in sorted(vars(TracingObserver))
        if name.startswith("on_")
    ]
    return targets


def _action_key(action) -> str:
    module = getattr(action, "__module__", None) or ""
    if module.startswith("repro.cluster"):
        return "router.action"
    if module.startswith("repro.engine"):
        return "engine.action"
    return "other.action"


class LayerTracer:
    """Installs span shims, accumulates self time and calls per span key."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # Child-time accumulator per open span; the bottom entry is the
        # (ignored) time of top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object, bool]] = []
        self.heap_depth_total = 0
        self.decode_rows = 0
        self.decode_batches = 0

    # --- span machinery -------------------------------------------------

    def _span(self, key: str, fn, before=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                stack[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def _push_shim(self, push):
        wrap = self._span
        timed_push = self._span("simcore.push", push)

        def shim(queue, when, action, priority=0):
            return timed_push(
                queue, when, wrap(_action_key(action), action), priority
            )

        shim.__wrapped__ = push
        return shim

    def _before(self, key: str):
        if key == "simcore.pop":
            def depth(args) -> None:
                self.heap_depth_total += len(args[0])
            return depth
        if key == "perfmodel.batch_time_flat":
            def rows(args) -> None:
                self.decode_rows += args[2]
                self.decode_batches += 1
            return rows
        if key == "perfmodel.batch_time":
            def shape_rows(args) -> None:
                self.decode_rows += args[1].num_decodes
                self.decode_batches += 1
            return shape_rows
        return None

    # --- install / restore ----------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def install(self, wrap=None) -> None:
        """Replace every target with a span shim.

        ``wrap(key, fn)`` overrides how a shim is built (the self-tests
        layer a plain call counter under the spans this way).
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, owner, attr in _targets():
            original = getattr(owner, attr)
            if wrap is not None:
                shim = wrap(key, original)
            elif key == "simcore.push":
                shim = self._push_shim(original)
            else:
                shim = self._span(key, original, self._before(key))
            if isinstance(owner, type):
                self._patch(owner, attr, shim)
                continue
            # Module-level function: patch every module holding it.
            for module in list(sys.modules.values()):
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, shim)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --- aggregation ----------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            totals[key.split(".", 1)[0]] += seconds
        return totals

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls for key, calls in self.calls.items()
            if key.startswith(layer + ".")
        )
