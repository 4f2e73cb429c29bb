"""A zero-dependency metrics registry with Prometheus-text export.

Models the subset of the Prometheus data model the simulator needs:
counters (monotone totals), gauges (point-in-time values with a
tracked maximum) and histograms (configurable bucket boundaries with
cumulative ``le`` export).  Every metric family supports label
dimensions via :meth:`MetricFamily.labels`, mirroring
``prometheus_client``'s API so the instrumentation reads familiarly —
without importing anything beyond the standard library.

Registries are plain objects, not process-global state: each
:class:`~repro.obs.observer.TracingObserver` owns one, so concurrent
simulations never share series.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

#: Quantiles exported for sketch metrics (Prometheus summary lines).
DEFAULT_SKETCH_QUANTILES: tuple[float, ...] = (0.50, 0.90, 0.95, 0.99)

#: Default histogram boundaries for iteration latencies (seconds).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.005, 0.010, 0.025, 0.050, 0.100, 0.250, 0.500, 1.0, 2.5,
)

#: Default histogram boundaries for chunk sizes (tokens); the top
#: boundary matches the paper's 2500-token saturation point.
DEFAULT_CHUNK_BUCKETS: tuple[float, ...] = (
    32, 64, 128, 256, 512, 1024, 2048, 2500,
)


def format_value(value: float) -> str:
    """Render a sample the way Prometheus text exposition expects."""
    if math.isnan(value):
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(
    labelnames: tuple[str, ...], labelvalues: tuple[str, ...]
) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{value}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Child:
    """One labeled series of a counter or gauge family."""

    __slots__ = ("value", "max_seen")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_seen = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount
        if self.value > self.max_seen:
            self.max_seen = self.value

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.max_seen:
            self.max_seen = self.value


class _HistogramChild:
    """One labeled series of a histogram family."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.total += value
        self.count += 1
        # First bound >= value; one past the last bound is the +Inf slot.
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class _SketchChild:
    """One labeled series of a sketch family (mergeable quantiles).

    Unlike :class:`_HistogramChild`'s fixed buckets, the wrapped
    :class:`~repro.obs.sketch.QuantileSketch` holds any quantile to a
    relative-error bound regardless of the value range, and two
    children can be merged exactly — the property ``pmap`` workers rely
    on to stream percentiles without shipping raw samples.
    """

    __slots__ = ("sketch",)

    def __init__(self, relative_accuracy: float) -> None:
        self.sketch = QuantileSketch(relative_accuracy)

    def observe(self, value: float) -> None:
        self.sketch.add(value)

    def merge(self, other: "_SketchChild") -> None:
        self.sketch.merge(other.sketch)

    @property
    def count(self) -> int:
        return self.sketch.count

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)


class MetricFamily:
    """A named metric with a fixed type and label dimensions."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> None:
        if kind not in ("counter", "gauge", "histogram", "sketch"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        if kind == "histogram":
            self.buckets = tuple(sorted(float(b) for b in buckets))
            if not self.buckets:
                raise ValueError("histogram needs at least one bucket")
        if kind == "sketch":
            self.relative_accuracy = float(relative_accuracy)
        self._children: dict[
            tuple[str, ...], _Child | _HistogramChild | _SketchChild
        ] = {}

    # --- series access ---------------------------------------------------

    def labels(self, *values, **kv):
        """The child series for one label-value combination."""
        if kv:
            if values:
                raise ValueError("pass labels positionally or by name")
            if set(kv) != set(self.labelnames):
                raise ValueError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {tuple(kv)}"
                )
            values = tuple(kv[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {key}"
            )
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = _HistogramChild(self.buckets)
            elif self.kind == "sketch":
                child = _SketchChild(self.relative_accuracy)
            else:
                child = _Child()
            self._children[key] = child
        return child

    def _default_child(self):
        return self.labels()

    # Unlabeled convenience API (prometheus_client style).
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        child = self._default_child()
        if isinstance(child, (_HistogramChild, _SketchChild)):
            raise TypeError(f"{self.kind}s have no scalar value")
        return child.value

    def series(
        self,
    ) -> dict[tuple[str, ...], "_Child | _HistogramChild | _SketchChild"]:
        """All live children, keyed by label values (sorted)."""
        return dict(sorted(self._children.items()))


class MetricsRegistry:
    """Create-or-get factory for metric families plus the exporters."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if existing.kind != family.kind:
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{existing.kind}, not {family.kind}"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, help_text, "counter", labelnames)
        )

    def gauge(
        self, name: str, help_text: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, help_text, "gauge", labelnames)
        )

    def histogram(
        self, name: str, help_text: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, help_text, "histogram", labelnames,
                         buckets=buckets)
        )

    def sketch(
        self, name: str, help_text: str = "",
        labelnames: tuple[str, ...] = (),
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> MetricFamily:
        """A mergeable quantile-sketch family (exported as a summary)."""
        return self._register(
            MetricFamily(name, help_text, "sketch", labelnames,
                         relative_accuracy=relative_accuracy)
        )

    def families(self) -> list[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    # --- exporters -------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (scrape-compatible)."""
        lines: list[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            # Sketches scrape as Prometheus summaries (quantile lines).
            kind = "summary" if family.kind == "sketch" else family.kind
            lines.append(f"# TYPE {family.name} {kind}")
            for labelvalues, child in family.series().items():
                labels = _format_labels(family.labelnames, labelvalues)
                if isinstance(child, _SketchChild):
                    for q in DEFAULT_SKETCH_QUANTILES:
                        q_labels = _format_labels(
                            family.labelnames + ("quantile",),
                            labelvalues + (format_value(q),),
                        )
                        lines.append(
                            f"{family.name}{q_labels} "
                            f"{format_value(child.quantile(q))}"
                        )
                    lines.append(
                        f"{family.name}_count{labels} {child.count}"
                    )
                elif isinstance(child, _HistogramChild):
                    for le, cum in child.cumulative():
                        le_labels = _merge_le(
                            family.labelnames, labelvalues, le
                        )
                        lines.append(
                            f"{family.name}_bucket{le_labels} {cum}"
                        )
                    lines.append(
                        f"{family.name}_sum{labels} "
                        f"{format_value(child.total)}"
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labels} "
                        f"{format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-friendly dump of every series."""
        out: dict = {}
        for family in self.families():
            entry: dict = {
                "type": family.kind,
                "help": family.help_text,
                "series": [],
            }
            for labelvalues, child in family.series().items():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, _SketchChild):
                    entry["series"].append({
                        "labels": labels,
                        "quantiles": {
                            format_value(q): (
                                child.quantile(q) if child.count else None
                            )
                            for q in DEFAULT_SKETCH_QUANTILES
                        },
                        "count": child.count,
                        "sketch": child.sketch.to_dict(),
                    })
                elif isinstance(child, _HistogramChild):
                    entry["series"].append({
                        "labels": labels,
                        "buckets": {
                            ("+Inf" if math.isinf(le) else format_value(le)):
                                cum
                            for le, cum in child.cumulative()
                        },
                        "sum": child.total,
                        "count": child.count,
                    })
                else:
                    entry["series"].append({
                        "labels": labels,
                        "value": child.value,
                        "max": child.max_seen,
                    })
            out[family.name] = entry
        return out

    def write_prometheus(self, path: str | Path) -> None:
        Path(path).write_text(self.to_prometheus_text())

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


def _merge_le(
    labelnames: tuple[str, ...],
    labelvalues: tuple[str, ...],
    le: float,
) -> str:
    le_str = "+Inf" if math.isinf(le) else format_value(le)
    return _format_labels(labelnames + ("le",), labelvalues + (le_str,))


def bucket_counts(
    values: Mapping[int, int] | Iterable[float],
    buckets: tuple[float, ...] = DEFAULT_CHUNK_BUCKETS,
) -> dict[str, int]:
    """Bucket raw observations into ``{"le_<bound>": count}`` form.

    Accepts either an iterable of samples or a ``{value: multiplicity}``
    mapping (the engine's always-on chunk counter).  Counts are
    non-cumulative — each key holds the samples that landed in that
    bucket — which is the shape the experiment tables consume.
    """
    if isinstance(values, Mapping):
        pairs = [(float(v), int(n)) for v, n in values.items()]
    else:
        pairs = [(float(v), 1) for v in values]
    bounds = tuple(sorted(float(b) for b in buckets))
    keys = [f"le_{format_value(b)}" for b in bounds] + ["le_inf"]
    out = {k: 0 for k in keys}
    for value, n in pairs:
        for bound, key in zip(bounds, keys):
            if value <= bound:
                out[key] += n
                break
        else:
            out["le_inf"] += n
    return out
