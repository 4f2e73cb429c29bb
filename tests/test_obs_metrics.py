"""Unit tests for the zero-dependency metrics registry."""

import json
import re

import pytest

from repro.obs.metrics import (
    DEFAULT_CHUNK_BUCKETS,
    MetricsRegistry,
    bucket_counts,
    format_value,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "a counter")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_create_or_get_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total")
        b = registry.counter("c_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")


class TestGauge:
    def test_set_and_max_tracking(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.labels().max_seen == 5.0


class TestLabels:
    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("c", labelnames=("tier",))
        counter.labels("Q1").inc()
        counter.labels("Q1").inc()
        counter.labels("Q2").inc()
        assert counter.labels("Q1").value == 2.0
        assert counter.labels("Q2").value == 1.0

    def test_keyword_labels(self):
        counter = MetricsRegistry().counter(
            "c", labelnames=("tier", "replica")
        )
        counter.labels(tier="Q1", replica="0").inc()
        assert counter.labels("Q1", "0").value == 1.0

    def test_wrong_label_count_rejected(self):
        counter = MetricsRegistry().counter("c", labelnames=("tier",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.labels("Q1", "extra")

    @pytest.mark.parametrize("labelnames, kv", [
        (("replica",), {"replica": "0", "typo": "y"}),  # unknown name
        (("tier", "replica"), {"replica": "0", "typo": "y"}),
        (("tier", "replica"), {"replica": "0"}),  # missing name
    ])
    def test_wrong_label_names_rejected(self, labelnames, kv):
        counter = MetricsRegistry().counter("c", labelnames=labelnames)
        with pytest.raises(
            ValueError, match=rf"expected labels {re.escape(str(labelnames))}"
        ):
            counter.labels(**kv)
        assert counter.series() == {}


class TestHistogram:
    def test_bucket_assignment(self):
        hist = MetricsRegistry().histogram(
            "h", buckets=(1.0, 10.0)
        )
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        cumulative = hist.labels().cumulative()
        assert cumulative == [(1.0, 1), (10.0, 2), (float("inf"), 3)]
        assert hist.labels().count == 3
        assert hist.labels().total == 105.5

    def test_observe_nan_rejected(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(float("nan"))

    def test_no_scalar_value(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        with pytest.raises(TypeError):
            _ = hist.value


class TestPrometheusText:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_iterations_total", "iterations", ("replica",)
        )
        counter.labels("0").inc(7)
        hist = registry.histogram(
            "repro_exec_seconds", "exec time", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.to_prometheus_text()
        assert "# TYPE repro_iterations_total counter" in text
        assert 'repro_iterations_total{replica="0"} 7' in text
        assert "# TYPE repro_exec_seconds histogram" in text
        assert 'repro_exec_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_exec_seconds_bucket{le="1"} 1' in text
        assert 'repro_exec_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_exec_seconds_count 2" in text
        assert text.endswith("\n")

    def test_write_and_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total", "help me").inc(3)
        prom = tmp_path / "m.prom"
        registry.write_prometheus(prom)
        assert "c_total 3" in prom.read_text()
        js = tmp_path / "m.json"
        registry.write_json(js)
        payload = json.loads(js.read_text())
        assert payload["c_total"]["series"][0]["value"] == 3.0


class TestFormatValue:
    def test_special_values(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("nan")) == "NaN"

    def test_nan_gauge_scrapes_as_nan(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(float("nan"))
        assert "\ng NaN\n" in registry.to_prometheus_text()


class TestBucketCounts:
    def test_from_iterable(self):
        out = bucket_counts([10, 100, 3000], buckets=(32, 2048))
        assert out == {"le_32": 1, "le_2048": 1, "le_inf": 1}

    def test_from_mapping_with_multiplicity(self):
        out = bucket_counts({16: 5, 4096: 2}, buckets=(32, 2048))
        assert out == {"le_32": 5, "le_2048": 0, "le_inf": 2}

    def test_default_buckets_cover_paper_saturation(self):
        out = bucket_counts([2500], DEFAULT_CHUNK_BUCKETS)
        assert out["le_2500"] == 1
        assert out["le_inf"] == 0
