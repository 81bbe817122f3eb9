"""Metrics registry: counters, histograms, Prometheus export."""

import math

import numpy as np

from repro.serve import MetricsRegistry
from repro.serve import metrics
from repro.serve.metrics import _Histogram, _series_key


class TestSeriesKey:
    def test_bare_and_labeled(self):
        assert _series_key("hits", None) == "hits"
        key = _series_key("hits", {"b": "2", "a": "1"})
        assert key == 'hits{a="1",b="2"}'  # labels sorted → stable identity


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("requests")
        reg.inc("requests", by=2.0)
        assert reg.counter_value("requests") == 3.0
        assert reg.counter_value("missing") == 0.0

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.inc("requests", {"endpoint": "/a"})
        reg.inc("requests", {"endpoint": "/b"}, by=4)
        assert reg.counter_value("requests", {"endpoint": "/a"}) == 1.0
        assert reg.counter_value("requests", {"endpoint": "/b"}) == 4.0


class TestHistograms:
    def test_percentiles_ordered(self):
        reg = MetricsRegistry()
        rng = np.random.default_rng(0)
        for value in rng.exponential(size=500):
            reg.observe("latency", value)
        pct = reg.percentiles("latency")
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] < pct["p95"] < pct["p99"]
        assert reg.observation_count("latency") == 500

    def test_empty_histogram_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(reg.percentile("latency", 50))

    def test_ring_buffer_keeps_exact_count_and_sum(self, monkeypatch):
        monkeypatch.setattr(metrics, "HISTOGRAM_WINDOW", 4)
        hist = _Histogram()
        for value in range(10):
            hist.observe(float(value))
        assert hist.count == 10
        assert hist.total == sum(range(10))
        assert hist.filled().size == 4  # only the window is retained


class TestRender:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.inc("serve_requests_total", {"endpoint": "/v1/recommend"})
        for value in (0.001, 0.002, 0.003):
            reg.observe("serve_latency_seconds", value)
        text = reg.render()
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{endpoint="/v1/recommend"} 1' in text
        assert "# TYPE serve_latency_seconds summary" in text
        assert 'serve_latency_seconds{quantile="0.5"}' in text
        assert "serve_latency_seconds_count 3" in text
        assert "serve_latency_seconds_sum 0.006" in text
        assert text.endswith("\n")
