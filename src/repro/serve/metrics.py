"""Serving observability: thread-safe counters, gauges and histograms.

A single :class:`MetricsRegistry` instance backs the whole serving stack.
Counters are monotonically increasing floats; gauges are last-write-wins
floats (update lag, drift scores — anything that can move both ways);
histograms keep a bounded ring buffer of recent observations (enough for
stable p50/p95/p99) plus exact running ``count``/``sum``.
:meth:`MetricsRegistry.render` exports everything in the Prometheus text
exposition format, which is what the ``/metrics`` endpoint returns.

Everything here is stdlib + numpy; one registry lock serializes updates
(observations are tiny — a dict lookup and an array write — so a single
lock comfortably outpaces the HTTP layer)."""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

#: Ring-buffer size per histogram: large enough that p99 over a busy
#: window is stable, small enough to stay cache-resident.
HISTOGRAM_WINDOW = 4096

Labels = Optional[Dict[str, str]]


def _series_key(name: str, labels: Labels) -> str:
    """Prometheus-style series identity, e.g. ``name{a="x",b="y"}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"'
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class _Histogram:
    """Bounded sample window with exact running count and sum."""

    __slots__ = ("window", "samples", "count", "total")

    def __init__(self) -> None:
        self.window = HISTOGRAM_WINDOW
        self.samples = np.zeros(self.window, dtype=np.float64)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples[self.count % self.window] = value
        self.count += 1
        self.total += value

    def filled(self) -> np.ndarray:
        return self.samples[:min(self.count, self.window)]

    def percentile(self, q: float) -> float:
        filled = self.filled()
        if filled.size == 0:
            return float("nan")
        return float(np.percentile(filled, q))


class MetricsRegistry:
    """Named counters + latency histograms with Prometheus text export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        # Base-name ordering for rendering (# TYPE headers appear once).
        self._counter_names: Dict[str, None] = {}
        self._gauge_names: Dict[str, None] = {}
        self._histogram_names: Dict[str, None] = {}

    # -- updates ---------------------------------------------------------
    def inc(self, name: str, labels: Labels = None, by: float = 1.0) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._counter_names.setdefault(name)
            self._counters[key] = self._counters.get(key, 0.0) + by

    def set_gauge(self, name: str, value: float) -> None:
        """Last-write-wins gauge (drift scores, update lag, window sizes)."""
        with self._lock:
            self._gauge_names.setdefault(name)
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float, labels: Labels = None) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._histogram_names.setdefault(name)
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.observe(float(value))

    # -- reads -----------------------------------------------------------
    def counter_value(self, name: str, labels: Labels = None) -> float:
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile of the unlabelled series ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            return float("nan") if hist is None else hist.percentile(q)

    def percentiles(self, name: str) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for one series."""
        return {f"p{q:g}": self.percentile(name, q) for q in (50, 95, 99)}

    def observation_count(self, name: str) -> int:
        """Observations of the unlabelled series ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            return 0 if hist is None else hist.count

    # -- export ----------------------------------------------------------
    def render(self) -> str:
        """Prometheus text: counters, gauges, then histogram summaries."""
        with self._lock:
            lines = []
            for name in self._counter_names:
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(self._counters.items()):
                    if key == name or key.startswith(name + "{"):
                        lines.append(f"{key} {value:g}")
            for name in self._gauge_names:
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(self._gauges.items()):
                    if key == name or key.startswith(name + "{"):
                        lines.append(f"{key} {value:g}")
            for name in self._histogram_names:
                lines.append(f"# TYPE {name} summary")
                for key, hist in sorted(self._histograms.items()):
                    if not (key == name or key.startswith(name + "{")):
                        continue
                    base, brace, labels = key.partition("{")
                    for q in (0.5, 0.95, 0.99):
                        if brace:
                            series = (f'{base}{{quantile="{q}",'
                                      f"{labels}")
                        else:
                            series = f'{base}{{quantile="{q}"}}'
                        lines.append(f"{series} {hist.percentile(100 * q):g}")
                    suffix = brace + labels if brace else ""
                    lines.append(f"{base}_count{suffix} {hist.count}")
                    lines.append(f"{base}_sum{suffix} {hist.total:g}")
            return "\n".join(lines) + "\n"
