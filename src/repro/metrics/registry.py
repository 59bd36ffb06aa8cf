"""A namespace of metric collectors, one registry per simulation."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple, Union

from repro.metrics.collectors import Counter, Gauge, Histogram, TimeSeries

Metric = Union[Counter, Gauge, Histogram, TimeSeries]


class MetricsRegistry:
    """Creates and caches named metric collectors.

    Names are dotted paths, e.g. ``bft.pbft.commit_latency``.  Asking for
    the same name twice returns the same object; asking for the same name
    with a different type is an error (it would silently split data).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, requested {cls.__name__}"
                )
            return existing
        metric = cls(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    def timeseries(self, name: str) -> TimeSeries:
        """Get or create a :class:`TimeSeries`."""
        return self._get_or_create(name, TimeSeries)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def items(self) -> Iterator[Tuple[str, Metric]]:
        """Iterate (name, metric) pairs sorted by name."""
        return iter(sorted(self._metrics.items()))

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of scalar metric values (counters, gauges, histogram means)."""
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, (Counter, Gauge)):
                out[name] = float(metric.value)
            elif isinstance(metric, Histogram):
                out[f"{name}.mean"] = metric.mean()
                out[f"{name}.count"] = float(metric.count)
        return out

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data payload of every metric (dicts, lists, numbers).

        JSON- and pickle-safe; what the golden and fingerprint tests
        compare a run's full metric state by.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value, "peak": metric.peak}
            elif isinstance(metric, Histogram):
                out[name] = {"type": "histogram", "values": metric.values()}
            else:
                out[name] = {
                    "type": "timeseries",
                    "samples": [[t, v] for t, v in metric.samples()],
                }
        return out

    def reset_counters(self) -> None:
        """Reset all counters and histograms (between measurement phases)."""
        for metric in self._metrics.values():
            if isinstance(metric, (Counter, Histogram)):
                metric.reset()
