"""Metrics collection and reporting.

Every experiment in this reproduction reports through this package so that
benches print uniform tables.  The design follows the usual triad:

* :class:`~repro.metrics.collectors.Counter` — monotonically increasing
  event counts,
* :class:`~repro.metrics.collectors.Gauge` — last-value-wins instantaneous
  readings,
* :class:`~repro.metrics.collectors.Histogram` — latency-style
  distributions with percentile queries,
* :class:`~repro.metrics.collectors.TimeSeries` — (time, value) samples for
  plotting phase behaviour,
* :class:`~repro.metrics.registry.MetricsRegistry` — a namespace of the
  above, one per simulation,
* :class:`~repro.metrics.tables.Table` — fixed-width table rendering used
  by the benchmark harness to print the rows each experiment defines,
* :class:`~repro.metrics.traffic.TrafficSource` — the shared
  completions/latencies measurement mixin every workload driver
  (clients and aggregated populations) exposes to benches.
"""

from repro.metrics.collectors import Counter, Gauge, Histogram, TimeSeries
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import (
    binomial_half_width,
    binomial_interval,
    ci95_half_width,
    clopper_pearson_interval,
    mean,
    normal_quantile,
    percentile,
    stddev,
    summarize,
    wilson_interval,
)
from repro.metrics.tables import Table
from repro.metrics.traffic import (
    TrafficSource,
    aggregate_completions,
    aggregate_latencies,
    latency_percentiles,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Table",
    "TimeSeries",
    "TrafficSource",
    "aggregate_completions",
    "aggregate_latencies",
    "binomial_half_width",
    "binomial_interval",
    "ci95_half_width",
    "clopper_pearson_interval",
    "latency_percentiles",
    "mean",
    "normal_quantile",
    "percentile",
    "stddev",
    "summarize",
    "wilson_interval",
]
