"""Metrics collection and reporting.

Every experiment in this reproduction reports through this package so that
benches print uniform tables.  The design follows the usual triad:

* :class:`~repro.metrics.collectors.Counter` — monotonically increasing
  event counts,
* :class:`~repro.metrics.collectors.Gauge` — last-value-wins instantaneous
  readings,
* :class:`~repro.metrics.collectors.Histogram` — latency-style
  distributions with percentile queries,
* :class:`~repro.metrics.registry.MetricsRegistry` — a namespace of the
  above, one per simulation,
* :class:`~repro.metrics.tables.Table` — fixed-width table rendering used
  by the benchmark harness to print the rows each experiment defines,
* :class:`~repro.metrics.traffic.TrafficSource` — the shared
  completions/latencies measurement mixin every workload driver
  (clients and aggregated populations) exposes to benches.

A metric name, a counter attribute bumped per event, or a hook exists
only if code in ``src/repro``, ``benchmarks/``, ``examples/`` or
``tools/`` reads it, or a test reads it to observe a behaviour nothing
else shows (DESIGN §4 *What a record must earn*).  Where an object
already keeps a count as an attribute (a population's ``offered``, a
packet's ``drop_reason``), no registry copy of it is kept.
"""

from repro.metrics.collectors import Counter, Gauge, Histogram
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
