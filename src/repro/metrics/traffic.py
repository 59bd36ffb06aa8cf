"""`TrafficSource`: the one measurement API every workload driver speaks.

Before this module existed, ``ClientNode`` (the BFT open-loop client),
``ShardRouter`` and the router's closed-loop driver each carried their
own copy of the ``completions_in``/``latencies_in`` window accounting,
and every bench re-derived percentiles by hand.  Benches and campaign runners now measure
any traffic driver — per-client or aggregated population — through this
mixin plus the aggregation helpers below.

Window semantics are half-open ``[start, end)`` everywhere, matching the
original ``ClientNode`` behaviour, so measurement windows tile a run
without double-counting completions on the boundary.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.metrics.stats import percentile


class TrafficSource:
    """Mixin recording per-completion times/latencies with window queries.

    Subclasses call :meth:`record_completion` once per successful
    operation; everything else (windowed counts, windowed latencies,
    gap analysis) derives from the two parallel arrays this keeps (packed
    doubles, 16 bytes a completion).  Memory is O(completions), never
    O(clients) — an aggregated population of 10^6 modeled clients records
    only what it completes.  Completions are recorded as they happen, so
    the time array is non-decreasing and a window is a bisected slice.
    """

    def __init__(self) -> None:
        self.completed = 0
        self.latencies = array("d")
        self._completion_times = array("d")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_completion(self, now: float, latency: float) -> None:
        """Record one successful operation completed at ``now``."""
        self.completed += 1
        self.latencies.append(latency)
        self._completion_times.append(now)

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def completions_in(self, start: float, end: float) -> int:
        """Operations completed in ``[start, end)``."""
        lo, hi = self._window(start, end)
        return hi - lo

    def latencies_in(self, start: float, end: float) -> List[float]:
        """Latencies of operations completed in ``[start, end)``."""
        lo, hi = self._window(start, end)
        return self.latencies[lo:hi].tolist()

    def _window(self, start: float, end: float) -> Tuple[int, int]:
        """Index range of the completions in ``[start, end)``."""
        times = self._completion_times
        lo = bisect_left(times, start)
        return lo, bisect_left(times, end, lo)

    def max_completion_gap(self, start: float, end: float) -> float:
        """Largest gap between consecutive completions in a window.

        The E8 'failover gap' metric: how long the service was effectively
        unavailable to this driver.  Window edges count as events.
        """
        lo, hi = self._window(start, end)
        events = [start] + self._completion_times[lo:hi].tolist() + [end]
        return max(b - a for a, b in zip(events, events[1:]))

    def throughput_in(self, start: float, end: float) -> float:
        """Completed operations per simulated *second* over a window."""
        if end <= start:
            return 0.0
        return self.completions_in(start, end) / ((end - start) / 1000.0)


# ----------------------------------------------------------------------
# Aggregation helpers (benches and campaign runners)
# ----------------------------------------------------------------------

def aggregate_completions(
    sources: Iterable[TrafficSource], start: float, end: float
) -> int:
    """Total completions over a window across many traffic sources."""
    return sum(s.completions_in(start, end) for s in sources)


def aggregate_latencies(
    sources: Iterable[TrafficSource], start: float, end: float
) -> List[float]:
    """All latencies over a window across many sources, sorted ascending."""
    out: List[float] = []
    for source in sources:
        out.extend(source.latencies_in(start, end))
    out.sort()
    return out


def latency_percentiles(
    latencies: Sequence[float], percentiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ...}`` nearest-rank percentiles of a sample.

    Accepts the (possibly unsorted) output of :func:`aggregate_latencies`;
    empty samples report 0.0 for every percentile, matching
    :class:`~repro.metrics.collectors.Histogram`.
    """
    return {
        f"p{p:g}": percentile(latencies, p) for p in percentiles
    }
