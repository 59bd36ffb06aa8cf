"""Metric collector primitives: Counter, Gauge, Histogram, TimeSeries."""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count of events."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Increase the counter.  Negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def reset(self) -> None:
        """Zero the counter (used between measurement phases)."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-value-wins instantaneous reading with a high-water mark.

    ``peak`` tracks the largest value ever set — e.g. the deepest a
    primary's in-flight agreement window got during a run, which the
    instantaneous value (usually back to 0 by measurement time) hides.
    """

    def __init__(self, name: str, initial: float = 0.0) -> None:
        self.name = name
        self.value = initial
        self.peak = initial

    def set(self, value: float) -> None:
        """Record the new instantaneous value."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        """Adjust the value by ``delta`` (e.g. active-replica count)."""
        self.set(self.value + delta)

    def reset(self) -> None:
        """Zero the reading and its high-water mark."""
        self.value = 0.0
        self.peak = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self.value} peak={self.peak}>"


class Histogram:
    """A distribution of observed values with percentile queries.

    Stores raw observations, which keeps percentiles exact, packed as C
    doubles: 8 bytes a sample, where a list of boxed floats takes 32 for
    the same bits.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values = array("d")
        self._last = -math.inf  # == _values[-1]: read back, it would box a float per call
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        if value < self._last:
            self._sorted = False
        self._last = value
        self._values.append(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return math.fsum(self._values)

    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty."""
        if not self._values:
            return 0.0
        return self.total / len(self._values)

    def stddev(self) -> float:
        """Population standard deviation; 0.0 when fewer than 2 samples."""
        n = len(self._values)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(math.fsum((v - mu) ** 2 for v in self._values) / n)

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 <= p <= 100), nearest-rank; 0.0 when empty."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        self._ensure_sorted()
        rank = max(0, min(len(self._values) - 1, math.ceil(p / 100 * len(self._values)) - 1))
        return self._values[rank]

    def min(self) -> float:
        """Smallest observation; 0.0 when empty."""
        return min(self._values) if self._values else 0.0

    def max(self) -> float:
        """Largest observation; 0.0 when empty."""
        return max(self._values) if self._values else 0.0

    def reset(self) -> None:
        """Drop all observations."""
        del self._values[:]
        self._last = -math.inf
        self._sorted = True

    def values(self) -> List[float]:
        """A copy of the raw observations (unsorted insertion order is lost
        after any percentile query)."""
        return self._values.tolist()

    def summary(self) -> Dict[str, float]:
        """Dict of count/mean/p50/p95/p99/max — the row most benches print."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values = array("d", sorted(self._values))
            self._last = self._values[-1]
            self._sorted = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count} mean={self.mean():.3g}>"


class TimeSeries:
    """(time, value) samples, e.g. instantaneous threat level or throughput."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample.  Times must be non-decreasing."""
        if self._samples and time < self._samples[-1][0]:
            raise ValueError(
                f"timeseries {self.name!r}: non-monotonic time {time} < {self._samples[-1][0]}"
            )
        self._samples.append((time, value))

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self._samples)

    def samples(self) -> List[Tuple[float, float]]:
        """A copy of all samples."""
        return list(self._samples)

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with start <= time < end."""
        return [(t, v) for t, v in self._samples if start <= t < end]

    def mean_over(self, start: float, end: float) -> Optional[float]:
        """Mean value over a window, or None if the window is empty."""
        window = self.window(start, end)
        if not window:
            return None
        return math.fsum(v for _, v in window) / len(window)

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent sample, or None."""
        return self._samples[-1] if self._samples else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeSeries {self.name} n={self.count}>"
