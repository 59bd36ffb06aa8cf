"""Packed samples are the same samples.

``Histogram`` and ``TrafficSource`` store doubles in ``array('d')``; the
list-backed references below are the implementations they replaced, kept
here so every query can be compared value-for-value (``==`` on floats,
no tolerance: the bytes of every ``summary.json`` depend on it).
"""

import math
import pickle
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import Histogram
from repro.metrics.traffic import TrafficSource, aggregate_completions, aggregate_latencies


class ListHistogram:
    """The list-of-boxed-floats Histogram this repo used through PR 15."""

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value):
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self):
        return len(self._values)

    @property
    def total(self):
        return math.fsum(self._values)

    def mean(self):
        return self.total / len(self._values) if self._values else 0.0

    def percentile(self, p):
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        n = len(self._values)
        return self._values[max(0, min(n - 1, math.ceil(p / 100 * n) - 1))]

    def values(self):
        return list(self._values)


def assert_same(packed: Histogram, reference: ListHistogram) -> None:
    """Order-insensitive queries first (they must not depend on whether a
    percentile query has sorted the storage yet), then the sorting ones."""
    assert packed.count == reference.count
    assert packed.total == reference.total
    assert packed.mean() == reference.mean()
    assert packed.values() == reference.values()
    assert packed._sorted == reference._sorted
    for p in (0, 1, 50, 95, 99, 99.9, 100):
        assert packed.percentile(p) == reference.percentile(p)
    assert packed.values() == reference.values()  # now sorted, both
    assert isinstance(packed.values(), list)


samples = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64)
# Simulation samples are mostly small non-negative times with many ties.
latencies = st.one_of(samples, st.integers(0, 50).map(float), st.integers(0, 10**6))


@given(st.lists(st.one_of(latencies, st.just("query")), max_size=60))
def test_histogram_matches_the_list_backed_reference(script):
    packed, reference = Histogram("h"), ListHistogram()
    for step in script:
        if step == "query":  # sorts in place; later observes land after it
            assert packed.percentile(50) == reference.percentile(50)
        else:
            packed.observe(step)
            reference.observe(step)
    assert_same(packed, reference)


@given(st.lists(latencies, max_size=40), st.lists(latencies, max_size=10))
def test_pickle_round_trip(values, more):
    packed, reference = Histogram("h"), ListHistogram()
    for v in values:
        packed.observe(v)
        reference.observe(v)
    clone = pickle.loads(pickle.dumps(packed))
    for v in more:  # the clone keeps working, incl. its sortedness flag
        clone.observe(v)
        reference.observe(v)
    assert_same(clone, reference)


def test_observe_does_not_keep_boxed_samples():
    h = Histogram("h")
    for i in range(1000):
        h.observe(i * 0.5)
    assert h._values.itemsize == 8 and len(h._values) == 1000
    assert h._sorted and h.percentile(100) == 499.5


# ----------------------------------------------------------------------
# TrafficSource window queries == the linear scan they replaced
# ----------------------------------------------------------------------
def scan_completions(source, start, end):
    return sum(1 for t in source._completion_times if start <= t < end)


def scan_latencies(source, start, end):
    return [
        lat for t, lat in zip(source._completion_times, source.latencies) if start <= t < end
    ]


def scan_gap(source, start, end):
    events = [start] + [t for t in source._completion_times if start <= t < end] + [end]
    return max(b - a for a, b in zip(events, events[1:]))


times = st.integers(0, 40).map(lambda t: t * 2.5)  # coarse grid: ties and exact edge hits


@settings(max_examples=200)
@given(st.lists(st.tuples(times, samples), max_size=40), times, times)
def test_window_queries_equal_the_linear_scan(completions, a, b):
    source = TrafficSource()
    for now, latency in sorted(completions, key=lambda c: c[0]):
        source.record_completion(now, latency)
    assert source.completed == len(completions) == len(source.latencies)
    for start, end in ((a, b), (b, a), (a, a), (0.0, 1e9), (-1.0, a), (a, math.inf)):
        assert source.completions_in(start, end) == scan_completions(source, start, end)
        window = source.latencies_in(start, end)
        assert window == scan_latencies(source, start, end) and isinstance(window, list)
        if start <= end:
            assert source.max_completion_gap(start, end) == scan_gap(source, start, end)
        assert aggregate_completions([source, source], start, end) == 2 * len(window)
        assert aggregate_latencies([source, source], start, end) == sorted(window + window)


def test_window_boundaries_are_half_open():
    source = TrafficSource()
    for now in (10.0, 20.0, 20.0, 30.0):
        source.record_completion(now, now / 10)
    assert source.completions_in(10.0, 30.0) == 3  # start included, end excluded
    assert source.latencies_in(20.0, 30.0) == [2.0, 2.0]
    assert source.latencies_in(20.0, 20.0) == []
    assert source.completions_in(30.0, 31.0) == 1
    assert list(source.latencies) == [1.0, 2.0, 2.0, 3.0]  # len/iter/== as before
