"""Unit tests for metric collectors, registry, and table rendering."""

import pytest

from repro.metrics import Counter, Gauge, Histogram, MetricsRegistry, Table


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_set_and_add():
    gauge = Gauge("g", initial=10)
    gauge.set(3.5)
    gauge.add(-1.5)
    assert gauge.value == 2.0


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_mean_and_count():
    hist = Histogram("h")
    for value in [1, 2, 3, 4]:
        hist.observe(value)
    assert hist.count == 4
    assert hist.mean() == 2.5


def test_histogram_percentiles():
    hist = Histogram("h")
    for value in range(1, 101):
        hist.observe(value)
    assert hist.percentile(50) == 50
    assert hist.percentile(95) == 95
    assert hist.percentile(100) == 100
    assert hist.percentile(0) == 1


def test_histogram_percentile_unsorted_input():
    hist = Histogram("h")
    for value in [5, 1, 9, 3, 7]:
        hist.observe(value)
    assert hist.percentile(100) == 9
    assert hist.percentile(0) == 1


def test_histogram_empty_is_zero():
    hist = Histogram("h")
    assert hist.mean() == 0.0
    assert hist.percentile(99) == 0.0


def test_histogram_percentile_range_check():
    with pytest.raises(ValueError):
        Histogram("h").percentile(101)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_caches_by_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")


def test_registry_type_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_dump_is_plain_data():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(7)
    registry.histogram("h").observe(4)
    assert registry.dump() == {
        "c": {"type": "counter", "value": 3},
        "g": {"type": "gauge", "value": 7, "peak": 7},
        "h": {"type": "histogram", "values": [4.0]},
    }


def test_registry_contains_and_items():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert "a" in registry and "z" not in registry
    assert [name for name, _ in registry.items()] == ["a", "b"]


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
def test_table_renders_header_and_rows():
    table = Table("E0", ["name", "value"], title="demo")
    table.add_row(["alpha", 1])
    table.add_row(["beta", 2.5])
    text = table.render()
    assert "[E0] demo" in text
    assert "alpha" in text and "beta" in text and "2.5" in text


def test_table_rejects_wrong_row_width():
    table = Table("E0", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_table_column_extraction():
    table = Table("E0", ["a", "b"])
    table.add_row([1, "x"])
    table.add_row([2, "y"])
    assert table.column("b") == ["x", "y"]


def test_table_requires_columns():
    with pytest.raises(ValueError):
        Table("E0", [])


def test_table_float_formatting():
    table = Table("E0", ["v"])
    table.add_row([0.000001234])
    table.add_row([12345678.0])
    table.add_row([True])
    values = table.column("v")
    assert "e" in values[0] and "e" in values[1]
    assert values[2] == "yes"


# ----------------------------------------------------------------------
# Binomial confidence intervals (C3 early stopping)
# ----------------------------------------------------------------------
def test_normal_quantile_z95():
    from repro.metrics.stats import normal_quantile

    assert abs(normal_quantile(0.975) - 1.9599639845400536) < 1e-9
    assert abs(normal_quantile(0.5)) < 1e-12
    assert abs(normal_quantile(0.025) + 1.9599639845400536) < 1e-9


@pytest.mark.parametrize(
    "successes,n,low,high",
    [
        (0, 10, 0.0, 0.277533),
        (5, 10, 0.236593, 0.763407),
        (10, 10, 0.722467, 1.0),
        (1, 30, 0.005909, 0.166704),
        (17, 20, 0.639581, 0.947631),
        (50, 1000, 0.03813, 0.065314),
    ],
)
def test_wilson_interval_reference_values(successes, n, low, high):
    from repro.metrics.stats import wilson_interval

    got_low, got_high = wilson_interval(successes, n, 0.95)
    assert abs(got_low - low) < 1e-6
    assert abs(got_high - high) < 1e-6


@pytest.mark.parametrize(
    "successes,n,low,high",
    [
        (0, 10, 0.0, 0.308497),
        (5, 10, 0.187086, 0.812914),
        (10, 10, 0.691503, 1.0),
        (1, 30, 0.000844, 0.172169),
        (17, 20, 0.621073, 0.967929),
        (50, 1000, 0.037335, 0.06539),
    ],
)
def test_clopper_pearson_reference_values(successes, n, low, high):
    from repro.metrics.stats import clopper_pearson_interval

    got_low, got_high = clopper_pearson_interval(successes, n, 0.95)
    assert abs(got_low - low) < 1e-6
    assert abs(got_high - high) < 1e-6


def test_binomial_interval_dispatch_and_validation():
    from repro.metrics.stats import binomial_half_width, binomial_interval

    assert binomial_interval(5, 10, method="wilson") != binomial_interval(
        5, 10, method="clopper-pearson"
    )
    with pytest.raises(ValueError):
        binomial_interval(5, 10, method="wald")
    with pytest.raises(ValueError):
        binomial_interval(11, 10)
    with pytest.raises(ValueError):
        binomial_interval(-1, 10)
    with pytest.raises(ValueError):
        binomial_interval(0, 0)
    low, high = binomial_interval(2, 40)
    assert abs(binomial_half_width(2, 40) - (high - low) / 2.0) < 1e-12


def test_intervals_bracket_the_point_estimate():
    from repro.metrics.stats import BINOMIAL_METHODS, binomial_interval

    for method in BINOMIAL_METHODS:
        for successes, n in [(0, 7), (3, 7), (7, 7), (13, 201)]:
            low, high = binomial_interval(successes, n, method=method)
            assert 0.0 <= low <= successes / n <= high <= 1.0


def test_clopper_pearson_wider_than_wilson():
    from repro.metrics.stats import clopper_pearson_interval, wilson_interval

    for successes, n in [(1, 30), (5, 10), (17, 20)]:
        w_low, w_high = wilson_interval(successes, n)
        cp_low, cp_high = clopper_pearson_interval(successes, n)
        assert cp_high - cp_low > w_high - w_low


# ----------------------------------------------------------------------
# Pareto helpers (minimization vectors)
# ----------------------------------------------------------------------

def test_dominates_requires_no_worse_everywhere_and_better_somewhere():
    from repro.metrics.stats import dominates

    assert dominates((1.0, 1.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (2.0, 2.0))
    assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off
    assert not dominates((2.0, 2.0), (2.0, 2.0))  # equal is not better
    assert not dominates((2.0, 2.0), (1.0, 1.0))


def test_hypervolume_hand_computed_2d():
    from repro.metrics.stats import hypervolume

    # Staircase front: 3x3 + 2x2 + 1x1 disjoint slabs = 6.
    front = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    assert hypervolume(front, (4.0, 4.0)) == pytest.approx(6.0)
    assert hypervolume([(1.0, 1.0)], (2.0, 2.0)) == pytest.approx(1.0)


def test_hypervolume_hand_computed_3d_and_duplicates():
    from repro.metrics.stats import hypervolume

    assert hypervolume([(1.0, 1.0, 1.0)], (3.0, 3.0, 3.0)) == pytest.approx(8.0)
    # Duplicates add no volume.
    assert hypervolume(
        [(1.0, 1.0), (1.0, 1.0)], (2.0, 2.0)
    ) == pytest.approx(1.0)


def test_hypervolume_edge_cases():
    from repro.metrics.stats import hypervolume

    assert hypervolume([], (1.0, 1.0)) == 0.0
    # A point on the reference boundary contributes nothing.
    assert hypervolume([(2.0, 2.0)], (2.0, 2.0)) == 0.0
    # Dominated points do not inflate the volume.
    assert hypervolume(
        [(1.0, 1.0), (1.5, 1.5)], (2.0, 2.0)
    ) == pytest.approx(1.0)
