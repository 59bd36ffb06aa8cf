"""Tests for the reliability analysis package (E1 backbone)."""

import pytest

from repro.analysis import (
    LayerSpec,
    RepairableSystem,
    compose_stack,
    k_of_n,
    nmr,
    parallel,
    series,
    standby,
    tmr,
)
from repro.analysis.layers import default_stack


# ----------------------------------------------------------------------
# Combinatorial algebra
# ----------------------------------------------------------------------
def test_series_multiplies():
    assert series([0.9, 0.9]) == pytest.approx(0.81)
    assert series([]) == 1.0


def test_parallel_complements():
    assert parallel([0.9, 0.9]) == pytest.approx(0.99)
    assert parallel([0.5]) == 0.5


def test_k_of_n_identities():
    assert k_of_n(1, 1, 0.9) == pytest.approx(0.9)
    assert k_of_n(1, 3, 0.9) == pytest.approx(parallel([0.9] * 3))
    assert k_of_n(3, 3, 0.9) == pytest.approx(series([0.9] * 3))


def test_k_of_n_validation():
    with pytest.raises(ValueError):
        k_of_n(0, 3, 0.9)
    with pytest.raises(ValueError):
        k_of_n(4, 3, 0.9)
    with pytest.raises(ValueError):
        k_of_n(1, 1, 1.5)


def test_tmr_improves_good_components():
    assert tmr(0.9) > 0.9
    assert tmr(0.99) > 0.99


def test_tmr_hurts_bad_components():
    """The classic crossover: TMR below r=0.5 is worse than simplex."""
    assert tmr(0.4) < 0.4
    assert tmr(0.5) == pytest.approx(0.5)


def test_nmr_more_modules_better_for_good_components():
    assert nmr(5, 0.9) > nmr(3, 0.9) > nmr(1, 0.9)


def test_nmr_rejects_even_n():
    with pytest.raises(ValueError):
        nmr(4, 0.9)


def test_imperfect_voter_caps_reliability():
    assert nmr(3, 0.999, voter_reliability=0.99) < 0.991


def test_standby_with_perfect_detection():
    assert standby(0.9, 0.9) == pytest.approx(0.99)


def test_standby_detection_coverage_matters():
    full = standby(0.9, 0.9, detector_coverage=1.0)
    half = standby(0.9, 0.9, detector_coverage=0.5)
    none = standby(0.9, 0.9, detector_coverage=0.0)
    assert full > half > none == pytest.approx(0.9)


# ----------------------------------------------------------------------
# Markov repairable systems
# ----------------------------------------------------------------------
def test_availability_improves_with_repair():
    no_repair = RepairableSystem(3, 2, failure_rate=1e-3, repair_rate=0.0)
    repaired = RepairableSystem(3, 2, failure_rate=1e-3, repair_rate=1e-1)
    assert repaired.availability() > no_repair.availability()
    assert repaired.availability() > 0.999


def test_availability_monotone_in_repair_rate():
    avail = [
        RepairableSystem(3, 2, 1e-3, mu).availability() for mu in (0.0, 1e-3, 1e-2, 1e-1)
    ]
    assert avail == sorted(avail)


def test_mttf_redundancy_helps():
    simplex = RepairableSystem(1, 1, 1e-3, 0.0)
    trio = RepairableSystem(3, 2, 1e-3, 0.0)
    assert simplex.mttf() == pytest.approx(1000.0, rel=1e-6)
    # 2-of-3 without repair: MTTF = (1/(3l) + 1/(2l)) = 833.3
    assert trio.mttf() == pytest.approx(1000 / 3 + 1000 / 2, rel=1e-6)


def test_mttf_with_repair_exceeds_without():
    without = RepairableSystem(3, 2, 1e-3, 0.0).mttf()
    with_repair = RepairableSystem(3, 2, 1e-3, 1e-1).mttf()
    assert with_repair > 10 * without


def test_repairable_validation():
    with pytest.raises(ValueError):
        RepairableSystem(3, 0, 1e-3, 0.1)
    with pytest.raises(ValueError):
        RepairableSystem(3, 2, 0, 0.1)
    with pytest.raises(ValueError):
        RepairableSystem(3, 2, 1e-3, 0.1, repair_crews=0)


# ----------------------------------------------------------------------
# Fig. 1 layer stack
# ----------------------------------------------------------------------
def test_layer_compose_none_is_series():
    layer = LayerSpec("circuit", scheme="none", units=10)
    assert layer.compose(0.999) == pytest.approx(0.999**10)


def test_layer_compose_nmr():
    layer = LayerSpec("chip", scheme="nmr", n=3, units=1)
    assert layer.compose(0.9) == pytest.approx(tmr(0.9))


def test_stack_tmr_beats_simplex_for_good_components():
    base = 0.9999999
    simplex = compose_stack(default_stack("none"), base)[-1]
    redundant = compose_stack(default_stack("tmr"), base)[-1]
    assert redundant > simplex


def test_stack_returns_cumulative_column():
    stack = default_stack("tmr")
    column = compose_stack(stack, 0.9999999)
    assert len(column) == len(stack)


def test_layer_validation():
    with pytest.raises(ValueError):
        LayerSpec("x", scheme="quantum")
    with pytest.raises(ValueError):
        LayerSpec("x", units=0)
    with pytest.raises(ValueError):
        compose_stack(default_stack(), 1.5)


def test_standby_layer_composes():
    layer = LayerSpec("soc", scheme="standby", n=2, voter_reliability=0.95)
    assert layer.compose(0.9) == pytest.approx(standby(0.9, 0.9, 0.95))
