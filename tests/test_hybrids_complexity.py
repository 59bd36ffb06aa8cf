"""Unit tests for the gate-equivalent complexity model of hybrid design points."""

import pytest

from repro.hybrids import estimate_complexity
from repro.hybrids.complexity import register_complexity, usig_complexity


def test_complexity_ordering_matches_paper_story():
    plain = estimate_complexity("usig-plain").total_ge
    tmr = estimate_complexity("usig-tmr").total_ge
    ecc = estimate_complexity("usig-ecc").total_ge
    softcore = estimate_complexity("softcore").total_ge
    assert plain < tmr
    assert plain < ecc
    assert max(tmr, ecc) < softcore  # the middle ground exists


def test_register_complexity_components():
    plain = register_complexity("plain", 64)
    assert plain.logic_ge == 0
    ecc = register_complexity("ecc", 64)
    assert ecc.storage_ge > plain.storage_ge
    assert ecc.logic_ge > 0
    tmr = register_complexity("tmr", 64)
    assert tmr.storage_ge == 3 * plain.storage_ge


def test_unknown_design_rejected():
    with pytest.raises(ValueError):
        estimate_complexity("usig-raid")
    with pytest.raises(ValueError):
        register_complexity("raid", 8)


def test_usig_complexity_includes_hmac_core():
    from repro.hybrids.complexity import GE_HMAC_CORE

    assert usig_complexity("plain").logic_ge >= GE_HMAC_CORE
