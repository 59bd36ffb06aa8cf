"""Combinatorial reliability algebra for redundancy structures.

All functions take and return *reliabilities* (probabilities of correct
operation over the mission, in [0, 1]) and are exact for independent
component failures — the assumption the paper's diversity ingredient
(§II.B) exists to approximate in practice.
"""

from __future__ import annotations

import math
from typing import Sequence


def _check_prob(value: float, name: str = "reliability") -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def series(reliabilities: Sequence[float]) -> float:
    """A chain that needs every component: R = prod(R_i)."""
    result = 1.0
    for r in reliabilities:
        _check_prob(r)
        result *= r
    return result


def parallel(reliabilities: Sequence[float]) -> float:
    """Any one component suffices: R = 1 - prod(1 - R_i)."""
    q = 1.0
    for r in reliabilities:
        _check_prob(r)
        q *= 1.0 - r
    return 1.0 - q


def k_of_n(k: int, n: int, r: float) -> float:
    """At least k of n identical independent components must work."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_prob(r)
    return sum(
        math.comb(n, i) * r**i * (1.0 - r) ** (n - i) for i in range(k, n + 1)
    )


def nmr(n: int, r: float, voter_reliability: float = 1.0) -> float:
    """N-modular redundancy with majority voting.

    ``n`` must be odd; the system works when a majority of modules works
    *and* the voter works.  With n=1 this degrades to a single module
    (no voter needed).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"NMR needs odd n >= 1, got {n}")
    _check_prob(r)
    _check_prob(voter_reliability, "voter reliability")
    if n == 1:
        return r
    majority = n // 2 + 1
    return k_of_n(majority, n, r) * voter_reliability


def tmr(r: float, voter_reliability: float = 1.0) -> float:
    """Triple modular redundancy: the n=3 special case."""
    return nmr(3, r, voter_reliability)


def standby(r_primary: float, r_backup: float, detector_coverage: float = 1.0) -> float:
    """Cold-standby pair: primary, or (detected failure -> backup).

    ``detector_coverage`` is the probability a primary failure is
    detected in time to fail over — the paper's "requires reliable
    detection" caveat (§II.A).
    """
    _check_prob(r_primary, "primary reliability")
    _check_prob(r_backup, "backup reliability")
    _check_prob(detector_coverage, "detector coverage")
    return r_primary + (1.0 - r_primary) * detector_coverage * r_backup
