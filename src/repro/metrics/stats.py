"""Cross-seed summary statistics for campaign aggregation.

Campaign reports repeat every parameter point across seeds and present
mean, sample standard deviation, and a normal-approximation 95% CI half
width.  Pure functions over plain floats so the campaign store stays
JSON-only and the helpers are reusable by benches.

The binomial-proportion intervals (:func:`wilson_interval`,
:func:`clopper_pearson_interval`) back the fault-injection campaign's
outcome reporting and its CI-driven early-stopping rule
(:mod:`repro.faultspace`): Wilson is the workhorse (good coverage even at
small n and extreme p), Clopper-Pearson is the conservative exact
interval used for one-sided dependability bounds (e.g. the MTTF lower
bound from an observed-zero-SDC stratum).

The multi-objective helpers (:func:`dominates`, :func:`hypervolume`)
back the evolutionary design-space explorer (:mod:`repro.evolve`, whose
``non_dominated_sort`` gives the Pareto front as its front 0): both use
the **minimization** convention, so callers negate maximization
objectives before handing vectors in.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def ci95_half_width(values: Sequence[float]) -> float:
    """Half width of the normal-approximation 95% CI of the mean."""
    n = len(values)
    if n < 2:
        return 0.0
    return Z_95 * stddev(values) / math.sqrt(n)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile (0 <= p <= 100); 0.0 when empty.

    Matches :meth:`repro.metrics.collectors.Histogram.percentile` so a
    runner computing p99 from a raw latency list and a report reading the
    same figure from a histogram agree exactly.  Sorts a copy when the
    input is unsorted, so already-sorted latency lists pay only the scan.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return 0.0
    ordered = list(values)
    ordered.sort()
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))
    return ordered[rank]


def normal_quantile(p: float) -> float:
    """Standard-normal quantile Φ⁻¹(p) via bisection on ``math.erf``.

    Campaign code only evaluates a handful of confidence levels per run,
    so a 100-iteration bisection (exact to ~1e-15 over |z| <= 12) beats
    carrying a rational-approximation table.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    lo, hi = -12.0, 12.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _check_binomial(successes: int, n: int, confidence: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, {n}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The interval the early-stopping rule uses: unlike the Wald interval
    it never collapses to zero width at k=0 or k=n, so "0 SDCs in 12
    trials" keeps an honest upper bound and the stratum is not closed
    prematurely.
    """
    _check_binomial(successes, n, confidence)
    z = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b): the Beta(a, b) CDF at x, in pure stdlib Python."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_quantile(a: float, b: float, p: float) -> float:
    """Inverse Beta(a, b) CDF by bisection on the regularized beta."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if regularized_incomplete_beta(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def clopper_pearson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Clopper-Pearson "exact" binomial interval.

    Conservative by construction (coverage >= nominal for every p), which
    is what the dependability report wants when it converts an observed
    failure proportion into a guaranteed-direction bound.  Endpoints are
    Beta quantiles: lower = B(α/2; k, n-k+1), upper = B(1-α/2; k+1, n-k).
    """
    _check_binomial(successes, n, confidence)
    alpha = 1.0 - confidence
    lower = 0.0 if successes == 0 else _beta_quantile(
        successes, n - successes + 1, alpha / 2.0
    )
    upper = 1.0 if successes == n else _beta_quantile(
        successes + 1, n - successes, 1.0 - alpha / 2.0
    )
    return (lower, upper)


BINOMIAL_METHODS = ("wilson", "clopper-pearson")


def binomial_interval(
    successes: int, n: int, confidence: float = 0.95, method: str = "wilson"
) -> Tuple[float, float]:
    """Dispatch to a named binomial-interval method."""
    if method == "wilson":
        return wilson_interval(successes, n, confidence)
    if method == "clopper-pearson":
        return clopper_pearson_interval(successes, n, confidence)
    raise ValueError(
        f"unknown binomial interval method {method!r}; "
        f"expected one of {BINOMIAL_METHODS}"
    )


def binomial_half_width(
    successes: int, n: int, confidence: float = 0.95, method: str = "wilson"
) -> float:
    """Half the width of the chosen binomial interval (stopping metric)."""
    low, high = binomial_interval(successes, n, confidence, method)
    return (high - low) / 2.0


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance under **minimization**: ``a`` dominates ``b``.

    True iff ``a`` is no worse than ``b`` in every objective and strictly
    better in at least one.  Callers with maximization objectives negate
    them first (:mod:`repro.evolve.fitness` does exactly that), keeping
    this layer sign-convention-free.
    """
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length ({len(a)} vs {len(b)})")
    better = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            better = True
    return better


def hypervolume(
    points: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Volume dominated by ``points`` and bounded by ``reference``
    (minimization): the standard front-quality indicator.

    Implemented by recursive slicing on the last objective — exact for
    any dimension, but each of the up-to-``n`` slabs recomputes a
    ``(d-1)``-dimensional hypervolume, so the worst case grows like
    O(n^d).  That is plenty for the front sizes campaigns produce (tens
    of points at d ≤ 4); larger fronts or higher dimension want a
    dedicated algorithm (WFG, HSO with memoization, …).  The 2D and 3D
    cases are pinned against hand-computed rectangle/box sums in the
    test suite.
    Points that do not strictly dominate the reference contribute
    nothing; an empty (or fully out-of-bounds) front has volume 0.
    """
    dim = len(reference)
    if dim < 1:
        raise ValueError("reference point must have at least one objective")
    clipped = []
    for p in points:
        if len(p) != dim:
            raise ValueError(
                f"point dimensionality {len(p)} != reference {dim}"
            )
        if all(pi < ri for pi, ri in zip(p, reference)):
            clipped.append(tuple(p))
    return _hv(sorted(set(clipped)), tuple(reference))


def _hv(points: List[Tuple[float, ...]], reference: Tuple[float, ...]) -> float:
    """Recursive hypervolume of mutually in-bounds, deduplicated points."""
    if not points:
        return 0.0
    if len(reference) == 1:
        return reference[0] - min(p[0] for p in points)
    # Sweep the last objective from best (smallest) upward; each slab
    # between consecutive cut values contributes the lower-dimensional
    # hypervolume of the points alive in that slab times its thickness.
    cuts = sorted({p[-1] for p in points})
    total = 0.0
    for i, z in enumerate(cuts):
        upper = cuts[i + 1] if i + 1 < len(cuts) else reference[-1]
        if upper <= z:
            continue
        slab = [p[:-1] for p in points if p[-1] <= z]
        total += (upper - z) * _hv(sorted(set(slab)), reference[:-1])
    return total


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """The standard cross-seed summary block: n, mean, stddev, ci95."""
    vals = [float(v) for v in values]
    return {
        "n": len(vals),
        "mean": mean(vals),
        "stddev": stddev(vals),
        "ci95": ci95_half_width(vals),
        "min": min(vals) if vals else 0.0,
        "max": max(vals) if vals else 0.0,
    }
