"""Dependability reporting for fault-space campaigns.

:func:`build_summary` turns the campaign's ok-records into the C3
report dict:

* per-stratum outcome proportions with binomial confidence intervals
  (Wilson by default) and the early-stopping status of each stratum;
* service **availability**: the mean fraction of post-injection windows
  that still completed client operations;
* **MTTF**: the per-component Weibull MTTF from :mod:`repro.faults.aging`
  hazard parameters, plus a conservative *effective* MTTF lower bound —
  component MTTF divided by the Clopper-Pearson *upper* bound on the
  fatal-outcome (SDC or unavailable) proportion, so the bound is honest
  (and finite) even when zero fatal outcomes were observed;
* **coverage per resilience ingredient**: how much of the handled fault
  mass each mechanism absorbed (replication, rejuvenation, hybrid
  register gating).

The dict is emitted via :func:`write_outputs` as a **byte-stable**
``summary.json`` (sorted keys, fixed rounding, no wall-clock fields):
re-running the campaign with the same seed reproduces it byte-for-byte.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.faults.aging import WeibullParams
from repro.faultspace.classify import OUTCOMES
from repro.faultspace.space import STRATUM_KEYS, UNIFORM
from repro.metrics.stats import binomial_half_width, binomial_interval, clopper_pearson_interval
from repro.metrics.tables import Table

#: Fault classes whose outcome ends the service mission.
FATAL_OUTCOMES = ("sdc", "unavailable")

INGREDIENTS = ("replication", "rejuvenation", "hybrid")


def _r(value: float) -> float:
    """Fixed rounding so the summary is byte-stable across platforms."""
    return round(float(value), 6)


def _outcome_count(records: List[Dict[str, Any]], outcome: str) -> int:
    return sum(int(r["metrics"].get(f"outcome_{outcome}", 0)) for r in records)


def _stratum_block(
    records: List[Dict[str, Any]],
    confidence: float,
    method: str,
    min_per_stratum: int,
    max_per_stratum: int,
    target_half_width: float,
    early_stop: bool,
) -> Dict[str, Any]:
    n = len(records)
    outcomes: Dict[str, Any] = {}
    for name in OUTCOMES:
        count = _outcome_count(records, name)
        if n:
            low, high = binomial_interval(count, n, confidence, method)
        else:
            low, high = 0.0, 1.0
        outcomes[name] = {
            "count": count,
            "proportion": _r(count / n) if n else 0.0,
            "ci_low": _r(low),
            "ci_high": _r(high),
        }
    if n:
        half_width = max(
            binomial_half_width(outcomes["masked"]["count"], n, confidence, method),
            binomial_half_width(outcomes["sdc"]["count"], n, confidence, method),
        )
    else:
        half_width = 1.0
    stopped_early = bool(
        early_stop
        and min_per_stratum <= n < max_per_stratum
        and half_width <= target_half_width
    )
    handled = [
        r for r in records
        if r["metrics"].get("outcome_masked") or r["metrics"].get("outcome_detected_recovered")
    ]
    coverage = {}
    for ingredient in INGREDIENTS:
        hits = sum(int(r["metrics"].get(f"by_{ingredient}", 0)) for r in handled)
        coverage[ingredient] = _r(hits / len(handled)) if handled else 0.0
    return {
        "n": n,
        "outcomes": outcomes,
        "half_width": _r(half_width),
        "stopped_early": stopped_early,
        "availability": _r(
            sum(float(r["metrics"].get("available_fraction", 0.0)) for r in records) / n
        ) if n else 0.0,
        "injected_total": sum(int(r["metrics"].get("injected_total", 0)) for r in records),
        "coverage": coverage,
    }


def build_summary(
    spec: CampaignSpec,
    records: List[Dict[str, Any]],
    *,
    confidence: float = 0.95,
    method: str = "wilson",
    min_per_stratum: int = 1,
    max_per_stratum: Optional[int] = None,
    target_half_width: float = 0.0,
    early_stop: bool = False,
    weibull: Optional[WeibullParams] = None,
) -> Dict[str, Any]:
    """The C3 dependability summary over a campaign's ok-records.

    Deterministic: derived only from the spec and the records, never
    from wall-clock state, so equal-seed campaigns produce equal bytes.
    """
    weibull = weibull or WeibullParams()
    budget = max_per_stratum if max_per_stratum is not None else spec.n_seeds
    strata_keys = [k for k in spec.axes.get("stratum", []) if k != UNIFORM]
    if UNIFORM in spec.axes.get("stratum", []):
        strata_keys.append(UNIFORM)
    by_stratum: Dict[str, List[Dict[str, Any]]] = {k: [] for k in strata_keys}
    for record in records:
        key = record["params"].get("stratum", UNIFORM)
        by_stratum.setdefault(key, []).append(record)

    strata = {
        key: _stratum_block(
            recs, confidence, method, min_per_stratum, budget,
            target_half_width, early_stop,
        )
        for key, recs in sorted(by_stratum.items())
    }
    overall = _stratum_block(
        records, confidence, method, min_per_stratum, budget,
        target_half_width, early_stop,
    )
    overall.pop("stopped_early", None)

    # How the uniform estimator's draws actually landed across strata.
    sampled_strata: Dict[str, int] = {}
    for record in records:
        index = int(record["metrics"].get("stratum_index", -1))
        if 0 <= index < len(STRATUM_KEYS):
            key = STRATUM_KEYS[index]
            sampled_strata[key] = sampled_strata.get(key, 0) + 1

    n = len(records)
    fatal = sum(_outcome_count(records, o) for o in FATAL_OUTCOMES)
    component_mttf = weibull.scale * math.gamma(1.0 + 1.0 / weibull.shape)
    if n:
        _, fatal_upper = clopper_pearson_interval(fatal, n, confidence)
    else:
        fatal_upper = 1.0
    # Conservative: if at most fatal_upper of raw component faults end
    # the mission, missions survive at least 1/fatal_upper faults, each
    # arriving at the component MTTF's pace.  Clopper-Pearson keeps the
    # bound finite even at zero observed fatal outcomes.
    effective_mttf_lower = component_mttf / max(fatal_upper, 1e-9)

    per_stratum_n = {key: block["n"] for key, block in strata.items()}
    executed = sum(per_stratum_n.values())
    # The fixed-size comparator spends the full budget in every stratum
    # (exactly what the builtin ``faultspace`` campaign runs).
    fixed_equivalent = len(per_stratum_n) * budget

    return {
        "campaign": spec.name,
        "spec_hash": spec.spec_hash(),
        "campaign_seed": spec.campaign_seed,
        "system": spec.base.get("system", "resilient"),
        "protocol": spec.base.get("protocol", "minbft"),
        "f": spec.base.get("f", 1),
        "n_trials": n,
        "classified_total": sum(_outcome_count(records, o) for o in OUTCOMES),
        "injected_total": overall["injected_total"],
        "overall": overall,
        "strata": strata,
        "sampled_strata": dict(sorted(sampled_strata.items())),
        "dependability": {
            "availability": overall["availability"],
            "weibull_scale": _r(weibull.scale),
            "weibull_shape": _r(weibull.shape),
            "component_mttf": _r(component_mttf),
            "fatal_count": fatal,
            "fatal_proportion_upper": _r(fatal_upper),
            "effective_mttf_lower": _r(effective_mttf_lower),
        },
        "early_stopping": {
            "enabled": early_stop,
            "method": method,
            "confidence": _r(confidence),
            "target_half_width": _r(target_half_width),
            "min_per_stratum": min_per_stratum,
            "max_per_stratum": budget,
            "trials_executed": executed,
            "fixed_size_equivalent": fixed_equivalent,
            "savings_fraction": _r(1.0 - executed / fixed_equivalent)
            if fixed_equivalent
            else 0.0,
        },
    }


def render_report(summary: Dict[str, Any]) -> str:
    """Fixed-width text report of a C3 summary."""
    table = Table(
        "C3",
        [
            "stratum", "n", "masked", "detected", "unavail", "sdc",
            "avail", "half_width", "stopped_early",
        ],
        title=f"fault-space campaign {summary['campaign']!r} "
        f"({summary['system']}/{summary['protocol']} f={summary['f']})",
    )
    for key, block in summary["strata"].items():
        outcomes = block["outcomes"]
        table.add_row(
            [
                key,
                block["n"],
                outcomes["masked"]["proportion"],
                outcomes["detected_recovered"]["proportion"],
                outcomes["unavailable"]["proportion"],
                outcomes["sdc"]["proportion"],
                block["availability"],
                block["half_width"],
                block["stopped_early"],
            ]
        )
    dep = summary["dependability"]
    stop = summary["early_stopping"]
    lines = [
        table.render(),
        "",
        f"trials: {summary['n_trials']} "
        f"(injected {summary['injected_total']}, "
        f"classified {summary['classified_total']})",
        f"availability: {dep['availability']:.4f}",
        f"component MTTF: {dep['component_mttf']:.0f} "
        f"(Weibull scale={dep['weibull_scale']:.0f} shape={dep['weibull_shape']})",
        f"fatal proportion <= {dep['fatal_proportion_upper']:.4f} "
        f"({dep['fatal_count']} observed) => effective MTTF >= "
        f"{dep['effective_mttf_lower']:.0f}",
        f"early stopping: {'on' if stop['enabled'] else 'off'} "
        f"({stop['method']}, target hw {stop['target_half_width']}, "
        f"{stop['trials_executed']} trials vs "
        f"{stop['fixed_size_equivalent']} fixed-size)",
    ]
    return "\n".join(lines) + "\n"


def write_outputs(store: ResultStore, summary: Dict[str, Any]) -> None:
    """Persist ``summary.json`` (byte-stable) and ``report.txt``."""
    store.summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    store.report_path.write_text(render_report(summary), encoding="utf-8")
