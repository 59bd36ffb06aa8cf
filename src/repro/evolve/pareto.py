"""Byte-stable Pareto front reporting and operating-point selection.

The evolutionary campaign's decision-support output: ``pareto.json`` (the
machine-readable summary, canonical JSON, no wall-clock numbers — two
runs with the same seed produce byte-identical files) and ``front.txt``
(a human-readable front table plus the recommended operating points).

Recommended points are the corners a system architect actually asks
for: the fastest configuration, the lowest-tail-latency one, the
cheapest one, the most intrusion-resilient one, and a "balanced" knee —
the front member closest (in normalized objective space) to the ideal
corner.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.evolve.fitness import OBJECTIVES, REFERENCE_POINT, SCALES, Fitness, non_dominated_sort
from repro.evolve.genome import GENE_NAMES, Genome, genome_key, space_size
from repro.metrics.stats import hypervolume

PARETO_FILE = "pareto.json"
FRONT_FILE = "front.txt"


def _front_entries(
    archive: Dict[str, Tuple[Genome, Fitness]]
) -> Tuple[List[Dict[str, Any]], float]:
    """Pareto-front members of the archive (sorted) and their hypervolume."""
    keys = sorted(archive)
    vectors = [archive[k][1].vector for k in keys]
    front_idx = non_dominated_sort(vectors)[0]
    hv = hypervolume([vectors[i] for i in front_idx], REFERENCE_POINT)
    entries = []
    for i in front_idx:
        genome, fit = archive[keys[i]]
        entries.append(
            {
                "genome": {name: genome[name] for name in GENE_NAMES},
                "n_seeds": fit.n_seeds,
                "feasible": fit.feasible,
                "objectives": {
                    name: fit.raw[name] for name, _, _ in OBJECTIVES
                },
                "normalized": list(fit.vector),
                "ci_half_width": list(fit.half_width),
            }
        )
    # Present fastest-first; genome key breaks exact throughput ties so
    # the ordering (and therefore the file bytes) is total.
    entries.sort(
        key=lambda e: (
            -e["objectives"]["ops_per_sec"],
            genome_key(e["genome"]),
        )
    )
    return entries, hv


def _distance_to_ideal(entry: Dict[str, Any]) -> float:
    return sum(v * v for v in entry["normalized"]) ** 0.5


def _recommend(entries: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Named operating points off the front (empty front -> empty dict)."""
    if not entries:
        return {}
    feasible = [e for e in entries if e["feasible"]] or entries

    def pick(score: Any) -> Dict[str, Any]:
        best = min(feasible, key=lambda e: (score(e), genome_key(e["genome"])))
        return {"genome": best["genome"], "objectives": best["objectives"]}

    return {
        "max_throughput": pick(lambda e: -e["objectives"]["ops_per_sec"]),
        "min_p99": pick(lambda e: e["objectives"]["p99_latency_ms"]),
        "min_cost": pick(lambda e: e["objectives"]["gate_mge"]),
        "max_resilience": pick(
            lambda e: (
                -e["objectives"]["survivable_faults"],
                -e["objectives"]["ops_per_sec"],
            )
        ),
        "balanced": pick(_distance_to_ideal),
    }


def build_summary(
    config: Any,
    history: List[Dict[str, Any]],
    archive: Dict[str, Tuple[Genome, Fitness]],
) -> Dict[str, Any]:
    """The byte-stable campaign summary (the ``pareto.json`` payload)."""
    entries, hv = _front_entries(archive)
    return {
        "campaign": config.name,
        "strategy": config.strategy,
        "runner": config.runner,
        "campaign_seed": config.campaign_seed,
        "population": config.population,
        "generations": config.generations,
        "seeds_per_eval": config.seeds_per_eval,
        "min_seeds": config.min_seeds,
        "space_size": space_size(),
        "objectives": [
            {"name": name, "metric": key, "sense": sense, "scale": SCALES[name]}
            for name, key, sense in OBJECTIVES
        ],
        "reference_point": list(REFERENCE_POINT),
        "evaluated_genomes": len(archive),
        "trials_executed": sum(h["trials_executed"] for h in history),
        "cache_hits": sum(h["cache_hits"] for h in history),
        "early_killed": sum(h["early_killed"] for h in history),
        "history": history,
        "hypervolume": hv,
        "front": entries,
        "recommended": _recommend(entries),
    }


def render_front(summary: Dict[str, Any]) -> str:
    """The human-readable ``front.txt``: front table + recommendations."""
    lines = [
        f"Pareto front — campaign {summary['campaign']!r} "
        f"({summary['strategy']}, seed {summary['campaign_seed']})",
        f"{summary['evaluated_genomes']} genomes evaluated of "
        f"{summary['space_size']} in the space; "
        f"{summary['trials_executed']} trials executed, "
        f"{summary['cache_hits']} served from cache, "
        f"{summary['early_killed']} early-killed",
        f"front size {len(summary['front'])}, "
        f"hypervolume {summary['hypervolume']:.4f}",
        "",
    ]
    header = (
        f"{'ops/s':>9} {'p99 ms':>9} {'surv f':>6} {'MGE':>7}  "
        + " ".join(f"{name:>12}" for name in GENE_NAMES)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in summary["front"]:
        obj = entry["objectives"]
        genome = entry["genome"]
        lines.append(
            f"{obj['ops_per_sec']:>9.1f} {obj['p99_latency_ms']:>9.1f} "
            f"{obj['survivable_faults']:>6.0f} {obj['gate_mge']:>7.2f}  "
            + " ".join(f"{str(genome[name]):>12}" for name in GENE_NAMES)
        )
    lines.append("")
    lines.append("Recommended operating points:")
    for label in sorted(summary["recommended"]):
        rec = summary["recommended"][label]
        obj = rec["objectives"]
        genome = rec["genome"]
        knobs = ", ".join(f"{name}={genome[name]}" for name in GENE_NAMES)
        lines.append(
            f"  {label:<16} {obj['ops_per_sec']:>8.1f} ops/s, "
            f"p99 {obj['p99_latency_ms']:>7.1f} ms, "
            f"survives {obj['survivable_faults']:.0f}, "
            f"{obj['gate_mge']:.2f} MGE  [{knobs}]"
        )
    lines.append("")
    return "\n".join(lines)


def write_outputs(directory: Path, summary: Dict[str, Any]) -> Tuple[Path, Path]:
    """Write ``pareto.json`` + ``front.txt``; returns both paths."""
    directory = Path(directory)
    pareto_path = directory / PARETO_FILE
    front_path = directory / FRONT_FILE
    pareto_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    front_path.write_text(render_front(summary), encoding="utf-8")
    return pareto_path, front_path
