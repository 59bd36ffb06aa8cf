"""P5 — perf: evolutionary search reaches the Pareto front >=2x cheaper
than sweeps.

The resilience configuration space (protocol x f x batching x window x
shards x mesh x rejuvenation x leases, ~20k points, see
``repro.evolve.genome``) is far beyond what grid sweeps can evaluate
when every point is a full discrete-event simulation.  ``repro.evolve``
searches it with an NSGA-II generation loop over the campaign engine:
memoized trials, common-random-number seeding, CI-bounded early kills
of dominated strata, and a byte-stable resumable archive.

This bench races that driver against an honest sweep stand-in: a
*stratified*-random campaign (protocol strata covered round-robin,
strictly stronger than uniform sampling) given the same per-trial
machinery and the same total budget.  Both arms share one campaign
seed, so every number here is a pure function of the code.

Measurement:

* reference hypervolume = the baseline's final archive hypervolume
  (normalized objective space, fixed reference point) after its full
  budget of executed trials;
* the evolutionary arm's trial count at the first generation whose
  archive hypervolume reaches that reference.

Shape assertions:
* the evolutionary arm reaches the reference hypervolume with at most
  HALF the baseline's executed trials (the >=2x gate);
* it does so with no worse wall time than the baseline arm;
* its final front strictly beats the baseline's final hypervolume;
* a same-seed fresh re-run reproduces ``pareto.json`` byte-for-byte.

Standalone (CI smoke): ``python benchmarks/bench_p5_evolve.py --smoke``
runs the same race on the fast analytic ``evolve_selftest`` landscape.
"""

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once  # noqa: E402  (also sets REPRO_TABLE_LOG)

from repro.evolve import EvolutionaryCampaign, EvolveConfig  # noqa: E402
from repro.metrics import Table  # noqa: E402

POPULATION = 8
GENERATIONS = 5
SEEDS_PER_EVAL = 2
EFFICIENCY_GATE = 2.0
# Full mode: the honest simulator-backed runner.  The horizon is the
# shortest that keeps the throughput/latency ordering stable.
FULL = dict(
    runner="evolve",
    campaign_seed=5,
    base={
        "duration": 60_000.0,
        "warmup": 20_000.0,
        "n_clients": 1000,
        "rate_per_client": 2e-4,
    },
)
# Smoke mode: the analytic selftest landscape (sub-second trials).
SMOKE = dict(runner="evolve_selftest", campaign_seed=13, generations=4)


def arm_config(name, strategy, mode):
    settings = dict(
        population=POPULATION,
        generations=GENERATIONS,
        seeds_per_eval=SEEDS_PER_EVAL,
        runner=mode["runner"],
        campaign_seed=mode["campaign_seed"],
        base=mode.get("base", {}),
    )
    settings["generations"] = mode.get("generations", GENERATIONS)
    # The baseline is a sweep: it always runs its full seed budget.  The
    # evolutionary arm races seeds (CI-bounded early kills) from one.
    min_seeds = SEEDS_PER_EVAL if strategy == "stratified" else 1
    return EvolveConfig(
        name=name, strategy=strategy, min_seeds=min_seeds, **settings
    )


def run_arm(root, name, strategy, mode):
    config = arm_config(name, strategy, mode)
    started = time.perf_counter()
    summary = EvolutionaryCampaign(config, root).run()
    summary["wall_s"] = time.perf_counter() - started
    return summary


def experiment(smoke=False):
    mode = SMOKE if smoke else FULL
    root = tempfile.mkdtemp(prefix="bench_p5_")
    baseline = run_arm(root, "base", "stratified", mode)
    evolved = run_arm(root, "evo", "nsga2", mode)
    # Byte-stability: the same seed in a fresh directory must reproduce
    # the front report exactly.
    repeat = run_arm(root + "_repeat", "evo", "nsga2", mode)
    first = os.path.join(root, "evo", "pareto.json")
    second = os.path.join(root + "_repeat", "evo", "pareto.json")
    with open(first, "rb") as fh:
        pareto_bytes = fh.read()
    with open(second, "rb") as fh:
        identical = fh.read() == pareto_bytes

    reference_hv = baseline["hypervolume"]
    trials_to_reference = next(
        (
            h["cumulative_trials"]
            for h in evolved["history"]
            if h["hypervolume"] >= reference_hv
        ),
        None,
    )
    results = {
        "reference_hv": reference_hv,
        "baseline_trials": baseline["trials_executed"],
        "baseline_hv": baseline["hypervolume"],
        "baseline_wall_s": baseline["wall_s"],
        "evolve_hv": evolved["hypervolume"],
        "evolve_wall_s": evolved["wall_s"],
        "evolve_cache_hits": evolved["cache_hits"],
        "trials_to_reference": trials_to_reference,
        "efficiency": (
            baseline["trials_executed"] / trials_to_reference
            if trials_to_reference
            else 0.0
        ),
        "front_size": len(evolved["front"]),
        "repeat_identical": identical,
        "efficiency_gate": EFFICIENCY_GATE,
    }

    table = Table(
        "P5",
        ["arm", "trials", "wall s", "final hv", "hv trajectory"],
        title=(
            f"NSGA-II vs stratified sweep on the {mode['runner']} landscape, "
            f"pop {POPULATION}, seed {mode['campaign_seed']}"
        ),
    )
    for label, summary in (("stratified", baseline), ("nsga2", evolved)):
        table.add_row([
            label,
            summary["trials_executed"],
            round(summary["wall_s"], 1),
            round(summary["hypervolume"], 4),
            " ".join(
                f"{h['hypervolume']:.3f}" for h in summary["history"]
            ),
        ])
    table.print()
    gate = Table(
        "P5-gate",
        ["reference hv", "evo trials to ref", "baseline trials",
         "efficiency", "early kills", "repeat identical"],
        title="Cost to reach the sweep's final Pareto hypervolume",
    )
    gate.add_row([
        round(reference_hv, 4),
        trials_to_reference if trials_to_reference else "never",
        baseline["trials_executed"],
        f"{results['efficiency']:.2f}x",
        evolved["early_killed"],
        "yes" if identical else "NO",
    ])
    gate.print()
    return results


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    assert results["reference_hv"] > 0.0, "baseline found no feasible front"
    assert results["trials_to_reference"], (
        "evolutionary search never reached the sweep's final hypervolume"
    )
    # The P5 gate: reach the sweep's front for at most half its trials.
    assert results["efficiency"] >= results["efficiency_gate"], (
        f"evolutionary search needed {results['trials_to_reference']} trials "
        f"to reach hv {results['reference_hv']:.4f} — only "
        f"{results['efficiency']:.2f}x cheaper than the "
        f"{results['baseline_trials']}-trial sweep (gate "
        f"{results['efficiency_gate']}x)"
    )
    # No worse wall time for the whole campaign, on top of fewer trials.
    # Only meaningful when trial cost dominates: on the analytic smoke
    # landscape both arms finish in tens of milliseconds and the ratio
    # is scheduler noise, not a property of the search.
    if results["baseline_wall_s"] >= 1.0:
        assert results["evolve_wall_s"] <= results["baseline_wall_s"] * 1.05, (
            f"evolutionary arm took {results['evolve_wall_s']:.1f}s vs "
            f"baseline {results['baseline_wall_s']:.1f}s"
        )
    # And it does not trade the front away: same budget, strictly more
    # hypervolume than the sweep ends with.
    assert results["evolve_hv"] > results["baseline_hv"], (
        f"final hv {results['evolve_hv']:.4f} does not beat the sweep's "
        f"{results['baseline_hv']:.4f}"
    )
    assert results["front_size"] > 0
    assert results["repeat_identical"], (
        "same-seed re-run did not reproduce pareto.json byte-for-byte"
    )


def test_p5_evolve(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    print(
        "P5 "
        + ("smoke " if smoke else "")
        + f"OK: reference hv {outcome['reference_hv']:.4f} reached in "
        + f"{outcome['trials_to_reference']} of {outcome['baseline_trials']} "
        + f"trials ({outcome['efficiency']:.2f}x cheaper), final hv "
        + f"{outcome['evolve_hv']:.4f}, byte-identical repeat"
    )
