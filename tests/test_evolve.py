"""Tests for repro.evolve: operators, fitness, NSGA-II machinery, and
the resumable generation driver (byte-stable artifacts, CRN seeding,
early kills, and the stratified baseline)."""

import json

import pytest

from repro.evolve import (
    CRN_NAMESPACE,
    EvolutionaryCampaign,
    EvolveConfig,
    Fitness,
    GENE_NAMES,
    GENE_SPACE,
    OBJECTIVES,
)
from repro.evolve.fitness import (
    PENALTY_VECTOR,
    aggregate_fitness,
    ci_dominated,
    crowding_distance,
    non_dominated_sort,
    normalize_metrics,
    rank_population,
)
from repro.evolve.genome import (
    crossover,
    genome_key,
    mutate,
    random_genome,
    space_size,
    stratified_genome,
    validate_genome,
)
from repro.metrics.stats import dominates
from repro.sim.rng import RngStream


def stream(seed=1):
    return RngStream(seed, "test.evolve")


# ----------------------------------------------------------------------
# Genome operators
# ----------------------------------------------------------------------

def test_space_size_is_product_of_gene_cardinalities():
    expected = 1
    for _, values in GENE_SPACE.values():
        expected *= len(values)
    assert space_size() == expected
    assert space_size() > 10_000  # sweep-hostile by construction


def test_random_genome_is_valid_and_seed_deterministic():
    a = random_genome(stream(7))
    b = random_genome(stream(7))
    assert a == b
    validate_genome(a)


def test_mutate_rate_zero_is_identity():
    genome = random_genome(stream(3))
    assert mutate(genome, stream(4), 0.0) == genome


def test_mutate_rate_one_changes_every_gene_to_valid_neighbor():
    genome = random_genome(stream(5))
    child = mutate(genome, stream(6), 1.0)
    validate_genome(child)
    for name in GENE_NAMES:
        kind, values = GENE_SPACE[name]
        assert child[name] != genome[name]
        if kind == "ordinal":
            # Ordinal mutation steps exactly one rung.
            assert abs(values.index(child[name]) - values.index(genome[name])) == 1


def test_crossover_takes_every_gene_from_a_parent():
    rng = stream(8)
    a, b = random_genome(rng), random_genome(rng)
    child = crossover(a, b, stream(9))
    validate_genome(child)
    for name in GENE_NAMES:
        assert child[name] in (a[name], b[name])


def test_genome_key_is_order_independent():
    genome = random_genome(stream(10))
    shuffled = {k: genome[k] for k in reversed(GENE_NAMES)}
    assert genome_key(genome) == genome_key(shuffled)


def test_validate_genome_rejects_bad_values():
    genome = random_genome(stream(11))
    genome["protocol"] = "raft"
    with pytest.raises(ValueError):
        validate_genome(genome)
    genome = random_genome(stream(11))
    del genome["f"]
    with pytest.raises(ValueError):
        validate_genome(genome)


def test_stratified_genome_round_robins_protocols():
    protocols = [
        stratified_genome(stream(12), i)["protocol"] for i in range(4)
    ]
    assert sorted(protocols) == sorted(GENE_SPACE["protocol"][1])


# ----------------------------------------------------------------------
# Fitness and NSGA-II machinery
# ----------------------------------------------------------------------

def good_metrics(**over):
    metrics = {
        "ops_per_sec": 30.0,
        "p99_latency_ms": 2_000.0,
        "survivable_faults": 4,
        "gate_mge": 10.0,
        "safe": 1,
        "feasible": 1,
    }
    metrics.update(over)
    return metrics


def test_normalize_metrics_maps_better_to_lower():
    fast = normalize_metrics(good_metrics(ops_per_sec=50.0))
    slow = normalize_metrics(good_metrics(ops_per_sec=10.0))
    assert fast[0] < slow[0]
    low_tail = normalize_metrics(good_metrics(p99_latency_ms=500.0))
    assert low_tail[1] < normalize_metrics(good_metrics())[1]


def test_normalize_metrics_clips_to_unit_box():
    extreme = normalize_metrics(
        good_metrics(ops_per_sec=1e9, p99_latency_ms=1e9, gate_mge=1e9)
    )
    assert all(0.0 <= v <= 1.0 for v in extreme)


def test_unsafe_or_infeasible_collapses_to_penalty():
    assert normalize_metrics(good_metrics(safe=0)) == PENALTY_VECTOR
    assert normalize_metrics(good_metrics(feasible=0)) == PENALTY_VECTOR


def test_aggregate_fitness_means_and_ci():
    fit = aggregate_fitness(
        [good_metrics(ops_per_sec=20.0), good_metrics(ops_per_sec=40.0)]
    )
    assert fit.n_seeds == 2
    assert fit.feasible
    assert fit.raw["ops_per_sec"] == pytest.approx(30.0)
    assert fit.half_width[0] > 0.0  # throughput varied across seeds
    assert fit.half_width[3] == 0.0  # cost did not
    assert fit.optimistic()[0] < fit.vector[0] < fit.pessimistic()[0]


def test_aggregate_fitness_empty_is_penalty():
    fit = aggregate_fitness([])
    assert fit.vector == PENALTY_VECTOR
    assert not fit.feasible
    assert fit.n_seeds == 0


def test_ci_dominated_kills_only_clear_losers():
    strong = Fitness(vector=(0.1, 0.1, 0.1, 0.1), half_width=(0.0,) * 4)
    weak = Fitness(vector=(0.5, 0.5, 0.5, 0.5), half_width=(0.05,) * 4)
    uncertain = Fitness(vector=(0.5, 0.5, 0.5, 0.5), half_width=(0.45,) * 4)
    pool = [strong, weak, uncertain]
    assert ci_dominated(weak, pool)
    # The wide CI genome's best case beats the strong one's worst case.
    assert not ci_dominated(uncertain, pool)
    assert not ci_dominated(strong, pool)


def test_non_dominated_sort_hand_checked():
    vectors = [
        (1.0, 4.0),  # front 0
        (2.0, 2.0),  # front 0
        (4.0, 1.0),  # front 0
        (2.0, 5.0),  # dominated by (1,4) -> front 1
        (3.0, 3.0),  # dominated by (2,2) -> front 1
        (5.0, 5.0),  # dominated by lots -> front 2
    ]
    fronts = non_dominated_sort(vectors)
    assert fronts[0] == [0, 1, 2]
    assert fronts[1] == [3, 4]
    assert fronts[2] == [5]


def test_front_zero_keeps_trade_offs_and_duplicates():
    # The Pareto front: dominance is strict, so an exact copy of a front
    # point is on the front too, and input order is kept.
    points = [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
    assert non_dominated_sort(points)[0] == [0, 1, 3]


def test_front_zero_trivial_cases():
    assert non_dominated_sort([])[0] == []
    assert non_dominated_sort([(3.0, 4.0)])[0] == [0]


def test_crowding_distance_boundaries_are_infinite():
    vectors = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
    crowd = crowding_distance(vectors, [0, 1, 2])
    assert crowd[0] == float("inf")
    assert crowd[2] == float("inf")
    # Three points: the middle one straddles both objectives fully.
    assert crowd[1] == pytest.approx(2.0)


def test_rank_population_assigns_rank_and_crowding():
    vectors = [(1.0, 4.0), (2.0, 2.0), (2.0, 5.0)]
    ranked = rank_population(vectors)
    assert [r.rank for r in ranked] == [0, 0, 1]
    assert ranked[2].index == 2


# ----------------------------------------------------------------------
# The selftest runner's landscape
# ----------------------------------------------------------------------

def test_evolve_selftest_reports_all_objective_metrics():
    from repro.campaign.runners import get_runner

    genome = random_genome(stream(20))
    metrics = get_runner("evolve_selftest")(dict(genome), seed=5)
    for _, key, _ in OBJECTIVES:
        assert key in metrics
    assert metrics["feasible"] == 1
    # Deterministic per (params, seed) — the memoization contract.
    assert metrics == get_runner("evolve_selftest")(dict(genome), seed=5)


def test_evolve_selftest_flags_overpacked_mesh_infeasible():
    from repro.campaign.runners import get_runner

    genome = random_genome(stream(21))
    genome.update(protocol="pbft", f=2, n_shards=8, mesh=6)  # 56 > 36 tiles
    metrics = get_runner("evolve_selftest")(dict(genome), seed=5)
    assert metrics["feasible"] == 0
    assert normalize_metrics(metrics) == PENALTY_VECTOR


def test_evolve_selftest_crash_only_scores_zero_survivable():
    from repro.campaign.runners import get_runner

    genome = random_genome(stream(22))
    genome.update(protocol="cft", n_shards=4, f=2, mesh=10)
    assert get_runner("evolve_selftest")(dict(genome), seed=1)[
        "survivable_faults"
    ] == 0
    genome.update(protocol="minbft")
    assert get_runner("evolve_selftest")(dict(genome), seed=1)[
        "survivable_faults"
    ] == 8


def test_evolve_selftest_sizes_groups_as_the_protocol_families_do():
    from repro.bft.group import FAMILIES
    from repro.campaign.runners import get_runner

    genome = random_genome(stream(23))
    for protocol, family in FAMILIES.items():
        for f in (1, 2):
            genome.update(protocol=protocol, f=f)
            metrics = get_runner("evolve_selftest")(dict(genome), seed=1)
            expected = genome["n_shards"] * family.replicas_for(f)
            assert metrics["replicas"] == expected, (protocol, f)


# ----------------------------------------------------------------------
# The generation driver
# ----------------------------------------------------------------------

def small_config(**over):
    defaults = dict(
        name="evo-test",
        runner="evolve_selftest",
        population=6,
        generations=3,
        seeds_per_eval=2,
        min_seeds=1,
        campaign_seed=7,
    )
    defaults.update(over)
    return EvolveConfig(**defaults)


def test_generation_spec_shares_crn_seeds_across_genomes(tmp_path):
    campaign = EvolutionaryCampaign(small_config(), tmp_path)
    rng = stream(30)
    genomes = [random_genome(rng) for _ in range(3)]
    spec = campaign._generation_spec(0, genomes)
    assert spec.seed_namespace == CRN_NAMESPACE
    trials = spec.trials()
    by_seed_index = {}
    for trial in trials:
        by_seed_index.setdefault(trial.seed_index, set()).add(trial.seed)
    # Every genome runs under the same simulator seed per repetition...
    assert all(len(seeds) == 1 for seeds in by_seed_index.values())
    # ...and repetitions stay mutually independent.
    assert len({next(iter(s)) for s in by_seed_index.values()}) == 2


def test_same_seed_campaign_is_byte_identical(tmp_path):
    cfg = small_config()
    first = EvolutionaryCampaign(cfg, tmp_path / "a").run()
    second = EvolutionaryCampaign(cfg, tmp_path / "b").run()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    pareto_a = (tmp_path / "a" / cfg.name / "pareto.json").read_bytes()
    pareto_b = (tmp_path / "b" / cfg.name / "pareto.json").read_bytes()
    assert pareto_a == pareto_b


def test_resume_replays_for_free_and_reproduces_artifacts(tmp_path):
    cfg = small_config()
    first = EvolutionaryCampaign(cfg, tmp_path).run()
    results_before = {
        p: p.read_bytes()
        for p in (tmp_path / cfg.name).glob("g*/results.jsonl")
    }
    assert results_before
    resumed = EvolutionaryCampaign(cfg, tmp_path).run()
    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        first, sort_keys=True
    )
    # No trial re-executed: the stores did not grow by a single byte.
    for path, content in results_before.items():
        assert path.read_bytes() == content


@pytest.mark.parametrize(
    "campaign_seed,population,seeds_per_eval",
    [(1, 8, 2), (2, 6, 3), (3, 6, 3), (7, 8, 3)],
)
def test_resume_is_byte_identical_under_early_kill_racing(
    tmp_path, campaign_seed, population, seeds_per_eval
):
    """Resume with racing active (min_seeds < seeds_per_eval) must not
    change the kill set: on resume the memo already holds stage-2 seeds,
    and if they leaked into stage-1 fitness the trajectory would diverge
    (or crash on a spec mismatch against the existing generation dirs)."""
    cfg = small_config(
        campaign_seed=campaign_seed,
        population=population,
        seeds_per_eval=seeds_per_eval,
        min_seeds=1,
    )
    first = EvolutionaryCampaign(cfg, tmp_path).run()
    results_before = {
        p: p.read_bytes()
        for p in (tmp_path / cfg.name).glob("g*/results.jsonl")
    }
    assert results_before
    resumed = EvolutionaryCampaign(cfg, tmp_path).run()
    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        first, sort_keys=True
    )
    # Same kill set, same stage-2 trials: the stores did not grow.
    for path, content in results_before.items():
        assert path.read_bytes() == content


def test_changed_seed_changes_the_trajectory(tmp_path):
    base = EvolutionaryCampaign(small_config(), tmp_path / "a").run()
    other = EvolutionaryCampaign(
        small_config(campaign_seed=8), tmp_path / "b"
    ).run()
    assert json.dumps(base, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_early_kill_saves_trials_and_stays_deterministic(tmp_path):
    racing = EvolutionaryCampaign(
        small_config(min_seeds=1, seeds_per_eval=3), tmp_path / "race"
    ).run()
    full = EvolutionaryCampaign(
        small_config(min_seeds=3, seeds_per_eval=3), tmp_path / "full"
    ).run()
    assert racing["early_killed"] > 0
    assert full["early_killed"] == 0
    assert racing["trials_executed"] < full["trials_executed"]


def test_front_is_mutually_non_dominated_and_recommended_on_front(tmp_path):
    summary = EvolutionaryCampaign(small_config(), tmp_path).run()
    front = summary["front"]
    assert front
    vectors = [tuple(e["normalized"]) for e in front]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                assert not dominates(a, b)
    front_keys = {genome_key(e["genome"]) for e in front}
    for rec in summary["recommended"].values():
        assert genome_key(rec["genome"]) in front_keys


def test_hypervolume_never_decreases_across_generations(tmp_path):
    summary = EvolutionaryCampaign(small_config(generations=4), tmp_path).run()
    hv = [h["hypervolume"] for h in summary["history"]]
    assert hv == sorted(hv)
    assert hv[-1] > 0.0


def test_stratified_strategy_covers_all_protocols_per_generation(tmp_path):
    cfg = small_config(strategy="stratified", population=8, generations=1)
    campaign = EvolutionaryCampaign(cfg, tmp_path)
    campaign.run()
    protocols = {
        genome["protocol"] for genome, _ in campaign.archive.values()
    }
    assert protocols == set(GENE_SPACE["protocol"][1])


def test_nsga2_beats_stratified_on_equal_budget(tmp_path):
    evo = EvolutionaryCampaign(
        small_config(population=8, generations=4), tmp_path / "evo"
    ).run()
    base = EvolutionaryCampaign(
        small_config(
            strategy="stratified", population=8, generations=4, min_seeds=2
        ),
        tmp_path / "base",
    ).run()
    assert evo["hypervolume"] > base["hypervolume"]


def test_generations_are_unique_within_and_spec_axes_zip(tmp_path):
    cfg = small_config()
    campaign = EvolutionaryCampaign(cfg, tmp_path)
    campaign.run()
    for g in range(cfg.generations):
        spec_file = tmp_path / cfg.name / f"g{g:03d}" / "spec.json"
        data = json.loads(spec_file.read_text())
        assert data["mode"] == "zip"
        assert data["seed_namespace"] == CRN_NAMESPACE
        positions = list(
            zip(*(data["axes"][gene] for gene in sorted(data["axes"])))
        )
        assert len(set(positions)) == len(positions)  # no duplicate genomes


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(strategy="hillclimb")
    with pytest.raises(ValueError):
        EvolveConfig(population=1)
    with pytest.raises(ValueError):
        EvolveConfig(min_seeds=3, seeds_per_eval=2)


def test_render_front_mentions_genes_and_recommendations(tmp_path):
    from repro.evolve import render_front

    summary = EvolutionaryCampaign(small_config(), tmp_path).run()
    text = render_front(summary)
    assert "Pareto front" in text
    assert "Recommended operating points" in text
    for name in GENE_NAMES:
        assert name in text
