"""The NSGA-II generation loop as a resumable campaign driver.

Each generation is one **zip-mode** :class:`~repro.campaign.spec.CampaignSpec`
— every gene an axis, every position one individual — stored in its own
``g000``, ``g001``, … directory under the campaign root.  Because the
next generation's genomes are a pure function of the campaign seed and
the recorded fitness of earlier generations (genetic operators draw
from :func:`repro.sim.rng.derive_generation_seed`), a killed campaign
resumes exactly: re-running replays completed generations from their
stores at zero trial cost and picks up where the interruption hit.

Why this converges cheaper than sweeps, mechanically:

* **Common random numbers** — every generation spec carries
  ``seed_namespace="evolve-crn"``, so seed repetition *k* of *every*
  genome runs under the same simulator seed.  Cross-genome comparisons
  are paired (variance-reduced), and a re-visited genome has an
  identical ``(runner, params, seed)`` trial key…
* **…which the shared trial memo turns into zero-cost evaluations** —
  one cache dict is threaded through every generation's executor, so
  elitist re-selection and converging populations stop costing trials.
* **CI-bound early kill** — each generation first runs ``min_seeds``
  repetitions of every individual, then spends the remaining repetitions
  only on individuals whose confidence box is not already strictly
  dominated (see :func:`repro.evolve.fitness.ci_dominated`) — the
  interval-pruning idea the fault-space driver applies to strata,
  applied to selection.

The ``stratified`` strategy drives the *same* evaluation machinery with
stratified-random batches instead of selection+variation; it is the
baseline the P5 bench charges the ≥2x-cheaper claim against.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.campaign.executor import CampaignExecutor, ProgressFn, TrialKey
from repro.campaign.spec import CampaignSpec, TrialSpec, canonical_json
from repro.campaign.store import ResultStore
from repro.evolve.fitness import (
    Fitness,
    aggregate_fitness,
    ci_dominated,
    rank_population,
)
from repro.evolve.genome import (
    GENE_NAMES,
    Genome,
    crossover,
    genome_key,
    mutate,
    stratified_genome,
)
from repro.evolve.pareto import build_summary, write_outputs
from repro.sim.rng import RngStream, derive_generation_seed

#: The CRN namespace every generation spec carries (see module docstring).
CRN_NAMESPACE = "evolve-crn"


@dataclass
class EvolveConfig:
    """Everything that defines one evolutionary (or baseline) campaign."""

    name: str = "evolve"
    runner: str = "evolve"
    #: ``nsga2`` — selection + variation; ``stratified`` — the
    #: stratified-random baseline batches the bench compares against.
    strategy: str = "nsga2"
    population: int = 12
    generations: int = 6
    #: Seed repetitions per individual (the CRN set shared by all).
    seeds_per_eval: int = 2
    #: Repetitions every individual gets before the CI-bound early kill;
    #: equal to ``seeds_per_eval`` disables racing.
    min_seeds: int = 1
    mutation_rate: float = 0.25
    crossover_rate: float = 0.9
    tournament_k: int = 2
    campaign_seed: int = 0
    workers: int = 1
    trial_timeout: Optional[float] = 600.0
    max_retries: int = 1
    #: Fixed evaluation knobs merged under every trial (duration, warmup,
    #: client load, …) — forwarded as the generation specs' ``base``.
    base: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy not in ("nsga2", "stratified"):
            raise ValueError(
                f"strategy must be 'nsga2' or 'stratified', got {self.strategy!r}"
            )
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 1 <= self.min_seeds <= self.seeds_per_eval:
            raise ValueError("need 1 <= min_seeds <= seeds_per_eval")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")


class EvolutionaryCampaign:
    """Drive one evolutionary design-space exploration to completion."""

    #: Rejection-sampling budget when drawing genomes that must be new.
    MAX_DRAW_ATTEMPTS = 10_000

    def __init__(
        self,
        config: EvolveConfig,
        store_root: Path,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.config = config
        self.directory = Path(store_root) / config.name
        self.progress = progress
        #: Shared trial memo across all generation executors.
        self.cache: Dict[TrialKey, Dict[str, Any]] = {}
        #: Every genome ever evaluated: key -> (genome, Fitness).
        self.archive: Dict[str, Tuple[Genome, Fitness]] = {}
        self.trials_executed = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def run(self, fresh: bool = False) -> Dict[str, Any]:
        """Run (or resume) the campaign; returns the byte-stable summary."""
        if fresh and self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        config = self.config
        parents: List[Tuple[Genome, Fitness]] = []
        history: List[Dict[str, Any]] = []
        for g in range(config.generations):
            if config.strategy == "stratified":
                genomes = self._stratified_batch(g)
            elif g == 0:
                genomes = self._initial_population()
            else:
                genomes = self._offspring(parents, g)
            fits, gen_stats = self._evaluate_generation(g, genomes)
            evaluated = list(zip(genomes, fits))
            if config.strategy == "stratified" or g == 0:
                parents = evaluated
            else:
                parents = self._environmental_selection(parents + evaluated)
            front_size, hv = self._archive_front()
            history.append(
                {
                    "generation": g,
                    "n_genomes": len(genomes),
                    "trials_executed": gen_stats["executed"],
                    "cache_hits": gen_stats["cache_hits"],
                    "trials_failed": gen_stats["failed"],
                    "early_killed": gen_stats["early_killed"],
                    "cumulative_trials": self.trials_executed,
                    "archive_size": len(self.archive),
                    "front_size": front_size,
                    "hypervolume": hv,
                }
            )
            self._emit(
                f"evolve {config.name!r} gen {g}: "
                f"{gen_stats['executed']} trials "
                f"({gen_stats['cache_hits']} cached, "
                f"{gen_stats['early_killed']} early-killed), "
                f"front {front_size}, hv {hv:.4f}"
            )
        summary = build_summary(config, history, self.archive)
        pareto_path, front_path = write_outputs(self.directory, summary)
        self._emit(f"wrote {pareto_path} and {front_path}")
        return summary

    # -- genome proposal -----------------------------------------------
    def _initial_population(self) -> List[Genome]:
        """Generation 0: unique stratified draws over the space.

        The protocol gene — the dominant architectural choice, and the
        axis the survivable-faults objective hinges on — is covered
        round-robin so every family is represented from the start.  A
        purely uniform initial population can miss whole protocol
        families (or, with an unlucky seed, collapse on a single gene
        value), and NSGA-II then has to rediscover those regions by
        mutation drift alone.
        """
        rng = RngStream(
            derive_generation_seed(self.config.campaign_seed, 0), "evolve.ops"
        )
        genomes: List[Genome] = []
        keys: Set[str] = set()
        for i in range(self.config.population):
            genomes.append(
                self._draw_one(lambda: stratified_genome(rng, i), keys)
            )
            keys.add(genome_key(genomes[-1]))
        return genomes

    def _stratified_batch(self, g: int) -> List[Genome]:
        """One baseline batch: protocol strata round-robin, rest uniform."""
        rng = RngStream(
            derive_generation_seed(self.config.campaign_seed, g),
            "evolve.baseline",
        )
        offset = g * self.config.population
        genomes: List[Genome] = []
        keys: Set[str] = set()
        for i in range(self.config.population):
            genomes.append(
                self._draw_one(
                    lambda: stratified_genome(rng, offset + i), keys
                )
            )
            keys.add(genome_key(genomes[-1]))
        return genomes

    def _offspring(
        self, parents: List[Tuple[Genome, Fitness]], g: int
    ) -> List[Genome]:
        """Tournament selection + crossover + mutation, all new genomes.

        Children that land on a parent or a sibling are re-mutated (then
        redrawn): re-evaluating a point already in the selection pool
        wastes a population slot even when the trial memo makes it free.
        """
        config = self.config
        rng = RngStream(
            derive_generation_seed(config.campaign_seed, g), "evolve.ops"
        )
        ranked = rank_population([fit.vector for _, fit in parents])

        def tournament() -> Genome:
            best = ranked[rng.randint(0, len(parents) - 1)]
            for _ in range(config.tournament_k - 1):
                contender = ranked[rng.randint(0, len(parents) - 1)]
                if (contender.rank, -contender.crowding) < (
                    best.rank,
                    -best.crowding,
                ):
                    best = contender
            return parents[best.index][0]

        taken = {genome_key(genome) for genome, _ in parents}

        def draw() -> Genome:
            a, b = tournament(), tournament()
            child = (
                crossover(a, b, rng)
                if rng.bernoulli(config.crossover_rate)
                else dict(a)
            )
            return mutate(child, rng, config.mutation_rate)

        genomes = self._draw_unique(draw, taken)
        # Random immigrants: with four objectives almost every point is
        # mutually non-dominated, so tournament pressure alone explores
        # too slowly and the search can wedge in whatever region the
        # initial population happened to cover.  Reserving a few slots
        # per generation for fresh stratified draws keeps every protocol
        # family under continued consideration at negligible cost (the
        # trial memo makes re-drawn known points free anyway).
        n_immigrants = max(1, config.population // 4)
        keys = set(taken) | {genome_key(genome) for genome in genomes}
        for slot in range(n_immigrants):
            immigrant = self._draw_one(
                lambda: stratified_genome(
                    rng, g * config.population + slot
                ),
                keys,
            )
            keys.add(genome_key(immigrant))
            genomes[len(genomes) - n_immigrants + slot] = immigrant
        return genomes

    def _draw_unique(self, draw: Any, taken: Set[str]) -> List[Genome]:
        """Draw a full population of genomes unique among themselves
        (and outside ``taken``)."""
        taken = set(taken)
        genomes: List[Genome] = []
        while len(genomes) < self.config.population:
            genome = self._draw_one(draw, taken)
            taken.add(genome_key(genome))
            genomes.append(genome)
        return genomes

    def _draw_one(self, draw: Any, taken: Set[str]) -> Genome:
        for _ in range(self.MAX_DRAW_ATTEMPTS):
            genome = draw()
            if genome_key(genome) not in taken:
                return genome
        raise RuntimeError(
            "could not draw a new genome; population too large for the "
            "remaining space?"
        )

    # -- evaluation -----------------------------------------------------
    def _generation_spec(self, g: int, genomes: List[Genome]) -> CampaignSpec:
        """The zip-mode spec of one generation: axes = genes, positions =
        individuals."""
        config = self.config
        return CampaignSpec(
            name=f"g{g:03d}",
            runner=config.runner,
            axes={
                gene: [genome[gene] for genome in genomes]
                for gene in GENE_NAMES
            },
            base=dict(config.base),
            mode="zip",
            n_seeds=config.seeds_per_eval,
            campaign_seed=config.campaign_seed,
            trial_timeout=config.trial_timeout,
            max_retries=config.max_retries,
            description=(
                f"evolve campaign {config.name!r} generation {g} "
                f"({config.strategy})"
            ),
            seed_namespace=CRN_NAMESPACE,
        )

    def _evaluate_generation(
        self, g: int, genomes: List[Genome]
    ) -> Tuple[List[Fitness], Dict[str, int]]:
        """Evaluate one generation through the campaign executor.

        Stage 1 runs the first ``min_seeds`` repetitions of every
        individual; individuals whose CI box is then strictly dominated
        are early-killed and skip the remaining repetitions.
        """
        config = self.config
        spec = self._generation_spec(g, genomes)
        store = ResultStore(self.directory, spec).open()
        # Resume: completed records re-seed the shared memo so replayed
        # generations (and re-visited genomes) cost zero executions.
        for record in store.ok_records():
            key = (spec.runner, canonical_json(record["params"]), record["seed"])
            self.cache.setdefault(key, record["metrics"])
        executor = CampaignExecutor(
            spec,
            store,
            workers=config.workers,
            progress=self.progress,
            cache=self.cache,
        )
        trials = spec.trials()
        by_position: Dict[int, List[TrialSpec]] = {}
        for trial in trials:
            by_position.setdefault(
                trial.index // config.seeds_per_eval, []
            ).append(trial)
        stage1 = {
            t.trial_id
            for t in trials
            if t.seed_index < config.min_seeds
        }
        stats1 = executor.run(select=stage1)
        # The kill decision must be a pure function of stage-1 data.  The
        # shared memo can already hold later repetitions of a genome — a
        # resumed store re-seeds every ok record above, and a genome fully
        # evaluated in an earlier generation keeps all its seeds cached —
        # and letting those leak into stage-1 fitness would make the kill
        # set, and with it the whole trajectory, depend on execution
        # history instead of the campaign seed alone.
        fits = [
            self._fitness_of(
                spec,
                [t for t in by_position[i] if t.seed_index < config.min_seeds],
            )
            for i in range(len(genomes))
        ]
        killed: Set[int] = set()
        if config.min_seeds < config.seeds_per_eval:
            killed = {
                i
                for i, fit in enumerate(fits)
                if ci_dominated(fit, fits)
            }
            stage2 = {
                t.trial_id
                for t in trials
                if t.seed_index >= config.min_seeds
                and (t.index // config.seeds_per_eval) not in killed
            }
            stats2 = executor.run(select=stage2) if stage2 else None
        else:
            stats2 = None
        del stats1, stats2
        # Per-generation accounting comes from the store's append-only
        # records, not the run stats: a resumed campaign (which skips
        # completed trials) then reports exactly the same counts as the
        # run it resumed, keeping pareto.json byte-stable across resume.
        executed = 0
        cache_hits = 0
        failed_ids: Set[str] = set()
        ok_ids: Set[str] = set()
        for record in store.records():
            if record.get("cached"):
                cache_hits += 1
                ok_ids.add(record["trial_id"])
            elif record.get("status") == "ok":
                executed += 1
                ok_ids.add(record["trial_id"])
            else:
                executed += 1
                failed_ids.add(record["trial_id"])
        failed = len(failed_ids - ok_ids)
        store.close()
        self.trials_executed += executed
        self.cache_hits += cache_hits
        # Final fitness over every repetition that actually ran.
        fits = [
            self._fitness_of(spec, by_position[i]) for i in range(len(genomes))
        ]
        for genome, fit in zip(genomes, fits):
            self.archive[genome_key(genome)] = (genome, fit)
        return fits, {
            "executed": executed,
            "cache_hits": cache_hits,
            "failed": failed,
            "early_killed": len(killed),
        }

    def _fitness_of(
        self, spec: CampaignSpec, position_trials: List[TrialSpec]
    ) -> Fitness:
        """Aggregate one individual's fitness from the shared memo."""
        per_seed = []
        for trial in sorted(position_trials, key=lambda t: t.seed_index):
            key = (spec.runner, trial.point_key(), trial.seed)
            metrics = self.cache.get(key)
            if metrics is not None:
                per_seed.append(metrics)
        return aggregate_fitness(per_seed)

    # -- selection ------------------------------------------------------
    def _environmental_selection(
        self, pool: List[Tuple[Genome, Fitness]]
    ) -> List[Tuple[Genome, Fitness]]:
        """Elitist NSGA-II truncation of parents ∪ offspring.

        Deduplicated by genome (parents first, so elitism is stable),
        then filled front by front; the straddling front is trimmed by
        crowding distance with deterministic index tie-breaks.
        """
        from repro.evolve.fitness import crowding_distance, non_dominated_sort

        unique: List[Tuple[Genome, Fitness]] = []
        seen: Set[str] = set()
        for genome, fit in pool:
            key = genome_key(genome)
            if key in seen:
                continue
            seen.add(key)
            unique.append((genome, fit))
        vectors = [fit.vector for _, fit in unique]
        selected: List[int] = []
        for front in non_dominated_sort(vectors):
            if len(selected) + len(front) <= self.config.population:
                selected.extend(front)
                continue
            crowd = crowding_distance(vectors, front)
            remaining = self.config.population - len(selected)
            chosen = sorted(front, key=lambda i: (-crowd[i], i))[:remaining]
            selected.extend(sorted(chosen))
            break
        return [unique[i] for i in selected]

    def _archive_front(self) -> Tuple[int, float]:
        """Size and hypervolume of the archive's current Pareto front."""
        from repro.evolve.fitness import REFERENCE_POINT, non_dominated_sort
        from repro.metrics.stats import hypervolume

        entries = [self.archive[key] for key in sorted(self.archive)]
        vectors = [fit.vector for _, fit in entries]
        front = non_dominated_sort(vectors)[0]
        hv = hypervolume([vectors[i] for i in front], REFERENCE_POINT)
        return len(front), hv

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)
