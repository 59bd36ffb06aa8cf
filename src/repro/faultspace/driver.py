"""CI-driven sequential campaign execution over the fault space.

The driver wraps the generic campaign engine (spec, process-pool
executor, resumable JSONL store) with a *sequential analysis* loop:
trials are released in rounds of ``round_size`` per stratum, and a
stratum **closes** once its masked/SDC confidence interval is narrower
than ``target_half_width`` (after a ``min_per_stratum`` floor so two
lucky draws can't close a stratum) or its ``max_per_stratum`` budget is
exhausted.  Strata that converge fast (e.g. link faults, which the
quorums almost always mask) stop early; only the genuinely noisy strata spend the
full budget — the whole point of sequential over fixed-size sampling.

Determinism: the underlying spec enumerates the *full* budget up front
(`stratum` axis × ``max_per_stratum`` seed repetitions), so trial IDs
and seeds never depend on how many rounds actually ran.  Which trials
execute is a pure function of the recorded outcomes, so a re-run with
the same campaign seed executes the same trials and reproduces
``summary.json`` byte-for-byte; a killed run resumes from the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.campaign.executor import CampaignExecutor, ProgressFn
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import ResultStore
from repro.faultspace.report import build_summary, write_outputs
from repro.faultspace.space import UNIFORM, default_strata
from repro.metrics.stats import BINOMIAL_METHODS, binomial_half_width


@dataclass
class FaultspaceConfig:
    """Everything needed to run one fault-space campaign."""

    name: str = "faultspace"
    system: str = "resilient"  # resilient | sharded
    protocol: str = "minbft"
    f: int = 1
    width: Optional[int] = None  # None: 6 for resilient, 8 for sharded
    height: Optional[int] = None
    n_shards: int = 2
    strata: Optional[List[str]] = None  # None: all valid for the protocol
    include_uniform: bool = False  # add the population-weighted estimator
    # Sequential-analysis knobs.
    max_per_stratum: int = 40
    min_per_stratum: int = 8
    round_size: int = 4
    target_half_width: float = 0.15
    confidence: float = 0.95
    ci_method: str = "wilson"
    early_stop: bool = True
    # Trial workload knobs.
    duration: float = 60_000.0
    warmup: float = 40_000.0
    n_clients: int = 2
    think_time: float = 200.0
    client_timeout: float = 3_000.0
    failover_timeout: float = 8_000.0
    rejuvenation: bool = True
    rejuvenation_period: float = 20_000.0
    # Execution policy.
    campaign_seed: int = 0
    workers: int = 1
    trial_timeout: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if self.system not in ("resilient", "sharded"):
            raise ValueError(f"system must be resilient|sharded, got {self.system!r}")
        if self.max_per_stratum < 1 or self.min_per_stratum < 1:
            raise ValueError("stratum budgets must be >= 1")
        if self.min_per_stratum > self.max_per_stratum:
            raise ValueError("min_per_stratum cannot exceed max_per_stratum")
        if self.round_size < 1:
            raise ValueError("round_size must be >= 1")
        if not 0.0 < self.target_half_width < 1.0:
            raise ValueError("target_half_width must be in (0, 1)")
        if self.ci_method not in BINOMIAL_METHODS:
            raise ValueError(
                f"ci_method must be one of {BINOMIAL_METHODS}, got {self.ci_method!r}"
            )

    def resolved_strata(self) -> List[str]:
        keys = list(self.strata) if self.strata else default_strata(self.protocol)
        if self.include_uniform and UNIFORM not in keys:
            keys.append(UNIFORM)
        return keys

    def resolved_width(self) -> int:
        if self.width is not None:
            return self.width
        return 8 if self.system == "sharded" else 6

    def resolved_height(self) -> int:
        if self.height is not None:
            return self.height
        return 8 if self.system == "sharded" else 6


#: The fields of :class:`FaultspaceConfig` that shape a *trial*: what
#: :func:`build_spec` writes into the spec's ``base``.
TRIAL_KNOBS = (
    "system", "protocol", "f", "width", "height", "n_shards",
    "duration", "warmup", "n_clients", "think_time",
    "client_timeout", "failover_timeout", "rejuvenation", "rejuvenation_period",
)

#: The ``faultspace`` runner's parameter table: the sampled stratum plus
#: the trial knobs, each at its :class:`FaultspaceConfig` default.
TRIAL_PARAMS: Dict[str, Any] = {
    "stratum": UNIFORM,
    **{name: getattr(FaultspaceConfig, name) for name in TRIAL_KNOBS},
}


def build_spec(config: FaultspaceConfig) -> CampaignSpec:
    """The full-budget campaign spec behind a fault-space run.

    One parameter point per stratum; ``n_seeds = max_per_stratum`` makes
    the seed repetitions the stratum's sample draws, so trial identities
    cover the whole budget whether or not early stopping trims it.
    """
    base: Dict[str, Any] = {name: getattr(config, name) for name in TRIAL_KNOBS}
    base["width"], base["height"] = config.resolved_width(), config.resolved_height()
    if config.system != "sharded":
        del base["n_shards"]
    return CampaignSpec(
        name=config.name,
        runner="faultspace",
        mode="grid",
        axes={"stratum": config.resolved_strata()},
        base=base,
        n_seeds=config.max_per_stratum,
        campaign_seed=config.campaign_seed,
        trial_timeout=config.trial_timeout,
        max_retries=1,
        description=(
            f"C3 statistical fault injection: {config.system}/"
            f"{config.protocol} f={config.f}, "
            f"{len(config.resolved_strata())} strata x "
            f"{config.max_per_stratum} budget"
        ),
    )


@dataclass
class StratumStatus:
    """Where one stratum stands in the sequential analysis."""

    key: str
    n: int = 0
    masked: int = 0
    sdc: int = 0
    half_width: float = 1.0
    closed: bool = False
    reason: str = "open"


class SequentialCampaign:
    """Round-based executor with per-stratum CI stopping."""

    def __init__(
        self,
        config: FaultspaceConfig,
        store_root: Any,
        progress: Optional[ProgressFn] = None,
        fresh: bool = False,
    ) -> None:
        self.config = config
        self.spec = build_spec(config)
        self.store = ResultStore(store_root, self.spec)
        self.store.open(fresh=fresh)
        self.progress = progress
        self._by_stratum: Dict[str, List[TrialSpec]] = {
            key: [] for key in config.resolved_strata()
        }
        for trial in self.spec.trials():
            self._by_stratum[trial.params["stratum"]].append(trial)
        for trials in self._by_stratum.values():
            trials.sort(key=lambda t: t.seed_index)
        # Trials that permanently failed (exhausted retries) this run;
        # excluded from later rounds so the loop always terminates.
        self._exhausted: Set[str] = set()

    # ------------------------------------------------------------------
    def _statuses(self) -> Dict[str, StratumStatus]:
        counts: Dict[str, StratumStatus] = {
            key: StratumStatus(key=key) for key in self._by_stratum
        }
        for record in self.store.ok_records():
            status = counts.get(record["params"].get("stratum"))
            if status is None:
                continue
            status.n += 1
            status.masked += int(record["metrics"].get("outcome_masked", 0))
            status.sdc += int(record["metrics"].get("outcome_sdc", 0))
        cfg = self.config
        for status in counts.values():
            if status.n:
                status.half_width = max(
                    binomial_half_width(
                        status.masked, status.n, cfg.confidence, cfg.ci_method
                    ),
                    binomial_half_width(
                        status.sdc, status.n, cfg.confidence, cfg.ci_method
                    ),
                )
            if status.n >= cfg.max_per_stratum:
                status.closed, status.reason = True, "budget"
            elif (
                cfg.early_stop
                and status.n >= cfg.min_per_stratum
                and status.half_width <= cfg.target_half_width
            ):
                status.closed, status.reason = True, "ci"
        return counts

    def _next_round(self, statuses: Dict[str, StratumStatus]) -> Set[str]:
        completed = self.store.completed_ids()
        select: Set[str] = set()
        for key, trials in self._by_stratum.items():
            status = statuses[key]
            if status.closed:
                continue
            todo = [
                t.trial_id
                for t in trials
                if t.trial_id not in completed and t.trial_id not in self._exhausted
            ]
            budget = min(self.config.round_size, self.config.max_per_stratum - status.n)
            select.update(todo[: max(budget, 0)])
        return select

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Drive rounds until every stratum closes; write the report."""
        cfg = self.config
        executor = CampaignExecutor(
            self.spec, self.store, workers=cfg.workers, progress=self.progress
        )
        rounds = 0
        while True:
            statuses = self._statuses()
            select = self._next_round(statuses)
            if not select:
                break
            rounds += 1
            self._emit(
                f"round {rounds}: {len(select)} trial(s) over "
                f"{sum(1 for s in statuses.values() if not s.closed)} open stratum(s)"
            )
            executor.run(select=select)
            done = self.store.completed_ids()
            self._exhausted.update(t for t in select if t not in done)
        for status in self._statuses().values():
            self._emit(
                f"stratum {status.key}: n={status.n} "
                f"hw={status.half_width:.3f} ({status.reason})"
            )
        summary = self.summary()
        write_outputs(self.store, summary)
        self.store.close()
        return summary

    def summary(self) -> Dict[str, Any]:
        """Build (without writing) the dependability summary."""
        cfg = self.config
        return build_summary(
            self.spec,
            self.store.ok_records(),
            confidence=cfg.confidence,
            method=cfg.ci_method,
            min_per_stratum=cfg.min_per_stratum,
            max_per_stratum=cfg.max_per_stratum,
            target_half_width=cfg.target_half_width,
            early_stop=cfg.early_stop,
        )

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)
