"""Ready-made campaign definitions for ``python -m repro campaign``.

Three built-ins, graded by size:

* ``throughput`` — the protocol suite × f × 5 seeds service-throughput
  sweep (20 trials): the paper's SIII cost story at campaign scale.
* ``rejuv-apt``  — four named rejuvenation policies × 5 seeds of the
  §II.C survival race (20 trials): a ``zip``-mode example where each
  policy is a hand-picked (period, diversify, relocate) tuple.
* ``smoke``      — 2 protocols × 4 seeds with a short horizon (8 trials):
  small enough for CI to run with 2 workers on every push.
* ``shard-scaling`` — 3 shard counts × 3 seeds of the C2 throughput
  story: the same aggregate client load over 1, 2, then 4 independent
  replica groups (``repro.shard``), committed ops scaling near-linearly.
* ``consensus-batching`` — batch size × client window sweep of the P2
  consensus hot path on PBFT and MinBFT: how far request batching and
  pipelined agreement lift committed ops/sec over the closed loop.
* ``mesoscale`` — arrival process × population size sweep of the C4
  aggregated-traffic engine: 10^5–5×10^5 modeled clients per trial
  behind admission control on a 4-shard system.
* ``leased-reads`` — the P4 read-path sweep: leases on/off × read ratio
  on PBFT and MinBFT, an aggregated population at a read-heavy mix —
  what single-hop leased reads buy over the f+1 quorum fast path.
* ``byzantine`` / ``membership`` / ``crash-cycles`` — the promise
  checks of :mod:`repro.check`, one trial per named scenario on CI's
  seeds (2 400, 1 040 and 80 trials); a trial whose outcome departs
  from its row of the expectation table fails, and so does the run.
* ``scaling``    — 20 deliberately I/O-bound selftest trials used to
  measure the executor's parallel speedup.  Simulation trials are
  CPU-bound, so their speedup needs as many cores as workers; this
  campaign's trials mostly wait, so overlap is visible even on a
  single-core machine.

Each definition is a factory so the CLI can override seed counts and base
parameters without mutating shared state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.campaign.runners import runner_params
from repro.campaign.spec import CampaignSpec


def _throughput(n_seeds: int = 5, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="throughput",
        runner="throughput",
        mode="grid",
        axes={
            "protocol": ["minbft", "pbft", "cft", "passive"],
            "f": [1],
        },
        base={"duration": 600_000.0, "n_clients": 2, "think_time": 100.0},
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        description="service throughput: protocol suite at f=1",
    )


def _rejuv_apt(n_seeds: int = 5, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="rejuv-apt",
        runner="rejuv_apt",
        mode="zip",
        axes={
            "policy": ["none", "restart@40k", "diverse@40k", "diverse+relocate@10k"],
            "period": [0, 40_000.0, 40_000.0, 10_000.0],
            "diversify": [False, False, True, True],
            "relocate": [False, False, False, True],
        },
        base={
            "horizon": 600_000.0,
            "mean_effort": 120_000.0,
            "reuse_factor": 0.25,
            "f": 1,
        },
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        description="rejuvenation policy vs APT survival race",
    )


def _shard_scaling(n_seeds: int = 3, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="shard-scaling",
        runner="shard_scaling",
        mode="grid",
        axes={"n_shards": [1, 2, 4]},
        base={
            "duration": 240_000.0,
            "n_clients": 8,
            "think_time": 50.0,
            "width": 8,
            "height": 8,
        },
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=600.0,
        description="C2 throughput scaling: 1→2→4 shards, fixed client load",
    )


def _consensus_batching(n_seeds: int = 3, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="consensus-batching",
        runner="consensus_batching",
        mode="grid",
        axes={
            "protocol": ["pbft", "minbft"],
            "batch_size": [1, 4, 8],
            "max_outstanding": [1, 16],
        },
        base={
            "duration": 240_000.0,
            "n_clients": 4,
            "think_time": 100.0,
            "max_inflight": 8,
            # Without a delay bound, only a full batch dispatches — a
            # closed-loop window smaller than batch_size would stall.
            "batch_delay": 200.0,
            "f": 1,
        },
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=600.0,
        description="P2 hot path: batch size x client window, pbft + minbft",
    )


def _mesoscale(n_seeds: int = 3, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="mesoscale",
        runner="mesoscale",
        mode="grid",
        axes={
            "process": ["poisson", "pareto", "flash"],
            "n_clients": [100_000, 500_000],
        },
        base={
            "duration": 240_000.0,
            "warmup": 60_000.0,
            "n_populations": 2,
            "n_shards": 4,
            "rate_per_client": 2e-6,
            "tick": 100.0,
            "max_inflight": 64,
            "width": 8,
            "height": 8,
        },
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=600.0,
        description="C4 mesoscale traffic: arrival process x population size",
    )


def _leased_reads(n_seeds: int = 3, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="leased-reads",
        runner="leased_reads",
        mode="grid",
        axes={
            "protocol": ["pbft", "minbft"],
            "leases": [0, 1],
            "read_ratio": [0.5, 0.9],
        },
        base={
            "duration": 240_000.0,
            "warmup": 60_000.0,
            "n_shards": 2,
            "n_clients": 1000,
            "rate_per_client": 2e-4,
            "max_inflight": 32,
            "queue_limit": 2048,
            "key_space": 64,
            "width": 8,
            "height": 8,
        },
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=600.0,
        description="P4 read path: leases on/off x read ratio, pbft + minbft",
    )


def _faultspace(n_seeds: int = 12, campaign_seed: int = 0) -> CampaignSpec:
    """Fixed-size fault-space sweep (no early stopping).

    ``n_seeds`` is the per-stratum draw budget — each seed repetition of
    a stratum point is one sampled injection.  This is the fixed-size
    baseline the sequential ``repro faultspace`` driver is measured
    against; run it through ``campaign run`` for an exhaustive sweep at
    a fixed budget, or use the CLI driver for CI-driven early stopping.
    """
    from repro.faultspace.driver import FaultspaceConfig, build_spec

    return build_spec(
        FaultspaceConfig(
            max_per_stratum=n_seeds,
            min_per_stratum=min(n_seeds, 8),
            campaign_seed=campaign_seed,
            duration=45_000.0,
            warmup=40_000.0,
        )
    )


def _smoke(n_seeds: int = 4, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        runner="throughput",
        mode="grid",
        axes={"protocol": ["minbft", "cft"]},
        base={"duration": 120_000.0, "n_clients": 1},
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=120.0,
        description="tiny CI smoke sweep (2 protocols x 4 seeds)",
    )


def _scaling(n_seeds: int = 4, campaign_seed: int = 0) -> CampaignSpec:
    return CampaignSpec(
        name="scaling",
        runner="selftest",
        mode="grid",
        axes={"batch": [0, 1, 2, 3, 4]},
        base={"sleep": 0.2, "draws": 1000},
        n_seeds=n_seeds,
        campaign_seed=campaign_seed,
        trial_timeout=60.0,
        description="executor speedup check: 20 I/O-bound trials",
    )


def _check_suite(name: str, description: str) -> Callable[..., CampaignSpec]:
    def factory(n_seeds: int = 1, campaign_seed: int = 0) -> CampaignSpec:
        from repro.check import SUITES

        return CampaignSpec(
            name=name,
            runner="check",
            axes={"scenario": SUITES[name]()},
            n_seeds=n_seeds,
            campaign_seed=campaign_seed,
            trial_timeout=600.0,
            max_retries=0,
            description=description,
        )

    return factory


BUILTIN_CAMPAIGNS: Dict[str, Callable[..., CampaignSpec]] = {
    "throughput": _throughput,
    "rejuv-apt": _rejuv_apt,
    "scaling": _scaling,
    "shard-scaling": _shard_scaling,
    "consensus-batching": _consensus_batching,
    "mesoscale": _mesoscale,
    "leased-reads": _leased_reads,
    "faultspace": _faultspace,
    "smoke": _smoke,
    "byzantine": _check_suite(
        "byzantine", "every strategy on a PBFT / MinBFT primary and backup, seeds 1-120"
    ),
    "membership": _check_suite(
        "membership", "a Byzantine member across a switch and a scale-out, seeds 1-40"
    ),
    "crash-cycles": _check_suite(
        "crash-cycles", "the acting primary crashes, recovers, crashes; seeds 1-5"
    ),
}


def build_campaign(
    name: str,
    n_seeds: Optional[int] = None,
    campaign_seed: Optional[int] = None,
    base_overrides: Optional[Dict[str, Any]] = None,
) -> CampaignSpec:
    """Instantiate a built-in campaign, optionally overriding knobs.

    ``base_overrides`` merges into the spec's fixed parameters (e.g.
    ``{"duration": 60000}`` to shorten trials).  Overrides change the
    spec hash, so an overridden run gets its own trial identities — which
    is why a name the trial would never read is refused (``ValueError``)
    rather than run as a differently-seeded copy of the default campaign:
    a key must be a parameter the spec's runner declares or already be
    one of the spec's ``base`` / ``axes`` keys (label axes such as
    ``policy``).  A runner registered without a parameter table is not
    checked.
    """
    try:
        factory = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; available: "
            f"{', '.join(sorted(BUILTIN_CAMPAIGNS))}"
        )
    kwargs: Dict[str, Any] = {}
    if n_seeds is not None:
        kwargs["n_seeds"] = n_seeds
    if campaign_seed is not None:
        kwargs["campaign_seed"] = campaign_seed
    spec = factory(**kwargs)
    if base_overrides:
        declared = runner_params(spec.runner)
        if declared is not None:
            known = set(declared) | set(spec.base) | set(spec.axes)
            unknown = sorted(set(base_overrides) - known)
            if unknown:
                raise ValueError(
                    f"campaign {name!r} (runner {spec.runner!r}) has no parameter "
                    f"{', '.join(map(repr, unknown))}; known: {', '.join(sorted(known))}"
                )
        spec.base.update(base_overrides)
    return spec
