"""The trial-runner registry: named, picklable units of campaign work.

A runner is a module-level function ``fn(params, seed) -> metrics`` where
``params`` is the trial's merged parameter dict, ``seed`` is its derived
simulator master seed, and ``metrics`` is a flat dict of JSON-serializable
numbers.  Runners are addressed **by name** so that only a string crosses
the process boundary to pool workers — fresh (spawned) workers rebuild
the registry simply by importing this module.

Each built-in declares its parameters once, as a table of names and
defaults (``*_PARAMS``) that it resolves a trial's ``params`` against; a
simulating runner is that table, a service assembled through
:mod:`repro.campaign.scenario`, and the metrics only it reports.  The
tables are what ``campaign run --set`` checks names against and where the
CLI reads its flag defaults; ``tests/test_campaign_runners.py`` checks
every ``Params:`` list below, and this list of built-ins, against them.

Built-ins:

* ``throughput`` — protocol/f sweep over :class:`repro.core.ResilientSystem`:
  completed ops, sim-time throughput, latency, safety.
* ``consensus_batching`` — the P2 hot-path sweep: request batching and
  pipelining on the primary against open-loop client windows.
* ``shard_scaling`` — the C2 scaling story: a fixed closed-loop client
  load over a varying number of independent replica groups.
* ``mesoscale`` — the C4 aggregated-population sweep: arrival-process
  populations (10^5–10^6 modeled clients) with admission control and
  load shedding over a sharded system.
* ``leased_reads`` — the P4 read-path trial: a read-heavy aggregated
  population over a sharded system with primary-granted read leases on
  or off, reporting local-read share and lease churn counters.
* ``rejuv_apt`` — the rejuvenation-vs-APT survival race of E4, exposing
  period/diversify/relocate and attacker effort as sweep axes.
* ``faultspace`` — the C3 trial: one sampled fault injected into a
  resilient or sharded system and classified into an outcome bucket.
* ``evolve`` — the P5 design-point evaluation: one genome of the
  evolutionary search (protocol/f/batching/window/shards/mesh/
  rejuvenation/lease) scored on the four Pareto objectives.
* ``evolve_selftest`` — an analytic stand-in for ``evolve`` with the
  same genome params, metric keys, and trade-off structure; used by the
  search's own tests and the CI evolve smoke.
* ``check`` — one named promise-check scenario (:mod:`repro.check`),
  held against its row of the expectation table; a departure fails the
  trial.
* ``selftest`` — a microscopic deterministic workload with optional
  failure/sleep/crash knobs, used by the engine's own tests and CI smoke.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.campaign import scenario
from repro.campaign.scenario import Window, resolve
from repro.workloads import AlternatingKV, UniformKeys, kv_workload

Runner = Callable[[Dict[str, Any], int], Dict[str, Any]]
ParamTable = Dict[str, Any]

RUNNERS: Dict[str, Runner] = {}
_PARAMS: Dict[str, Union[ParamTable, Callable[[], ParamTable]]] = {}


def register_runner(
    name: str, params: Union[None, ParamTable, Callable[[], ParamTable]] = None
) -> Callable[[Runner], Runner]:
    """Decorator: add a trial function to the registry under ``name``.

    ``params`` declares the runner's parameter table (or a function
    returning it, for a table in a package this module cannot import at
    load time); a runner registered without one accepts any parameter
    name unchecked.
    """

    def decorate(fn: Runner) -> Runner:
        if name in RUNNERS:
            raise ValueError(f"runner {name!r} already registered")
        RUNNERS[name] = fn
        if params is not None:
            _PARAMS[name] = params
        return fn

    return decorate


def get_runner(name: str) -> Runner:
    """Look up a registered runner, with a helpful error."""
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown runner {name!r}; available: {', '.join(sorted(RUNNERS))}"
        )


def runner_params(name: str) -> Optional[ParamTable]:
    """The parameter table ``name`` declared, or None if it declared none."""
    table = _PARAMS.get(name)
    return table() if callable(table) else table


# ----------------------------------------------------------------------
# Built-in runners
# ----------------------------------------------------------------------

def _chip(p: Dict[str, Any]) -> Dict[str, Any]:
    """The system-config fields most tables name alike."""
    return {name: p[name] for name in ("protocol", "f", "width", "height")}


THROUGHPUT_PARAMS: ParamTable = {
    "protocol": "minbft", "f": 1, "width": 6, "height": 6,
    "n_clients": 1, "think_time": 100.0,
    "warmup": 50_000.0, "duration": 300_000.0,
}


@register_runner("throughput", THROUGHPUT_PARAMS)
def run_throughput(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One service-throughput trial on a fully assembled resilient system.

    Params: ``protocol``, ``f``, ``duration`` (sim ms), ``n_clients``,
    ``think_time``, ``warmup``, ``width``, ``height``.
    """
    p = resolve(THROUGHPUT_PARAMS, params)
    system, clients = scenario.resilient_service(
        seed, p["n_clients"], {"think_time": p["think_time"]}, **_chip(p)
    )
    window = scenario.open_window(system, clients, p["warmup"], p["duration"]).run()
    return {
        **scenario.window_stats(window, "mean_latency_ms", "p95_latency_ms"),
        "replicas": len(system.group.members),
        "safe": int(system.is_safe),
    }


CONSENSUS_BATCHING_PARAMS: ParamTable = {
    "protocol": "minbft", "f": 1, "width": 6, "height": 6,
    "batch_size": 1, "batch_delay": 0.0, "max_inflight": 0,
    "n_clients": 4, "think_time": 100.0, "max_outstanding": 1,
    "warmup": 40_000.0, "duration": 240_000.0,
}


@register_runner("consensus_batching", CONSENSUS_BATCHING_PARAMS)
def run_consensus_batching(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One batching/pipelining throughput trial (the P2 sweep).

    Sweeps the consensus hot-path knobs: the primary's ``batch_size`` /
    ``max_inflight`` (see :mod:`repro.bft.batching`) against the clients'
    ``max_outstanding`` open-loop window.  ``batch_size=1`` with
    ``max_outstanding=1`` is the classic closed-loop baseline.

    Params: ``protocol``, ``f``, ``batch_size``, ``batch_delay``,
    ``max_inflight``, ``max_outstanding``, ``duration`` (sim ms),
    ``n_clients``, ``think_time``, ``warmup``, ``width``, ``height``.
    """
    p = resolve(CONSENSUS_BATCHING_PARAMS, params)
    system, clients = scenario.resilient_service(
        seed, p["n_clients"],
        {"think_time": p["think_time"], "max_outstanding": p["max_outstanding"]},
        rejuvenation=False,
        protocol_config=scenario.protocol_config(
            p["protocol"], (p["batch_size"], p["batch_delay"], p["max_inflight"])
        ),
        **_chip(p),
    )
    window = scenario.open_window(system, clients, p["warmup"], p["duration"]).run()
    metrics = system.chip.metrics
    return {
        **scenario.window_stats(window, "mean_latency_ms", "p95_latency_ms"),
        "committed_ops": metrics.counter("sys.committed_ops").value,
        "mean_batch_size": metrics.histogram("sys.batch.size").mean(),
        "peak_inflight": metrics.gauge("sys.inflight").peak,
        "safe": int(system.is_safe),
    }


SHARD_SCALING_PARAMS: ParamTable = {
    "n_shards": 2, "protocol": "minbft", "f": 1, "width": 8, "height": 8,
    "rejuvenation": False,
    "n_clients": 8, "think_time": 50.0, "key_space": 256,
    "warmup": 60_000.0, "duration": 240_000.0,
}


@register_runner("shard_scaling", SHARD_SCALING_PARAMS)
def run_shard_scaling(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One shard-count throughput trial on a sharded system.

    Fixed aggregate client load (``n_clients`` closed-loop drivers) over
    a varying ``n_shards`` — the C2 scaling story.  Rejuvenation defaults
    off so the measurement isolates the consensus-pipeline bottleneck.

    Params: ``n_shards``, ``duration`` (sim ms), ``n_clients``,
    ``think_time``, ``warmup``, ``width``, ``height``, ``protocol``,
    ``f``, ``key_space``, ``rejuvenation``.
    """
    p = resolve(SHARD_SCALING_PARAMS, params)
    system = scenario.sharded_system(seed, p["n_shards"], p["rejuvenation"], **_chip(p))
    drivers = scenario.closed_drivers(
        system, p["n_clients"], p["think_time"], AlternatingKV(UniformKeys(p["key_space"]))
    )
    window = scenario.open_window(system, drivers, p["warmup"], p["duration"]).run()
    per_shard = [
        system.chip.metrics.counter(f"shard.{sid}.ops").value
        for sid in system.directory.shard_ids
    ]
    return {
        **scenario.window_stats(window, "mean_latency_ms", "p95_latency_ms"),
        "failed_ops": system.failed_operations(),
        "shard_ops_min": min(per_shard),
        "shard_ops_max": max(per_shard),
        "degraded_shards": len(system.directory.degraded_shards()),
        "safe": int(system.is_safe),
    }


MESOSCALE_PARAMS: ParamTable = {
    "n_shards": 4, "protocol": "minbft", "f": 1, "width": 8, "height": 8,
    "n_clients": 100_000, "n_populations": 2, "key_space": 256,
    "tick": 100.0, "max_inflight": 64, "queue_limit": 4096,
    "warmup": 60_000.0, "duration": 240_000.0, "kill_shard": "",
    "process": "poisson", "rate_per_client": 2e-6,
    # Arrival shape; None derives from the window (scenario.arrival_process).
    "alpha": 1.7, "amplitude": 0.5, "period": None,
    "spike_after": None, "spike_duration": None, "multiplier": 10.0, "ramp": None,
}


def mesoscale_window(params: Dict[str, Any], seed: int) -> Window:
    """Build, load and run one ``mesoscale`` trial (``repro mesoscale`` too)."""
    p = resolve(MESOSCALE_PARAMS, params)
    system = scenario.sharded_system(seed, p["n_shards"], **_chip(p))
    n_populations = max(1, p["n_populations"])
    populations = scenario.attach_populations(
        system,
        [f"pop{i}" for i in range(n_populations)],
        n_clients=max(1, p["n_clients"] // n_populations),
        workload=kv_workload(keys=p["key_space"], arrivals=scenario.arrival_process(p)),
        tick=p["tick"], max_inflight=p["max_inflight"], queue_limit=p["queue_limit"],
    )
    return scenario.open_window(
        system, populations, p["warmup"], p["duration"], p["kill_shard"]
    ).run()


@register_runner("mesoscale", MESOSCALE_PARAMS)
def run_mesoscale(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One aggregated-population traffic trial (the C4 mesoscale story).

    Drives ``n_populations`` aggregated populations — together modeling
    ``n_clients`` clients with O(populations) memory — through a sharded
    system, optionally killing a shard mid-run to exercise admission
    control's degraded-shard shedding.

    Params: ``process`` (poisson|pareto|diurnal|flash),
    ``rate_per_client`` (ops per client per sim ms), ``n_clients``
    (modeled, split across populations), ``n_populations``, ``n_shards``,
    ``tick``, ``max_inflight``, ``queue_limit``, ``duration``,
    ``warmup``, ``kill_shard`` (shard id or empty), ``key_space``,
    ``width``, ``height``, ``protocol``, ``f``; arrival shape: ``alpha``
    (pareto), ``amplitude`` and ``period`` (diurnal), ``spike_after``,
    ``spike_duration``, ``multiplier`` and ``ramp`` (flash).
    """
    window = mesoscale_window(params, seed)
    system, populations = window.system, window.sources
    demand = scenario.demand_totals(populations)
    return {
        **scenario.window_stats(window, "p50_latency_ms", "p99_latency_ms"),
        **demand,
        "shed_fraction": demand["shed"] / demand["offered"] if demand["offered"] else 0.0,
        "failed_ops": system.failed_operations(),
        "modeled_clients": sum(p.modeled_clients for p in populations),
        "degraded_shards": len(system.directory.degraded_shards()),
        "safe": int(system.is_safe),
    }


LEASED_READS_PARAMS: ParamTable = {
    "n_shards": 2, "protocol": "minbft", "f": 1, "width": 8, "height": 8,
    "leases": False, "n_ranges": 64, "lease_duration": 30_000.0, "renew_period": 1_000.0,
    "batch_size": 8, "batch_delay": 100.0, "batch_inflight": 4,
    "n_clients": 1000, "rate_per_client": 2e-4, "read_ratio": 0.9, "key_space": 64,
    "max_inflight": 32, "queue_limit": 2048,
    "warmup": 60_000.0, "duration": 240_000.0,
}


def _batched_leased_config(p: Dict[str, Any], leases: Any) -> Any:
    """Protocol config of the read-path services: batching when
    ``batch_size`` > 1, read leases when ``leases``."""
    batch = (p["batch_size"], p["batch_delay"], p["batch_inflight"])
    lease = (p["n_ranges"], p["lease_duration"], p["renew_period"])
    return scenario.protocol_config(
        p["protocol"], batch if p["batch_size"] > 1 else None, lease if leases else None
    )


def _read_mix_window(system: Any, p: Dict[str, Any], max_inflight: int) -> Window:
    """Attach one open population ``pop`` on the KV read mix and run the window."""
    workload = kv_workload(
        keys=p["key_space"], read_ratio=p["read_ratio"],
        rate_per_client=p["rate_per_client"],
    )
    populations = scenario.attach_populations(
        system, ["pop"], n_clients=p["n_clients"], workload=workload,
        max_inflight=max_inflight, queue_limit=p["queue_limit"],
    )
    return scenario.open_window(system, populations, p["warmup"], p["duration"]).run()


def leased_reads_window(params: Dict[str, Any], seed: int) -> Window:
    """Build, load and run one ``leased_reads`` trial."""
    p = resolve(LEASED_READS_PARAMS, params)
    system = scenario.sharded_system(
        seed, p["n_shards"], protocol_config=_batched_leased_config(p, p["leases"]),
        **_chip(p),
    )
    return _read_mix_window(system, p, p["max_inflight"])


def leased_reads_report(window: Window) -> Dict[str, Any]:
    """The ``leased_reads`` metrics of a finished window."""
    system = window.system
    stats = scenario.window_stats(window, "mean_latency_ms", "p95_latency_ms")
    metrics = system.chip.metrics
    shard_sum = lambda suffix: sum(  # noqa: E731
        metrics.counter(f"{sid}.{suffix}").value for sid in system.shards
    )
    # committed_ops counts every op each replica executes, so / replicas
    # per shard gives ordered ops; all shards are the same size.
    n_replicas = sum(len(s.group.members) for s in system.shards.values())
    ordered_ops = shard_sum("committed_ops") / (n_replicas / len(system.shards))
    return {
        **stats,
        "reads_local": shard_sum("reads.local"),
        "reads_quorum_fallback": shard_sum("reads.quorum_fallback"),
        "lease_granted": shard_sum("lease.granted"),
        "lease_renewed": shard_sum("lease.renewed"),
        "lease_revoked": shard_sum("lease.revoked"),
        "lease_expired": shard_sum("lease.expired"),
        "ordered_ops": ordered_ops,
        "ordered_frac": ordered_ops / stats["ops"] if stats["ops"] else 0.0,
        "shed": window.sources[0].shed,
        "safe": int(system.is_safe),
    }


@register_runner("leased_reads", LEASED_READS_PARAMS)
def run_leased_reads(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One read-path trial: quorum fast path vs leased local reads (P4).

    An aggregated open-loop population drives a read-heavy KV mix
    through a sharded system; ``leases`` switches the primary-granted
    read-lease machinery on, in which case reads resolve on one NoC hop
    at the leaseholder and bypass the population's ordered-inflight cap.
    Lease counters land in the report so campaigns can track grant/
    revocation churn alongside throughput.

    Params: ``leases`` (bool), ``read_ratio``, ``lease_duration``,
    ``renew_period``, ``n_ranges``, ``protocol``, ``f``, ``n_shards``,
    ``n_clients`` (modeled), ``rate_per_client``, ``max_inflight``,
    ``queue_limit``, ``key_space``, ``batch_size``, ``batch_delay``,
    ``batch_inflight``, ``duration``, ``warmup``, ``width``, ``height``.
    """
    return leased_reads_report(leased_reads_window(params, seed))


REJUV_APT_PARAMS: ParamTable = {
    "protocol": "minbft", "f": 1,
    "period": 20_000.0, "diversify": True, "relocate": True,
    "mean_effort": 120_000.0, "reuse_factor": 0.25, "parallelism": 1,
    "horizon": 600_000.0, "sample_interval": 2_500.0,
}


@register_runner("rejuv_apt", REJUV_APT_PARAMS)
def run_rejuv_apt(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One rejuvenation-vs-APT survival race (the E4 workload as a sweep).

    Params: ``period`` (sim ms, None/0 disables rejuvenation),
    ``diversify``, ``relocate``, ``mean_effort``, ``reuse_factor``,
    ``parallelism``, ``horizon``, ``protocol``, ``f``,
    ``sample_interval``.
    """
    from repro.faults import AptAttacker, AptConfig
    from repro.sim.timers import PeriodicTimer

    p = resolve(REJUV_APT_PARAMS, params)
    system, _ = scenario.resilient_service(
        seed, protocol=p["protocol"], f=p["f"],
        rejuvenation=scenario.rejuvenation_policy(
            p["period"], p["period"], diversify=p["diversify"], relocate=p["relocate"]
        ),
    )
    attacker = AptAttacker(
        system.sim,
        targets=lambda: list(system.group.members),
        variant_of=system.diversity.variant_of,
        compromise=lambda name: system.group.replicas[name].compromise(),
        config=AptConfig(
            mean_effort=p["mean_effort"],
            reuse_factor=p["reuse_factor"],
            parallelism=p["parallelism"],
        ),
    )
    if system.rejuvenation is not None:
        system.rejuvenation.on_rejuvenated = attacker.notify_rejuvenated
    system.start()
    attacker.start()

    sample_interval = p["sample_interval"]
    first_failure = [None]
    beyond_f = [0.0]

    def sample() -> None:
        if attacker.compromised_count > system.group.f:
            beyond_f[0] += sample_interval
            if first_failure[0] is None:
                first_failure[0] = system.sim.now

    PeriodicTimer(system.sim, sample_interval, sample)
    system.run(p["horizon"])
    return {
        "survived": 1 if first_failure[0] is None else 0,
        "time_to_failure": first_failure[0] if first_failure[0] is not None else p["horizon"],
        "time_beyond_f": beyond_f[0],
        "compromised_at_end": attacker.compromised_count,
        "variants_known": len(attacker.known_variants),
    }


def _faultspace_params() -> ParamTable:
    from repro.faultspace.driver import TRIAL_PARAMS

    return TRIAL_PARAMS


@register_runner("faultspace", _faultspace_params)
def run_faultspace(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One sampled fault injection, classified (the C3 campaign).

    Params: ``stratum`` (a stratum key, or "uniform"), ``system``
    (resilient|sharded), ``protocol``, ``f``, ``width``, ``height``,
    ``n_shards``, ``duration``, ``warmup``, ``n_clients``,
    ``think_time``, ``client_timeout``, ``failover_timeout``,
    ``rejuvenation``, ``rejuvenation_period``.

    All but the stratum are the trial knobs of
    :class:`~repro.faultspace.driver.FaultspaceConfig`, which states
    their defaults.  The concrete fault point is drawn inside the trial
    from its derived seed; see :mod:`repro.faultspace.classify`.
    """
    from repro.faultspace.classify import run_faultspace_trial

    return run_faultspace_trial(params, seed)


EVOLVE_PARAMS: ParamTable = {
    # The genome.
    "protocol": "minbft", "f": 1, "batch_size": 1, "batch_inflight": 1, "window": 32,
    "n_shards": 2, "mesh": 8, "rejuv_period": 0.0, "lease": False,
    # Evaluation knobs (they ride in a generation spec's ``base``).
    "warmup": 30_000.0, "duration": 90_000.0,
    "n_clients": 1000, "rate_per_client": 2e-4, "read_ratio": 0.8, "key_space": 64,
    "queue_limit": 4096, "batch_delay": 100.0,
    "n_ranges": 64, "lease_duration": 30_000.0, "renew_period": 1_000.0,
}


@register_runner("evolve", EVOLVE_PARAMS)
def run_evolve(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One design-point evaluation for the evolutionary driver (P5).

    Params: the genome — ``protocol``, ``f``, ``batch_size``,
    ``batch_inflight``, ``window`` (population ordered-inflight cap),
    ``n_shards``, ``mesh`` (square chip geometry), ``rejuv_period`` (0
    disables rejuvenation), ``lease`` — and the evaluation knobs that
    ride in a generation spec's base: ``duration``, ``warmup``, ``n_clients``,
    ``rate_per_client``, ``key_space``, ``read_ratio``, ``queue_limit``,
    ``batch_delay``, ``n_ranges``, ``lease_duration``, ``renew_period``.

    Reports the four Pareto objectives (see :mod:`repro.evolve.fitness`):
    committed throughput, p99 latency, survivable simultaneous Byzantine
    faults, and provisioned silicon cost in mega-gate-equivalents (the
    whole mesh's tiles plus the hardware USIG hybrids minbft replicas
    carry).  A genome whose shards do not fit the mesh is **infeasible**:
    the trial returns penalty metrics with ``feasible: 0`` rather than
    raising, so the executor's retry budget is never burned on points the
    search simply needs to steer away from.
    """
    from repro.bft.group import FAMILIES
    from repro.hybrids.complexity import (
        GE_HMAC_CORE,
        softcore_complexity,
        usig_complexity,
    )
    from repro.shard.placement import PlacementError

    p = resolve(EVOLVE_PARAMS, params)
    protocol, f, n_shards, mesh = p["protocol"], p["f"], p["n_shards"], p["mesh"]
    rejuv_period = p["rejuv_period"] or 0.0

    family = FAMILIES[protocol]
    n_replicas = n_shards * family.replicas_for(f)
    # Provisioned silicon: every fabricated tile carries a softcore and a
    # MAC engine whether or not a replica lands on it (you pay for the
    # chip you tape out, not the tiles you happen to use), plus the
    # per-replica ECC-protected USIG hybrid that minbft depends on.
    tile_ge = softcore_complexity().total_ge + GE_HMAC_CORE
    gate_ge = mesh * mesh * tile_ge
    if protocol == "minbft":
        gate_ge += n_replicas * usig_complexity("ecc").total_ge
    report = {
        "ops": 0,
        "ops_per_sec": 0.0,
        "p99_latency_ms": 0.0,
        "mean_latency_ms": 0.0,
        # The intrusion-resilience objective: simultaneous Byzantine replica
        # compromises survivable across the whole system.  Crash-only
        # families score zero — that is the axis that keeps cheap/fast CFT
        # configurations from dominating the front outright.
        "survivable_faults": n_shards * f if family.byzantine_safe else 0,
        "gate_mge": gate_ge / 1e6,
        "replicas": n_replicas,
        "shed": 0,
        "failed_ops": 0,
        "safe": 0,
        "feasible": 0,
    }
    rejuvenation = scenario.rejuvenation_policy(
        rejuv_period > 0, rejuv_period, diversify=True, relocate=False
    )
    config = _batched_leased_config(p, p["lease"])
    try:
        system = scenario.sharded_system(
            seed, n_shards, rejuvenation, protocol=protocol, f=f,
            width=mesh, height=mesh, protocol_config=config,
        )
    except (PlacementError, ValueError):
        return report
    window = _read_mix_window(system, p, p["window"])
    report.update(
        scenario.window_stats(window, "p99_latency_ms", "mean_latency_ms"),
        shed=window.sources[0].shed,
        failed_ops=system.failed_operations(),
        safe=int(system.is_safe),
        feasible=1,
    )
    return report


@register_runner("evolve_selftest", EVOLVE_PARAMS)
def run_evolve_selftest(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A microscopic analytic stand-in for the ``evolve`` runner.

    Same genome params and same metric keys, but the objectives come
    from a closed-form performance model (plus a small seeded noise
    multiplier) instead of a simulation — milliseconds per trial.  Group
    sizes and Byzantine safety are the real families' (``FAMILIES``).  The
    landscape keeps the real trade-offs: crash-only protocols are fast
    and cheap but score zero survivable faults, sharding buys throughput
    sublinearly, batching trades tail latency for throughput, and bigger
    meshes relieve congestion while costing quadratically more silicon.
    Used by the engine's own tests and the CI evolve smoke so search
    behavior (not simulator behavior) is what gets exercised.
    """
    import math

    from repro.bft.group import FAMILIES
    from repro.sim.rng import RngStream

    p = resolve(EVOLVE_PARAMS, params)
    protocol, f, n_shards, mesh = p["protocol"], p["f"], p["n_shards"], p["mesh"]
    batch_size, batch_inflight, window = p["batch_size"], p["batch_inflight"], p["window"]
    rejuv_period, lease = p["rejuv_period"] or 0.0, p["lease"]

    family = FAMILIES[protocol]
    group_size = family.replicas_for(f)
    n_replicas = n_shards * group_size
    if n_replicas > mesh * mesh:
        # The analytic analogue of a placement failure.
        feasible = False
    else:
        feasible = True

    base_rate = {"pbft": 8.0, "minbft": 14.0, "cft": 20.0, "passive": 22.0}
    batch_boost = 1.0 + 0.45 * (math.log2(batch_size) / 4.0) * (
        0.5 + 0.5 * math.log2(max(batch_inflight, 1) * 2) / 4.0
    )
    window_util = window / (window + 24.0)
    shard_scale = n_shards ** 0.85
    congestion = 1.0 - 0.4 * min(1.0, n_replicas / (mesh * mesh))
    rejuv_factor = 1.0 if rejuv_period == 0 else (
        0.93 if rejuv_period < 60_000 else 0.97
    )
    lease_boost = 1.18 if lease else 1.0

    stream = RngStream(seed, "campaign.evolve_selftest")
    noise_tp = 1.0 + 0.02 * stream.normal(0.0, 1.0)
    noise_lat = 1.0 + 0.02 * stream.normal(0.0, 1.0)

    ops_per_sec = (
        base_rate[protocol]
        * shard_scale
        * batch_boost
        * window_util
        * congestion
        * rejuv_factor
        * lease_boost
        * noise_tp
    )
    # Queue-bound tail latency: grows with the ordered window (more
    # queued ahead of you) and batch size, shrinks with leases; scaled
    # to the tens-of-sim-seconds overload regime the real runner sees.
    p99 = (
        (300.0 * group_size / 4.0)
        * (1.0 + window / 16.0)
        * (1.0 + batch_size / 12.0)
        / congestion
        / lease_boost
        * noise_lat
    )
    tile_mge = 0.181
    gate_mge = mesh * mesh * tile_mge + (
        n_replicas * 0.0206 if protocol == "minbft" else 0.0
    )
    survivable = n_shards * f if family.byzantine_safe else 0
    if not feasible:
        ops_per_sec, p99 = 0.0, 0.0
    return {
        "ops": int(ops_per_sec),
        "ops_per_sec": ops_per_sec,
        "p99_latency_ms": p99,
        "mean_latency_ms": p99 / 3.0,
        "survivable_faults": survivable,
        "gate_mge": gate_mge,
        "replicas": n_replicas,
        "shed": 0,
        "failed_ops": 0,
        "safe": 1,
        "feasible": 1 if feasible else 0,
    }


CHECK_PARAMS: ParamTable = {"scenario": ""}


@register_runner("check", CHECK_PARAMS)
def run_check(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Play out one named scenario and check its outcome
    (:func:`repro.check.check`): a departure from its row raises, so the
    trial fails.  ``seed`` is unused — a scenario's seed is in its name,
    so a suite's seeds are the ones it lists.

    Params: ``scenario`` (a name, see :mod:`repro.check.suites`).
    """
    from repro.check import check, run
    from repro.check import scenario as named

    s = named(params["scenario"])
    outcome = run(s)
    check(s, outcome)
    return outcome.metrics()


SELFTEST_PARAMS: ParamTable = {"draws": 100, "sleep": 0.0, "crash": False, "fail": False}


@register_runner("selftest", SELFTEST_PARAMS)
def run_selftest(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A microscopic trial for engine tests and the CI smoke campaign.

    Draws ``draws`` values from a seeded stream and reports their mean.
    Failure-injection knobs exercise the executor's robustness paths:
    ``fail`` raises an exception, ``sleep`` stalls (to trip per-trial
    timeouts), ``crash`` kills the worker process outright (to trip
    BrokenProcessPool recovery).

    Params: ``draws``, ``sleep`` (wall seconds), ``crash``, ``fail``.
    """
    from repro.sim.rng import RngStream

    p = resolve(SELFTEST_PARAMS, params)
    if p["sleep"]:
        import time

        time.sleep(p["sleep"])
    if p["crash"]:
        import os

        os._exit(13)  # simulate a hard worker crash, not an exception
    if p["fail"]:
        raise RuntimeError(f"selftest: injected failure for {params}")
    stream = RngStream(seed, "campaign.selftest")
    values = [stream.random() for _ in range(p["draws"])]
    return {
        "mean": sum(values) / len(values),
        "draws": p["draws"],
        "first_draw": values[0],
    }
