"""The trial-runner registry: named, picklable units of campaign work.

A runner is a module-level function ``fn(params, seed) -> metrics`` where
``params`` is the trial's merged parameter dict, ``seed`` is its derived
simulator master seed, and ``metrics`` is a flat dict of JSON-serializable
numbers.  Runners are addressed **by name** so that only a string crosses
the process boundary to pool workers — fresh (spawned) workers rebuild
the registry simply by importing this module.

Built-ins:

* ``throughput`` — protocol/f sweep over :class:`repro.core.ResilientSystem`:
  completed ops, sim-time throughput, latency, safety.
* ``consensus_batching`` — the P2 hot-path sweep: request batching and
  pipelining on the primary against open-loop client windows.
* ``mesoscale`` — the C4 aggregated-population sweep: arrival-process
  populations (10^5–10^6 modeled clients) with admission control and
  load shedding over a sharded system.
* ``leased_reads`` — the P4 read-path trial: a read-heavy aggregated
  population over a sharded system with primary-granted read leases on
  or off, reporting local-read share and lease churn counters.
* ``rejuv_apt`` — the rejuvenation-vs-APT survival race of E4, exposing
  period/diversify/relocate and attacker effort as sweep axes.
* ``evolve`` — the P5 design-point evaluation: one genome of the
  evolutionary search (protocol/f/batching/window/shards/mesh/
  rejuvenation/lease) scored on the four Pareto objectives.
* ``evolve_selftest`` — an analytic stand-in for ``evolve`` with the
  same genome params, metric keys, and trade-off structure; used by the
  search's own tests and the CI evolve smoke.
* ``selftest`` — a microscopic deterministic workload with optional
  failure/sleep/crash knobs, used by the engine's own tests and CI smoke.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

Runner = Callable[[Dict[str, Any], int], Dict[str, Any]]

RUNNERS: Dict[str, Runner] = {}


def register_runner(name: str) -> Callable[[Runner], Runner]:
    """Decorator: add a trial function to the registry under ``name``."""

    def decorate(fn: Runner) -> Runner:
        if name in RUNNERS:
            raise ValueError(f"runner {name!r} already registered")
        RUNNERS[name] = fn
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


# ----------------------------------------------------------------------
# Built-in runners
# ----------------------------------------------------------------------

@register_runner("throughput")
def run_throughput(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One service-throughput trial on a fully assembled resilient system.

    Params: ``protocol``, ``f``, ``duration`` (sim ms), ``n_clients``,
    ``think_time``, ``warmup``, ``width``, ``height``.
    """
    from repro.bft.client import ClientConfig
    from repro.core import OrchestratorConfig, ResilientSystem

    duration = float(params.get("duration", 300_000.0))
    warmup = float(params.get("warmup", 50_000.0))
    system = ResilientSystem(
        OrchestratorConfig(
            seed=seed,
            protocol=params.get("protocol", "minbft"),
            f=int(params.get("f", 1)),
            width=int(params.get("width", 6)),
            height=int(params.get("height", 6)),
        )
    )
    clients = [
        system.add_client(
            f"c{i}", ClientConfig(think_time=float(params.get("think_time", 100.0)))
        )
        for i in range(int(params.get("n_clients", 1)))
    ]
    system.start(warmup=warmup)
    start = system.sim.now
    system.run(duration)
    ops = sum(c.completions_in(start, system.sim.now) for c in clients)
    latencies = sorted(
        lat for c in clients for lat in c.latencies_in(start, system.sim.now)
    )
    mean_lat = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "mean_latency_ms": mean_lat,
        "p95_latency_ms": p95,
        "replicas": len(system.group.members),
        "safe": 1 if system.is_safe else 0,
    }


@register_runner("consensus_batching")
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
    from repro.bft.batching import BatchConfig
    from repro.bft.client import ClientConfig
    from repro.bft.group import protocol_config_for
    from repro.core import OrchestratorConfig, ResilientSystem

    duration = float(params.get("duration", 240_000.0))
    warmup = float(params.get("warmup", 40_000.0))
    protocol = params.get("protocol", "minbft")
    batch_size = int(params.get("batch_size", 1))
    max_inflight = int(params.get("max_inflight", 0))
    batch_delay = float(params.get("batch_delay", 0.0))
    batching = None
    if batch_size > 1 or max_inflight > 0 or batch_delay > 0:
        batching = BatchConfig(
            batch_size=batch_size, batch_delay=batch_delay, max_inflight=max_inflight
        )
    system = ResilientSystem(
        OrchestratorConfig(
            seed=seed,
            protocol=protocol,
            f=int(params.get("f", 1)),
            width=int(params.get("width", 6)),
            height=int(params.get("height", 6)),
            enable_rejuvenation=False,
            protocol_config=protocol_config_for(protocol, batching=batching),
        )
    )
    clients = [
        system.add_client(
            f"c{i}",
            ClientConfig(
                think_time=float(params.get("think_time", 100.0)),
                max_outstanding=int(params.get("max_outstanding", 1)),
            ),
        )
        for i in range(int(params.get("n_clients", 4)))
    ]
    system.start(warmup=warmup)
    start = system.sim.now
    system.run(duration)
    ops = sum(c.completions_in(start, system.sim.now) for c in clients)
    latencies = sorted(
        lat for c in clients for lat in c.latencies_in(start, system.sim.now)
    )
    batch_hist = system.chip.metrics.histogram("sys.batch.size")
    inflight_gauge = system.chip.metrics.gauge("sys.inflight")
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "mean_latency_ms": sum(latencies) / len(latencies) if latencies else 0.0,
        "p95_latency_ms": latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0,
        "committed_ops": system.chip.metrics.counter("sys.committed_ops").value,
        "mean_batch_size": batch_hist.mean(),
        "peak_inflight": inflight_gauge.peak,
        "safe": 1 if system.is_safe else 0,
    }


@register_runner("shard_scaling")
def run_shard_scaling(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One shard-count throughput trial on a sharded system.

    Fixed aggregate client load (``n_clients`` closed-loop drivers) over
    a varying ``n_shards`` — the C2 scaling story.  Rejuvenation defaults
    off so the measurement isolates the consensus-pipeline bottleneck.

    Params: ``n_shards``, ``duration`` (sim ms), ``n_clients``,
    ``think_time``, ``warmup``, ``width``, ``height``, ``protocol``,
    ``f``, ``key_space``, ``rejuvenation``.
    """
    from repro.mesoscale import PopulationConfig
    from repro.shard import ShardConfig, ShardedSystem
    from repro.workloads import FactoryWorkload

    duration = float(params.get("duration", 240_000.0))
    warmup = float(params.get("warmup", 60_000.0))
    key_space = int(params.get("key_space", 256))

    def op_factory(i: int) -> Any:
        key = f"k{i % key_space}"
        return ("put", key, i) if i % 2 == 0 else ("get", key)

    system = ShardedSystem(
        ShardConfig(
            seed=seed,
            n_shards=int(params.get("n_shards", 2)),
            protocol=params.get("protocol", "minbft"),
            f=int(params.get("f", 1)),
            width=int(params.get("width", 8)),
            height=int(params.get("height", 8)),
            enable_rejuvenation=bool(params.get("rejuvenation", False)),
        )
    )
    drivers = [
        system.attach_population(
            f"c{i}",
            PopulationConfig(
                n_clients=1,
                mode="closed",
                think_time=float(params.get("think_time", 50.0)),
                workload=FactoryWorkload(op_factory, name="kv-scaling"),
            ),
        )
        for i in range(int(params.get("n_clients", 8)))
    ]
    system.start(warmup=warmup)
    start = system.sim.now
    system.run(duration)
    ops = sum(d.completions_in(start, system.sim.now) for d in drivers)
    latencies = sorted(
        lat for d in drivers for lat in d.latencies_in(start, system.sim.now)
    )
    per_shard = [
        system.chip.metrics.counter(f"shard.{sid}.ops").value
        for sid in system.directory.shard_ids
    ]
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "mean_latency_ms": sum(latencies) / len(latencies) if latencies else 0.0,
        "p95_latency_ms": latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0,
        "failed_ops": system.failed_operations(),
        "shard_ops_min": min(per_shard),
        "shard_ops_max": max(per_shard),
        "degraded_shards": len(system.directory.degraded_shards()),
        "safe": 1 if system.is_safe else 0,
    }


@register_runner("mesoscale")
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
    ``width``, ``height``, ``protocol``, ``f``.
    """
    from repro.metrics.traffic import (
        aggregate_completions,
        aggregate_latencies,
        latency_percentiles,
    )
    from repro.mesoscale import PopulationConfig
    from repro.shard import ShardConfig, ShardedSystem
    from repro.workloads import (
        DiurnalArrivals,
        FlashCrowdArrivals,
        ParetoArrivals,
        PoissonArrivals,
        kv_workload,
    )

    duration = float(params.get("duration", 240_000.0))
    warmup = float(params.get("warmup", 60_000.0))
    rate = float(params.get("rate_per_client", 2e-6))
    process = str(params.get("process", "poisson"))
    if process == "poisson":
        arrivals: Any = PoissonArrivals(rate)
    elif process == "pareto":
        arrivals = ParetoArrivals(rate, alpha=float(params.get("alpha", 1.7)))
    elif process == "diurnal":
        arrivals = DiurnalArrivals(
            rate,
            amplitude=float(params.get("amplitude", 0.5)),
            period=float(params.get("period", duration)),
        )
    elif process == "flash":
        spike_duration = float(params.get("spike_duration", duration / 4.0))
        arrivals = FlashCrowdArrivals(
            rate,
            spike_start=warmup + float(params.get("spike_after", duration / 4.0)),
            spike_duration=spike_duration,
            multiplier=float(params.get("multiplier", 10.0)),
            ramp=float(params.get("ramp", spike_duration / 8.0)),
        )
    else:
        raise ValueError(f"unknown arrival process {process!r}")

    system = ShardedSystem(
        ShardConfig(
            seed=seed,
            n_shards=int(params.get("n_shards", 4)),
            protocol=params.get("protocol", "minbft"),
            f=int(params.get("f", 1)),
            width=int(params.get("width", 8)),
            height=int(params.get("height", 8)),
            enable_rejuvenation=False,
        )
    )
    n_clients = int(params.get("n_clients", 100_000))
    n_populations = max(1, int(params.get("n_populations", 2)))
    per_pop = max(1, n_clients // n_populations)
    populations = [
        system.attach_population(
            f"pop{i}",
            PopulationConfig(
                n_clients=per_pop,
                workload=kv_workload(
                    keys=int(params.get("key_space", 256)), arrivals=arrivals
                ),
                tick=float(params.get("tick", 100.0)),
                max_inflight=int(params.get("max_inflight", 64)),
                queue_limit=int(params.get("queue_limit", 4096)),
            ),
        )
        for i in range(n_populations)
    ]
    system.start(warmup=warmup)
    start = system.sim.now
    kill_shard = str(params.get("kill_shard", "") or "")
    if kill_shard:
        system.sim.schedule(duration / 2.0, system.kill_shard, kill_shard)
    system.run(duration)
    end = system.sim.now
    ops = aggregate_completions(populations, start, end)
    pct = latency_percentiles(
        aggregate_latencies(populations, start, end), (50.0, 99.0)
    )
    offered = sum(p.offered for p in populations)
    admitted = sum(p.admitted for p in populations)
    shed = sum(p.shed for p in populations)
    shed_degraded = sum(
        p.shed_by_reason.get("degraded", 0) for p in populations
    )
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "p50_latency_ms": pct["p50"],
        "p99_latency_ms": pct["p99"],
        "offered": offered,
        "admitted": admitted,
        "shed": shed,
        "shed_degraded": shed_degraded,
        "shed_fraction": shed / offered if offered else 0.0,
        "backlog": sum(p.backlog for p in populations),
        "failed_ops": system.failed_operations(),
        "modeled_clients": sum(p.modeled_clients for p in populations),
        "degraded_shards": len(system.directory.degraded_shards()),
        "safe": 1 if system.is_safe else 0,
    }


@register_runner("leased_reads")
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
    from repro.bft.batching import BatchConfig
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig
    from repro.mesoscale import PopulationConfig
    from repro.shard import ShardConfig, ShardedSystem
    from repro.workloads import kv_workload

    duration = float(params.get("duration", 240_000.0))
    warmup = float(params.get("warmup", 60_000.0))
    protocol = params.get("protocol", "minbft")
    batching = None
    batch_size = int(params.get("batch_size", 8))
    if batch_size > 1:
        batching = BatchConfig(
            batch_size=batch_size,
            batch_delay=float(params.get("batch_delay", 100.0)),
            max_inflight=int(params.get("batch_inflight", 4)),
        )
    leases = None
    if params.get("leases"):
        leases = LeaseConfig(
            n_ranges=int(params.get("n_ranges", 64)),
            duration=float(params.get("lease_duration", 30_000.0)),
            renew_period=float(params.get("renew_period", 1_000.0)),
        )
    system = ShardedSystem(
        ShardConfig(
            seed=seed,
            n_shards=int(params.get("n_shards", 2)),
            protocol=protocol,
            f=int(params.get("f", 1)),
            width=int(params.get("width", 8)),
            height=int(params.get("height", 8)),
            enable_rejuvenation=False,
            protocol_config=protocol_config_for(
                protocol, batching=batching, leases=leases
            ),
        )
    )
    population = system.attach_population(
        "pop",
        PopulationConfig(
            n_clients=int(params.get("n_clients", 1000)),
            max_inflight=int(params.get("max_inflight", 32)),
            queue_limit=int(params.get("queue_limit", 2048)),
            workload=kv_workload(
                keys=int(params.get("key_space", 64)),
                read_ratio=float(params.get("read_ratio", 0.9)),
                rate_per_client=float(params.get("rate_per_client", 2e-4)),
            ),
        ),
    )
    system.start(warmup=warmup)
    start = system.sim.now
    system.run(duration)
    end = system.sim.now
    ops = population.completions_in(start, end)
    latencies = sorted(population.latencies_in(start, end))
    metrics = system.chip.metrics
    shard_sum = lambda suffix: sum(  # noqa: E731
        metrics.counter(f"{sid}.{suffix}").value for sid in system.shards
    )
    n_replicas = sum(len(s.group.members) for s in system.shards.values())
    ordered_ops = shard_sum("committed_ops") / (n_replicas / len(system.shards))
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "mean_latency_ms": sum(latencies) / len(latencies) if latencies else 0.0,
        "p95_latency_ms": latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0,
        "reads_local": shard_sum("reads.local"),
        "reads_quorum_fallback": shard_sum("reads.quorum_fallback"),
        "lease_granted": shard_sum("lease.granted"),
        "lease_renewed": shard_sum("lease.renewed"),
        "lease_revoked": shard_sum("lease.revoked"),
        "lease_expired": shard_sum("lease.expired"),
        "ordered_ops": ordered_ops,
        "ordered_frac": ordered_ops / ops if ops else 0.0,
        "shed": population.shed,
        "safe": 1 if system.is_safe else 0,
    }


@register_runner("rejuv_apt")
def run_rejuv_apt(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One rejuvenation-vs-APT survival race (the E4 workload as a sweep).

    Params: ``period`` (sim ms, None/0 disables rejuvenation),
    ``diversify``, ``relocate``, ``mean_effort``, ``reuse_factor``,
    ``horizon``, ``f``, ``sample_interval``.
    """
    from repro.core import OrchestratorConfig, ResilientSystem
    from repro.core.rejuvenation import RejuvenationPolicy
    from repro.faults import AptAttacker, AptConfig
    from repro.sim.timers import PeriodicTimer

    horizon = float(params.get("horizon", 600_000.0))
    period = params.get("period", 20_000.0)
    enabled = bool(period)
    system = ResilientSystem(
        OrchestratorConfig(
            seed=seed,
            protocol=params.get("protocol", "minbft"),
            f=int(params.get("f", 1)),
            enable_rejuvenation=enabled,
            rejuvenation=RejuvenationPolicy(
                period=float(period) if enabled else 20_000.0,
                diversify=bool(params.get("diversify", True)),
                relocate=bool(params.get("relocate", True)),
            ),
        )
    )
    attacker = AptAttacker(
        system.sim,
        targets=lambda: list(system.group.members),
        variant_of=system.diversity.variant_of,
        compromise=lambda name: system.group.replicas[name].compromise(),
        config=AptConfig(
            mean_effort=float(params.get("mean_effort", 120_000.0)),
            reuse_factor=float(params.get("reuse_factor", 0.25)),
            parallelism=int(params.get("parallelism", 1)),
        ),
    )
    if system.rejuvenation is not None:
        system.rejuvenation.on_rejuvenated = attacker.notify_rejuvenated
    system.start()
    attacker.start()

    sample_interval = float(params.get("sample_interval", 2_500.0))
    first_failure = [None]
    beyond_f = [0.0]

    def sample() -> None:
        if attacker.compromised_count > system.group.f:
            beyond_f[0] += sample_interval
            if first_failure[0] is None:
                first_failure[0] = system.sim.now

    PeriodicTimer(system.sim, sample_interval, sample)
    system.run(horizon)
    return {
        "survived": 1 if first_failure[0] is None else 0,
        "time_to_failure": first_failure[0] if first_failure[0] is not None else horizon,
        "time_beyond_f": beyond_f[0],
        "compromised_at_end": attacker.compromised_count,
        "variants_known": len(attacker.known_variants),
    }


@register_runner("faultspace")
def run_faultspace(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One sampled fault injection, classified (the C3 campaign).

    Params: ``system`` (resilient|sharded), ``stratum`` (a stratum key
    or ``uniform``), ``protocol``, ``f``, ``width``, ``height``,
    ``duration``, ``warmup``, ``n_clients``, ``think_time``,
    ``rejuvenation``, ``rejuvenation_period``, ``n_shards``.  The
    concrete fault point is drawn inside the trial from its derived
    seed; see :mod:`repro.faultspace.classify`.
    """
    from repro.faultspace.classify import run_faultspace_trial

    return run_faultspace_trial(params, seed)


@register_runner("evolve")
def run_evolve(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One design-point evaluation for the evolutionary driver (P5).

    The genome genes arrive as params: ``protocol``, ``f``,
    ``batch_size``, ``batch_inflight``, ``window`` (population ordered-
    inflight cap), ``n_shards``, ``mesh`` (square chip geometry),
    ``rejuv_period`` (0 disables rejuvenation), ``lease``.  Evaluation
    knobs ride in ``base``: ``duration``, ``warmup``, ``n_clients``,
    ``rate_per_client``, ``key_space``, ``read_ratio``, ``queue_limit``.

    Reports the four Pareto objectives (see :mod:`repro.evolve.fitness`):
    committed throughput, p99 latency, survivable simultaneous Byzantine
    faults, and provisioned silicon cost in mega-gate-equivalents (the
    whole mesh's tiles plus the hardware USIG hybrids minbft replicas
    carry).  A genome whose shards do not fit the mesh is **infeasible**:
    the trial returns penalty metrics with ``feasible: 0`` rather than
    raising, so the executor's retry budget is never burned on points the
    search simply needs to steer away from.
    """
    from repro.bft.batching import BatchConfig
    from repro.bft.group import FAMILIES, protocol_config_for
    from repro.bft.leases import LeaseConfig
    from repro.core.rejuvenation import RejuvenationPolicy
    from repro.hybrids.complexity import (
        GE_HMAC_CORE,
        softcore_complexity,
        usig_complexity,
    )
    from repro.mesoscale import PopulationConfig
    from repro.metrics.stats import percentile
    from repro.shard import ShardConfig, ShardedSystem
    from repro.shard.placement import PlacementError
    from repro.workloads import kv_workload

    duration = float(params.get("duration", 90_000.0))
    warmup = float(params.get("warmup", 30_000.0))
    protocol = str(params.get("protocol", "minbft"))
    f = int(params.get("f", 1))
    n_shards = int(params.get("n_shards", 2))
    mesh = int(params.get("mesh", 8))
    rejuv_period = float(params.get("rejuv_period", 0) or 0)

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
    gate_mge = gate_ge / 1e6
    # The intrusion-resilience objective: simultaneous Byzantine replica
    # compromises survivable across the whole system.  Crash-only
    # families score zero — that is the axis that keeps cheap/fast CFT
    # configurations from dominating the front outright.
    survivable = n_shards * f if family.byzantine_safe else 0

    infeasible = {
        "ops": 0,
        "ops_per_sec": 0.0,
        "p99_latency_ms": 0.0,
        "mean_latency_ms": 0.0,
        "survivable_faults": survivable,
        "gate_mge": gate_mge,
        "replicas": n_replicas,
        "shed": 0,
        "failed_ops": 0,
        "safe": 0,
        "feasible": 0,
    }

    batch_size = int(params.get("batch_size", 1))
    batching = None
    if batch_size > 1:
        batching = BatchConfig(
            batch_size=batch_size,
            batch_delay=float(params.get("batch_delay", 100.0)),
            max_inflight=int(params.get("batch_inflight", 1)),
        )
    leases = None
    if params.get("lease"):
        leases = LeaseConfig(
            n_ranges=int(params.get("n_ranges", 64)),
            duration=float(params.get("lease_duration", 30_000.0)),
            renew_period=float(params.get("renew_period", 1_000.0)),
        )
    try:
        system = ShardedSystem(
            ShardConfig(
                seed=seed,
                n_shards=n_shards,
                protocol=protocol,
                f=f,
                width=mesh,
                height=mesh,
                enable_rejuvenation=rejuv_period > 0,
                rejuvenation=(
                    RejuvenationPolicy(
                        period=rejuv_period, diversify=True, relocate=False
                    )
                    if rejuv_period > 0
                    else None
                ),
                protocol_config=protocol_config_for(
                    protocol, batching=batching, leases=leases
                ),
            )
        )
    except (PlacementError, ValueError):
        return infeasible
    population = system.attach_population(
        "pop",
        PopulationConfig(
            n_clients=int(params.get("n_clients", 1000)),
            max_inflight=int(params.get("window", 32)),
            queue_limit=int(params.get("queue_limit", 4096)),
            workload=kv_workload(
                keys=int(params.get("key_space", 64)),
                read_ratio=float(params.get("read_ratio", 0.8)),
                rate_per_client=float(params.get("rate_per_client", 2e-4)),
            ),
        ),
    )
    system.start(warmup=warmup)
    start = system.sim.now
    system.run(duration)
    end = system.sim.now
    ops = population.completions_in(start, end)
    latencies = sorted(population.latencies_in(start, end))
    return {
        "ops": ops,
        "ops_per_sec": ops / (duration / 1000.0),
        "p99_latency_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "mean_latency_ms": sum(latencies) / len(latencies) if latencies else 0.0,
        "survivable_faults": survivable,
        "gate_mge": gate_mge,
        "replicas": n_replicas,
        "shed": population.shed,
        "failed_ops": system.failed_operations(),
        "safe": 1 if system.is_safe else 0,
        "feasible": 1,
    }


@register_runner("evolve_selftest")
def run_evolve_selftest(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A microscopic analytic stand-in for the ``evolve`` runner.

    Same genome params and same metric keys, but the objectives come
    from a closed-form performance model (plus a small seeded noise
    multiplier) instead of a simulation — milliseconds per trial.  The
    landscape keeps the real trade-offs: crash-only protocols are fast
    and cheap but score zero survivable faults, sharding buys throughput
    sublinearly, batching trades tail latency for throughput, and bigger
    meshes relieve congestion while costing quadratically more silicon.
    Used by the engine's own tests and the CI evolve smoke so search
    behavior (not simulator behavior) is what gets exercised.
    """
    import math

    from repro.sim.rng import RngStream

    protocol = str(params.get("protocol", "minbft"))
    f = int(params.get("f", 1))
    batch_size = int(params.get("batch_size", 1))
    batch_inflight = int(params.get("batch_inflight", 1))
    window = int(params.get("window", 32))
    n_shards = int(params.get("n_shards", 2))
    mesh = int(params.get("mesh", 8))
    rejuv_period = float(params.get("rejuv_period", 0) or 0)
    lease = bool(params.get("lease", 0))

    replicas_for = {
        "pbft": 3 * f + 1,
        "minbft": 2 * f + 1,
        "cft": f + 1,
        "passive": f + 1,
    }
    byzantine_safe = protocol in ("pbft", "minbft")
    n_replicas = n_shards * replicas_for[protocol]
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
        (300.0 * replicas_for[protocol] / 4.0)
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
    survivable = n_shards * f if byzantine_safe else 0
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


@register_runner("selftest")
def run_selftest(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A microscopic trial for engine tests and the CI smoke campaign.

    Draws ``draws`` values from a seeded stream and reports their mean.
    Failure-injection knobs exercise the executor's robustness paths:
    ``fail`` raises an exception, ``sleep`` stalls (to trip per-trial
    timeouts), ``crash`` kills the worker process outright (to trip
    BrokenProcessPool recovery).
    """
    from repro.sim.rng import RngStream

    if params.get("sleep"):
        import time

        time.sleep(float(params["sleep"]))
    if params.get("crash"):
        import os

        os._exit(13)  # simulate a hard worker crash, not an exception
    if params.get("fail"):
        raise RuntimeError(f"selftest: injected failure for {params}")
    stream = RngStream(seed, "campaign.selftest")
    draws = int(params.get("draws", 100))
    values = [stream.random() for _ in range(draws)]
    return {
        "mean": sum(values) / len(values),
        "draws": draws,
        "first_draw": values[0],
    }
