"""End-to-end tests for the ShardedSystem facade."""

import pytest

from repro.core import AdaptationPolicy, ThreatLevel
from repro.mesoscale import PopulationConfig
from repro.shard import ShardConfig, ShardedSystem
from tests.conftest import closed_driver


def serve(system, n_clients=2, think_time=100.0, warmup=60_000, duration=180_000):
    drivers = [closed_driver(system, f"c{i}", think_time) for i in range(n_clients)]
    system.start(warmup=warmup)
    system.run(duration)
    return drivers


def test_system_boots_and_serves():
    system = ShardedSystem(ShardConfig(seed=1, n_shards=2, enable_rejuvenation=False))
    drivers = serve(system)
    assert system.is_safe
    assert system.completed_operations() > 50
    assert system.failed_operations() == 0
    assert "SAFE" in system.summary()
    assert "shards=2" in system.summary()


def test_deterministic_per_seed():
    def run(seed):
        system = ShardedSystem(
            ShardConfig(seed=seed, n_shards=2, enable_rejuvenation=False)
        )
        serve(system, duration=120_000)
        return (
            system.completed_operations(),
            [system.chip.metrics.counter(f"shard.{s}.ops").value
             for s in system.directory.shard_ids],
        )

    assert run(9) == run(9)


def test_shard_regions_are_disjoint_and_match_groups():
    system = ShardedSystem(ShardConfig(seed=2, n_shards=3))
    seen = set()
    for shard in system.shards.values():
        tiles = set(shard.region.tiles)
        assert not seen & tiles
        seen |= tiles
        # The group's replicas actually live inside the shard's region.
        assert set(shard.group.placement.values()) <= tiles


def test_capacity_exhaustion_raises():
    from repro.shard import PlacementError

    with pytest.raises(PlacementError):
        # 4x4 = 16 tiles cannot hold 6 minbft groups (18 replicas).
        ShardedSystem(ShardConfig(seed=1, n_shards=6, width=4, height=4))


def test_per_shard_rejuvenation_stays_inside_region():
    """Each shard rejuvenates independently and its replicas never leave
    the shard's tile region (relocate is off by default)."""
    system = ShardedSystem(ShardConfig(seed=3, n_shards=2))
    serve(system, duration=200_000)
    for shard in system.shards.values():
        assert shard.rejuvenation is not None
        assert shard.rejuvenation.passes > 0
        assert set(shard.group.placement.values()) <= set(shard.region.tiles)
    assert system.is_safe


def test_each_shard_keeps_its_own_variant_assignment():
    """Rejuvenation diversifies each shard against its own members only.

    Every shard owns its diversity manager: with one manager shared by
    all shards, each shard's ``assign`` overwrote the previous shard's
    entries, and a rejuvenation pass could move a replica onto a variant
    another live member of its shard runs (on this seed ``s1`` first
    shows such a pair at 130 000 sim-ms)."""
    system = ShardedSystem(ShardConfig(seed=3, n_shards=2, width=6, height=6))
    system.start()
    while system.sim.now < 260_000:
        system.run(5_000)
        for shard in system.shards.values():
            live = [m for m in shard.group.members if system.chip.has_node(m)]
            variants = [system.fabric.variant_at(system.chip.coord_of(m)) for m in live]
            assert len(set(variants)) == len(variants), (system.sim.now, shard.shard_id)
            diversity = shard.replication.diversity
            assert diversity is shard.rejuvenation.diversity
            assert set(diversity.assignment) == set(shard.group.members)
    assert all(shard.rejuvenation.passes > 0 for shard in system.shards.values())


def test_kill_shard_degrades_exactly_one_and_survivors_serve():
    system = ShardedSystem(
        ShardConfig(seed=4, n_shards=3, enable_rejuvenation=False)
    )
    drivers = [closed_driver(system, f"c{i}") for i in range(3)]
    system.start(warmup=70_000)
    system.run(60_000)
    system.kill_shard("s2")
    kill_at = system.sim.now
    system.run(120_000)
    assert system.directory.degraded_shards() == ["s2"]
    assert system.directory.live_shards() == ["s0", "s1"]
    # Survivors keep serving and stay safe.
    post = sum(d.completions_in(kill_at + 20_000, system.sim.now) for d in drivers)
    assert post > 0
    assert all(system.shard_safe(s) for s in system.directory.live_shards())
    assert system.is_safe
    # Traffic at the dead shard fails fast once the directory flips.
    rejected = sum(
        r.stats["s2"].rejected_degraded for r in system.routers
    )
    assert rejected > 0
    assert "degraded=1" in system.summary()


def test_per_shard_adaptation_is_independent():
    """Escalate only one shard: its controller switches protocols while
    the other shard stays on the initial protocol and keeps serving."""
    system = ShardedSystem(
        ShardConfig(seed=5, n_shards=2, protocol="cft",
                    enable_adaptation=True, enable_rejuvenation=False,
                    adaptation=AdaptationPolicy())
    )
    drivers = [closed_driver(system, f"c{i}") for i in range(2)]
    system.start(warmup=60_000)
    victim = system.shards["s0"]
    # Crash the CFT leader of s0 only: its detector escalates.
    system.sim.schedule(
        30_000, victim.group.crash, victim.group.members[0]
    )
    system.run(700_000)
    # s0 escalated away from cft at least once (switching rebuilds the
    # group, which clears the fault, so it may later return to cft).
    assert victim.adaptation is not None and victim.adaptation.switches
    assert any(dst != "cft" for (_, _, dst, _) in victim.adaptation.switches)
    other = system.shards["s1"]
    assert other.group.protocol == "cft"
    assert not other.adaptation.switches
    assert other.detector.level == ThreatLevel.LOW
    assert system.is_safe


def test_shard_metrics_report():
    system = ShardedSystem(ShardConfig(seed=6, n_shards=2, enable_rejuvenation=False))
    serve(system, duration=120_000)
    for sid in system.directory.shard_ids:
        m = system.shard_metrics(sid)
        assert m["shard"] == sid
        assert m["status"] == "live"
        assert m["protocol"] == "minbft"
        assert m["replicas"] == 3
        assert m["safe"] is True
        assert m["ops"] >= 0
        assert m["p50_latency"] <= m["p95_latency"]
    # The keyspace genuinely splits: both shards saw traffic.
    assert all(
        system.chip.metrics.counter(f"shard.{sid}.ops").value > 0
        for sid in system.directory.shard_ids
    )


def test_health_monitor_restores_recovered_shard(monkeypatch):
    """Degradation is reversible: recover the crashed replicas and the
    health monitor flips the shard back to live."""
    monkeypatch.setattr(ShardedSystem, "HEALTH_CHECK_PERIOD", 5_000.0)
    system = ShardedSystem(ShardConfig(seed=7, n_shards=2, enable_rejuvenation=False))
    serve(system, n_clients=1, duration=30_000)
    shard = system.shards["s0"]
    for name in shard.group.members[:2]:
        shard.group.replicas[name].crash()
    system.run(20_000)
    assert system.directory.is_degraded("s0")
    for name in shard.group.members[:2]:
        shard.group.replicas[name].recover()
    system.run(20_000)
    assert not system.directory.is_degraded("s0")


def test_single_shard_matches_resilient_system_shape():
    """n_shards=1 is the degenerate case: everything routes to one group."""
    system = ShardedSystem(ShardConfig(seed=8, n_shards=1, enable_rejuvenation=False))
    drivers = serve(system, n_clients=1, duration=120_000)
    assert system.completed_operations() == drivers[0].completed > 0
    assert system.chip.metrics.counter("shard.s0.ops").value == drivers[0].completed


# ----------------------------------------------------------------------
# The traffic API: attach_population
# ----------------------------------------------------------------------
def test_attach_population_is_primary_api():
    from repro.mesoscale import ClientPopulation
    from repro.workloads import kv_workload

    system = ShardedSystem(ShardConfig(seed=30, n_shards=2, enable_rejuvenation=False))
    pop = system.attach_population(
        "edge",
        PopulationConfig(
            n_clients=10_000,
            workload=kv_workload(keys=64, rate_per_client=4e-7),
        ),
    )
    assert isinstance(pop, ClientPopulation)
    assert system.populations == [pop]
    system.start(warmup=60_000)
    system.run(60_000)
    assert pop.completed > 0
    assert system.is_safe
