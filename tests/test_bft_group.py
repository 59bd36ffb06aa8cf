"""Tests for group construction, protocol switching, and elastic scaling."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.group import FAMILIES, protocol_config_for
from repro.bft.batching import BatchConfig
from repro.bft.leases import LeaseConfig
from repro.bft.replica import BaseReplica
from repro.core import (
    DiversityManager,
    RejuvenationPolicy,
    RejuvenationScheduler,
    ReplicationManager,
    VariantLibrary,
)
from repro.fabric import FpgaFabric
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import kv_workload


def test_build_group_places_replicas(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="pbft", f=1))
    assert len(group.members) == 4
    assert all(big_chip.has_node(m) for m in group.members)
    assert group.reply_quorum == 2


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        GroupConfig(protocol="raft9000")


def test_insufficient_tiles_rejected():
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=1, height=2))
    with pytest.raises(ValueError):
        build_group(chip, GroupConfig(protocol="pbft", f=1))


def test_switch_protocol_preserves_state(big_chip):
    sim = big_chip.sim
    group = build_group(big_chip, GroupConfig(protocol="cft", f=1))
    client = ClientNode("c0", ClientConfig(think_time=50, max_requests=30))
    group.attach_client(client)
    client.start()
    sim.run(until=200_000)
    assert client.completed == 30
    executed_before = max(r.last_executed for r in group.replicas.values())

    group.switch_protocol("minbft")
    assert group.protocol == "minbft"
    assert len(group.members) == 3
    for replica in group.replicas.values():
        assert replica.last_executed == executed_before  # state carried

    client.config.max_requests = 60
    client.start()
    sim.run(until=600_000)
    assert client.completed == 60
    assert group.safety.is_safe


def test_switch_grows_group_for_pbft(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="minbft", f=1))
    group.switch_protocol("pbft")
    assert len(group.members) == 4
    assert all(big_chip.has_node(m) for m in group.members)


def test_switch_shrinks_group_for_cft(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="pbft", f=1))
    group.switch_protocol("cft")
    assert len(group.members) == 3
    # The surplus tile is free again.
    assert len(big_chip.free_tiles()) == 36 - 3


def test_switch_reconfigures_clients(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="pbft", f=1))
    client = ClientNode("c0")
    group.attach_client(client)
    assert client.session.reply_quorum == 2
    group.switch_protocol("cft")
    assert client.session.reply_quorum == 1
    assert client.session.members == group.members


def test_switch_counts_metric(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="cft", f=1, group_id="gX"))
    group.switch_protocol("minbft")
    assert big_chip.metrics.counter("gX.protocol_switches").value == 1


# ----------------------------------------------------------------------
# ReplicationManager: fabric-spawned groups and elasticity
# ----------------------------------------------------------------------
def make_managed(seed=1, protocol="minbft", f=1, n_variants=4, protocol_config=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", n_variants, 2)
    fabric.register_variants("svc", library.names())
    diversity = DiversityManager(library)
    manager = ReplicationManager(chip, fabric, diversity)
    group = manager.deploy_group(
        GroupConfig(protocol=protocol, f=f, group_id="m", protocol_config=protocol_config)
    )
    return sim, chip, fabric, manager, group


def test_deploy_group_spawns_via_icap():
    sim, chip, fabric, manager, group = make_managed()
    assert not any(chip.has_node(m) for m in group.members)  # still spawning
    sim.run(until=50_000)
    assert all(chip.has_node(m) for m in group.members)
    assert fabric.spawn_count == 3
    # Spawn completions are serialized by the single ICAP.
    times = sorted(manager.spawn_completions.values())
    assert times[0] < times[1] < times[2]


def test_deployed_group_serves_clients():
    sim, chip, fabric, manager, group = make_managed()
    sim.run(until=50_000)
    client = ClientNode("c0", ClientConfig(think_time=50, max_requests=20))
    group.attach_client(client)
    client.start()
    sim.run(until=500_000)
    assert client.completed == 20
    assert group.safety.is_safe


def test_diversity_assignment_spreads_variants():
    sim, chip, fabric, manager, group = make_managed(n_variants=4)
    sim.run(until=50_000)
    variants = {fabric.variant_at(chip.coord_of(m)) for m in group.members}
    assert len(variants) == 3  # 3 replicas, all distinct


def test_scale_out_adds_replica():
    sim, chip, fabric, manager, group = make_managed()
    sim.run(until=50_000)
    name = manager.scale_out()
    assert name == "m-r3"
    sim.run(until=100_000)
    assert chip.has_node("m-r3")
    assert len(group.members) == 4


def test_scale_in_removes_surplus():
    sim, chip, fabric, manager, group = make_managed()
    sim.run(until=50_000)
    manager.scale_out()
    sim.run(until=100_000)
    removed = manager.scale_in()
    assert removed == "m-r3"
    assert not chip.has_node("m-r3")


def test_only_a_launch_exports_the_donor_state(monkeypatch):
    """A scale-out hands its new member the most advanced member's state;
    a scale-in launches nobody, so it exports nothing."""
    sim, chip, fabric, manager, group = make_managed()
    sim.run(until=50_000)
    exports = []
    export_state = BaseReplica.export_state
    monkeypatch.setattr(
        BaseReplica, "export_state", lambda self: exports.append(self.name) or export_state(self)
    )
    manager.scale_out()
    assert len(exports) == 1
    sim.run(until=100_000)
    before = len(exports)  # state requests answered while the sim ran
    assert manager.scale_in() == "m-r3"
    assert len(exports) == before


def test_scale_in_respects_protocol_minimum():
    sim, chip, fabric, manager, group = make_managed()
    sim.run(until=50_000)
    assert manager.scale_in() is None  # already at minimum (2f+1 = 3)


def test_scaling_keeps_clients_on_leased_reads():
    """A scale event re-points clients; it must not drop their read mode
    (scale_out/scale_in used to reconfigure with two of four parameters,
    silently sending a lease-enabled group's reads back to quorum reads)."""
    sim, chip, fabric, manager, group = make_managed(
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig())
    )
    sim.run(until=50_000)
    client = ClientNode("c0", ClientConfig(think_time=50))
    group.attach_client(client)
    assert client.session.lease_reads is True
    manager.scale_out()
    sim.run(until=100_000)
    assert client.session.members == group.members and len(client.session.members) == 4
    assert client.session.lease_reads is True
    assert client.session.reply_quorum == group.reply_quorum
    manager.scale_in()
    assert client.session.members == group.members and len(client.session.members) == 3
    assert client.session.lease_reads is True
    assert client.session.reply_quorum == group.reply_quorum
    assert group.replicas["m-r0"].lease_manager is not None


def test_switch_protocol_config_governs_later_spawns():
    """The group builds members from its *current* protocol config: a
    switch rebuilds it in the new family, so a later scale-out hands the
    new member that family's config — with the group's leases — and never
    the old family's config object."""
    leases = LeaseConfig()
    sim, chip, fabric, manager, group = make_managed(
        protocol_config=protocol_config_for("minbft", leases=leases)
    )
    sim.run(until=50_000)
    group.switch_protocol("pbft")
    manager.scale_out()
    sim.run(until=100_000)
    spawned = group.replicas["m-r4"]
    assert type(spawned.config) is FAMILIES["pbft"].config_cls
    assert spawned.config.leases is leases and spawned.lease_manager is not None


def test_switch_keeps_batching_and_leases():
    """The adaptation controller switches with no explicit config: the new
    family keeps the group's batching and leases, and its clients keep
    leased reads; every other field is the new family's default."""
    batching, leases = BatchConfig(batch_size=4, batch_delay=100.0), LeaseConfig()
    sim, chip, fabric, manager, group = make_managed(
        protocol_config=protocol_config_for(
            "minbft", batching=batching, leases=leases, view_timeout=8_000.0
        )
    )
    sim.run(until=50_000)
    client = ClientNode(
        "c0", ClientConfig(think_time=50, max_outstanding=4, workload=kv_workload(read_ratio=0.5))
    )
    group.attach_client(client)
    client.start()
    sim.run(until=150_000)
    group.switch_protocol("pbft")
    config = group.config.protocol_config
    assert type(config) is FAMILIES["pbft"].config_cls
    assert config.batching is batching and config.leases is leases
    assert config.view_timeout == FAMILIES["pbft"].config_cls().view_timeout
    for replica in group.replicas.values():
        assert replica.batcher is not None
        assert replica.lease_table is not None and replica.lease_manager is not None
    assert client.session.lease_reads is True
    done, leased = client.completed, client.leased_reads_completed
    sim.run(until=400_000)
    assert client.completed > done and client.leased_reads_completed > leased
    assert group.safety.is_safe


def test_switch_holds_writes_while_an_old_grant_may_be_live():
    """The old primary's last LeaseGrant is still in flight when the group
    switches, and the rebuilt member of the same name accepts it.  The new
    primary never issued that grant, so it cannot revoke it: it holds
    conflicting writes for one lease duration instead."""
    leases = LeaseConfig()
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(
        chip,
        GroupConfig(protocol="minbft", group_id="g",
                    protocol_config=protocol_config_for("minbft", leases=leases)),
    )
    client = ClientNode("c0", ClientConfig(think_time=50, workload=kv_workload(read_ratio=0.5)))
    group.attach_client(client)
    client.start()
    switch_at = 20 * leases.renew_period  # members started at 0: a renewal fires now
    sim.run(until=switch_at)
    group.switch_protocol("pbft")
    sim.run(until=switch_at + leases.renew_period / 2)  # before the new primary renews
    stale = [
        expiry
        for replica in group.replicas.values() if replica.lease_table is not None
        for _, _, expiry in replica.lease_table._grants.values()
    ]
    assert stale and max(stale) <= switch_at + leases.duration
    primary = group.replicas[group.members[0]].lease_manager
    assert primary.quiesce_until >= max(stale)


# ----------------------------------------------------------------------
# One membership path: what every step keeps true on the fabric
# ----------------------------------------------------------------------
def assert_membership_invariants(chip, fabric, manager, group):
    record = manager.diversity.assignment
    assert set(record) == set(group.members)
    for name in group.members:
        assert chip.coord_of(name) == group.placement[name]
        assert fabric.variant_at(group.placement[name]) == record[name]
    member_tiles = set(group.placement.values())
    assert all(
        region.variant is None
        for coord, region in fabric.regions.items() if coord not in member_tiles
    )
    assert len(set(record.values())) == len(group.members)


def test_membership_steps_keep_regions_records_and_members_in_step():
    """Deploy, scale out, switch to PBFT and back, scale out and in again,
    under diversifying, relocating rejuvenation.  After each step (no
    pass in flight) every member's region holds the variant diversity
    records for it, the record names exactly the members, no other
    region holds an image and no two members share one.  A scale-out
    used to re-assign every member over what rejuvenation recorded, and
    a shrinking switch left the dropped member's image configured."""
    sim, chip, fabric, manager, group = make_managed(n_variants=6)
    client = ClientNode("c0", ClientConfig(think_time=100))
    scheduler = RejuvenationScheduler(
        group, fabric, manager.diversity,
        RejuvenationPolicy(period=5_000, diversify=True, relocate=True),
    )
    sim.run(until=30_000)
    group.attach_client(client)
    client.start()
    scheduler.start()
    steps = [
        ("deploy", lambda: None),
        ("scale_out", manager.scale_out),
        ("pbft", lambda: group.switch_protocol("pbft")),
        ("minbft", lambda: group.switch_protocol("minbft")),
        ("scale_out again", manager.scale_out),
        ("scale_in", manager.scale_in),
    ]
    sizes = []
    for _, step in steps:
        sim.run(until=sim.now + 40_000)  # several passes land
        scheduler.stop()
        sim.run(until=sim.now + 10_000)  # the last pass (and any spawn) commits
        step()
        sim.run(until=sim.now + 10_000)
        assert_membership_invariants(chip, fabric, manager, group)
        sizes.append(len(group.members))
        scheduler.start()
    assert sizes == [3, 4, 4, 3, 4, 3]
    assert scheduler.passes > 10 and scheduler.failures == 0
    assert group.safety.is_safe and client.completed > 100
