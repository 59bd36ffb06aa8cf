"""Failure-injection integration: protocols over a degraded NoC.

The paper's threat model includes the interconnect itself (links age,
routers die, corruption happens).  These tests drive full protocol stacks
while the NoC is being damaged and assert the resilience story holds at
the system level.
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.faults import FaultInjector
from repro.noc import Coord, NocConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def build(adaptive_routing, seed=17, protocol="minbft"):
    sim = Simulator(seed=seed)
    chip = Chip(
        sim,
        ChipConfig(width=5, height=5, noc=NocConfig(adaptive_routing=adaptive_routing)),
    )
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=10_000))
    group.attach_client(client)
    return sim, chip, group, client


def test_protocol_survives_transient_link_failures_with_adaptive_routing():
    sim, chip, group, client = build(adaptive_routing=True)
    injector = FaultInjector(sim, chip)
    links = sorted(chip.noc.links)
    draw = sim.rng.stream("test.links")
    for i in range(12):
        a, b = links[draw.randint(0, len(links) - 1)]
        injector.fail_link_at(a, b, 50_000 * (i + 1))
        injector.repair_link_at(a, b, 50_000 * (i + 1) + 20_000)
    client.start()
    sim.run(until=800_000)
    assert injector.injected_link_faults > 0
    assert client.completed > 300
    assert group.safety.is_safe


def test_corrupting_links_never_break_safety():
    sim, chip, group, client = build(adaptive_routing=False)
    # Degrade links around the primary: corrupted messages must be
    # discarded by end-to-end checks, not believed.
    primary_coord = chip.coord_of(group.members[0])
    for nb in chip.topology.neighbours(primary_coord):
        chip.noc.degrade_link(primary_coord, nb)
    client.start()
    sim.run(until=600_000)
    assert group.safety.is_safe
    assert chip.metrics.counter("g.corrupt_dropped").value > 0


def test_repair_restores_throughput():
    sim, chip, group, client = build(adaptive_routing=False)
    client.start()
    sim.run(until=100_000)
    healthy_rate = client.completions_in(50_000, 100_000)
    # Sever the primary's column links (XY routing cannot detour).
    primary_coord = chip.coord_of(group.members[0])
    for nb in chip.topology.neighbours(primary_coord):
        chip.noc.fail_link(primary_coord, nb)
    sim.run(until=250_000)
    for nb in chip.topology.neighbours(primary_coord):
        chip.noc.repair_link(primary_coord, nb)
    sim.run(until=450_000)
    recovered_rate = client.completions_in(400_000, 450_000)
    assert recovered_rate > healthy_rate * 0.5
    assert group.safety.is_safe


def test_isolated_primary_triggers_view_change():
    """Cutting every link of the primary's tile is indistinguishable from
    a crash: the group must fail over."""
    sim, chip, group, client = build(adaptive_routing=True)
    client.start()
    sim.run(until=60_000)
    primary = group.members[0]
    primary_coord = chip.coord_of(primary)
    for nb in chip.topology.neighbours(primary_coord):
        chip.noc.fail_link(primary_coord, nb)
    sim.run(until=1_200_000)
    # Progress resumed under a new primary.
    assert client.completed > 300
    assert group.safety.is_safe
    assert chip.metrics.counter("g.view_changes").value > 0


def test_router_failure_on_idle_tile_is_harmless_with_adaptive_routing():
    sim, chip, group, client = build(adaptive_routing=True)
    client.start()
    sim.run(until=50_000)
    # Fail a router on a tile hosting nobody.
    used = {chip.coord_of(m) for m in group.members} | {chip.coord_of("c0")}
    idle = next(c for c in chip.topology.coords() if c not in used)
    chip.noc.fail_router(idle)
    before = client.completed
    sim.run(until=300_000)
    assert client.completed > before + 100
    assert group.safety.is_safe
