"""Tests for the networked systems-of-SoCs layer (repro.sos)."""

import pytest

from repro.bft import ClientConfig, ClientNode
from repro.noc import Coord, NocConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node
from repro.sos import (
    InterChipLink,
    InterChipLinkConfig,
    MultiChipSystem,
    build_spanning_group,
)


class Echo(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def two_chip_system(seed=1):
    sim = Simulator(seed=seed)
    system = MultiChipSystem(sim)
    system.add_chip("A", Chip(sim, ChipConfig(width=4, height=4)))
    system.add_chip("B", Chip(sim, ChipConfig(width=4, height=4)))
    system.connect("A", "B")
    return sim, system


# ----------------------------------------------------------------------
# Link
# ----------------------------------------------------------------------
def test_link_config_validation():
    with pytest.raises(ValueError):
        InterChipLinkConfig(latency=-1)
    with pytest.raises(ValueError):
        InterChipLinkConfig(bytes_per_cycle=0)


def test_link_transfer_time_scales_with_size():
    sim = Simulator()
    link = InterChipLink(sim, "A", "B", InterChipLinkConfig(latency=100, bytes_per_cycle=2))
    assert link.transfer_time(200) == 100 + 100
    assert link.transfer_time(2000) > link.transfer_time(200)


def test_link_serializes_messages():
    sim = Simulator()
    link = InterChipLink(sim, "A", "B", InterChipLinkConfig(latency=0, bytes_per_cycle=1))
    first = link.reserve(1000, now=0.0)
    second = link.reserve(1000, now=0.0)
    assert second == first + 1000


# ----------------------------------------------------------------------
# Cross-chip messaging
# ----------------------------------------------------------------------
def test_cross_chip_delivery():
    sim, system = two_chip_system()
    a, b = Echo("a"), Echo("b")
    system.chips["A"].place_node(a, Coord(2, 2))
    system.chips["B"].place_node(b, Coord(3, 3))
    a.send("b", {"hello": 1}, size_bytes=64)
    sim.run()
    assert b.received == [("a", {"hello": 1})]


def test_cross_chip_latency_exceeds_on_chip():
    sim, system = two_chip_system()
    a, b, local = Echo("a"), Echo("b"), Echo("local")
    system.chips["A"].place_node(a, Coord(0, 0))
    system.chips["A"].place_node(local, Coord(3, 3))
    system.chips["B"].place_node(b, Coord(3, 3))
    start = sim.now
    a.send("local", "x", size_bytes=64)
    sim.run()
    local_time = local.received and sim.now - start
    sim2, system2 = two_chip_system()
    a2, b2 = Echo("a"), Echo("b")
    system2.chips["A"].place_node(a2, Coord(0, 0))
    system2.chips["B"].place_node(b2, Coord(3, 3))
    a2.send("b", "x", size_bytes=64)
    sim2.run()
    remote_time = sim2.now
    assert remote_time > local_time * 3


def test_unknown_destination_dropped():
    sim, system = two_chip_system()
    a = Echo("a")
    system.chips["A"].place_node(a, Coord(0, 0))
    a.send("ghost", "x")
    sim.run()
    assert system.dropped_no_owner == 1


def test_multi_hop_chip_routing():
    sim = Simulator(seed=2)
    system = MultiChipSystem(sim)
    for name in ["A", "B", "C"]:
        system.add_chip(name, Chip(sim, ChipConfig(width=3, height=3)))
    system.connect("A", "B")
    system.connect("B", "C")  # no direct A-C link
    a, c = Echo("a"), Echo("c")
    system.chips["A"].place_node(a, Coord(1, 1))
    system.chips["C"].place_node(c, Coord(1, 1))
    assert system.chip_route("A", "C") == ["A", "B", "C"]
    a.send("c", "via-B", size_bytes=32)
    sim.run()
    assert c.received == [("a", "via-B")]


def test_failed_link_blocks_and_reroutes():
    sim = Simulator(seed=3)
    system = MultiChipSystem(sim)
    for name in ["A", "B", "C"]:
        system.add_chip(name, Chip(sim, ChipConfig(width=3, height=3)))
    system.connect("A", "B")
    system.connect("B", "C")
    system.connect("A", "C")
    a, c = Echo("a"), Echo("c")
    system.chips["A"].place_node(a, Coord(0, 0))
    system.chips["C"].place_node(c, Coord(0, 0))
    system.link("A", "C").fail()
    system.link("C", "A").fail()
    a.send("c", "detour", size_bytes=32)
    sim.run()
    assert c.received  # went A -> B -> C
    assert system.link("A", "B").messages_carried == 1


def test_duplicate_chip_rejected():
    sim, system = two_chip_system()
    with pytest.raises(ValueError):
        system.add_chip("A", Chip(sim, ChipConfig(width=2, height=2)))


def test_fail_chip_crashes_tiles_and_links():
    sim, system = two_chip_system()
    node = Echo("n")
    system.chips["B"].place_node(node, Coord(1, 1))
    system.fail_chip("B")
    assert node.state.value == "crashed"
    assert not system.link("A", "B").up
    system.repair_chip("B")
    assert system.link("A", "B").up


# ----------------------------------------------------------------------
# Spanning groups
# ----------------------------------------------------------------------
def spanning_setup(n_chips=3, protocol="minbft", f=1, seed=9):
    sim = Simulator(seed=seed)
    system = MultiChipSystem(sim)
    names = [f"chip{i}" for i in range(n_chips)]
    for name in names:
        system.add_chip(name, Chip(sim, ChipConfig(width=4, height=4)))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            system.connect(a, b)
    group = build_spanning_group(system, protocol=protocol, f=f)
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=30_000))
    group.attach_client(client)  # on chip0, the group's first chip
    return sim, system, group, client


def test_spanning_group_round_robin_placement():
    sim, system, group, client = spanning_setup()
    assert {m: system.owner_chip(m) for m in group.members} == {
        "span-r0": "chip0", "span-r1": "chip1", "span-r2": "chip2"
    }
    # Each lands on its chip's first free tile; the group lives on chip0.
    assert all(system.chips[f"chip{i}"].coord_of(f"span-r{i}") == Coord(0, 0)
               for i in range(3))
    assert group.chip is system.chips["chip0"]


def test_spanning_group_wraps_round_the_chips_and_grows_on_a_switch():
    """Member i lives on chip i mod k, at that chip's next free tile —
    also when a protocol switch adds a member to a running group."""
    sim, system, group, client = spanning_setup(protocol="pbft")
    owners = {m: system.owner_chip(m) for m in group.members}
    assert owners == {"span-r0": "chip0", "span-r1": "chip1", "span-r2": "chip2",
                      "span-r3": "chip0"}
    assert system.chips["chip0"].coord_of("span-r3") == sorted(system.chips["chip0"].tiles)[1]
    client.start()
    sim.run(until=150_000)
    group.switch_protocol("minbft")  # drops span-r3 from chip0
    assert system.owner_chip("span-r3") is None
    group.switch_protocol("pbft")  # and adds it back there
    assert system.owner_chip("span-r3") == "chip0"
    done = client.completed
    sim.run(until=400_000)
    assert client.completed > done + 50
    assert group.safety.is_safe


def test_spanning_group_serves_clients():
    sim, system, group, client = spanning_setup()
    client.start()
    sim.run(until=300_000)
    assert client.completed > 100
    assert group.safety.is_safe


def test_spanning_group_survives_whole_chip_failure():
    sim, system, group, client = spanning_setup()
    client.start()
    sim.run(until=150_000)
    before = client.completed
    system.fail_chip("chip1")  # hosts exactly one replica (= f)
    sim.run(until=500_000)
    assert client.completed > before + 100
    assert group.safety.is_safe


def test_spanning_group_stalls_beyond_f_chip_failures():
    sim, system, group, client = spanning_setup()
    client.start()
    sim.run(until=150_000)
    system.fail_chip("chip1")
    system.fail_chip("chip2")  # two chips = two replicas > f
    sim.run(until=250_000)
    stalled_at = client.completed
    sim.run(until=500_000)
    assert client.completed == stalled_at  # no quorum, no progress
    assert group.safety.is_safe  # but never unsafe


def test_single_chip_group_dies_with_its_chip():
    sim, system, group, client = spanning_setup(n_chips=1)
    client.start()
    sim.run(until=150_000)
    system.fail_chip("chip0")
    before = client.completed
    sim.run(until=400_000)
    assert client.completed == before


# ----------------------------------------------------------------------
# One kernel, several NoCs
# ----------------------------------------------------------------------
def test_same_instant_deliveries_on_two_chips_fire_in_one_order_in_both_modes():
    # Each chip's first packet; both are delivered at t=40.  "a" is sent
    # first (t=4, six 6-unit hops), but hop by hop its delivery is only
    # scheduled at t=34, long after that of "b" (t=6, one 34-unit hop).
    # Were both packet 0 of their own chip, their deliveries would tie on
    # (time, priority) and fire in scheduling order: a, b when analytic
    # and b, a hop by hop.  With one id sequence per kernel "a" is older.
    def order(express):
        sim = Simulator()
        system = MultiChipSystem(sim)
        log = []
        for name in ("A", "B"):
            config = ChipConfig(width=7, height=1, noc=NocConfig(express_routing=express))
            system.add_chip(name, Chip(sim, config))
            for coord in system.chips[name].noc.routers:
                system.chips[name].noc.attach(coord, lambda p: log.append((p.payload, sim.now)))
        a, b = system.chips["A"].noc, system.chips["B"].noc
        assert a.packet_ids is b.packet_ids
        sim.schedule_at(4.0, a.send, Coord(0, 0), Coord(6, 0), "a", 64)
        sim.schedule_at(6.0, b.send, Coord(0, 0), Coord(1, 0), "b", 512)
        sim.run()
        return log

    assert order(True) == order(False) == [("a", 40.0), ("b", 40.0)]


def test_express_on_off_identical_on_a_two_chip_system():
    # Same-instant NoC events are ranked by packet id on the shared
    # kernel; with per-chip ids they would tie across chips and fall back
    # to scheduling order, which differs between the traversal modes.
    def spanning_run(express):
        sim = Simulator(seed=5)
        system = MultiChipSystem(sim)
        for name in ("A", "B"):
            config = ChipConfig(width=4, height=4, noc=NocConfig(express_routing=express))
            system.add_chip(name, Chip(sim, config))
        system.connect("A", "B")
        group = build_spanning_group(system, protocol="minbft", f=1)
        clients = []
        for i, chip_name in enumerate(("A", "B", "A")):
            client = ClientNode(f"c{i}", ClientConfig(think_time=40, timeout=30_000))
            chip = system.chips[chip_name]
            chip.place_node(client, chip.free_tiles()[0])
            group.attach_client(client)
            client.start()
            clients.append(client)
        sim.run(until=120_000)
        assert group.safety.is_safe
        return (
            [client.completed for client in clients],
            [client.latencies_in(0, sim.now) for client in clients],
            {name: chip.metrics.dump() for name, chip in system.chips.items()},
        ), sim.events_fired

    (fast, fast_events), (slow, slow_events) = spanning_run(True), spanning_run(False)
    assert fast == slow
    assert min(fast[0]) > 50  # every client, both chips, was served through the tunnel
    assert fast_events < slow_events
