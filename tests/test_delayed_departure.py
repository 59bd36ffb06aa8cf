"""Sending with a departure ahead of the clock (DESIGN §4, *When a copy
leaves*).

``NocNetwork.send(..., depart_at=t)`` commits a packet now that enters the
fabric at ``t``; ``Node.send`` runs its outbound filters now and, until
``t``, a crash withdraws the packet.  PBFT sends each copy of a multicast
this way, as soon as the MAC its recipient checks is done.  The oracles:

* the hop-by-hop reference and the analytic traversal agree on every
  delivery, drop and load of scenarios whose sends depart late and are
  sometimes withdrawn (``tests/test_noc_analytic.py``'s scenarios, with
  faults in flight);
* a delayed packet arrives when the same packet sent at its departure
  would, and a withdrawn one re-times what it had pushed back;
* a PBFT replica that crashes between the start of its MACs and a copy's
  departure sends nothing more, its filters see each copy once, an
  off-chip copy leaves at its departure, and its core is exactly as busy
  as one charge of the whole MAC vector would leave it.
"""

import random

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import Prepare
from repro.crypto.mac import MAC_LENGTH
from repro.noc import Coord, MeshTopology, NocConfig, NocNetwork
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node
from repro.sos import MultiChipSystem
from tests.noc_loads import delivery_log, derived_loads
from tests.test_noc_analytic import draw_scenario

SEEDS = range(96)


# ----------------------------------------------------------------------
# The NoC: both traversal modes, departures ahead and withdrawals
# ----------------------------------------------------------------------
def draw_departures(seed, n_sends):
    """Per scheduled send: (delay to its departure, withdraw after or None)."""
    rng = random.Random(10_000 + seed)
    out = []
    for _ in range(n_sends):
        delay = rng.choice([0.0, 0.0, 1.0, 6.0, 40.0, 120.0, 400.0])
        withdraw = None
        if delay > 1.0 and rng.random() < 0.2:
            withdraw = float(rng.randrange(int(delay)))
        out.append((delay, withdraw))
    return out


def play(scenario, departures, express):
    """``test_noc_analytic.play`` with each scheduled send departing
    ``delay`` after it is made, some withdrawn before they leave, and
    every reply departing a few units after its request arrives."""
    width, height = scenario["mesh"]
    sim = Simulator()
    net = NocNetwork(sim, MeshTopology(width, height), NocConfig(
        express_routing=express,
        adaptive_routing=scenario["adaptive"],
        drop_corrupted_silently=scenario["drop_corrupted"],
    ))
    sent, delivered, withdrawn = [], [], []

    def send(src, dst, size, reply=0, fault=None, delay=0.0, withdraw=None):
        packet = net.send(src, dst, (reply, fault), size, depart_at=sim.now + delay)
        sent.append(packet)
        if withdraw is not None:
            sim.schedule(withdraw, lambda: (withdrawn.append(packet), net.withdraw(packet)))

    def handler(packet):
        delivered.append(packet)
        reply, fault = packet.payload
        if fault is not None:
            how, (kind, target), (repair_after, undo, undo_target) = fault
            sim.schedule(repair_after, getattr(net, undo), *undo_target)
            if how == "direct":
                getattr(net, kind)(*target)
            else:
                sim.call_soon(getattr(net, kind), *target)
        if reply:
            send(packet.dst, packet.src, reply, delay=float(packet.packet_id % 3) * 7.0)

    for coord in net.routers:
        if coord != scenario["deaf"]:
            net.attach(coord, handler)

    def schedule_sends():
        for (at, *args), (delay, withdraw) in zip(scenario["sends"], departures):
            sim.schedule_at(at, send, *args, delay, withdraw)

    if not scenario["faults_first"]:
        schedule_sends()
    for at, method, args in scenario["actions"]:
        sim.schedule_at(at, getattr(net, method), *args)
    if scenario["faults_first"]:
        schedule_sends()

    if scenario["drive"] == "step":
        while sim.step():
            pass
    for boundary, faults, outside in scenario["between"]:
        sim.run(until=boundary)
        for src, dst, size in outside[:1]:
            send(src, dst, size, delay=5.0)  # between runs, departing later
        for method, args in faults:
            getattr(net, method)(*args)
        for src, dst, size in outside[1:]:
            send(src, dst, size)
    sim.run()

    assert all(p.dropped or p.delivered_at is not None for p in sent)
    assert all(p.delivered_at is None for p in withdrawn)
    return {
        "deliveries": [
            (p.packet_id, p.injected_at, p.delivered_at, p.hops, p.corrupted, tuple(p.path))
            for p in delivered
        ],
        "drops": [(p.packet_id, p.drop_reason, p.hops, tuple(p.path)) for p in sent if p.dropped],
        **derived_loads(sent),
        "flit_hops": net.metrics.counter("noc.flit_hops").value,
        "dropped": net.metrics.counter("noc.dropped").value,
        "now": sim.now,
    }


@pytest.mark.parametrize("chunk", range(8))
def test_delayed_and_withdrawn_sends_agree_in_both_traversal_modes(chunk):
    for seed in SEEDS[chunk::8]:
        scenario = draw_scenario(seed)
        departures = draw_departures(seed, len(scenario["sends"]))
        reference = play(scenario, departures, express=False)
        analytic = play(scenario, departures, express=True)
        for key in reference:
            assert analytic[key] == reference[key], (seed, key)
        assert reference["deliveries"], seed


def test_the_scenarios_withdraw_packets_that_hold_slots_and_delay_behind_them(monkeypatch):
    """Withdrawals in the analytic mode hit reserved packets, and the
    packets they had pushed back are re-timed."""
    released, requeued = [0], [0]
    withdraw, requeue = NocNetwork.withdraw, NocNetwork._requeue

    def counting_withdraw(self, packet):
        released[0] += packet._index
        withdraw(self, packet)

    def counting_requeue(self, displaced):
        requeued[0] += len(displaced)
        requeue(self, displaced)

    monkeypatch.setattr(NocNetwork, "withdraw", counting_withdraw)
    monkeypatch.setattr(NocNetwork, "_requeue", counting_requeue)
    for seed in SEEDS[:24]:
        scenario = draw_scenario(seed)
        play(scenario, draw_departures(seed, len(scenario["sends"])), express=True)
    assert released[0] > 50 and requeued[0] > 50


def line(express):
    sim = Simulator()
    net = NocNetwork(sim, MeshTopology(6, 1), NocConfig(express_routing=express))
    got = []
    for coord in net.routers:
        net.attach(coord, lambda packet: got.append((packet.payload, packet.delivered_at)))
    return sim, net, got


@pytest.mark.parametrize("express", [False, True])
def test_a_delayed_packet_arrives_as_if_sent_at_its_departure(express):
    sim, net, got = line(express)
    sim.schedule_at(10.0, lambda: net.send(Coord(0, 0), Coord(5, 0), "late", depart_at=50.0))
    sim.run()
    sim2, net2, got2 = line(express)
    sim2.schedule_at(50.0, lambda: net2.send(Coord(0, 0), Coord(5, 0), "late"))
    sim2.run()
    assert got == got2 == [("late", 50.0 + 5 * 6)]  # five uncontended 6-unit hops


@pytest.mark.parametrize("express", [False, True])
def test_a_withdrawn_packet_leaves_the_link_to_whoever_it_delayed(express):
    """A leaves at 50; B, sent at 20 to leave at 50 too, is younger and
    queues behind it on every hop.  A is withdrawn at 30: B arrives as if
    A had never been sent, and A never arrives."""
    sim, net, got = line(express)
    packets = []
    sim.schedule_at(10.0, lambda: packets.append(net.send(Coord(0, 0), Coord(5, 0), "A", depart_at=50.0)))
    sim.schedule_at(20.0, lambda: packets.append(net.send(Coord(0, 0), Coord(5, 0), "B", depart_at=50.0)))
    sim.schedule_at(30.0, lambda: net.withdraw(packets[0]))
    sim.run()
    assert got == [("B", 80.0)]
    assert packets[0].dropped and packets[0].hops == 0 and packets[0].delivered_at is None
    assert net.metrics.counter("noc.dropped").value == 0  # it never entered the fabric
    assert all(slot[4] is packets[1] for link in net.links.values() for slot in link.slots)


# ----------------------------------------------------------------------
# PBFT: one MAC per copy, each copy leaving when its own MAC is done
# ----------------------------------------------------------------------
def pbft_group(f=1):
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="pbft", f=f, group_id="g"))
    return sim, chip, group


def vote(replica):
    return Prepare(replica.view, 1, b"d" * 32, replica.name)


@pytest.mark.parametrize("busy_for", [0.0, 75.0])
def test_a_multicast_reserves_the_mac_vector_and_each_copy_leaves_with_its_mac(busy_for):
    """The core ends exactly as busy as one charge of (n - 1) MACs left
    it (``start + mac_compute · (n - 1)``, the whole vector before each
    copy came to leave on its own); copy k leaves at ``start +
    k · mac_compute`` carrying the one MAC its recipient checks."""
    sim, chip, group = pbft_group()
    primary = group.replicas[group.members[0]]
    log = delivery_log(chip)
    sim.run(until=1_000.0)
    primary.charge(busy_for)
    start = sim.now + busy_for
    mac = primary.costs.mac_compute
    message = vote(primary)
    sent_before, bytes_before = primary.messages_sent, primary.bytes_sent
    primary._auth_multicast(message)
    others = primary.other_members()
    assert primary._busy_until == start + mac * len(others)
    sim.run(until=sim.now + 5_000.0)
    copies = [entry for entry in log if entry[1] == primary.coord]
    assert [entry[3] for entry in copies] == [start + mac * k for k in range(1, len(others) + 1)]
    assert [chip.tiles[entry[2]].node.name for entry in copies] == others
    assert primary.messages_sent - sent_before == len(others)
    assert primary.bytes_sent - bytes_before == len(others) * (message.wire_size() + MAC_LENGTH)


@pytest.mark.parametrize("crash_after", [1.0, 41.0, 81.0])
def test_a_crash_before_a_copy_leaves_withdraws_it(crash_after):
    """Crashing 1, 41 or 81 sim-ms into the MAC vector: 0, 1 or 2 copies
    have left and arrive; the others are taken back — never delivered,
    no longer counted as sent, no slot left in any calendar."""
    sim, chip, group = pbft_group()
    primary = group.replicas[group.members[0]]
    log = delivery_log(chip)
    sim.run(until=1_000.0)
    assert primary._busy_until <= sim.now
    sent_before, bytes_before = primary.messages_sent, primary.bytes_sent
    primary._auth_multicast(vote(primary))
    sim.schedule(crash_after, primary.crash)
    sim.run(until=sim.now + 5_000.0)
    departed = int(crash_after // primary.costs.mac_compute)
    copies = [entry for entry in log if entry[1] == primary.coord]
    assert len(copies) == departed
    assert primary.messages_sent - sent_before == departed
    assert primary.bytes_sent - bytes_before == departed * (vote(primary).wire_size() + MAC_LENGTH)
    # What the calendars still hold (behind the clock) was delivered.
    assert all(
        slot[4].delivered_at is not None for link in chip.noc.links.values() for slot in link.slots
    )
    assert not primary._departing


def test_a_retired_replica_withdraws_what_has_not_left():
    sim, chip, group = pbft_group()
    primary = group.replicas[group.members[0]]
    log = delivery_log(chip)
    sim.run(until=1_000.0)
    primary._auth_multicast(vote(primary))
    sim.schedule(50.0, primary.shutdown)
    sim.run(until=sim.now + 5_000.0)
    assert len([entry for entry in log if entry[1] == primary.coord]) == 1


def test_outbound_filters_see_each_copy_once_when_its_macs_start():
    sim, chip, group = pbft_group(f=2)
    primary = group.replicas[group.members[0]]
    sim.run(until=1_000.0)
    seen = []
    primary.add_outbound_filter(lambda dst, message: (seen.append((sim.now, dst, message)), message)[1])
    message = vote(primary)
    primary._auth_multicast(message)
    assert seen == [(1_000.0, dst, message) for dst in primary.other_members()]
    sim.run(until=sim.now + 5_000.0)
    assert len(seen) == len(primary.other_members())


def test_a_group_with_departures_serves_its_clients_in_both_modes():
    """The same PBFT run, delivery for delivery, hop by hop and analytic."""
    logs = []
    for express in (False, True):
        sim = Simulator(seed=8)
        chip = Chip(sim, ChipConfig(width=5, height=5, noc=NocConfig(express_routing=express)))
        log = delivery_log(chip)
        group = build_group(chip, GroupConfig(protocol="pbft", f=1, group_id="g"))
        client = ClientNode("c0", ClientConfig(think_time=20, timeout=20_000, max_outstanding=4))
        group.attach_client(client)
        client.start()
        sim.schedule(30_000.0, group.crash, group.members[1])
        sim.run(until=60_000.0)
        assert client.completed > 100 and group.safety.is_safe
        logs.append(log)
    assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# Off chip: the tunnel to the gateway leaves at the departure too
# ----------------------------------------------------------------------
class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.sim.now, message))


def two_chips():
    sim = Simulator(seed=1)
    system = MultiChipSystem(sim)
    for name in ("A", "B"):
        system.add_chip(name, Chip(sim, ChipConfig(width=4, height=4)))
    system.connect("A", "B")
    a, b = Node("a"), Sink("b")
    system.chips["A"].place_node(a, Coord(3, 3))
    system.chips["B"].place_node(b, Coord(2, 2))
    return sim, system, a, b


def test_an_off_chip_copy_leaves_at_its_departure():
    sim, _, a, b = two_chips()
    sim.schedule_at(100.0, lambda: a.send("b", "late", 64, depart_at=600.0))
    sim.run()
    sim2, _, a2, b2 = two_chips()
    sim2.schedule_at(600.0, lambda: a2.send("b", "late", 64))
    sim2.run()
    assert b.received == b2.received and len(b.received) == 1
    assert b.received[0][0] > 600.0


def test_an_off_chip_copy_is_withdrawn_by_a_crash_before_it_leaves():
    sim, system, a, b = two_chips()
    sent = []
    sim.schedule_at(100.0, lambda: sent.append(a.send("b", "late", 64, depart_at=600.0)))
    sim.schedule_at(300.0, a.crash)
    sim.run()
    assert b.received == [] and sent[0].dropped and a.messages_sent == 0
