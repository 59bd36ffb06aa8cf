"""The path a message walks: one object, one lookup, one frame per layer.

``Node.send``/``broadcast`` -> ``Chip.transmit``/``multicast`` ->
``NocNetwork.send``/``multicast`` on the way out, ``_step`` -> tile handler ->
``Node.deliver`` -> ``Node.after`` on the way in.  The sender and addressee
ride on the :class:`~repro.noc.packet.Packet` (there is no envelope object),
a broadcast is one pass down to the NoC, and every charge-then-continue goes
through ``Node.after``.  These tests pin that none of it is observable:

* (a) the lean path against the general one (a pass-through outbound filter
  forces ``broadcast`` to loop over ``send``), seeded, in both NoC modes;
* (b) ``Node.after`` against ``schedule(charge(d))``, bit for bit;
* (c) what the envelope used to decide — stale address, evicted node, dead
  tile, corrupted body, loopback, inter-chip tunnel — counter by counter;
* (d) the broadcast corner cases;
* (e) the deterministic count the speed claim rests on: Python calls inside
  ``repro`` for one PBFT batch round.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.noc import Coord, NocConfig
from repro.noc.packet import FLIT_BYTES, Packet, flits_for
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node, NodeState, is_corrupted
from repro.soc.costs import CostModel
from repro.sos import MultiChipSystem
from tests.noc_loads import derived_loads


class Recorder(Node):
    """Records what it handles, and when."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.sim.now, sender, message))


def passthrough(dst, message):
    return message


def make_chip(express=True, width=4, height=4, seed=1, **config):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(
        width=width, height=height, noc=NocConfig(express_routing=express), **config
    ))
    return sim, chip


def place(chip, *names_and_coords):
    nodes = []
    for name, (x, y) in names_and_coords:
        nodes.append(Recorder(name))
        chip.place_node(nodes[-1], Coord(x, y))
    return nodes


def counters(chip):
    """Every counter of the chip's registry by name (zero if never made)."""
    dump = chip.metrics.dump()
    names = [
        "chip.dropped_unplaced", "chip.dropped_stale_addr", "chip.dropped_dead_tile",
        "chip.dropped_malformed", "noc.delivered", "noc.dropped", "noc.flit_hops",
    ]
    return {name.split(".", 1)[1]: dump.get(name, {"value": 0})["value"] for name in names}


# ----------------------------------------------------------------------
# (a) lean path == general path, seeded, both NoC modes
# ----------------------------------------------------------------------
N_NODES = 8
GHOST = "ghost"  # a name that is never placed


def plan_for(seed, steps=120):
    """A seeded schedule of sends, broadcasts and upsets, fixed up front."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(N_NODES)]
    plan, at = [], 0.0
    for _ in range(steps):
        at += rng.choice([0.0, 0.0, 0.5, 1.0, 3.25, 17.0, 90.0])
        roll = rng.random()
        who = rng.choice(names)
        size = rng.choice([0, 1, 16, 17, 64, 96, 250])
        if roll < 0.35:
            plan.append((at, "send", who, rng.choice(names + [GHOST]), size))
        elif roll < 0.80:
            dsts = rng.sample(names + [GHOST], rng.randint(0, 6))
            plan.append((at, "broadcast", who, dsts, size))
        elif roll < 0.85:
            plan.append((at, "crash", who))
        elif roll < 0.90:
            plan.append((at, "recover", who))
        elif roll < 0.92:
            plan.append((at, "relocate", who, rng.randrange(64)))
        elif roll < 0.94:  # a send racing the addressee's move; who moves in
            plan.append((at, "send", who, rng.choice(names), size))
            plan.append((at + 1.0, "replace", plan[-1][3], who, rng.randrange(64)))
        elif roll < 0.96:
            plan.append((at, "evict", who))
        elif roll < 0.98:
            plan.append((at, "crash_tile", who))
        else:
            kind = rng.choice(["degrade_link", "fail_link", "repair_link"])
            plan.append((at, kind, rng.randrange(3), rng.randrange(4)))
    return plan


def run_plan(seed, express, general):
    sim, chip = make_chip(express, seed=seed)
    rng = random.Random(seed * 7919)
    coords = rng.sample(list(chip.topology.coords()), N_NODES)
    nodes = {f"n{i}": Recorder(f"n{i}") for i in range(N_NODES)}
    for (name, node), coord in zip(nodes.items(), coords):
        chip.place_node(node, coord)
        if general:
            node.add_outbound_filter(passthrough)

    packets, multicasts = [], []
    noc_send, noc_multicast = chip.noc.send, chip.noc.multicast

    def send(*args):
        packets.append(noc_send(*args))
        return packets[-1]

    def multicast(*args):
        multicasts.append(args)
        packets.extend(noc_multicast(*args))
        return packets[-len(args[1]):]

    chip.noc.send, chip.noc.multicast = send, multicast

    def act(kind, who, *rest):
        node = nodes[who] if who in nodes else None
        if kind == "send":
            node.send(rest[0], ("m", sim.now), rest[1])
        elif kind == "broadcast":
            node.broadcast(rest[0], ("b", sim.now), rest[1])
        elif kind == "crash":
            node.crash()
        elif kind == "recover":
            if chip.has_node(who) and chip.tiles[chip.coord_of(who)].state.value == "ok":
                node.recover()  # clears the filters
                if general:
                    node.add_outbound_filter(passthrough)
        elif kind == "relocate":
            free = chip.free_tiles()
            if chip.has_node(who) and free:
                chip.relocate_node(who, free[rest[0] % len(free)])
        elif kind == "replace":
            free = chip.free_tiles()
            if chip.has_node(who) and chip.has_node(rest[0]) and who != rest[0] and free:
                old = chip.coord_of(who)
                chip.relocate_node(who, free[rest[1] % len(free)])
                if chip.tiles[old].available:
                    chip.relocate_node(rest[0], old)
        elif kind == "evict":
            if chip.has_node(who):
                chip.remove_node(who)
        elif kind == "crash_tile":
            if chip.has_node(who):
                chip.tiles[chip.coord_of(who)].crash()
        else:  # degrade_link / fail_link / repair_link
            x, y = who, rest[0]
            getattr(chip.noc, kind)(Coord(x, y), Coord(x + 1, y))

    for at, kind, *rest in plan_for(seed):
        sim.schedule_at(at, act, kind, *rest)
    sim.run()
    return {
        "packets": [
            (p.packet_id, p.src, p.dst, p.sender, p.addressee, p.size_bytes, p.flits,
             p.injected_at, p.delivered_at, p.dropped, p.drop_reason, p.corrupted, p.hops,
             tuple(p.path))
            for p in packets
        ],
        "nodes": {
            name: (n.messages_sent, n.bytes_sent, n.messages_received,
                   [(t, s, repr(m)) for t, s, m in n.received])
            for name, n in nodes.items()
        },
        "metrics": chip.metrics.dump(),
        **derived_loads(packets),
        "now": sim.now,
    }, sim.events_fired, len(multicasts)


@pytest.mark.parametrize("seed", range(12))
def test_lean_path_equals_general_path_in_both_noc_modes(seed):
    runs = {}
    for express in (True, False):
        lean, lean_events, lean_multicasts = run_plan(seed, express, general=False)
        general, general_events, general_multicasts = run_plan(seed, express, general=True)
        assert lean_multicasts and not general_multicasts  # the two paths really differ
        assert lean == general, f"express_routing={express}"
        assert lean_events == general_events
        runs[express] = lean
    assert runs[True] == runs[False]
    assert runs[True]["metrics"]["noc.delivered"]["value"] > 20


def test_the_seeded_scenarios_reach_every_drop_counter():
    seen, reasons = set(), set()
    for seed in range(12):
        run = run_plan(seed, True, general=False)[0]
        seen.update(run["metrics"])
        reasons.update(packet[10] for packet in run["packets"])  # drop_reason
    assert {"chip.dropped_unplaced", "chip.dropped_stale_addr", "chip.dropped_dead_tile",
            "noc.dropped", "noc.delivered"} <= seen
    assert any(reason.endswith(" down") for reason in reasons)  # a link-down drop


# ----------------------------------------------------------------------
# (b) Node.after == schedule(charge(d)), bit for bit
# ----------------------------------------------------------------------
class TwoStep(Recorder):
    """Pays a second, caller-chosen cost before recording a message."""

    def on_message(self, sender, message):
        self.after(message, super().on_message, sender, message)


class TwoStepReference(TwoStep):
    """The idiom ``after`` replaced, spelled out."""

    def after(self, duration, callback, *args):
        return self.sim.schedule(self.charge(duration), callback, *args)


def run_costs(node_class, sends):
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(
        width=4, height=4, costs=CostModel().scaled(1 / 3),
        noc=NocConfig(link_latency=0.3, link_cycle_time=1 / 3, switch_latency=0.7),
    ))
    a, b, c = (node_class(name) for name in "abc")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(3, 2))
    chip.place_node(c, Coord(1, 3))
    at = 0.0
    for gap, cost, size in sends:
        at += gap
        sim.schedule_at(at, a.broadcast, ["b", "c"], cost, size)
        sim.schedule_at(at, c.send, "b", cost * 0.7, size)
    sim.run()
    return [n.received for n in (a, b, c)], sim.events_fired, b._busy_until, c._busy_until


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.integers(min_value=0, max_value=300),
    ),
    min_size=1, max_size=25,
))
def test_after_fires_when_schedule_of_charge_would(sends):
    assert run_costs(TwoStep, sends) == run_costs(TwoStepReference, sends)


def test_after_rejects_a_negative_duration_and_charges_nothing():
    sim, chip = make_chip()
    (node,) = place(chip, ("a", (0, 0)))
    with pytest.raises(ValueError):
        node.after(-0.5, node.on_message, "x", "y")
    assert node._busy_until == 0.0 and sim.pending_count() == 0
    event = node.after(0.0, node.on_message, "x", "y")
    assert event.time == 0.0 and node.charge(1.5) == 1.5


# ----------------------------------------------------------------------
# (c) what the envelope used to decide (values as at the parent commit)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("express", [True, False])
def test_stale_address_after_relocation(express):
    sim, chip = make_chip(express)
    a, b = place(chip, ("a", (0, 0)), ("b", (3, 3)))
    a.send("b", "old address", 64)
    chip.relocate_node("b", Coord(0, 3))  # b leaves while the packet flies
    (c,) = place(chip, ("c", (3, 3)))  # and someone else moves in
    sim.run()
    assert not b.received and not c.received
    assert counters(chip) == {
        "dropped_unplaced": 0, "dropped_stale_addr": 1, "dropped_dead_tile": 0,
        "dropped_malformed": 0, "delivered": 1, "dropped": 0, "flit_hops": 24,
    }
    a.send("b", "new address", 64)
    sim.run()
    assert [m for _, _, m in b.received] == ["new address"] and not c.received


@pytest.mark.parametrize("express", [True, False])
def test_evicted_node_and_crashed_tile(express):
    sim, chip = make_chip(express)
    a, b, c = place(chip, ("a", (0, 0)), ("b", (2, 0)), ("c", (0, 2)))
    a.send("b", "to the evicted", 64)
    a.send("c", "to the crashed tile", 64)
    chip.remove_node("b")
    chip.tiles[Coord(0, 2)].crash()
    sim.run()
    a.send("b", "nobody by that name", 64)
    b.send("a", "from the evicted", 64)  # b still holds its chip: sender unplaced
    sim.run()
    assert not a.received and not b.received and not c.received
    assert c.state is NodeState.CRASHED
    assert (a.messages_sent, b.messages_sent) == (3, 1)
    assert counters(chip) == {
        "dropped_unplaced": 2, "dropped_stale_addr": 0, "dropped_dead_tile": 2,
        "dropped_malformed": 0, "delivered": 2, "dropped": 0, "flit_hops": 16,
    }


@pytest.mark.parametrize("express", [True, False])
def test_corrupted_body_is_marked_for_the_protocol(express):
    sim, chip = make_chip(express)
    a, b = place(chip, ("a", (0, 0)), ("b", (2, 0)))
    chip.noc.degrade_link(Coord(0, 0), Coord(1, 0))
    a.send("b", "garbled", 64)
    sim.run()
    chip.noc.repair_link(Coord(0, 0), Coord(1, 0))
    a.send("b", "clean", 64)
    sim.run()
    (_, sender, first), (_, _, second) = b.received
    assert sender == "a" and is_corrupted(first) and first.original == "garbled"
    assert second == "clean" and not is_corrupted(second)
    assert counters(chip)["delivered"] == 2 and counters(chip)["dropped"] == 0


@pytest.mark.parametrize("express", [True, False])
def test_loopback_send_pays_one_switch_and_ignores_router_health(express):
    sim, chip = make_chip(express)
    (a,) = place(chip, ("a", (1, 1)))
    packet = a.send("a", "note to self", 64)
    chip.noc.fail_router(Coord(1, 1))  # a loopback never enters the fabric
    sim.run()
    assert (packet.sender, packet.addressee) == ("a", "a")
    assert (packet.hops, packet.path) == (0, [Coord(1, 1)])
    assert packet.delivered_at == chip.config.noc.switch_latency and not packet.dropped
    assert a.received == [(1.0 + chip.costs.handle_message, "a", "note to self")]
    assert derived_loads([packet]) == {"links": {}, "routers": {Coord(1, 1): 1}}
    assert counters(chip) == {
        "dropped_unplaced": 0, "dropped_stale_addr": 0, "dropped_dead_tile": 0,
        "dropped_malformed": 0, "delivered": 1, "dropped": 0, "flit_hops": 0,
    }


def test_raw_noc_traffic_on_a_chip_is_not_for_a_node():
    sim, chip = make_chip()
    (a,) = place(chip, ("a", (2, 2)))
    packet = chip.noc.send(Coord(0, 0), Coord(2, 2), "raw", 64)
    sim.run()
    assert packet.addressee is None and packet.delivered_at is not None
    assert not a.received and counters(chip)["dropped_malformed"] == 1


@pytest.mark.parametrize("express", [True, False])
def test_tunnel_through_a_gateway_tile_that_hosts_nobody(express):
    sim = Simulator(seed=1)
    system = MultiChipSystem(sim)
    chips = {}
    for name in "AB":
        config = ChipConfig(width=4, height=4, noc=NocConfig(express_routing=express))
        chips[name] = Chip(sim, config)
        system.add_chip(name, chips[name])  # gateway (0, 0): nobody is placed there
    system.connect("A", "B")
    (a,) = place(chips["A"], ("a", (2, 1)))
    (b,) = place(chips["B"], ("b", (1, 3)))
    out = a.send("b", "across", 64)
    sim.run()
    assert (out.sender, out.addressee, out.dst) == (None, None, Coord(0, 0))
    assert [(s, m) for _, s, m in b.received] == [("a", "across")]
    assert b.received[0][0] == 294.0
    for chip in chips.values():
        assert counters(chip) == {
            "dropped_unplaced": 0, "dropped_stale_addr": 0, "dropped_dead_tile": 0,
            "dropped_malformed": 0, "delivered": 1, "dropped": 0,
            "flit_hops": 12 if chip is chips["A"] else 16,
        }
    # A crashed gateway tile kills the gateway logic with it.
    chips["A"].tiles[Coord(0, 0)].crash()
    a.send("b", "lost at the gateway", 64)
    sim.run()
    assert len(b.received) == 1 and counters(chips["A"])["dropped_malformed"] == 1


# ----------------------------------------------------------------------
# (d) broadcast corner cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("general", [False, True])
def test_broadcast_corner_cases(general):
    sim, chip = make_chip()
    a, b, c = place(chip, ("a", (0, 0)), ("b", (3, 0)), ("c", (0, 3)))
    if general:
        a.add_outbound_filter(passthrough)
    a.broadcast(["a", "b", "a", "c"], "skips the sender", 32)
    a.broadcast(["b", GHOST, "c"], "one name unplaced", 32)
    a.broadcast([], "to nobody", 32)
    a.broadcast(("c", "b"), "a tuple of names", 32)
    sim.run()
    assert (a.messages_sent, a.bytes_sent) == (7, 7 * 32) and not a.received
    heard = ["skips the sender", "one name unplaced", "a tuple of names"]
    assert [m for _, _, m in b.received] == heard == [m for _, _, m in c.received]
    assert counters(chip)["dropped_unplaced"] == 1 and counters(chip)["delivered"] == 6
    a.crash()
    a.broadcast(["b", "c"], "from the dead", 32)
    sim.run()
    assert a.messages_sent == 7 and len(b.received) == 3 and counters(chip)["delivered"] == 6


def test_broadcast_packets_are_numbered_in_destination_order():
    sim, chip = make_chip()
    a, b, c, d = place(chip, ("a", (1, 1)), ("b", (3, 0)), ("c", (0, 3)), ("d", (2, 2)))
    seen = []
    for coord in (Coord(3, 0), Coord(0, 3), Coord(2, 2)):
        handler = chip.noc._handlers[coord]
        chip.noc.attach(coord, lambda p, h=handler: (seen.append((p.packet_id, p.addressee)), h(p)))
    sim.schedule(5.0, a.broadcast, ["d", "b", "c"], "x", 48)
    sim.run()
    assert sorted(seen) == [(0, "d"), (1, "b"), (2, "c")]
    assert {p_id for p_id, _ in seen} == {0, 1, 2}


# ----------------------------------------------------------------------
# Packet: flit arithmetic and repr
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 70))
def test_flits_for_is_the_exact_ceiling(size):
    flits = flits_for(size)
    assert flits == Packet(0, Coord(0, 0), Coord(0, 0), None, size, 0.0).flits
    assert flits >= 1 and (flits - 1) * FLIT_BYTES < max(size, 1) <= flits * FLIT_BYTES


def test_negative_sizes_are_rejected_and_a_delivery_at_time_zero_shows():
    with pytest.raises(ValueError):
        flits_for(-1)
    with pytest.raises(ValueError):
        Packet(0, Coord(0, 0), Coord(0, 0), None, -17, 0.0)
    packet = Packet(0, Coord(0, 0), Coord(1, 0), None, 64, 0.0)
    assert "in-flight" in repr(packet)
    packet.delivered_at = 0.0
    assert "delivered" in repr(packet)


# ----------------------------------------------------------------------
# (e) the count behind the claim
# ----------------------------------------------------------------------
# Python-level calls into ``repro`` code while a 4-replica PBFT group orders
# and answers one batch of four requests (44 packets, 145 events), counted
# with ``sys.setprofile`` — C builtins do not count, so the number does not
# depend on the host.  2 021 after this change on CPython 3.11; 2 449 at its
# parent commit 4f8ec5b, where this test fails (2 037 since PR 20: compiling
# a route runs one more comprehension, 16 routes here; 1 932 by the time
# each request got its own deadline, 1 913 since: a completion no longer
# re-arms a window timer).  The ceiling leaves room for interpreter
# differences (3.12 inlines comprehensions: fewer calls), not for one more
# frame per packet (1 913 + 44 = 1 957).
PBFT_BATCH_ROUND_CALLS_CEILING = 1_950


def count_repro_calls(fn):
    calls = [0]
    package = os.sep + "repro" + os.sep  # src/repro/..., wherever the checkout lives

    def profiler(frame, event, arg):
        if event == "call" and package in frame.f_code.co_filename:
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_one_pbft_batch_round_stays_under_its_call_ceiling():
    sim, chip = make_chip(width=5, height=5, seed=5)
    config = protocol_config_for(
        "pbft", batching=BatchConfig(batch_size=4, batch_delay=500.0, max_inflight=2)
    )
    group = build_group(chip, GroupConfig(protocol="pbft", f=1, protocol_config=config))
    client = ClientNode("c0", ClientConfig(think_time=50, max_outstanding=4, max_requests=4))
    group.attach_client(client)
    client.start()
    calls = count_repro_calls(lambda: sim.run(until=30_000.0))
    assert client.completed == 4 and group.safety.is_safe and len(group.members) == 4
    assert chip.metrics.histogram("g0.batch.size").values() == [4.0]
    assert calls <= PBFT_BATCH_ROUND_CALLS_CEILING, calls
