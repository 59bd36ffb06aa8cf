"""The analytic NoC traversal against its hop-by-hop reference.

``express_routing=True`` reserves a packet's whole route when it is sent
and fires one event per packet; ``express_routing=False`` fires one per
hop.  Both arbitrate links by ``(arrival at the router, packet id)``, so
they must agree on *everything* a run leaves behind.  The oracle here
draws a scenario from a seed — mesh, traffic with bursts and hotspots,
replies sent from inside delivery handlers, faults and repairs in
flight, at the instant of a send, from inside a handler and between
``run(until=...)`` slices — plays it in both modes and compares every
delivery (in order), every drop, every link's and router's load (derived
from the ``path`` of every packet sent, ``tests/noc_loads.py``),
``noc.flit_hops`` and the final clock.

The four cases at the end pin the calendar mechanics by hand on a 1-D
mesh: 64-byte packets are 4 flits, so an uncontended hop is 1 (switch)
+ 4 (serialization) + 1 (link) = 6 time units.
"""

import random

import pytest

from repro.noc import Coord, MeshTopology, NocConfig, NocNetwork
from repro.noc.link import LinkState
from repro.sim import Simulator
from tests.noc_loads import derived_loads

SEEDS = range(320)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def draw_scenario(seed):
    """Everything random about a scenario, fixed before either mode runs."""
    rng = random.Random(seed)
    width, height = rng.choice(
        [(4, 1), (6, 1), (2, 2), (3, 3), (4, 4), (5, 3), (5, 5), (6, 6), (8, 8)]
    )
    coords = [Coord(x, y) for y in range(height) for x in range(width)]
    span = rng.choice([30, 100, 400, 1200, 3000])
    n_packets = rng.randint(20, rng.choice([60, 200, 800]))
    hotspot = rng.choice(coords)
    burst_tile = rng.choice(coords)
    sends = []
    while len(sends) < n_packets:
        shape = rng.random()
        at = float(rng.randrange(span))
        if shape < 0.25:  # a burst from one tile at one instant
            for _ in range(rng.randint(2, 12)):
                sends.append((at, burst_tile, rng.choice(coords)))
        elif shape < 0.5:  # everyone talks to the hotspot
            sends.append((at, rng.choice(coords), hotspot))
        else:
            sends.append((at, rng.choice(coords), rng.choice(coords)))
    sends = [
        # (time, src, dst, size, reply size or 0, in-handler fault or None)
        (at, src, dst, rng.choice([16, 48, 64, 64, 100, 256, 512]),
         rng.choice([0, 0, 0, 16, 64, 300]), None)
        for at, src, dst in sends[:n_packets]
    ]

    links = sorted({(a, b) for a in coords for b in coords
                    if abs(a.x - b.x) + abs(a.y - b.y) == 1 and a < b})

    def draw_fault(at):
        kind = rng.choice(["fail_link", "degrade_link", "fail_router"])
        target = (rng.choice(coords),) if kind == "fail_router" else rng.choice(links)
        undo = "repair_router" if kind == "fail_router" else "repair_link"
        return (at, kind, target), (at + float(rng.randint(1, span)), undo, target)

    actions = []  # (time, method name, args): kernel events
    for _ in range(rng.choice([0, 0, 1, 2, 4, 6])):
        fault, repair = draw_fault(float(rng.randrange(span + 40)))
        actions += [fault, repair]
    if rng.random() < 0.4:  # a fault at the very instant of a send
        fault, repair = draw_fault(rng.choice(sends)[0])
        actions += [fault, repair]
    for _ in range(rng.choice([0, 0, 1, 3, 8])):
        # A fault from inside a delivery handler, or from a zero-delay
        # event the handler schedules: after some of the instant's NoC
        # events and before the rest.
        i = rng.randrange(len(sends))
        fault, repair = draw_fault(0.0)
        how = rng.choice(["direct", "call_soon"])
        sends[i] = sends[i][:5] + ((how, fault[1:], (repair[0], *repair[1:])),)
    drive = rng.choice(["run", "run", "slices", "step"])
    between = []  # (boundary, [(method name, args)], [(src, dst, size)])
    if drive == "slices":
        for boundary in sorted({float(rng.randrange(1, span + 40)) for _ in range(rng.randint(1, 5))}):
            faults = []
            for _ in range(rng.choice([0, 1, 1, 2])):
                fault, repair = draw_fault(boundary)
                faults.append(fault[1:])
                actions.append(repair)
            outside = [(rng.choice(coords), rng.choice(coords), 64)
                       for _ in range(rng.choice([0, 0, 1, 3]))]
            between.append((boundary, faults, outside))
    return {
        "mesh": (width, height),
        "sends": sends,
        "actions": actions,
        "drive": drive,
        "between": between,
        "deaf": rng.choice(coords) if rng.random() < 0.2 else None,
        "adaptive": rng.random() < 0.25,
        "drop_corrupted": rng.random() < 0.25,
        # Schedule each instant's sends before or after its faults.
        "faults_first": rng.random() < 0.5,
    }


def play(scenario, express):
    width, height = scenario["mesh"]
    sim = Simulator()
    net = NocNetwork(sim, MeshTopology(width, height), NocConfig(
        express_routing=express,
        adaptive_routing=scenario["adaptive"],
        drop_corrupted_silently=scenario["drop_corrupted"],
    ))
    sent, delivered = [], []

    def send(src, dst, size, reply=0, fault=None):
        sent.append(net.send(src, dst, (reply, fault), size))

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
            send(packet.dst, packet.src, reply)

    for coord in net.routers:
        if coord != scenario["deaf"]:
            net.attach(coord, handler)

    def schedule_sends():
        for at, *args in scenario["sends"]:
            sim.schedule_at(at, send, *args)

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
            send(src, dst, size)  # sent, then the fault, at one clock value
        for method, args in faults:
            getattr(net, method)(*args)
        for src, dst, size in outside[1:]:
            send(src, dst, size)
    sim.run()

    assert all(p.dropped or p.delivered_at is not None for p in sent)
    return {
        "deliveries": [
            (p.packet_id, p.delivered_at, p.hops, p.corrupted, tuple(p.path))
            for p in delivered
        ],
        "drops": [(p.packet_id, p.drop_reason, p.hops, tuple(p.path)) for p in sent if p.dropped],
        **derived_loads(sent),
        "flit_hops": net.metrics.counter("noc.flit_hops").value,
        "now": sim.now,
        "events": sim.events_fired,
    }


@pytest.mark.parametrize("chunk", range(16))
def test_analytic_equals_hop_by_hop(chunk):
    for seed in SEEDS[chunk::16]:
        scenario = draw_scenario(seed)
        reference = play(scenario, express=False)
        analytic = play(scenario, express=True)
        events = reference.pop("events"), analytic.pop("events")
        for key in reference:
            assert analytic[key] == reference[key], (seed, key)
        assert reference["deliveries"], seed
        assert events[1] <= events[0], seed


def test_scenarios_cover_what_they_claim(monkeypatch):
    scenarios = [draw_scenario(seed) for seed in SEEDS]
    assert len(scenarios) >= 300
    assert {s["drive"] for s in scenarios} == {"run", "slices", "step"}
    assert {s["mesh"] for s in scenarios} >= {(4, 1), (8, 8)}
    assert min(len(s["sends"]) for s in scenarios) >= 20
    assert max(len(s["sends"]) for s in scenarios) > 500
    assert any(s[5] and s[5][0] == "direct" for sc in scenarios for s in sc["sends"])
    assert any(s[5] and s[5][0] == "call_soon" for sc in scenarios for s in sc["sends"])
    assert any(fs and out for sc in scenarios for _, fs, out in sc["between"])
    # The analytic mode is exercised on its hard paths, not only appends:
    # count the packets re-timed by a calendar change and by a fault.
    counts = {"resumed": 0, "taken_back": 0}
    original = NocNetwork._cut_back

    def counting(self, packet, hop, arrival, resume):
        counts["resumed" if resume == self._commit else "taken_back"] += 1
        original(self, packet, hop, arrival, resume)

    monkeypatch.setattr(NocNetwork, "_cut_back", counting)
    for scenario in scenarios[:60]:
        play(scenario, express=True)
    assert counts["resumed"] > 100 and counts["taken_back"] > 100


# ----------------------------------------------------------------------
# The calendar, by hand
# ----------------------------------------------------------------------
def mesh(width, height=1, express=True, on_delivery=None):
    sim = Simulator()
    net = NocNetwork(sim, MeshTopology(width, height), NocConfig(express_routing=express))
    got = []

    def handler(packet):
        got.append((packet.payload, packet.delivered_at))
        if on_delivery is not None:
            on_delivery(sim, net, packet)

    for coord in net.routers:
        net.attach(coord, handler)
    return sim, net, got


def send_at(sim, net, time, src, dst, payload, size=64):
    """Schedule a send; the returned list receives the packet."""
    out = []
    sim.schedule_at(time, lambda: out.append(net.send(Coord(*src), Coord(*dst), payload, size)))
    return out


def calendar(net, a, b):
    """``(arrival, payload, end)`` of every slot on link ``a -> b``."""
    return [(s[0], s[4].payload, s[3]) for s in net.links[Coord(*a), Coord(*b)].slots]


def reference(width, height, sends, **kwargs):
    sim, net, got = mesh(width, height, express=False, **kwargs)
    for send in sends:
        send_at(sim, net, *send)
    sim.run()
    return got


def test_insert_before_without_delay_moves_nothing():
    sim, net, got = mesh(6)
    a = send_at(sim, net, 0.0, (0, 0), (5, 0), "A")
    sim.run(until=0.0)
    # A is at (3,0) at t=18 and holds the link out of it over [19, 23).
    assert calendar(net, (3, 0), (4, 0)) == [(18.0, "A", 23.0)]
    delivery = a[0]._event
    send_at(sim, net, 2.0, (3, 0), (4, 0), "B")  # there at 2, gone by 7
    sim.run(until=2.0)
    assert calendar(net, (3, 0), (4, 0)) == [(2.0, "B", 7.0), (18.0, "A", 23.0)]
    assert a[0]._event is delivery and delivery.pending
    sim.run()
    assert got == [("B", 8.0), ("A", 30.0)]
    assert sim.events_fired == 2 + 2  # the two scheduled sends, two deliveries


def test_insert_before_with_delay_resumes_at_the_unchanged_arrival():
    sim, net, got = mesh(6)
    a = send_at(sim, net, 0.0, (0, 0), (5, 0), "A")
    sim.run(until=0.0)
    packet, delivery = a[0], a[0]._event
    # B is switched at (3,0) by t=17 and serializes over [17, 21): A, there
    # at 18 and switched by 19, now has to wait until 21.
    b = send_at(sim, net, 16.0, (3, 0), (4, 0), "B")
    sim.run(until=16.0)
    assert delivery.cancelled
    assert calendar(net, (3, 0), (4, 0)) == [(16.0, "B", 21.0)]  # A is out of this calendar
    assert calendar(net, (4, 0), (5, 0)) == []  # and of the one after it,
    assert calendar(net, (2, 0), (3, 0)) == [(12.0, "A", 17.0)]  # not of those before
    assert (packet._index, packet.hops, packet.path[-1]) == (3, 3, Coord(3, 0))
    resumed = packet._event
    assert (resumed.time, resumed.priority) == (18.0, 1 + packet.packet_id)
    hop = Coord(3, 0), Coord(4, 0)
    loads = derived_loads(a + b)  # A gave the hop back, and the switch before it
    assert loads["links"][hop] == (1, 4) and loads["routers"][Coord(3, 0)] == 1
    sim.run()
    assert got == [("B", 22.0), ("A", 32.0)]
    assert got == reference(6, 1, [(0.0, (0, 0), (5, 0), "A"), (16.0, (3, 0), (4, 0), "B")])
    assert packet.hops == 5 and packet.path == [Coord(x, 0) for x in range(6)]
    loads = derived_loads(a + b)
    assert loads["links"][hop] == (2, 8) and loads["routers"][Coord(3, 0)] == 2
    assert sim.events_fired == 2 + 2 + 1  # ...and A's resumed traversal


def test_removal_lets_a_waiter_start_earlier():
    sends = [
        (0.0, (0, 0), (3, 3), "A"),   # east along y=0, then up column 3
        (7.0, (5, 0), (3, 3), "C"),   # west along y=0, then up column 3 behind A
        (10.0, (2, 0), (3, 0), "B"),  # delays A on (2,0)->(3,0)
    ]
    sim, net, got = mesh(6, 4)
    a, c, _ = [send_at(sim, net, *send) for send in sends]
    sim.run(until=7.0)
    # C reaches (3,0) at 19, is switched by 20 and waits for A until 23.
    assert calendar(net, (3, 0), (3, 1)) == [(18.0, "A", 23.0), (19.0, "C", 27.0)]
    sim.run(until=10.0)
    # B takes (2,0)->(3,0) over [11, 15), so A (there at 12) is re-timed
    # from that hop and leaves column 3.  With A gone C could start at 20:
    # its slot moves too, and C is re-timed from (3,0).
    assert calendar(net, (3, 0), (3, 1)) == []
    assert calendar(net, (3, 1), (3, 2)) == []
    assert (a[0]._index, a[0]._event.time) == (2, 12.0)
    assert (c[0]._index, c[0]._event.time) == (2, 19.0)
    sim.run(until=19.0)
    # A resumed at 12 and took column 3 from 20 on; C, resuming at 19, is
    # there first after all and pushes A back once more.
    assert calendar(net, (3, 0), (3, 1)) == [(19.0, "C", 24.0)]
    assert (a[0]._index, a[0]._event.time) == (3, 20.0)
    sim.run()
    assert got == [("B", 16.0), ("C", 37.0), ("A", 41.0)]
    assert got == reference(6, 4, sends)


def test_packet_truncated_twice_before_it_resumes():
    sends = [
        (0.0, (0, 0), (7, 0), "A"),
        (1.0, (5, 0), (6, 0), "B1", 512),  # 32 flits over [2, 34); A is there at 30
        (2.0, (2, 0), (3, 0), "B2", 512),  # 32 flits over [3, 35); A is there at 12
    ]
    sim, net, got = mesh(8)
    a, b1, b2 = [send_at(sim, net, *send) for send in sends]
    sim.run(until=1.0)
    packet = a[0]
    first = packet._event
    assert (packet._index, first.time, packet.hops) == (5, 30.0, 5)
    assert calendar(net, (6, 0), (7, 0)) == []
    sim.run(until=2.0)
    # Cut back again, further, before the first resumption has fired.
    assert first.cancelled
    assert (packet._index, packet._event.time, packet.hops) == (2, 12.0, 2)
    assert packet.path == [Coord(0, 0), Coord(1, 0), Coord(2, 0)]
    assert calendar(net, (3, 0), (4, 0)) == calendar(net, (4, 0), (5, 0)) == []
    switched = derived_loads(a + b1 + b2)["routers"]
    assert [switched.get(coord, 0) for coord in net.routers] == [1, 1, 1, 0, 0, 1, 0, 0]
    sim.run()
    assert got == [("B1", 35.0), ("B2", 36.0), ("A", 64.0)]
    assert got == reference(8, 1, sends)
    assert sim.events_fired == 3 + 3 + 1  # sends, deliveries, A resumed once (at 12)


def test_fault_takes_back_only_what_the_reference_has_not_done():
    # A is at (2,0) at the very instant Q is delivered (t=12) and Q's
    # handler fails the link out of (2,0).  A is the older packet: its hop
    # there comes before Q's delivery and stands; R, sent later, is dropped.
    sends = [
        (0.0, (0, 0), (5, 0), "A"),
        (6.0, (5, 0), (4, 0), "Q"),
        (6.0, (0, 0), (5, 0), "R"),
    ]
    for how in ("direct", "call_soon"):
        def fail(sim, net, packet):
            if packet.payload == "Q":
                if how == "direct":
                    net.fail_link(Coord(2, 0), Coord(3, 0))
                else:
                    sim.call_soon(net.fail_link, Coord(2, 0), Coord(3, 0))

        sim, net, got = mesh(6, on_delivery=fail)
        a, q, r = [send_at(sim, net, *send) for send in sends]
        sim.run()
        assert got == [("Q", 12.0), ("A", 30.0)]
        assert got == reference(6, 1, sends, on_delivery=fail)
        assert (r[0].drop_reason, r[0].hops) == ("link (2,0)->(3,0) down", 2)
        hop = Coord(2, 0), Coord(3, 0)
        assert derived_loads(a + q + r)["links"][hop] == (1, 4)  # A's; R never made it
        assert net.links[hop].state is LinkState.DOWN


def test_stepping_packets_reserve_in_the_same_calendars():
    # "slow" crosses a degraded link, so it goes one hop per event; "fast"
    # is sent later on a healthy stretch of the same row, reserves ahead
    # of slow on two links, and is then overtaken there by slow's hops.
    sends = [(0.0, (0, 0), (5, 0), "slow", 256), (10.0, (3, 0), (5, 0), "fast")]

    def play_line(express):
        sim, net, got = mesh(6, express=express)
        net.degrade_link(Coord(0, 0), Coord(1, 0))
        packets = [send_at(sim, net, *send) for send in sends]
        sim.run()
        return sim, got, packets[0][0].corrupted

    sim, got, corrupted = play_line(express=True)
    reference_sim, reference_got, _ = play_line(express=False)
    assert corrupted and got == reference_got
    assert sim.events_fired < reference_sim.events_fired


# ----------------------------------------------------------------------
# Routes that outlive their fault epoch
# ----------------------------------------------------------------------
# ``_commit`` checks no health per hop: a route compiled in the current
# fault epoch is healthy by construction.  These are the packets whose
# pending ``_commit`` event is *not* of the current epoch when it fires.
def fate(packet):
    return (packet.delivered_at, packet.dropped, packet.drop_reason, packet.hops,
            packet.corrupted, tuple(packet.path))


def draw_stale_commit(seed, kind):
    """A crosses a row; B delays it at router ``h`` (so A waits there on a
    pending ``_commit``); then a fault hits what A has left to cross."""
    rng = random.Random(seed)
    width = rng.randint(5, 8)
    size = rng.choice([16, 64, 100])
    per_hop = 2 + -(-size // 16)
    h = rng.randint(1, width - 3)
    at_h = float(h * per_hop)  # when A reaches (h,0)
    target = rng.randint(h, width - 2)  # fail_router(h): A meets it where it waits
    args = (Coord(target, 0),) if kind == "fail_router" else (Coord(target, 0), Coord(target + 1, 0))
    sends = [(0.0, (0, 0), (width - 1, 0), "A", size), (at_h - 2.0, (h, 0), (h + 1, 0), "B", 256)]
    return width, h, at_h, sends, args


@pytest.mark.parametrize("kind", ["fail_link", "degrade_link", "fail_router"])
@pytest.mark.parametrize("seed", range(6))
def test_displaced_packet_whose_route_goes_stale_before_it_resumes(seed, kind):
    width, h, at_h, sends, args = draw_stale_commit(seed, kind)
    fates = {}
    for express in (True, False):
        sim, net, got = mesh(width, express=express)
        a, b = [send_at(sim, net, *send) for send in sends]
        sim.schedule_at(at_h - 1.0, getattr(net, kind), *args)
        if express:
            sim.run(until=at_h - 1.0)
            # The fault left A's resumption alone (every slot A still holds
            # is behind the clock): it fires on a route of the old epoch.
            resume = a[0]._event
            assert resume.pending and resume.callback == net._commit
            assert (resume.time, a[0]._index) == (at_h, h)
            assert a[0]._route.epoch != net.fault_epoch
            sim.run(until=at_h)
            assert resume.fired
        sim.run()
        fates[express] = ([fate(p[0]) for p in (a, b)], got, derived_loads(a + b))
    assert fates[True] == fates[False]
    (a_fate, _), _, _ = fates[True]
    assert a_fate[1] == (kind != "degrade_link") and a_fate[4] == (kind == "degrade_link")


@pytest.mark.parametrize("kind", ["fail_link", "degrade_link", "fail_router"])
@pytest.mark.parametrize("seed", range(6))
def test_packet_sent_between_runs_whose_route_goes_stale_before_it_is_injected(seed, kind):
    width, _, _, _, args = draw_stale_commit(seed, kind)
    fates = {}
    for express in (True, False):
        sim, net, got = mesh(width, express=express)
        sim.run(until=5.0)
        packet = net.send(Coord(0, 0), Coord(width - 1, 0), "A", 64)
        assert packet._event.callback == (net._commit if express else net._step)
        getattr(net, kind)(*args)  # same clock value, before the injection fires
        assert packet._event.pending and packet._route.epoch != net.fault_epoch
        sim.run()
        fates[express] = (fate(packet), got, derived_loads([packet]))
    assert fates[True] == fates[False]


def counters(net):
    return {name: net.metrics.counter(name).value
            for name in ("noc.delivered", "noc.dropped", "noc.flit_hops")}


@pytest.mark.parametrize("where", ["destination", "elsewhere"])
@pytest.mark.parametrize("seed", range(6))
def test_delivery_whose_route_goes_stale_after_its_last_hop(seed, where):
    # ``_commit`` leaves one event, ``_deliver``, which trusts the route
    # only in the epoch it was committed in.  Here every slot A holds is
    # behind the clock when a router fails, so the fault takes nothing
    # back and A's delivery fires on a route of the old epoch: it must
    # drop (destination) or arrive (elsewhere) exactly as hop by hop.
    rng = random.Random(seed)
    width = rng.randint(3, 8)
    size = rng.choice([16, 64, 100])
    per_hop = 2 + -(-size // 16)
    last_arrival = float((width - 2) * per_hop)  # A at the last router before its destination
    fail_at = last_arrival + rng.uniform(0.5, per_hop - 0.5)
    router = Coord(width - 1, 0) if where == "destination" else Coord(rng.randrange(width - 1), 1)
    fates = {}
    for express in (True, False):
        sim, net, got = mesh(width, 2, express=express)
        a = send_at(sim, net, 0.0, (0, 0), (width - 1, 0), "A", size)
        sim.schedule_at(fail_at, net.fail_router, router)
        if express:
            sim.run(until=fail_at)
            delivery = a[0]._event
            assert delivery.pending and delivery.callback == net._deliver
            assert delivery.time == float((width - 1) * per_hop)
            assert a[0]._route.epoch != net.fault_epoch
            assert all(not link.slots or link.slots[-1][0] < fail_at for link in net.links.values())
        sim.run()
        assert not express or delivery.fired
        fates[express] = (fate(a[0]), got, derived_loads(a), counters(net), sim.now)
    assert fates[True] == fates[False]
    (delivered_at, dropped, reason, hops, _, path), got, _, counts, _ = fates[True]
    assert hops == width - 1 and path == tuple(Coord(x, 0) for x in range(width))
    if where == "destination":
        assert dropped and reason == f"router {router} failed" and not got
        assert counts["noc.dropped"] == 1 and counts["noc.delivered"] == 0
    else:
        assert not dropped and delivered_at == (width - 1) * per_hop and len(got) == 1
        assert counts["noc.dropped"] == 0 and counts["noc.delivered"] == 1


PINNED_DETOUR = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0), (4, 0)]


def test_path_is_kept_across_adaptive_reroutes():
    # A goes east along y=0.  The link out of (1,0) fails while A is on its
    # way there, so A detours from (1,0); then a link of the detour fails
    # too and A detours again.  ``path`` is every tile visited, in order.
    paths = {}
    for express in (True, False):
        sim = Simulator()
        net = NocNetwork(sim, MeshTopology(5, 3), NocConfig(
            express_routing=express, adaptive_routing=True))
        net.attach(Coord(4, 0), lambda packet: None)
        out = []
        sim.schedule_at(0.0, lambda: out.append(net.send(Coord(0, 0), Coord(4, 0), "A", 64)))
        sim.schedule_at(3.0, net.fail_link, Coord(1, 0), Coord(2, 0))
        sim.run(until=6.0)  # A is at (1,0) and has turned off the row
        (packet,) = out
        first_detour = packet._route.coords
        assert packet._trail == [Coord(0, 0)] and first_detour[0] == Coord(1, 0)
        assert first_detour[1] != Coord(2, 0)
        net.fail_link(first_detour[2], first_detour[3])
        sim.run()
        assert packet.delivered_at is not None and packet.hops == len(packet.path) - 1
        assert packet.path[:4] == [Coord(0, 0)] + first_detour[:3]
        assert packet._trail == [Coord(0, 0)] + first_detour[:2]
        paths[express] = (packet.delivered_at, packet.path)
    assert paths[True] == paths[False]
    assert paths[True][1] == [Coord(*c) for c in PINNED_DETOUR]
