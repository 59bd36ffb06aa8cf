"""Tests for the hot-path overhaul: NoC express routing, the fault-epoch
route cache, O(1) kernel accounting, and one-pass MAC vectors.

The express path's contract is *exactness*: reserving a whole route at
send time must be unobservable — same deliveries, same timestamps, same
metrics, byte for byte — compared to hop-by-hop execution.  Most tests
here run the same scenario under both configurations and assert
equality rather than asserting absolute numbers
(``tests/test_noc_analytic.py`` does the same on seeded random traffic
and faults).
"""

from repro.crypto import Authenticator, KeyStore, compute_mac
from repro.crypto.mac import digest
from repro.noc import Coord, MeshTopology, NocConfig, NocNetwork
from repro.sim import Simulator


def make_net(width=4, height=4, seed=1, **config):
    sim = Simulator(seed=seed)
    net = NocNetwork(sim, MeshTopology(width, height), NocConfig(**config))
    return sim, net


def run_traffic(express, fault=None):
    """A contended multi-flow scenario; returns per-packet observables."""
    sim, net = make_net(5, 5, express_routing=express)
    if fault == "degrade":
        net.degrade_link(Coord(1, 0), Coord(2, 0))  # on the (0,0)->(2,2) route
    delivered = []
    for coord in [Coord(4, 4), Coord(0, 4), Coord(4, 0), Coord(2, 2)]:
        net.attach(coord, delivered.append)
    flows = [
        (Coord(0, 0), Coord(4, 4)),
        (Coord(4, 4), Coord(0, 4)),
        (Coord(1, 1), Coord(4, 0)),
        (Coord(0, 0), Coord(2, 2)),
    ]
    for i, (src, dst) in enumerate(flows):
        for k in range(5):
            sim.schedule(i * 3.0 + k * 7.0, net.send, src, dst, f"m{i}.{k}", 64)
    sim.run()
    return sim, net, [
        (p.packet_id, p.src, p.dst, p.delivered_at, p.hops, p.corrupted)
        for p in delivered
    ]


# ----------------------------------------------------------------------
# Express path exactness
# ----------------------------------------------------------------------
def test_express_matches_hop_by_hop_fault_free():
    sim_e, net_e, fast = run_traffic(express=True)
    sim_h, net_h, slow = run_traffic(express=False)
    assert fast == slow  # same packets, same timestamps, same hop counts
    assert sim_e.now == sim_h.now
    for name in ("noc.delivered", "noc.flit_hops"):
        assert net_e.metrics.counter(name).value == net_h.metrics.counter(name).value
    # The point of the fast path: far fewer events fired.
    assert sim_e.events_fired < sim_h.events_fired


def test_express_matches_hop_by_hop_under_faults():
    sim_e, _, fast = run_traffic(express=True, fault="degrade")
    sim_h, _, slow = run_traffic(express=False, fault="degrade")
    assert fast == slow
    # The gate is per route: flows crossing the degraded link take the
    # hop-by-hop slow path, but unrelated flows are still one event each,
    # so the express config fires fewer events than the pure slow path.
    assert sim_e.events_fired < sim_h.events_fired
    # The degraded link really corrupted the flow crossing it.
    assert any(corrupted for *_, corrupted in fast)


def test_per_route_gate_only_slows_routes_crossing_the_fault():
    # All flows cross the degraded link -> event counts converge to the
    # slow path exactly; no flow crosses it -> one event per packet survives.
    def corner_stream(express, flows, degrade):
        sim, net = make_net(5, 5, express_routing=express)
        net.degrade_link(*degrade)
        for _, dst in flows:
            net.attach(dst, lambda p: None)
        for i, (src, dst) in enumerate(flows):
            for k in range(5):
                sim.schedule(i * 3.0 + k * 7.0, net.send, src, dst, k, 64)
        sim.run()
        return sim.events_fired

    crossing = [(Coord(0, 0), Coord(4, 0)), (Coord(0, 0), Coord(3, 3))]
    on = corner_stream(True, crossing, (Coord(1, 0), Coord(2, 0)))
    off = corner_stream(False, crossing, (Coord(1, 0), Coord(2, 0)))
    assert on == off  # every route is faulty: identical slow path
    elsewhere = [(Coord(0, 4), Coord(4, 4)), (Coord(4, 0), Coord(4, 4))]
    on = corner_stream(True, elsewhere, (Coord(1, 0), Coord(2, 0)))
    off = corner_stream(False, elsewhere, (Coord(1, 0), Coord(2, 0)))
    assert on < off  # fault elsewhere: the event economy is kept


def test_compiled_route_fault_free_reflects_route_state():
    _, net = make_net(5, 5)
    healthy = net._route(Coord(0, 4), Coord(4, 4))
    assert healthy.fault_free
    net.fail_link(Coord(1, 0), Coord(2, 0))
    assert not net.fault_free  # global flag still trips...
    assert net._route(Coord(0, 4), Coord(4, 4)).fault_free  # ...route doesn't
    assert not net._route(Coord(0, 0), Coord(4, 0)).fault_free
    net.repair_link(Coord(1, 0), Coord(2, 0))
    assert net._route(Coord(0, 0), Coord(4, 0)).fault_free
    # Failed routers poison the routes through them the same way.
    net.fail_router(Coord(2, 4))
    assert not net._route(Coord(0, 4), Coord(4, 4)).fault_free


def test_express_single_flow_latency_equivalence():
    def one_flow(express):
        sim, net = make_net(6, 6, express_routing=express)
        packets = []
        net.attach(Coord(5, 5), packets.append)
        for k in range(10):
            sim.schedule(k * 11.0, net.send, Coord(0, 0), Coord(5, 5), k, 128)
        sim.run()
        return [(p.injected_at, p.delivered_at, p.path) for p in packets]

    assert one_flow(True) == one_flow(False)


def test_express_disabled_outside_run():
    # A send issued between runs reserves nothing until the loop starts
    # (its injection is an event); it must still deliver correctly.
    sim, net = make_net(express_routing=True)
    got = []
    net.attach(Coord(3, 3), got.append)
    packet = net.send(Coord(0, 0), Coord(3, 3), "x")
    assert packet.delivered_at is None  # nothing fired yet
    sim.run()
    assert got and got[0].delivered_at == packet.delivered_at


def test_express_fault_between_run_windows_takes_effect_at_the_boundary():
    # A packet injected just before the horizon has hops reserved beyond
    # it: a fault applied between run() windows must take those back and
    # take effect at the boundary, exactly as with hop-by-hop execution.
    def windowed(express):
        sim, net = make_net(6, 1, express_routing=express)
        outcome = []
        net.attach(Coord(5, 0), outcome.append)
        sim.schedule(9.0, net.send, Coord(0, 0), Coord(5, 0), "late", 64)
        sim.run(until=10.0)
        net.fail_link(Coord(2, 0), Coord(3, 0))
        sim.run()
        packet = net.send(Coord(0, 0), Coord(5, 0), "after", 64)
        sim.run()
        return [p.payload for p in outcome], packet.dropped

    assert windowed(True) == windowed(False)


def test_express_ignores_events_scheduled_after_send_returns():
    # A's hops reserve link (1,0)->(2,0) before B, which the same handler
    # schedules only after send() returns, exists.  B reaches that link
    # first, so B goes in before A there and A is re-timed: B@17, A@21 in
    # both modes (the lookahead-bounded express path delivered A@18, B@22).
    def deliveries(express):
        sim, net = make_net(4, 1, express_routing=express)
        got = []
        net.attach(Coord(3, 0), lambda p: got.append((p.payload, p.delivered_at)))

        def handler():
            net.send(Coord(0, 0), Coord(3, 0), "A")
            sim.schedule(5.0, net.send, Coord(1, 0), Coord(3, 0), "B")

        sim.schedule(0.0, handler)
        sim.run()
        return got

    assert deliveries(False) == [("B", 17.0), ("A", 21.0)]  # the reference holds
    assert deliveries(True) == deliveries(False)


def test_same_seed_identical_metrics_express_on_off(monkeypatch):
    # The end-to-end determinism gate: a full protocol stack (replicas,
    # clients, MAC charging, NoC contention) reports identical metrics
    # for the same seed whether the fast path is on or off.
    from repro.campaign.runners import get_runner

    run = get_runner("throughput")
    out = []
    for flag in ("1", "0"):
        monkeypatch.setenv("REPRO_NOC_EXPRESS", flag)
        out.append(
            run(
                {
                    "protocol": "minbft",
                    "f": 1,
                    "duration": 40_000.0,
                    "warmup": 10_000.0,
                    "n_clients": 2,
                    "width": 5,
                    "height": 5,
                },
                42,
            )
        )
    assert out[0] == out[1]
    assert out[0]["ops"] > 0


# ----------------------------------------------------------------------
# Fault epoch + route cache
# ----------------------------------------------------------------------
def test_fault_epoch_bumps_on_transitions_only():
    _, net = make_net()
    assert net.fault_free
    before = net.fault_epoch
    net.repair_link(Coord(0, 0), Coord(1, 0))  # already UP: no transition
    assert net.fault_epoch == before
    net.fail_link(Coord(0, 0), Coord(1, 0))
    after_fail = net.fault_epoch
    assert after_fail > before and not net.fault_free
    net.fail_link(Coord(0, 0), Coord(1, 0))  # already DOWN: no transition
    assert net.fault_epoch == after_fail
    net.repair_link(Coord(0, 0), Coord(1, 0))
    assert net.fault_epoch > after_fail and net.fault_free


def test_route_cache_invalidated_across_fail_repair_cycles():
    sim, net = make_net(adaptive_routing=True)
    net.attach(Coord(3, 0), lambda p: None)
    cached = net._route(Coord(0, 0), Coord(3, 0))
    assert net._route(Coord(0, 0), Coord(3, 0)) is cached  # cache hit
    # Fail a link on the XY route: adaptive mode must detour, not
    # serve the stale straight-line entry.
    net.fail_link(Coord(1, 0), Coord(2, 0))
    detour = net._route(Coord(0, 0), Coord(3, 0))
    assert detour is not cached
    assert (Coord(1, 0), Coord(2, 0)) not in zip(detour.coords, detour.coords[1:])
    packet = net.send(Coord(0, 0), Coord(3, 0), "via-detour")
    sim.run()
    assert packet.delivered_at is not None and packet.hops > 3
    # Repair: the next lookup recompiles the direct route.
    net.repair_link(Coord(1, 0), Coord(2, 0))
    direct = net._route(Coord(0, 0), Coord(3, 0))
    assert direct.coords == cached.coords
    assert net._route(Coord(0, 0), Coord(3, 0)) is direct  # re-cached


def test_router_failure_gates_express():
    _, net = make_net()
    net.fail_router(Coord(2, 2))
    assert not net.fault_free
    net.repair_router(Coord(2, 2))
    assert net.fault_free


# ----------------------------------------------------------------------
# Drop reasons: on the packet, one counter for all
# ----------------------------------------------------------------------
def test_drop_reason_counters():
    sim, net = make_net()
    net.fail_link(Coord(0, 0), Coord(1, 0))
    dropped_link = net.send(Coord(0, 0), Coord(3, 0), "x")
    net.fail_router(Coord(2, 2))
    net.attach(Coord(2, 2), lambda p: None)
    dropped_router = net.send(Coord(2, 0), Coord(2, 2), "y")
    no_endpoint = net.send(Coord(0, 1), Coord(3, 1), "z")
    sim.run()
    assert dropped_link.dropped and dropped_router.dropped and no_endpoint.dropped
    assert dropped_link.drop_reason == "link (0,0)->(1,0) down"
    assert dropped_router.drop_reason == "router (2,2) failed"
    assert no_endpoint.drop_reason == "no endpoint at (3,1)"
    assert net.metrics.counter("noc.dropped").value == 3
    assert net.metrics.counter("noc.delivered").value == 0


# ----------------------------------------------------------------------
# Multicast payload sharing
# ----------------------------------------------------------------------
def test_multicast_shares_payload_object():
    sim, net = make_net()
    payload = {"auth": "vector", "body": [1, 2, 3]}
    got = []
    dsts = [Coord(3, 0), Coord(0, 3), Coord(3, 3)]
    for coord in dsts:
        net.attach(coord, got.append)
    net.multicast(Coord(0, 0), dsts, payload, size_bytes=96)
    sim.run()
    assert len(got) == 3
    # Serialized/authenticated once: every copy carries the same object.
    assert all(p.payload is payload for p in got)


# ----------------------------------------------------------------------
# Simulator kernel: O(1) accounting, compaction, step() hooks
# ----------------------------------------------------------------------
def test_pending_count_tracks_cancellations():
    sim = Simulator()
    events = [sim.schedule(t, lambda: None) for t in range(1, 11)]
    assert sim.pending_count() == 10
    for event in events[:4]:
        event.cancel()
    assert sim.pending_count() == 6


def test_peek_next_time_skips_cancelled_tops():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    second = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    first.cancel()
    second.cancel()
    assert sim.peek_next_time() == 3.0
    assert sim.pending_count() == 1


def test_heap_compaction_under_mass_cancellation():
    sim = Simulator()
    keep = [sim.schedule(1000.0 + t, lambda: None) for t in range(5)]
    doomed = [sim.schedule(t + 1.0, lambda: None) for t in range(200)]
    for event in doomed:
        event.cancel()
    # Compaction kicked in: the heap cannot hoard all 200 cancelled
    # entries — at most one sub-threshold residue remains.
    assert len(sim._heap) < len(keep) + 2 * Simulator.COMPACTION_MIN
    # Entries are (time, priority, seq, handle); every live handle survived.
    assert [e for _, _, _, e in sorted(sim._heap) if e.pending] == keep
    assert sim.pending_count() == len(keep)
    assert sim.peek_next_time() == 1000.0


def test_step_fires_trace_hooks():
    sim = Simulator()
    seen = []
    sim.add_trace_hook(seen.append)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.step() and sim.step()
    assert not sim.step()
    assert [e.time for e in seen] == [1.0, 2.0]


# ----------------------------------------------------------------------
# One-pass MAC vectors and the digest memo
# ----------------------------------------------------------------------
def test_authenticator_one_pass_matches_per_recipient_macs():
    ks = KeyStore(b"test-domain")
    nodes = ["a", "b", "c", "d"]
    payload = {"view": 3, "seq": 9, "digest": b"\x01\x02", "flags": [True, None]}
    auth = Authenticator.create("a", nodes, payload, ks.pair_key)
    assert set(auth.macs) == {"b", "c", "d"}
    for recipient in ("b", "c", "d"):
        assert auth.macs[recipient] == compute_mac(ks.pair_key("a", recipient), payload)
        assert auth.verify(recipient, payload, ks.pair_key)


def test_digest_memo_distinguishes_equal_but_distinct_keys():
    # 1 == True == 1.0 in Python, but their canonical bytes differ; the
    # memo must never conflate them.
    assert digest(1) != digest(True)
    assert digest(1) != digest(1.0)
    assert digest((1,)) != digest((True,))
    # Stability: repeated (memoized) calls return the same value.
    assert digest(("c1", 4, "op")) == digest(("c1", 4, "op"))
    # Unmemoizable payloads (lists/dicts) still digest correctly.
    assert digest([1, 2]) == digest((1, 2))  # canonical form ignores l/t
