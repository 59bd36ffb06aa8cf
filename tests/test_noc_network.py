"""Unit tests for the NoC network: delivery, contention, faults."""

import pytest

from repro.noc import Coord, MeshTopology, NocConfig, NocNetwork
from repro.noc.packet import FLIT_BYTES, flits_for
from repro.sim import Simulator


def make_net(width=4, height=4, seed=1, **config):
    sim = Simulator(seed=seed)
    net = NocNetwork(sim, MeshTopology(width, height), NocConfig(**config))
    return sim, net


def test_flits_for_rounding():
    assert flits_for(0) == 1
    assert flits_for(1) == 1
    assert flits_for(FLIT_BYTES) == 1
    assert flits_for(FLIT_BYTES + 1) == 2
    with pytest.raises(ValueError):
        flits_for(-1)


def test_basic_delivery_and_handler():
    sim, net = make_net()
    got = []
    net.attach(Coord(3, 3), got.append)
    packet = net.send(Coord(0, 0), Coord(3, 3), "hello", size_bytes=32)
    sim.run()
    assert len(got) == 1
    assert got[0].payload == "hello"
    assert packet.delivered_at is not None
    assert packet.hops == 6
    assert packet.path[0] == Coord(0, 0) and packet.path[-1] == Coord(3, 3)


def test_latency_grows_with_distance():
    sim, net = make_net(8, 8)
    net.attach(Coord(1, 0), lambda p: None)
    net.attach(Coord(7, 7), lambda p: None)
    near = net.send(Coord(0, 0), Coord(1, 0), "x")
    far = net.send(Coord(0, 0), Coord(7, 7), "x")
    sim.run()
    assert far.latency > near.latency


def test_latency_grows_with_size():
    sim, net = make_net()
    net.attach(Coord(3, 0), lambda p: None)
    small = net.send(Coord(0, 0), Coord(3, 0), "x", size_bytes=16)
    sim.run()
    sim2, net2 = make_net()
    net2.attach(Coord(3, 0), lambda p: None)
    large = net2.send(Coord(0, 0), Coord(3, 0), "x", size_bytes=1024)
    sim2.run()
    assert large.latency > small.latency


def test_local_loopback_fast_path():
    sim, net = make_net()
    got = []
    net.attach(Coord(1, 1), got.append)
    packet = net.send(Coord(1, 1), Coord(1, 1), "self")
    sim.run()
    assert len(got) == 1
    assert packet.hops == 0


def test_contention_serializes_same_link():
    # Two big packets over the same first link: second must wait.
    sim, net = make_net()
    net.attach(Coord(3, 0), lambda p: None)
    first = net.send(Coord(0, 0), Coord(3, 0), "a", size_bytes=1600)
    second = net.send(Coord(0, 0), Coord(3, 0), "b", size_bytes=1600)
    sim.run()
    assert second.delivered_at > first.delivered_at
    assert second.latency > first.latency  # queueing showed up in latency


def test_no_endpoint_drops():
    sim, net = make_net()
    packet = net.send(Coord(0, 0), Coord(2, 2), "x")
    sim.run()
    assert packet.dropped
    assert "no endpoint" in packet.drop_reason
    assert net.metrics.counter("noc.dropped").value == 1


def test_failed_link_drops_packet():
    sim, net = make_net()
    net.attach(Coord(3, 0), lambda p: None)
    net.fail_link(Coord(1, 0), Coord(2, 0))
    packet = net.send(Coord(0, 0), Coord(3, 0), "x")
    sim.run()
    assert packet.dropped
    assert "down" in packet.drop_reason


def test_repaired_link_carries_again():
    sim, net = make_net()
    got = []
    net.attach(Coord(2, 0), got.append)
    net.fail_link(Coord(1, 0), Coord(2, 0))
    net.repair_link(Coord(1, 0), Coord(2, 0))
    net.send(Coord(0, 0), Coord(2, 0), "x")
    sim.run()
    assert len(got) == 1


def test_failed_router_drops_through_traffic():
    sim, net = make_net()
    net.attach(Coord(2, 0), lambda p: None)
    net.fail_router(Coord(1, 0))
    packet = net.send(Coord(0, 0), Coord(2, 0), "x")
    sim.run()
    assert packet.dropped
    assert "router" in packet.drop_reason


def test_adaptive_routing_detours_failed_link():
    sim, net = make_net(adaptive_routing=True)
    got = []
    net.attach(Coord(3, 0), got.append)
    net.fail_link(Coord(1, 0), Coord(2, 0))
    packet = net.send(Coord(0, 0), Coord(3, 0), "x")
    sim.run()
    assert not packet.dropped
    assert len(got) == 1
    assert packet.hops > 3  # took a detour


def test_corrupting_link_marks_packet():
    sim, net = make_net()
    got = []
    net.attach(Coord(2, 0), got.append)
    net.degrade_link(Coord(0, 0), Coord(1, 0))
    net.send(Coord(0, 0), Coord(2, 0), "x")
    sim.run()
    assert got[0].corrupted


def test_drop_corrupted_silently_mode():
    sim, net = make_net(drop_corrupted_silently=True)
    got = []
    net.attach(Coord(2, 0), got.append)
    net.degrade_link(Coord(0, 0), Coord(1, 0))
    packet = net.send(Coord(0, 0), Coord(2, 0), "x")
    sim.run()
    assert got == [] and packet.dropped


def test_multicast_reaches_all():
    sim, net = make_net()
    got = {}
    for coord in [Coord(3, 0), Coord(0, 3), Coord(3, 3)]:
        net.attach(coord, lambda p, c=coord: got.setdefault(c, p))
    packets = net.multicast(Coord(0, 0), [Coord(3, 0), Coord(0, 3), Coord(3, 3)], "m")
    sim.run()
    assert len(got) == 3
    assert len(packets) == 3


def test_flit_hop_accounting():
    sim, net = make_net()
    net.attach(Coord(2, 0), lambda p: None)
    packet = net.send(Coord(0, 0), Coord(2, 0), "x", size_bytes=64)  # 4 flits
    sim.run()
    assert packet.flit_hops == 4 * 2
    assert net.metrics.counter("noc.flit_hops").value == 8


def test_send_off_mesh_rejected():
    sim, net = make_net()
    with pytest.raises(ValueError):
        net.send(Coord(0, 0), Coord(9, 9), "x")


def test_every_delivery_is_counted_and_timed():
    sim, net = make_net()
    net.attach(Coord(1, 0), lambda p: None)
    packets = [net.send(Coord(0, 0), Coord(1, 0), "x") for _ in range(5)]
    sim.run()
    assert net.metrics.counter("noc.delivered").value == 5
    assert all(p.delivered_at > p.injected_at for p in packets)
