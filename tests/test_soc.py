"""Unit tests for the SoC layer: tiles, nodes, chip assembly."""

import pytest

from repro.noc import Coord
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node, NodeState, Tile, TileState


class Recorder(Node):
    """Test node: records every delivered message."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


# ----------------------------------------------------------------------
# Tile
# ----------------------------------------------------------------------
def test_tile_host_and_evict():
    tile = Tile(Coord(0, 0))
    node = Recorder("n")
    tile.host(node)
    assert tile.occupied
    assert tile.evict() is node
    assert not tile.occupied


def test_tile_double_host_rejected():
    tile = Tile(Coord(0, 0))
    tile.host(Recorder("a"))
    with pytest.raises(ValueError):
        tile.host(Recorder("b"))


def test_tile_crash_propagates_to_node():
    tile = Tile(Coord(0, 0))
    node = Recorder("n")
    tile.host(node)
    tile.crash()
    assert tile.state == TileState.CRASHED
    assert node.state == NodeState.CRASHED


def test_crashed_tile_rejects_hosting():
    tile = Tile(Coord(0, 0))
    tile.crash()
    with pytest.raises(ValueError):
        tile.host(Recorder("n"))
    tile.repair()
    tile.host(Recorder("n"))


def test_tile_reserve_release():
    tile = Tile(Coord(0, 0))
    tile.reserve()
    assert not tile.available
    with pytest.raises(ValueError):
        tile.reserve()
    tile.release()
    assert tile.available


def test_host_clears_reservation():
    tile = Tile(Coord(0, 0))
    tile.reserve()
    tile.host(Recorder("n"))
    assert not tile.reserved


def test_degrade_then_repair():
    tile = Tile(Coord(0, 0))
    tile.degrade()
    assert tile.state == TileState.DEGRADED
    tile.repair()
    assert tile.state == TileState.OK


# ----------------------------------------------------------------------
# Chip placement and messaging
# ----------------------------------------------------------------------
def test_place_and_send_between_nodes(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(3, 3))
    a.send("b", {"k": 1}, size_bytes=32)
    chip.sim.run()
    assert b.received == [("a", {"k": 1})]


def test_duplicate_name_rejected(chip):
    chip.place_node(Recorder("a"), Coord(0, 0))
    with pytest.raises(ValueError):
        chip.place_node(Recorder("a"), Coord(1, 1))


def test_send_to_unknown_node_drops(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    assert a.send("ghost", "x") is None
    assert chip.metrics.counter("chip.dropped_unplaced").value == 1


def test_remove_node_frees_tile(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    chip.remove_node("a")
    assert not chip.has_node("a")
    assert Coord(0, 0) in chip.free_tiles()


def test_relocate_node_keeps_name_routing(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    chip.relocate_node("b", Coord(3, 3))
    assert chip.coord_of("b") == Coord(3, 3)
    a.send("b", "after-move")
    chip.sim.run()
    assert b.received == [("a", "after-move")]


def test_message_to_stale_address_dropped(chip):
    """A packet in flight to a tile whose occupant changed is dropped."""
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(3, 3))
    a.send("b", "in-flight")
    # Relocate b away and put c on the tile before delivery.
    chip.relocate_node("b", Coord(2, 2))
    chip.place_node(c, Coord(3, 3))
    chip.sim.run()
    assert c.received == []
    assert chip.metrics.counter("chip.dropped_stale_addr").value == 1


def test_crashed_node_sends_and_receives_nothing(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 1))
    b.crash()
    a.send("b", "x")
    chip.sim.run()
    assert b.received == []
    assert b.send("a", "y") is None


def test_recover_restores_node(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 1))
    b.crash()
    b.recover()
    a.send("b", "x")
    chip.sim.run()
    assert b.received == [("a", "x")]


def test_broadcast_skips_self(chip):
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    for node, coord in [(a, Coord(0, 0)), (b, Coord(1, 0)), (c, Coord(2, 0))]:
        chip.place_node(node, coord)
    a.broadcast(["a", "b", "c"], "hi")
    chip.sim.run()
    assert b.received and c.received and not a.received


def test_charge_serializes_node_compute(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    first = a.charge(100)
    second = a.charge(100)
    assert first == 100
    assert second == 200  # queued behind the first


def test_charge_rejects_negative(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    with pytest.raises(ValueError):
        a.charge(-1)


def test_outbound_filter_can_drop_and_mutate(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    a.add_outbound_filter(lambda dst, m: None if m == "secret" else m + "!")
    a.send("b", "secret")
    a.send("b", "public")
    chip.sim.run()
    assert b.received == [("a", "public!")]


def test_inbound_filter_applies_before_handler(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    b.add_inbound_filter(lambda s, m: None)
    a.send("b", "x")
    chip.sim.run()
    assert b.received == []


def test_recover_clears_adversarial_filters(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    a.add_outbound_filter(lambda d, m: None)
    a.compromise()
    a.recover()
    assert a.state == NodeState.OK
    assert not a._outbound_filters


def test_node_message_counters(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    a.send("b", "x", size_bytes=10)
    chip.sim.run()
    assert a.messages_sent == 1 and a.bytes_sent == 10
    assert b.messages_received == 1


def test_dead_tile_drops_delivery(chip):
    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(3, 3))
    a.send("b", "x")
    chip.tiles[Coord(3, 3)].crash()
    chip.sim.run()
    assert b.received == []
    assert chip.metrics.counter("chip.dropped_dead_tile").value == 1


def test_cost_model_scaling():
    from repro.soc import CostModel

    base = CostModel()
    slow = base.scaled(2.0)
    assert slow.mac_compute == base.mac_compute * 2
    with pytest.raises(ValueError):
        base.scaled(0)


def test_cost_model_refuses_a_nan_scale_or_cost():
    from repro.soc import CostModel

    with pytest.raises(ValueError):
        CostModel().scaled(float("nan"))  # would make every cost NaN
    for bad in (float("nan"), -1.0):  # a cost itself: deliver() charges handle_message unchecked
        with pytest.raises(ValueError):
            CostModel(handle_message=bad)


def test_charge_and_after_refuse_a_nan_duration(chip):
    a = Recorder("a")
    chip.place_node(a, Coord(0, 0))
    with pytest.raises(ValueError):
        a.charge(float("nan"))
    with pytest.raises(ValueError):
        a.after(float("nan"), lambda: None)
    assert a._busy_until == 0.0 and chip.sim.pending_count() == 0


def test_deliver_reserves_its_receive_charge_as_after_does(chip):
    # deliver() reserves handle_message inline; the arithmetic is after()'s,
    # bit for bit, on fractional costs and a core busy or idle.
    from repro.soc import CostModel

    a, b = Recorder("a"), Recorder("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    a.costs = b.costs = CostModel(handle_message=0.1)
    handled = {"a": [], "b": []}
    a.on_message = lambda sender, message: handled["a"].append((chip.sim.now, message))
    b.on_message = lambda sender, message: handled["b"].append((chip.sim.now, message))

    def receive(work, message):
        a.charge(work)
        b.charge(work)
        a.deliver("x", message)
        b.after(b.costs.handle_message, b._handle_if_alive, "x", message)

    for i, (at, work) in enumerate([(0.3, 0.7), (0.35, 0.0), (1.1, 0.2), (1.7, 0.0), (9.9, 0.3)]):
        chip.sim.schedule_at(at, receive, work, i)
    chip.sim.run()
    assert len(handled["a"]) == 5 and handled["a"] == handled["b"]
    assert a._busy_until == b._busy_until and a.messages_received == 5
