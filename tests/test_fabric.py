"""Unit tests for the FPGA fabric: bitstreams, ICAP, regions, lifecycle."""

import pytest

from repro.fabric import (
    Bitstream,
    BitstreamStore,
    FpgaFabric,
    IcapResult,
    RegionState,
)
from repro.fabric.bitstream import make_bitstream
from repro.noc import Coord
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node, NodeState


class Worker(Node):
    def on_message(self, sender, message):
        pass


@pytest.fixture
def fabric(chip):
    fab = FpgaFabric(chip.sim, chip)
    fab.register_variants("svc", ["vA", "vB", "vC"])
    fab.icap.grant("kernel")
    return fab


# ----------------------------------------------------------------------
# Bitstreams
# ----------------------------------------------------------------------
def test_store_validates_golden_images():
    store = BitstreamStore()
    good = make_bitstream("v0", "svc")
    store.register(good)
    assert store.validate(good)


def test_store_rejects_forged_images():
    store = BitstreamStore()
    store.register(make_bitstream("v0", "svc"))
    forged = Bitstream.forge("v0", "svc", "evil", 1024)
    assert not store.validate(forged)


def test_store_rejects_unknown_variants():
    store = BitstreamStore()
    assert not store.validate(make_bitstream("ghost", "svc"))


def test_store_duplicate_registration_rejected():
    store = BitstreamStore()
    store.register(make_bitstream("v0", "svc"))
    with pytest.raises(ValueError):
        store.register(make_bitstream("v0", "svc"))


def test_bitstream_size_validation():
    with pytest.raises(ValueError):
        Bitstream("v", "f", "x", 0, b"d")


# ----------------------------------------------------------------------
# ICAP
# ----------------------------------------------------------------------
def test_icap_denies_unauthorized(fabric, chip):
    region = fabric.region_at(Coord(0, 0))
    result = fabric.icap.write("intruder", region, fabric.store.get("vA"))
    assert result == IcapResult.DENIED_ACL
    assert fabric.icap.stats.writes_denied == 1


def test_icap_rejects_invalid_bitstream(fabric, chip):
    region = fabric.region_at(Coord(0, 0))
    forged = Bitstream.forge("vA", "svc", "evil", 1024)
    result = fabric.icap.write("kernel", region, forged)
    assert result == IcapResult.INVALID_BITSTREAM


def test_icap_write_takes_size_proportional_time(fabric, chip):
    sim = chip.sim
    done = []
    small = make_bitstream("small", "x", size_bytes=10_000)
    large = make_bitstream("large", "x", size_bytes=1_000_000)
    fabric.store.register(small)
    fabric.store.register(large)
    fabric.icap.write("kernel", fabric.region_at(Coord(0, 0)), small, lambda r: done.append(("s", sim.now)))
    sim.run()
    t_small = done[-1][1]
    fabric.icap.write("kernel", fabric.region_at(Coord(1, 0)), large, lambda r: done.append(("l", sim.now)))
    start = sim.now
    sim.run()
    assert done[-1][1] - start > t_small


def test_icap_serializes_concurrent_writes(fabric, chip):
    sim = chip.sim
    finish = {}
    for i, coord in enumerate([Coord(0, 0), Coord(1, 0), Coord(2, 0)]):
        fabric.icap.write(
            "kernel",
            fabric.region_at(coord),
            fabric.store.get("vA"),
            lambda r, i=i: finish.setdefault(i, sim.now),
        )
    sim.run()
    single = fabric.icap.write_time(fabric.store.get("vA"))
    assert finish[1] == pytest.approx(2 * single)
    assert finish[2] == pytest.approx(3 * single)


def test_icap_region_busy(fabric, chip):
    region = fabric.region_at(Coord(0, 0))
    assert fabric.icap.write("kernel", region, fabric.store.get("vA")) == IcapResult.OK
    assert fabric.icap.write("kernel", region, fabric.store.get("vB")) == IcapResult.REGION_BUSY


def test_icap_grant_revoke(fabric):
    fabric.icap.grant("temp")
    assert fabric.icap.is_authorized("temp")
    fabric.icap.revoke("temp")
    assert not fabric.icap.is_authorized("temp")


# ----------------------------------------------------------------------
# Spawn / despawn
# ----------------------------------------------------------------------
def test_spawn_places_node_after_write(fabric, chip):
    node = Worker("w0")
    ready = []
    result = fabric.spawn("kernel", node, "vA", Coord(0, 0), on_ready=lambda n: ready.append(chip.sim.now))
    assert result == IcapResult.OK
    assert not chip.has_node("w0")  # not yet
    chip.sim.run()
    assert chip.has_node("w0")
    assert ready and ready[0] > 0
    assert fabric.variant_at(Coord(0, 0)) == "vA"
    assert fabric.region_at(Coord(0, 0)).state == RegionState.CONFIGURED


def test_spawn_unknown_variant_rejected(fabric):
    assert fabric.spawn("kernel", Worker("w"), "ghost", Coord(0, 0)) == IcapResult.INVALID_BITSTREAM


def test_spawn_reserves_tile(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    assert Coord(0, 0) not in chip.free_tiles()
    assert fabric.spawn("kernel", Worker("w1"), "vA", Coord(0, 0)) == IcapResult.REGION_BUSY


def test_despawn_frees_everything(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    chip.sim.run()
    node = fabric.despawn(Coord(0, 0))
    assert node.name == "w0"
    assert not chip.has_node("w0")
    assert fabric.region_at(Coord(0, 0)).state == RegionState.EMPTY
    assert Coord(0, 0) in fabric.free_regions()


# ----------------------------------------------------------------------
# Rejuvenation
# ----------------------------------------------------------------------
def test_rejuvenate_in_place(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    chip.sim.run()
    node = chip.node("w0")
    done = []
    fabric.rejuvenate("kernel", "w0", on_done=lambda r: done.append(r))
    assert node.state == NodeState.CRASHED  # down during the write
    chip.sim.run()
    assert done == [IcapResult.OK]
    assert node.state == NodeState.OK
    assert fabric.variant_at(Coord(0, 0)) == "vA"  # same image


def test_rejuvenate_diverse_and_relocating(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    chip.sim.run()
    fabric.rejuvenate("kernel", "w0", variant="vB", new_coord=Coord(2, 2))
    chip.sim.run()
    assert chip.coord_of("w0") == Coord(2, 2)
    assert fabric.variant_at(Coord(2, 2)) == "vB"
    assert fabric.region_at(Coord(0, 0)).state == RegionState.EMPTY


def test_rejuvenate_to_occupied_tile_rejected(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    fabric.spawn("kernel", Worker("w1"), "vB", Coord(1, 1))
    chip.sim.run()
    result = fabric.rejuvenate("kernel", "w0", new_coord=Coord(1, 1))
    assert result == IcapResult.REGION_BUSY
    assert chip.node("w0").state == NodeState.OK  # rolled back immediately


def test_rejuvenation_clears_compromise(fabric, chip):
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    chip.sim.run()
    chip.node("w0").compromise()
    fabric.rejuvenate("kernel", "w0")
    chip.sim.run()
    assert chip.node("w0").state == NodeState.OK


# ----------------------------------------------------------------------
# Full device restart
# ----------------------------------------------------------------------
def test_full_restart_slower_than_partial(fabric, chip):
    sim = chip.sim
    for i, coord in enumerate([Coord(0, 0), Coord(1, 0), Coord(2, 0)]):
        fabric.spawn("kernel", Worker(f"w{i}"), "vA", coord)
    sim.run()
    # Partial rejuvenation of one region:
    t0 = sim.now
    done_partial = []
    fabric.rejuvenate("kernel", "w0", on_done=lambda r: done_partial.append(sim.now))
    sim.run()
    partial_time = done_partial[0] - t0
    # Full restart:
    t1 = sim.now
    done_full = []
    fabric.full_device_restart("kernel", on_done=lambda: done_full.append(sim.now))
    assert all(chip.node(f"w{i}").state == NodeState.CRASHED for i in range(3))
    sim.run()
    full_time = done_full[0] - t1
    assert full_time > partial_time
    assert all(chip.node(f"w{i}").state == NodeState.OK for i in range(3))


def test_full_restart_requires_authorization(fabric, chip):
    assert fabric.full_device_restart("intruder") == IcapResult.DENIED_ACL


def test_free_regions_tracks_occupancy(fabric, chip):
    total = len(fabric.free_regions())
    fabric.spawn("kernel", Worker("w0"), "vA", Coord(0, 0))
    assert len(fabric.free_regions()) == total - 1
