"""Tests for the disjoint-region placement planner."""

import pytest

from repro.noc.topology import Coord
from repro.shard import PlacementError, PlacementPlanner


def test_regions_are_disjoint(big_chip):
    planner = PlacementPlanner(big_chip)
    regions = [planner.allocate(f"s{i}", 4) for i in range(4)]
    seen = set()
    for region in regions:
        assert len(region) == 4
        assert not seen & set(region.tiles)
        seen |= set(region.tiles)
        for coord in region.tiles:
            assert planner.owner_of(coord) == region.shard_id


def test_regions_are_compact(big_chip):
    planner = PlacementPlanner(big_chip)
    region = planner.allocate("s0", 4)
    # 4 tiles on an empty mesh fit in a 2x2-ish blob: diameter <= 3 hops.
    assert region.diameter() <= 3


def test_allocation_is_deterministic():
    from repro.sim import Simulator
    from repro.soc import Chip, ChipConfig

    def layout():
        chip = Chip(Simulator(seed=9), ChipConfig(width=6, height=6))
        planner = PlacementPlanner(chip)
        return [planner.allocate(f"s{i}", 3).tiles for i in range(3)]

    assert layout() == layout()


def test_occupied_tiles_are_not_candidates(big_chip):
    from repro.soc import Node

    class _Stub(Node):
        def on_message(self, sender, message):
            pass

    big_chip.place_node(_Stub("n0"), Coord(0, 0))
    planner = PlacementPlanner(big_chip)
    region = planner.allocate("s0", 4)
    assert Coord(0, 0) not in region.tiles


def test_greedy_allocation_avoids_prior_regions(big_chip):
    planner = PlacementPlanner(big_chip)
    a = planner.allocate("s0", 6)
    b = planner.allocate("s1", 6)
    assert not set(a.tiles) & set(b.tiles)


def test_exhaustion_raises(chip):
    planner = PlacementPlanner(chip)  # 4x4 = 16 tiles
    planner.allocate("s0", 10)
    with pytest.raises(PlacementError, match="only 6 are free"):
        planner.allocate("s1", 7)


def test_duplicate_shard_id_rejected(big_chip):
    planner = PlacementPlanner(big_chip)
    planner.allocate("s0", 2)
    with pytest.raises(PlacementError, match="already has a region"):
        planner.allocate("s0", 2)


def test_release_returns_tiles(big_chip):
    planner = PlacementPlanner(big_chip)
    region = planner.allocate("s0", 4)
    planner.release("s0")
    assert all(planner.owner_of(c) is None for c in region.tiles)
    again = planner.allocate("s0", 4)
    assert again.tiles == region.tiles  # deterministic re-allocation


def test_fabric_gate_excludes_configured_regions(big_chip):
    """With a fabric attached, only EMPTY reconfigurable regions count."""
    from repro.fabric import FpgaFabric
    from repro.soc import Node

    class _Stub(Node):
        def on_message(self, sender, message):
            pass

    fabric = FpgaFabric(big_chip.sim, big_chip)
    fabric.register_variants("svc", ["v0"])
    fabric.icap.grant("mgr")
    target = fabric.free_regions()[0]
    fabric.spawn("mgr", _Stub("n0"), "v0", target)
    big_chip.sim.run(until=50_000)
    planner = PlacementPlanner(big_chip, fabric)
    assert target not in planner.free_candidates()
    region = planner.allocate("s0", 4)
    assert target not in region.tiles
