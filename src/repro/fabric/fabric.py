"""The FPGA fabric facade: regions over the chip, spawn/rejuvenate/restart."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.fabric.bitstream import Bitstream, BitstreamStore, make_bitstream
from repro.fabric.icap import IcapPort, IcapResult
from repro.fabric.region import ReconfigurableRegion, RegionState
from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator
    from repro.soc.chip import Chip
    from repro.soc.node import Node


#: The size of a variant's image unless the caller registers another.
BITSTREAM_BYTES = 262_144


@dataclass
class FabricConfig:
    """Fabric-level parameters.

    ``full_restart_fixed_cost`` is the fixed part of a whole-device reload
    (all regions blank, then every configured image re-written through the
    ICAP): the slow path partial rejuvenation avoids (E10).
    """

    full_restart_fixed_cost: float = 50_000.0


class FpgaFabric:
    """Reconfigurable regions covering the chip's tiles.

    One region per tile (the common partial-reconfiguration floorplan for
    tiled softcore designs).  The fabric exposes the operations the
    paper's resilience machinery needs:

    * :meth:`spawn` — configure a variant into a free region and host a
      node there ("creating hard-replicas quickly and on-demand, in a
      similar way to creating virtual machines", §II.A);
    * :meth:`rejuvenate` — rewrite a hosted node's region (optionally
      with a different variant and/or at a different location, §II.C);
    * :meth:`full_device_restart` — the slow whole-device alternative.
    """

    def __init__(
        self,
        sim: "Simulator",
        chip: "Chip",
        store: Optional[BitstreamStore] = None,
        config: Optional[FabricConfig] = None,
    ) -> None:
        self.sim = sim
        self.chip = chip
        self.config = config or FabricConfig()
        self.store = store or BitstreamStore()
        self.icap = IcapPort(sim, self.store)
        self.regions: Dict[Coord, ReconfigurableRegion] = {
            coord: ReconfigurableRegion(f"pr{chip.topology.index_of(coord)}", coord)
            for coord in chip.topology.coords()
        }
        self.spawn_count = 0
        self.full_restart_count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def region_at(self, coord: Coord) -> ReconfigurableRegion:
        """The region bound to a tile coordinate."""
        return self.regions[coord]

    def free_regions(self) -> List[Coord]:
        """Coordinates whose region is EMPTY and whose tile is free+healthy."""
        free_tiles = set(self.chip.free_tiles())
        return sorted(
            coord
            for coord, region in self.regions.items()
            if region.state == RegionState.EMPTY and coord in free_tiles
        )

    def variant_at(self, coord: Coord) -> Optional[str]:
        """Configured variant at a coordinate (None if empty)."""
        return self.regions[coord].variant

    # ------------------------------------------------------------------
    # Spawn
    # ------------------------------------------------------------------
    def spawn(
        self,
        principal: str,
        node: "Node",
        variant: str,
        coord: Coord,
        on_ready: Optional[Callable[["Node"], None]] = None,
    ) -> IcapResult:
        """Configure ``variant`` into the region at ``coord`` and host ``node``.

        The node joins the chip only after the ICAP write commits — until
        then it does not exist on the NoC.  Returns the synchronous ICAP
        verdict; async completion arrives via ``on_ready``.
        """
        golden = self.store.get(variant)
        if golden is None:
            return IcapResult.INVALID_BITSTREAM
        region = self.regions[coord]
        tile = self.chip.tiles[coord]
        if not tile.available:
            return IcapResult.REGION_BUSY

        def commit(result: IcapResult) -> None:
            if result != IcapResult.OK:
                tile.release()
                return
            self.chip.place_node(node, coord)
            self.spawn_count += 1
            if on_ready:
                on_ready(node)

        verdict = self.icap.write(principal, region, golden, commit)
        if verdict == IcapResult.OK:
            tile.reserve()
        return verdict

    def despawn(self, coord: Coord) -> Optional["Node"]:
        """Blank a region and evict its node (scale-in)."""
        region = self.regions[coord]
        node = self.chip.tiles[coord].node
        if node is not None:
            self.chip.remove_node(node.name)
        region.clear()
        return node

    # ------------------------------------------------------------------
    # Rejuvenation
    # ------------------------------------------------------------------
    def rejuvenate(
        self,
        principal: str,
        name: str,
        variant: Optional[str] = None,
        new_coord: Optional[Coord] = None,
        on_done: Optional[Callable[[IcapResult], None]] = None,
    ) -> IcapResult:
        """Rewrite the region hosting node ``name``.

        While the write is in flight the node is *crashed* (its logic is
        disabled — this is the availability cost of rejuvenation).  On
        commit the node recovers with fresh state.  ``variant=None`` keeps
        the current image (restart-in-place); ``new_coord`` relocates.
        """
        node = self.chip.node(name)
        old_coord = self.chip.coord_of(name)
        target_coord = new_coord if new_coord is not None else old_coord
        old_region = self.regions[old_coord]
        target_region = self.regions[target_coord]
        chosen_variant = variant or old_region.variant
        if chosen_variant is None:
            return IcapResult.INVALID_BITSTREAM
        golden = self.store.get(chosen_variant)
        if golden is None:
            return IcapResult.INVALID_BITSTREAM
        relocating = target_coord != old_coord
        if relocating:
            if target_region.state != RegionState.EMPTY:
                return IcapResult.REGION_BUSY
            if not self.chip.tiles[target_coord].available:
                return IcapResult.REGION_BUSY

        node.crash()  # logic disabled for the duration of the write

        def commit(result: IcapResult) -> None:
            if relocating:
                self.chip.tiles[target_coord].release()
            if result != IcapResult.OK:
                # Roll back: the node resumes on its old image.
                node.recover()
                if on_done:
                    on_done(result)
                return
            if relocating:
                self.chip.relocate_node(name, target_coord)
                old_region.clear()
            node.recover()
            if on_done:
                on_done(result)

        verdict = self.icap.write(principal, target_region, golden, commit)
        if verdict == IcapResult.OK and relocating:
            self.chip.tiles[target_coord].reserve()
        elif verdict != IcapResult.OK:
            node.recover()
        return verdict

    # ------------------------------------------------------------------
    # Full device restart (the slow path)
    # ------------------------------------------------------------------
    def full_device_restart(
        self, principal: str, on_done: Optional[Callable[[], None]] = None
    ) -> IcapResult:
        """Reload the whole device: every node crashes, every configured
        region is rewritten sequentially after a fixed reboot cost."""
        if not self.icap.is_authorized(principal):
            return IcapResult.DENIED_ACL
        configured = [
            (coord, region.bitstream)
            for coord, region in sorted(self.regions.items())
            if region.state == RegionState.CONFIGURED and region.bitstream is not None
        ]
        for coord, _ in configured:
            node = self.chip.tiles[coord].node
            if node is not None:
                node.crash()
        total = self.config.full_restart_fixed_cost + sum(
            self.icap.write_time(b) for _, b in configured
        )
        self.sim.schedule(total, self._complete_full_restart, configured, on_done)
        return IcapResult.OK

    def _complete_full_restart(
        self, configured: List, on_done: Optional[Callable[[], None]]
    ) -> None:
        for coord, _ in configured:
            node = self.chip.tiles[coord].node
            if node is not None:
                node.recover()
        self.full_restart_count += 1
        if on_done:
            on_done()

    # ------------------------------------------------------------------
    def register_variants(
        self, functionality: str, variants: List[str], size_bytes: int = BITSTREAM_BYTES
    ) -> None:
        """Convenience: register golden images for a variant pool."""
        for i, variant in enumerate(variants):
            self.store.register(
                make_bitstream(variant, functionality, vendor=f"vendor{i}", size_bytes=size_bytes)
            )
