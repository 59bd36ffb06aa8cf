"""The multi-chip fabric: chips, gateways, tunnelled name-based routing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.noc.topology import Coord
from repro.sim.simulator import Simulator
from repro.soc.chip import Chip
from repro.soc.tile import TileState
from repro.sos.link import InterChipLink, InterChipLinkConfig


@dataclass
class _Tunnel:
    """An inter-chip payload riding a NoC packet to/through gateways."""

    src: str
    dst: str
    body: Any
    size_bytes: int
    dst_chip: str


class MultiChipSystem:
    """Several chips joined by inter-chip links (Fig. 1's top layer).

    Nodes keep addressing peers by *name*; the system discovers the
    owning chip, routes the message over (possibly multiple) inter-chip
    links between gateway tiles, and re-injects it into the destination
    chip's NoC at its gateway — so both on-chip legs and every board hop
    are charged faithfully.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.chips: Dict[str, Chip] = {}
        self.gateways: Dict[str, Coord] = {}
        self._links: Dict[Tuple[str, str], InterChipLink] = {}
        self._packet_ids: Optional[Iterator[int]] = None
        self.dropped_no_owner = 0
        self.dropped_no_route = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_chip(self, name: str, chip: Chip, gateway: Optional[Coord] = None) -> None:
        """Register a chip; ``gateway`` defaults to its (0, 0) tile.

        The chips' NoCs run on one kernel, where a packet's id ranks its
        events among those of the same instant, so from here on they all
        draw ids from the first chip's sequence.
        """
        if name in self.chips:
            raise ValueError(f"chip {name!r} already registered")
        if self._packet_ids is None:
            self._packet_ids = chip.noc.packet_ids
        chip.noc.packet_ids = self._packet_ids
        self.chips[name] = chip
        self.gateways[name] = gateway or Coord(0, 0)
        chip.off_chip_handler = self._make_egress(name)
        chip.gateway_handler = self._make_gateway_handler(name)

    def connect(
        self, a: str, b: str, config: Optional[InterChipLinkConfig] = None
    ) -> None:
        """Create a bidirectional link between two chips."""
        config = config or InterChipLinkConfig()
        for src, dst in [(a, b), (b, a)]:
            if src not in self.chips or dst not in self.chips:
                raise KeyError(f"unknown chip in ({a!r}, {b!r})")
            self._links[(src, dst)] = InterChipLink(self.sim, src, dst, config)

    def link(self, a: str, b: str) -> InterChipLink:
        """The directed link a -> b."""
        return self._links[(a, b)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def owner_chip(self, node_name: str) -> Optional[str]:
        """The chip hosting a named node, or None."""
        for chip_name in sorted(self.chips):
            if self.chips[chip_name].has_node(node_name):
                return chip_name
        return None

    def chip_route(self, src_chip: str, dst_chip: str) -> Optional[List[str]]:
        """BFS route over the chip graph using only UP links."""
        if src_chip == dst_chip:
            return [src_chip]
        frontier = [src_chip]
        parent = {src_chip: src_chip}
        while frontier:
            nxt: List[str] = []
            for here in frontier:
                for (a, b), link in sorted(self._links.items()):
                    if a != here or b in parent or not link.up:
                        continue
                    parent[b] = here
                    if b == dst_chip:
                        path = [b]
                        while path[-1] != src_chip:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(b)
            frontier = nxt
        return None

    # ------------------------------------------------------------------
    # Chip-level faults
    # ------------------------------------------------------------------
    def fail_chip(self, name: str) -> None:
        """Whole-chip failure: every tile crashes, all its links go down."""
        chip = self.chips[name]
        for tile in chip.tiles.values():
            if tile.state is not TileState.CRASHED:
                tile.crash()
        for (a, b), link in self._links.items():
            if a == name or b == name:
                link.fail()

    def repair_chip(self, name: str) -> None:
        """Repair a chip's tiles and links (nodes stay crashed until
        recovered explicitly)."""
        chip = self.chips[name]
        for tile in chip.tiles.values():
            tile.repair()
        for (a, b), link in self._links.items():
            if a == name or b == name:
                link.repair()

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------
    def _make_egress(self, chip_name: str):
        """off_chip_handler for one chip: start the tunnel at the sender."""

        def egress(src: str, dst: str, body: Any, size_bytes: int):
            dst_chip = self.owner_chip(dst)
            if dst_chip is None or dst_chip == chip_name:
                self.dropped_no_owner += 1
                return None
            chip = self.chips[chip_name]
            tunnel = _Tunnel(src, dst, body, size_bytes, dst_chip)
            # Ride the local NoC from the sender's tile to the gateway.
            return chip.noc.send(
                chip.coord_of(src), self.gateways[chip_name], tunnel, size_bytes
            )

        return egress

    def _make_gateway_handler(self, chip_name: str):
        """Handle tunnel payloads arriving at this chip's gateway tile."""

        def at_gateway(packet) -> None:
            tunnel = packet.payload
            if not isinstance(tunnel, _Tunnel):
                return
            if packet.corrupted:
                return  # end-to-end integrity: corrupted tunnels die here
            self._forward(chip_name, tunnel)

        return at_gateway

    def _forward(self, here: str, tunnel: _Tunnel) -> None:
        if here == tunnel.dst_chip:
            chip = self.chips[here]
            chip.deliver_from_gateway(
                tunnel.src, tunnel.dst, tunnel.body, tunnel.size_bytes, self.gateways[here]
            )
            return
        route = self.chip_route(here, tunnel.dst_chip)
        if route is None or len(route) < 2:
            self.dropped_no_route += 1
            return
        link = self._links[(here, route[1])]
        if not link.up:
            self.dropped_no_route += 1
            return
        arrival = link.reserve(tunnel.size_bytes, self.sim.now)
        self.sim.schedule_at(arrival, self._forward, route[1], tunnel)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MultiChipSystem chips={sorted(self.chips)}>"
