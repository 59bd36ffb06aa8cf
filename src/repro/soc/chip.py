"""Chip assembly: topology + NoC + tiles + node name registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.metrics import MetricsRegistry
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.packet import Packet
from repro.noc.topology import Coord, MeshTopology
from repro.sim.simulator import Simulator
from repro.soc.costs import CostModel
from repro.soc.node import Node
from repro.soc.tile import Tile, TileState


@dataclass
class ChipConfig:
    """Shape and parameters of the chip."""

    width: int = 4
    height: int = 4
    noc: NocConfig = field(default_factory=NocConfig)
    costs: CostModel = field(default_factory=CostModel)


class Chip:
    """The manycore SoC: the first object every experiment constructs.

    Owns the simulator-facing pieces (mesh topology, NoC, tiles) plus a
    node name registry so protocol code addresses peers by name, not
    coordinate — essential because rejuvenation may *relocate* a node to a
    different tile while its name (and keys) persist.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[ChipConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config or ChipConfig()
        self.metrics = metrics or MetricsRegistry()
        self.topology = MeshTopology(self.config.width, self.config.height)
        self.noc = NocNetwork(sim, self.topology, self.config.noc, self.metrics)
        self.costs = self.config.costs
        self.tiles: Dict[Coord, Tile] = {c: Tile(c) for c in self.topology.coords()}
        self._nodes: Dict[str, Node] = {}
        self._placement: Dict[str, Coord] = {}
        # Hooks for the systems-of-SoCs layer (repro.sos): outbound
        # traffic for names not placed here, and inbound tunnelled
        # payloads arriving at this chip's gateway tile.
        self.off_chip_handler: Optional[Any] = None
        self.gateway_handler: Optional[Any] = None
        for coord in self.topology.coords():
            self.noc.attach(coord, self._make_delivery_handler(coord))

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_node(self, node: Node, coord: Coord) -> None:
        """Host a node on a tile and register its name."""
        if node.name in self._nodes:
            raise ValueError(f"node name {node.name!r} already placed")
        self.tiles[coord].host(node)
        self._nodes[node.name] = node
        self._placement[node.name] = coord
        node.attach_to(self)

    def remove_node(self, name: str) -> Node:
        """Evict a node from its tile and forget its name."""
        node = self._nodes.pop(name, None)
        if node is None:
            raise KeyError(f"no node named {name!r}")
        coord = self._placement.pop(name)
        self.tiles[coord].evict()
        return node

    def relocate_node(self, name: str, new_coord: Coord) -> None:
        """Move a node to a different (free, healthy) tile.

        Models diverse rejuvenation to a new spatial location (§II.C);
        the caller is responsible for charging reconfiguration time.
        """
        node = self.node(name)
        old = self._placement[name]
        if old == new_coord:
            return
        self.tiles[new_coord].host(node)  # raises if occupied/crashed
        self.tiles[old].evict()
        self._placement[name] = new_coord

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        node = self._nodes.get(name)
        if node is None:
            raise KeyError(f"no node named {name!r}")
        return node

    def has_node(self, name: str) -> bool:
        """True if a node with this name is placed."""
        return name in self._nodes

    def coord_of(self, name: str) -> Coord:
        """Current tile coordinate of a named node."""
        return self._placement[name]

    def free_tiles(self) -> List[Coord]:
        """Healthy, unoccupied, unreserved tiles (sorted for determinism)."""
        return sorted(c for c, t in self.tiles.items() if t.available)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def transmit(self, src_name: str, dst_name: str, body: Any, size_bytes: int) -> Optional[Packet]:
        """Send a protocol message between named nodes over the NoC.

        Unknown destinations silently drop (the peer may have been evicted
        mid-rejuvenation — exactly the race protocols must tolerate).
        """
        placement = self._placement
        dst_coord = placement.get(dst_name)
        src_coord = placement.get(src_name)
        if src_coord is None:
            self.metrics.counter("chip.dropped_unplaced").inc()
            return None
        if dst_coord is None:
            if self.off_chip_handler is not None:
                # The addressee may live on another chip (repro.sos).
                return self.off_chip_handler(src_name, dst_name, body, size_bytes)
            self.metrics.counter("chip.dropped_unplaced").inc()
            return None
        return self.noc.send(src_coord, dst_coord, body, size_bytes, src_name, dst_name)

    def multicast(self, src_name: str, dst_names: List[str], body: Any, size_bytes: int) -> int:
        """:meth:`transmit` one message to every name but the sender's;
        returns how many that is.

        With everyone placed on this chip it is one pass down to
        :meth:`NocNetwork.multicast`; anything else (an evicted peer, an
        addressee on another chip) takes :meth:`transmit` name by name,
        in the same order.
        """
        if src_name in dst_names:
            dst_names = [name for name in dst_names if name != src_name]
        placement = self._placement
        src_coord = placement.get(src_name)
        coords = list(map(placement.get, dst_names))
        if src_coord is None or None in coords:
            for name in dst_names:
                self.transmit(src_name, name, body, size_bytes)
        else:
            self.noc.multicast(src_coord, coords, body, size_bytes, src_name, dst_names)
        return len(dst_names)

    def deliver_from_gateway(self, src_name: str, dst_name: str, body: Any, size_bytes: int,
                             gateway: Coord) -> Optional[Packet]:
        """Inject a tunnelled message arriving from another chip.

        The message still traverses this chip's NoC from the gateway tile
        to the addressee, so intra-chip distance is charged faithfully.
        """
        dst_coord = self._placement.get(dst_name)
        if dst_coord is None:
            self.metrics.counter("chip.dropped_unplaced").inc()
            return None
        return self.noc.send(gateway, dst_coord, body, size_bytes, src_name, dst_name)

    def _make_delivery_handler(self, coord: Coord):
        tile = self.tiles[coord]  # the tile object is fixed; its node and state are not
        crashed = TileState.CRASHED

        def handler(packet: Packet) -> None:
            addressee = packet.addressee
            if addressee is None:
                # Not for a node.  Tunnelled inter-chip traffic: the
                # gateway tile needs no hosted node, but a physically
                # crashed tile kills the gateway logic too.
                if self.gateway_handler is not None and tile.state is not crashed:
                    self.gateway_handler(packet)
                    return
                self.metrics.counter("chip.dropped_malformed").inc()
                return
            node = tile.node
            if tile.state is crashed or node is None:
                self.metrics.counter("chip.dropped_dead_tile").inc()
                return
            if addressee != node.name:
                # The addressee moved away between injection and delivery.
                self.metrics.counter("chip.dropped_stale_addr").inc()
                return
            body = packet.payload
            if packet.corrupted:
                # Mark so MAC verification fails downstream; we model
                # corruption as authenticator damage.
                body = _Corrupted(body)
            node.deliver(packet.sender, body)

        return handler

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Chip {self.config.width}x{self.config.height} nodes={len(self._nodes)}>"


class _Corrupted:
    """Sentinel wrapper for link-corrupted message bodies.

    Protocol messages check :func:`is_corrupted` before MAC verification;
    this models end-to-end integrity checks catching link-level bit errors.
    """

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover
        return f"<corrupted {self.original!r}>"


def is_corrupted(body: Any) -> bool:
    """True if a delivered message body was corrupted in transit."""
    return isinstance(body, _Corrupted)
