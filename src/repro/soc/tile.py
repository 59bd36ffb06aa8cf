"""Tiles: the physical mesh positions of the SoC."""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.node import Node


class TileState(enum.Enum):
    """Physical health of a tile.

    OK       — operating normally.
    CRASHED  — hard physical failure (power gate, latch-up); the hosted
               node stops and the tile must be repaired/rejuvenated.
    DEGRADED — aging-related: still works but with elevated transient
               fault probability (modelled by the fault injector).
    """

    OK = "ok"
    CRASHED = "crashed"
    DEGRADED = "degraded"


class Tile:
    """One mesh position: hosts at most one node, tracks physical health.

    Tiles are the unit of spatial placement: rejuvenation-with-relocation
    (§II.C) moves a replica's bitstream to a *different tile* to escape
    fabric-bound backdoors, which the fault model ties to tile coordinates.
    """

    def __init__(self, coord: Coord) -> None:
        self.coord = coord
        self.state = TileState.OK
        self.node: Optional["Node"] = None
        self.reserved = False  # a pending fabric spawn holds this tile

    @property
    def occupied(self) -> bool:
        """True if a node is currently hosted here."""
        return self.node is not None

    @property
    def available(self) -> bool:
        """True if a new node (or spawn) may claim this tile."""
        return not self.occupied and not self.reserved and self.state is not TileState.CRASHED

    def reserve(self) -> None:
        """Hold the tile for an in-flight fabric spawn."""
        if not self.available:
            raise ValueError(f"tile {self.coord} is not available to reserve")
        self.reserved = True

    def release(self) -> None:
        """Drop a reservation (spawn aborted)."""
        self.reserved = False

    def host(self, node: "Node") -> None:
        """Place a node on this tile.  The tile must be free and healthy."""
        if self.node is not None:
            raise ValueError(f"tile {self.coord} already hosts {self.node.name!r}")
        if self.state is TileState.CRASHED:
            raise ValueError(f"tile {self.coord} is crashed; repair before hosting")
        self.node = node
        self.reserved = False

    def evict(self) -> Optional["Node"]:
        """Remove and return the hosted node (None if empty)."""
        node, self.node = self.node, None
        return node

    def crash(self) -> None:
        """Physically fail the tile; crashes the hosted node too."""
        self.state = TileState.CRASHED
        if self.node is not None:
            self.node.crash()

    def degrade(self) -> None:
        """Mark the tile as aging-degraded."""
        if self.state is TileState.OK:
            self.state = TileState.DEGRADED

    def repair(self) -> None:
        """Restore the tile to full health (post-rejuvenation)."""
        self.state = TileState.OK

    def __repr__(self) -> str:  # pragma: no cover
        hosted = self.node.name if self.node else "-"
        return f"<Tile {self.coord} {self.state.value} node={hosted}>"
