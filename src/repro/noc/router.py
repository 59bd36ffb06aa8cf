"""NoC routers: per-tile switching elements with fault states."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class Router:
    """The switching element at one tile.

    Adds a fixed per-hop ``switch_latency`` (arbitration + crossbar) to
    every packet passing through, and can hard-fail — a failed router
    drops everything addressed through it, modelling a dead tile region.

    One per tile and nothing per packet: what a router switched is read
    off the packets' paths.  Fault state must be driven through
    :class:`~repro.noc.network.NocNetwork`'s fault interface.
    """

    __slots__ = ("sim", "coord", "switch_latency", "failed")

    def __init__(self, sim: "Simulator", coord: Coord, switch_latency: float = 1.0) -> None:
        if switch_latency < 0:
            raise ValueError(f"switch latency must be >= 0, got {switch_latency}")
        self.sim = sim
        self.coord = coord
        self.switch_latency = switch_latency
        self.failed = False

    def fail(self) -> None:
        """Hard-fail the router."""
        self.failed = True

    def repair(self) -> None:
        """Restore the router."""
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover
        state = "failed" if self.failed else "ok"
        return f"<Router {self.coord} {state}>"
