"""Unidirectional NoC links with bandwidth, fault states, and corruption."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class LinkState(enum.Enum):
    """Health of a link.

    UP        — normal operation.
    DOWN      — hard failure: packets entering the link are dropped.
    CORRUPTING — transient fault mode: packets traverse but arrive with
                 ``corrupted=True`` (their MACs will fail verification,
                 modelling bit errors caught by end-to-end checks).
    """

    UP = "up"
    DOWN = "down"
    CORRUPTING = "corrupting"


class Link:
    """One directed channel between adjacent routers.

    The serialization model is wormhole-like but accounted at packet
    granularity: a packet of ``n`` flits occupies the link for
    ``n * cycle_time`` after the head enters, plus a fixed ``latency``
    for traversal.  ``busy_until`` implements output contention.

    Links are the hottest objects in the interconnect — the forwarding
    loop (:meth:`NocNetwork._hop`) reserves one per packet per hop,
    updating ``busy_until`` and the carried counters in place — hence
    ``__slots__``.  Fault state must be driven through
    :class:`~repro.noc.network.NocNetwork`'s fault interface, which
    keeps the express-path bookkeeping consistent.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "latency",
        "cycle_time",
        "state",
        "busy_until",
        "packets_carried",
        "flits_carried",
    )

    def __init__(
        self,
        sim: "Simulator",
        src: Coord,
        dst: Coord,
        latency: float = 1.0,
        cycle_time: float = 1.0,
    ) -> None:
        if latency < 0 or cycle_time <= 0:
            raise ValueError("link latency must be >= 0 and cycle_time > 0")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency
        self.cycle_time = cycle_time
        self.state = LinkState.UP
        self.busy_until = 0.0
        self.packets_carried = 0
        self.flits_carried = 0

    @property
    def key(self) -> tuple:
        """(src, dst) — the link's identity in the network's link map."""
        return (self.src, self.dst)

    def fail(self) -> None:
        """Hard-fail the link (packets are dropped on entry)."""
        self.state = LinkState.DOWN

    def degrade(self) -> None:
        """Put the link into corrupting mode."""
        self.state = LinkState.CORRUPTING

    def repair(self) -> None:
        """Restore the link to normal operation."""
        self.state = LinkState.UP

    def occupancy_delay(self, flits: int, now: float) -> float:
        """Queueing delay a packet of ``flits`` sees before entering now."""
        return max(0.0, self.busy_until - now)

    def transfer_time(self, flits: int) -> float:
        """Time from entering the link to fully arriving at the far router."""
        return self.latency + flits * self.cycle_time

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.src}->{self.dst} {self.state.value}>"
