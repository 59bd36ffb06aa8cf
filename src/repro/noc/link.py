"""Unidirectional NoC links with bandwidth, fault states, and corruption."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Tuple

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import Packet
    from repro.sim.simulator import Simulator

Slot = Tuple[float, int, float, float, "Packet", int]
"""One reservation ahead of the clock: ``(arrival, packet_id, depart, end,
packet, hop)`` — the packet reaches the link's source router at ``arrival``
as hop number ``hop`` of its route, is switched by ``depart`` and has left
the link at ``end``."""


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
    for traversal.  Packets are served in the order ``(arrival at the
    source router, packet id)``; each starts when it has been switched
    (``depart``) and the previous one has left.

    Output contention is kept in two parts.  ``busy_until`` is when the
    last reservation that can no longer change ends — hop by hop that is
    every reservation, so the scalar is the link's whole state there.
    ``slots`` is the calendar of reservations made *ahead of the clock*
    by the analytic traversal (:meth:`NocNetwork._commit`): tuples
    ``(arrival, packet_id, depart, end, packet, hop)`` sorted by
    ``(arrival, packet_id)``.  A slot behind the clock is final and is
    folded into ``busy_until``; a packet that reaches the link earlier
    than a slot already in the calendar is inserted before it, and every
    later slot whose ``end`` that changes is *displaced*: taken out and
    handed back to the network, which re-times that packet from this hop.

    Links are the hottest objects in the interconnect — the network
    reserves one per packet per hop and inlines the common cases (empty
    calendar, append after its tail) — hence ``__slots__``.  ``state`` is
    set by :class:`~repro.noc.network.NocNetwork`'s fault interface only,
    which bumps the fault epoch and takes back what was reserved ahead.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "latency",
        "cycle_time",
        "state",
        "busy_until",
        "slots",
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
        self.slots: List[Slot] = []

    @property
    def key(self) -> tuple:
        """(src, dst) — the link's identity in the network's link map."""
        return (self.src, self.dst)

    def transfer_time(self, flits: int) -> float:
        """Time from entering the link to fully arriving at the far router."""
        return self.latency + flits * self.cycle_time

    # ------------------------------------------------------------------
    # The reservation calendar
    # ------------------------------------------------------------------
    def fold(self, now: float) -> None:
        """Fold the slots that arrived before ``now`` into ``busy_until``."""
        slots = self.slots
        k = 0
        while k < len(slots) and slots[k][0] < now:
            k += 1
        if k:
            self.busy_until = slots[k - 1][3]
            del slots[:k]

    def reserve(
        self, now: float, arrival: float, packet: "Packet", hop: int, depart: float,
        displaced: List[Slot],
    ) -> float:
        """Place ``packet`` in the calendar at ``(arrival, packet_id)``.

        Returns when its flits have left the link.  Slots after it that
        it delays are appended to ``displaced``.
        """
        slots = self.slots
        if slots and slots[0][0] < now:
            self.fold(now)
        packet_id = packet.packet_id
        i = len(slots)
        while i:
            slot = slots[i - 1]
            if slot[0] < arrival or (slot[0] == arrival and slot[1] < packet_id):
                break
            i -= 1
        start = slots[i - 1][3] if i else self.busy_until
        if depart > start:
            start = depart
        end = start + packet.flits * self.cycle_time
        slots.insert(i, (arrival, packet_id, depart, end, packet, hop))
        if i + 1 < len(slots):
            self.settle(i + 1, end, displaced)
        return end

    def release(self, packet: "Packet", displaced: List[Slot]) -> None:
        """Take back ``packet``'s slot, if it has one here (still).

        Slots behind it that can now start earlier go to ``displaced``.
        """
        slots = self.slots
        i = len(slots)
        while i:
            i -= 1
            if slots[i][4] is packet:
                del slots[i]
                self.settle(i, slots[i - 1][3] if i else self.busy_until, displaced)
                return

    def settle(self, j: int, free_at: float, displaced: List[Slot]) -> None:
        """Re-time ``slots[j:]`` after a change before them.

        ``free_at`` is when the link is free for ``slots[j]``.  The first
        slot whose ``end`` is unchanged ends the pass (nothing behind it
        moves either); each one before that is removed and appended to
        ``displaced``.
        """
        slots = self.slots
        cycle_time = self.cycle_time
        while j < len(slots):
            slot = slots[j]
            start = slot[2]
            if free_at > start:
                start = free_at
            if start + slot[4].flits * cycle_time == slot[3]:
                return
            del slots[j]
            displaced.append(slot)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.src}->{self.dst} {self.state.value}>"
