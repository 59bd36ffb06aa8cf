"""Packets: routed messages with flit-level size accounting."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.noc.topology import Coord

FLIT_BYTES = 16
"""Flit payload width.  16 bytes/flit matches common 128-bit NoC channels."""


def flits_for(size_bytes: int) -> int:
    """Number of flits needed for a payload, minimum 1 (head flit)."""
    if size_bytes < 0:
        raise ValueError(f"negative payload size {size_bytes}")
    return -(-size_bytes // FLIT_BYTES) or 1


class Packet:
    """One NoC packet in flight.

    ``payload`` is opaque to the NoC; the SoC layer puts protocol messages
    here and names their two ends in ``sender`` and ``addressee`` (a packet
    without an addressee is not for a node: raw NoC traffic, or an
    inter-chip payload on its way to a gateway tile).  ``size_bytes``
    drives serialization latency (flits cross a link one per cycle) and
    fixes ``flits``, the packet's length, at creation;
    the trace fields (``hops``, ``path``, ``delivered_at``, the drop
    fields) let benches account for cost.  One is built per message sent,
    hence ``__slots__``.

    ``packet_id`` is the packet's age among everything sent on the same
    kernel, and with it its rank among the NoC events of one instant.
    ``hops`` and ``path`` grow hop by hop under ``express_routing=False``;
    on the analytic path they are complete when ``send`` returns and are
    cut back if the packet has to be re-timed.  Either way they are exact
    once the packet is delivered or dropped.  ``_route``, ``_index`` and
    ``_event`` are the network's: the compiled route being followed, the
    position on it of the packet's one pending event (every hop before it
    is reserved), and that event; ``_trail`` is the tiles passed before
    an adaptive re-route replaced ``_route`` (None otherwise).
    """

    __slots__ = (
        "packet_id", "src", "dst", "payload", "size_bytes", "injected_at", "flits",
        "sender", "addressee",
        "corrupted", "delivered_at", "dropped", "drop_reason", "hops",
        "_route", "_index", "_event", "_trail",
    )

    def __init__(
        self, packet_id: int, src: Coord, dst: Coord, payload: Any, size_bytes: int,
        injected_at: float, sender: Optional[str] = None, addressee: Optional[str] = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative payload size {size_bytes}")
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.injected_at = injected_at
        self.flits = -(-size_bytes // FLIT_BYTES) or 1  # flits_for, without the call
        self.sender = sender
        self.addressee = addressee
        self.corrupted = False
        self.delivered_at: Optional[float] = None
        self.dropped = False
        self.drop_reason = ""
        self.hops = 0
        self._route: Any = None
        self._index = 0
        self._event: Any = None
        self._trail: Optional[List[Coord]] = None

    @property
    def path(self) -> List[Coord]:
        """The tiles visited (reserved, on the analytic path) so far."""
        route = self._route
        here = [self.src] if route is None else route.coords[: self._index + 1]
        return here if self._trail is None else self._trail + here

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency, or None if not (yet) delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at

    @property
    def flit_hops(self) -> int:
        """flits x hops — the energy/bandwidth cost metric used by E2."""
        return self.flits * self.hops

    def __repr__(self) -> str:  # pragma: no cover
        delivered = self.delivered_at is not None
        state = "dropped" if self.dropped else ("delivered" if delivered else "in-flight")
        return f"<Packet #{self.packet_id} {self.src}->{self.dst} {self.flits}f {state}>"
