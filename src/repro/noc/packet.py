"""Packets: routed messages with flit-level size accounting."""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.noc.topology import Coord

FLIT_BYTES = 16
"""Flit payload width.  16 bytes/flit matches common 128-bit NoC channels."""


def flits_for(size_bytes: int) -> int:
    """Number of flits needed for a payload, minimum 1 (head flit)."""
    if size_bytes < 0:
        raise ValueError(f"negative payload size {size_bytes}")
    return max(1, math.ceil(size_bytes / FLIT_BYTES))


class Packet:
    """One NoC packet in flight.

    ``payload`` is opaque to the NoC; the SoC layer puts protocol messages
    here.  ``size_bytes`` drives serialization latency (flits cross a link
    one per cycle) and fixes ``flits``, the packet's length, at creation;
    the trace fields (``hops``, ``path``, ``delivered_at``, the drop
    fields) let benches account for cost.  One is built per message sent,
    hence ``__slots__``.
    """

    __slots__ = (
        "packet_id", "src", "dst", "payload", "size_bytes", "injected_at", "flits",
        "corrupted", "delivered_at", "dropped", "drop_reason", "hops", "path",
    )

    def __init__(
        self, packet_id: int, src: Coord, dst: Coord, payload: Any, size_bytes: int,
        injected_at: float,
    ) -> None:
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.injected_at = injected_at
        self.flits = flits_for(size_bytes)
        self.corrupted = False
        self.delivered_at: Optional[float] = None
        self.dropped = False
        self.drop_reason = ""
        self.hops = 0
        self.path: List[Coord] = [src]

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
        state = "dropped" if self.dropped else ("delivered" if self.delivered_at else "in-flight")
        return f"<Packet #{self.packet_id} {self.src}->{self.dst} {self.flits}f {state}>"
