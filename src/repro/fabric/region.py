"""Reconfigurable regions (frames): the unit of partial reconfiguration."""

from __future__ import annotations

import enum
from typing import Optional

from repro.fabric.bitstream import Bitstream
from repro.noc.topology import Coord


class RegionState(enum.Enum):
    """Lifecycle of a reconfigurable region.

    EMPTY         — no logic configured; the tile hosts nothing.
    CONFIGURED    — a bitstream is loaded and the logic is running.
    RECONFIGURING — a write through the ICAP is in progress; the region's
                    logic is disabled, everything else keeps running
                    (partial, dynamic reconfiguration).
    """

    EMPTY = "empty"
    CONFIGURED = "configured"
    RECONFIGURING = "reconfiguring"


class ReconfigurableRegion:
    """One frame of the FPGA grid, bound to a tile coordinate.

    The binding to a tile is how spatial arguments work: a trojan in the
    grid fabric lives under a *coordinate*; relocating a softcore means
    configuring its variant into a region at a different coordinate.
    """

    def __init__(self, region_id: str, coord: Coord) -> None:
        self.region_id = region_id
        self.coord = coord
        self.state = RegionState.EMPTY
        self.bitstream: Optional[Bitstream] = None
        self.configured_at: Optional[float] = None
        self.reconfigure_count = 0

    @property
    def variant(self) -> Optional[str]:
        """The configured variant name, or None while empty."""
        return self.bitstream.variant if self.bitstream else None

    def begin_reconfiguration(self) -> None:
        """Disable the region's logic for the duration of the ICAP write."""
        if self.state == RegionState.RECONFIGURING:
            raise ValueError(f"region {self.region_id} is already reconfiguring")
        self.state = RegionState.RECONFIGURING

    def complete_reconfiguration(self, bitstream: Bitstream, now: float) -> None:
        """Commit the written image; the region's logic (re)starts."""
        if self.state != RegionState.RECONFIGURING:
            raise ValueError(f"region {self.region_id} is not mid-reconfiguration")
        self.bitstream = bitstream
        self.state = RegionState.CONFIGURED
        self.configured_at = now
        self.reconfigure_count += 1

    def clear(self) -> None:
        """Blank the region (full-device restart path)."""
        self.state = RegionState.EMPTY
        self.bitstream = None
        self.configured_at = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Region {self.region_id}@{self.coord} {self.state.value} {self.variant}>"
