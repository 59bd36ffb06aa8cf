"""Inter-chip links: serialized point-to-point channels between SoCs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


@dataclass
class InterChipLinkConfig:
    """Electrical/board-level link parameters.

    Defaults model a SerDes-style board link: ~200 NoC cycles of fixed
    latency (PHY + serialization framing) and 2 bytes per cycle of
    bandwidth — an order of magnitude slower than the on-chip mesh, which
    is exactly the asymmetry the E11 trade-off is about.
    """

    latency: float = 200.0
    bytes_per_cycle: float = 2.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bytes_per_cycle <= 0:
            raise ValueError("latency must be >= 0 and bandwidth positive")


class InterChipLink:
    """One direction of a board link between two chips' gateways."""

    def __init__(
        self,
        sim: "Simulator",
        src_chip: str,
        dst_chip: str,
        config: InterChipLinkConfig,
    ) -> None:
        self.sim = sim
        self.src_chip = src_chip
        self.dst_chip = dst_chip
        self.config = config
        self.busy_until = 0.0
        self.up = True
        self.messages_carried = 0

    def fail(self) -> None:
        """Hard-fail the link (board damage / connector loss)."""
        self.up = False

    def repair(self) -> None:
        """Restore the link."""
        self.up = True

    def transfer_time(self, size_bytes: int) -> float:
        """Pure transfer time for a message (no queueing)."""
        return self.config.latency + size_bytes / self.config.bytes_per_cycle

    def reserve(self, size_bytes: int, now: float) -> float:
        """Reserve the channel; returns the arrival time at the far side.

        The caller must have checked :attr:`up`.
        """
        start = max(now, self.busy_until)
        self.busy_until = start + size_bytes / self.config.bytes_per_cycle
        self.messages_carried += 1
        return start + self.transfer_time(size_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "down"
        return f"<InterChipLink {self.src_chip}->{self.dst_chip} {state}>"
