"""The internal configuration access port (ICAP) with access control.

Paper §II.E: reconfiguration "is driven from within the FPGA ... through
interfaces like internal configuration access ports", and "provided
sufficient access controls are in place at the internal configuration
access ports, the actual configuration of a frame can even be delegated to
its current user".  The port is the security chokepoint: it enforces an
ACL, validates bitstreams against the golden store, and — being a single
physical port — serializes concurrent writes, which is what makes E9's
spawn-latency curve super-linear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Set, TYPE_CHECKING

from repro.fabric.bitstream import Bitstream, BitstreamStore
from repro.fabric.region import ReconfigurableRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class IcapResult(enum.Enum):
    """Outcome of a configuration write."""

    OK = "ok"
    DENIED_ACL = "denied-acl"
    INVALID_BITSTREAM = "invalid-bitstream"
    REGION_BUSY = "region-busy"


@dataclass
class IcapStats:
    """Counters exposed for the E7 table."""

    writes_ok: int = 0
    writes_denied: int = 0
    writes_invalid: int = 0
    writes_busy: int = 0


class IcapPort:
    """The configuration port: ACL + validation + serialized bandwidth.

    ``bandwidth_bytes_per_unit`` converts bitstream size into write time;
    real ICAPs move ~400 MB/s, i.e. a 256 KiB partial image takes ~0.6 ms.
    With NoC cycles ~1 ns, the default of 100 bytes/cycle makes a 256 KiB
    image cost ~2,600 cycles — fast enough to exercise concurrency without
    dwarfing protocol time.
    """

    def __init__(
        self,
        sim: "Simulator",
        store: BitstreamStore,
        bandwidth_bytes_per_unit: float = 100.0,
        validate: bool = True,
    ) -> None:
        if bandwidth_bytes_per_unit <= 0:
            raise ValueError("ICAP bandwidth must be positive")
        self.sim = sim
        self.store = store
        self.bandwidth = bandwidth_bytes_per_unit
        self.validate_writes = validate
        self._acl: Set[str] = set()
        self._busy_until = 0.0
        self.stats = IcapStats()

    # ------------------------------------------------------------------
    # Access control
    # ------------------------------------------------------------------
    def grant(self, principal: str) -> None:
        """Allow a principal to write through the port."""
        self._acl.add(principal)

    def revoke(self, principal: str) -> None:
        """Remove a principal's write permission."""
        self._acl.discard(principal)

    def is_authorized(self, principal: str) -> bool:
        """True if the principal may write."""
        return principal in self._acl

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_time(self, bitstream: Bitstream) -> float:
        """Pure transfer time for an image (no queueing)."""
        return bitstream.size_bytes / self.bandwidth

    def write(
        self,
        principal: str,
        region: ReconfigurableRegion,
        bitstream: Bitstream,
        on_done: Optional[Callable[[IcapResult], None]] = None,
    ) -> IcapResult:
        """Request a configuration write.

        Synchronous checks (ACL, validation, region state) happen
        immediately and return a failure result without touching the
        region.  An accepted write disables the region, queues on the
        port, and calls ``on_done(IcapResult.OK)`` when the image commits.
        The immediate return value for an accepted write is ``OK``.
        """
        if not self.is_authorized(principal):
            self.stats.writes_denied += 1
            if on_done:
                self.sim.call_soon(on_done, IcapResult.DENIED_ACL)
            return IcapResult.DENIED_ACL
        if self.validate_writes and not self.store.validate(bitstream):
            self.stats.writes_invalid += 1
            if on_done:
                self.sim.call_soon(on_done, IcapResult.INVALID_BITSTREAM)
            return IcapResult.INVALID_BITSTREAM
        if region.state.value == "reconfiguring":
            self.stats.writes_busy += 1
            if on_done:
                self.sim.call_soon(on_done, IcapResult.REGION_BUSY)
            return IcapResult.REGION_BUSY

        region.begin_reconfiguration()
        start = max(self.sim.now, self._busy_until)
        finish = start + self.write_time(bitstream)
        self._busy_until = finish
        self.sim.schedule_at(finish, self._commit, region, bitstream, on_done)
        return IcapResult.OK

    def _commit(
        self,
        region: ReconfigurableRegion,
        bitstream: Bitstream,
        on_done: Optional[Callable[[IcapResult], None]],
    ) -> None:
        region.complete_reconfiguration(bitstream, self.sim.now)
        self.stats.writes_ok += 1
        if on_done:
            on_done(IcapResult.OK)
