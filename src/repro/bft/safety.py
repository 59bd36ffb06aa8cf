"""Global safety recorder: detects agreement violations across replicas.

The recorder sits outside the protocol (omniscient observer) and checks
the two SMR safety invariants on every commit by a *correct* replica:

* **Agreement** — no two correct replicas commit different operation
  digests at the same sequence number (within one protocol era).
* **Order** — each correct replica executes sequence numbers in order
  without gaps.

Commits by crashed/compromised replicas are recorded but excluded from
violation checks (a Byzantine replica diverging locally is allowed; the
protocol must only protect correct replicas and clients).

What it keeps is bounded by a low-watermark: at each checkpoint the seqs
every member has passed go (:meth:`SafetyRecorder.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Violation:
    """One detected safety violation."""

    kind: str  # "agreement" or "order"
    seq: int
    detail: str


class SafetyRecorder:
    """Records commits and flags violations.  One per experiment/era."""

    def __init__(self) -> None:
        self._committed: Dict[int, Tuple[bytes, str]] = {}  # seq -> (digest, first replica)
        self._floor = 0  # every seq at or below it was dropped
        self._last_executed: Dict[str, int] = {}
        self.violations: List[Violation] = []
        self.total_commits = 0

    def record_commit(
        self, replica: str, seq: int, digest: bytes, replica_correct: bool = True
    ) -> None:
        """Record that ``replica`` committed ``digest`` at ``seq``."""
        self.total_commits += 1
        if not replica_correct:
            return
        existing = self._committed.get(seq)
        if existing is None:
            self._committed[seq] = (digest, replica)
        elif existing[0] != digest:
            self.violations.append(
                Violation(
                    "agreement",
                    seq,
                    f"{replica} committed {digest.hex()[:12]} at seq {seq}, "
                    f"but {existing[1]} committed {existing[0].hex()[:12]}",
                )
            )
        last = self._last_executed.get(replica, 0)
        if seq != last + 1:
            self.violations.append(
                Violation(
                    "order",
                    seq,
                    f"{replica} executed seq {seq} after {last} (gap or replay)",
                )
            )
        self._last_executed[replica] = max(last, seq)

    def checkpoint(self, members: Iterable[str]) -> None:
        """Drop the seqs at or below the lowest ``last_executed`` of every
        member, crashed ones included (a member never recorded counts as
        0): a member's next commit lies above its own ``last_executed``,
        so it is still checked against what the others committed."""
        floor = min(self._last_executed.get(member, 0) for member in members)
        for seq in range(self._floor + 1, floor + 1):
            self._committed.pop(seq, None)
        self._floor = max(self._floor, floor)

    def reset_replica(self, replica: str, executed_up_to: int) -> None:
        """Re-align a replica's expected next sequence after state transfer
        or rejuvenation (it legally skips re-executing transferred ops)."""
        self._last_executed[replica] = executed_up_to

    @property
    def is_safe(self) -> bool:
        """True while no violation has been recorded."""
        return not self.violations

    @property
    def highest_committed(self) -> int:
        """Highest sequence committed by any correct replica (0 if none)."""
        return max(self._committed, default=self._floor)

    def digest_at(self, seq: int) -> Optional[bytes]:
        """The agreed digest at a sequence number, if any (None at or
        below the low-watermark)."""
        entry = self._committed.get(seq)
        return entry[0] if entry else None

    def summary(self) -> str:
        """One-line human summary (printed by benches)."""
        status = "SAFE" if self.is_safe else f"{len(self.violations)} VIOLATIONS"
        return f"commits={self.total_commits} highest_seq={self.highest_committed} {status}"
