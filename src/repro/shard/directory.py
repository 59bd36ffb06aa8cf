"""Consistent-hash shard directory: keys → replica groups.

The sharded service layer (§II of the paper argues MPSoC parallelism is
what makes on-chip resilience affordable) partitions the keyspace across
independent replica groups.  The directory is the authoritative map: a
consistent-hash ring with virtual nodes, so adding or losing a shard
moves only ~1/N of the keyspace, and key→shard lookups are O(log V).

Two design constraints shape the implementation:

* **Determinism.**  Python's builtin ``hash()`` is salted per process, so
  ring positions must come from a stable hash (sha256 here).  The ring
  *is* randomized — but only through an explicit ``salt`` drawn from the
  simulation's seeded RNG (see :meth:`ShardDirectory.from_rng`), so the
  same master seed always yields the same key partition.
* **Degradation is advisory, not structural.**  Losing a whole shard's
  tiles does not re-map its keys (the data lived on those tiles; there is
  nothing to serve it from).  The directory instead *marks* the shard
  degraded so routers can fail affected operations fast while every other
  shard keeps serving — the shard-level analogue of a replica crash.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RngStream


_OWNER_MEMO_CAP = 65_536


def _hash64(text: str) -> int:
    """Stable 64-bit hash of a string (process-independent)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardDirectory:
    """Maps keys to shard ids via a consistent-hash ring.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key belongs to
    the shard owning the first point at or after the key's hash (wrapping
    at the top).  More virtual nodes smooth the keyspace split at the
    cost of a larger (still tiny) ring.
    """

    def __init__(self, shard_ids: Sequence[str], salt: int = 0, vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("directory needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids in {list(shard_ids)!r}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.salt = salt
        self.vnodes = vnodes
        self._shard_ids: List[str] = list(shard_ids)
        ring: List[Tuple[int, str]] = []
        for shard_id in self._shard_ids:
            for v in range(vnodes):
                ring.append((_hash64(f"{salt}:ring:{shard_id}:{v}"), shard_id))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]
        self._owners: Dict[str, str] = {}  # shard_for memo; the ring never changes
        self._degraded: Set[str] = set()

    @classmethod
    def from_rng(cls, shard_ids: Sequence[str], rng: "RngStream") -> "ShardDirectory":
        """Build a directory whose ring layout derives from a seeded stream."""
        return cls(shard_ids, salt=rng.getrandbits(64))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> List[str]:
        """All shard ids, in declaration order."""
        return list(self._shard_ids)

    def shard_for(self, key: Any) -> str:
        """The shard owning ``key`` (degraded or not — ownership is fixed).

        Owners of ``str`` keys are memoized (bounded): a router, its
        admission layer and its population each ask per operation.  Other
        key types always hash — equal keys of different types (``1``,
        ``True``, ``1.0``) format, and so hash, differently.
        """
        if type(key) is not str:
            return self._locate(key)
        owner = self._owners.get(key)
        if owner is None:
            if len(self._owners) >= _OWNER_MEMO_CAP:
                self._owners.clear()
            owner = self._owners[key] = self._locate(key)
        return owner

    def _locate(self, key: Any) -> str:
        h = _hash64(f"{self.salt}:key:{key}")
        index = bisect_right(self._points, h) % len(self._ring)
        return self._ring[index][1]

    # ------------------------------------------------------------------
    # Degradation bookkeeping
    # ------------------------------------------------------------------
    def mark_degraded(self, shard_id: str) -> None:
        """Flag a shard as unable to serve (e.g. below liveness quorum)."""
        self._require(shard_id)
        self._degraded.add(shard_id)

    def restore(self, shard_id: str) -> None:
        """Clear a shard's degraded flag once it can serve again."""
        self._require(shard_id)
        self._degraded.discard(shard_id)

    def is_degraded(self, shard_id: str) -> bool:
        """True if the shard is currently marked degraded."""
        self._require(shard_id)
        return shard_id in self._degraded

    def degraded_shards(self) -> List[str]:
        """Sorted list of degraded shard ids."""
        return sorted(self._degraded)

    def live_shards(self) -> List[str]:
        """Shard ids currently able to serve, in declaration order."""
        return [s for s in self._shard_ids if s not in self._degraded]

    def status(self) -> Dict[str, str]:
        """``{shard_id: "live"|"degraded"}`` for reports."""
        return {
            shard_id: "degraded" if shard_id in self._degraded else "live"
            for shard_id in self._shard_ids
        }

    def _require(self, shard_id: str) -> None:
        if shard_id not in self._shard_ids:
            raise KeyError(f"unknown shard {shard_id!r}")

    def __len__(self) -> int:
        return len(self._shard_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardDirectory(shards={len(self._shard_ids)}, vnodes={self.vnodes}, "
            f"degraded={sorted(self._degraded)})"
        )
