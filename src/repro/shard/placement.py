"""Disjoint, spatially-compact tile regions for shard replica groups.

Each shard's replicas must live on their *own* tiles: disjoint regions
are what make shard failures independent (a crashed region takes down
exactly one consensus group) and what lets rejuvenation or adaptation in
one shard proceed while the others keep serving.  Compactness matters
too — XY-routed mesh hops cost latency per hop, so a group scattered
across the chip pays more for every prepare/commit round.

:class:`PlacementPlanner` is the allocator: it tracks every tile it has
handed out and refuses overlapping spawns, both for its own greedy
allocations (disjoint by construction) and for caller-chosen layouts via
:meth:`PlacementPlanner.allocate_exact`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.fabric import FpgaFabric
    from repro.soc.chip import Chip


class PlacementError(ValueError):
    """Raised when a shard region cannot be allocated as requested."""


@dataclass(frozen=True)
class ShardRegion:
    """An allocated, immutable set of tiles owned by one shard."""

    shard_id: str
    tiles: Tuple[Coord, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    def diameter(self) -> int:
        """Largest pairwise Manhattan distance inside the region."""
        return max(
            (a.manhattan(b) for a in self.tiles for b in self.tiles),
            default=0,
        )


@dataclass
class PlacementPlanner:
    """Allocates disjoint compact tile regions on one chip.

    The planner is purely deterministic: given the same chip state and
    the same allocation sequence it always produces the same regions
    (candidate tiles are considered in sorted coordinate order).

    When a ``fabric`` is supplied, only coordinates whose reconfigurable
    region is empty are candidates — a region mid-reconfiguration or
    already configured belongs to someone else even if its tile looks
    free.
    """

    chip: "Chip"
    fabric: Optional["FpgaFabric"] = None
    _allocated: Dict[Coord, str] = field(default_factory=dict)
    _regions: Dict[str, ShardRegion] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def region_of(self, shard_id: str) -> ShardRegion:
        """The region previously allocated to ``shard_id``."""
        try:
            return self._regions[shard_id]
        except KeyError:
            raise PlacementError(f"no region allocated for shard {shard_id!r}")

    def owner_of(self, coord: Coord) -> Optional[str]:
        """The shard owning a tile, or None if unallocated."""
        return self._allocated.get(coord)

    def free_candidates(self) -> List[Coord]:
        """Tiles still available for allocation, in sorted order."""
        if self.fabric is not None:
            pool = self.fabric.free_regions()
        else:
            pool = self.chip.free_tiles()
        return [c for c in pool if c not in self._allocated]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, shard_id: str, n_tiles: int) -> ShardRegion:
        """Greedily grow a compact region of ``n_tiles`` free tiles.

        Seeded at the smallest free coordinate, the region grows one tile
        at a time, always taking the candidate minimizing total distance
        to the tiles already chosen (adjacent candidates first, so the
        region stays connected whenever the free set allows it).
        """
        if shard_id in self._regions:
            raise PlacementError(f"shard {shard_id!r} already has a region")
        if n_tiles < 1:
            raise PlacementError(f"region size must be >= 1, got {n_tiles}")
        candidates = self.free_candidates()
        if len(candidates) < n_tiles:
            raise PlacementError(
                f"shard {shard_id!r} needs {n_tiles} tiles but only "
                f"{len(candidates)} are free"
            )
        pool = set(candidates)
        seed = min(pool)
        chosen: List[Coord] = [seed]
        pool.remove(seed)
        while len(chosen) < n_tiles:
            adjacent = [c for c in pool if any(c.manhattan(t) == 1 for t in chosen)]
            frontier = adjacent or sorted(pool)
            best = min(
                frontier,
                key=lambda c: (sum(c.manhattan(t) for t in chosen), c),
            )
            chosen.append(best)
            pool.remove(best)
        return self._commit(shard_id, chosen)

    def allocate_exact(self, shard_id: str, tiles: Sequence[Coord]) -> ShardRegion:
        """Allocate a caller-chosen layout, refusing overlapping spawns."""
        if shard_id in self._regions:
            raise PlacementError(f"shard {shard_id!r} already has a region")
        if not tiles:
            raise PlacementError("region must contain at least one tile")
        if len(set(tiles)) != len(tiles):
            raise PlacementError(f"duplicate tiles in region for {shard_id!r}")
        available = set(self.free_candidates())
        for coord in tiles:
            owner = self._allocated.get(coord)
            if owner is not None:
                raise PlacementError(
                    f"tile {coord} requested for shard {shard_id!r} already "
                    f"belongs to shard {owner!r}"
                )
            if coord not in available:
                raise PlacementError(
                    f"tile {coord} requested for shard {shard_id!r} is not free"
                )
        return self._commit(shard_id, list(tiles))

    def release(self, shard_id: str) -> None:
        """Return a shard's tiles to the pool (e.g. after decommissioning)."""
        region = self.region_of(shard_id)
        for coord in region.tiles:
            del self._allocated[coord]
        del self._regions[shard_id]

    def _commit(self, shard_id: str, tiles: List[Coord]) -> ShardRegion:
        region = ShardRegion(shard_id, tuple(sorted(tiles)))
        for coord in region.tiles:
            self._allocated[coord] = shard_id
        self._regions[shard_id] = region
        return region
