"""`repro.shard` — the on-chip sharded service layer.

Partitions one keyspace across N independent replica groups placed on
disjoint tile regions of a single chip, with a consistent-hash directory,
a NoC-routed front end, and per-shard resilience machinery.  See
:class:`ShardedSystem` for the facade.
"""

from repro.shard.directory import ShardDirectory
from repro.shard.manager import Shard, ShardConfig, ShardedSystem
from repro.shard.placement import PlacementError, PlacementPlanner, ShardRegion
from repro.shard.router import (
    RouterConfig,
    ShardRouter,
    ShardStats,
    TicketResult,
    default_key_of,
)

__all__ = [
    "PlacementError",
    "PlacementPlanner",
    "RouterConfig",
    "Shard",
    "ShardConfig",
    "ShardDirectory",
    "ShardRegion",
    "ShardRouter",
    "ShardStats",
    "ShardedSystem",
    "TicketResult",
    "default_key_of",
]
