"""Spanning replica groups: one SMR group across several chips."""

from __future__ import annotations

from typing import List, Optional

from repro.bft.group import GroupConfig, Launcher, ReplicaGroup
from repro.noc.topology import Coord
from repro.soc.chip import Chip
from repro.sos.system import MultiChipSystem


class _ChipRoundRobin(Launcher):
    """Member i lives on chip i mod k, at that chip's next free tile.

    With replicas spread so that no chip hosts more than f of them, any
    single chip failure is masked (experiment E11).  Which chip a member
    is on is this launcher's business; the group's placement is a tile.
    """

    def __init__(self, chips: List[Chip]) -> None:
        self.chips = chips

    def free_tiles(self, group: ReplicaGroup) -> List[Coord]:
        free = [chip.free_tiles() for chip in self.chips]
        tiles: List[Coord] = []
        index = len(group.members)
        while free[index % len(free)]:
            tiles.append(free[index % len(free)].pop(0))
            index += 1
        return tiles

    def chip_for(self, group: ReplicaGroup, name: str) -> Chip:
        return self.chips[group.members.index(name) % len(self.chips)]


def build_spanning_group(
    system: MultiChipSystem,
    protocol: str = "minbft",
    f: int = 1,
    group_id: str = "span",
    chips: Optional[List[str]] = None,
) -> ReplicaGroup:
    """Build a replica group spread round-robin over the system's chips
    (``chips``, default all in name order).  The group lives on the first
    chip: its clients are placed there unless their caller placed them,
    and its counters go to that chip's registry."""
    chip_names = chips or sorted(system.chips)
    if not chip_names:
        raise ValueError("spanning group needs at least one chip")
    launcher = _ChipRoundRobin([system.chips[name] for name in chip_names])
    return ReplicaGroup(
        launcher.chips[0],
        GroupConfig(protocol=protocol, f=f, group_id=group_id),
        launcher=launcher,
    )
