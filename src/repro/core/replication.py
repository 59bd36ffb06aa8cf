"""Replication management: replica groups as fabric-spawned softcores.

§II.A: "Using an FPGA, it is possible to spawn replicas as soft cores or
logical blocks, using off-the-shelf soft IPs ... the flexibility to
create hard-replicas quickly and on-demand, using only one fabric, in a
similar way to creating virtual machines or containers at software
level."  The :class:`ReplicationManager` does exactly that: it spawns a
:class:`~repro.bft.group.ReplicaGroup`'s members through the fabric's
ICAP (E9 measures the elasticity curve), tracks which variant each
replica runs, and scales the group out/in.  The group names, adds and
drops its members; the manager is only its launcher (where members land,
how they come up and go away).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bft.group import FAMILIES, GroupConfig, Launcher, ReplicaGroup
from repro.core.diversity import DiversityManager
from repro.fabric.fabric import FpgaFabric
from repro.fabric.icap import IcapResult
from repro.fabric.region import RegionState
from repro.noc.topology import Coord
from repro.soc.chip import Chip


class ReplicationManager(Launcher):
    """Spawns and scales a replica group as softcores on the fabric.

    Unlike :func:`repro.bft.build_group` (which places replicas
    instantly — fine for protocol experiments), the manager performs each
    spawn through the ICAP, so replicas come online one partial
    reconfiguration at a time and experiments see real elasticity
    latency.  It is the :class:`~repro.bft.group.Launcher` of the group
    it deploys.
    """

    def __init__(
        self,
        chip: Chip,
        fabric: FpgaFabric,
        diversity: DiversityManager,
        principal: str = "replication-manager",
    ) -> None:
        self.chip = chip
        self.fabric = fabric
        self.diversity = diversity
        self.principal = principal
        fabric.icap.grant(principal)
        self.group: Optional[ReplicaGroup] = None
        self.spawn_completions: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def deploy_group(self, config: GroupConfig) -> ReplicaGroup:
        """Build a group whose replicas come online via fabric spawns.

        Returns the group immediately; replicas join the chip as their
        bitstreams commit.
        """
        self.group = ReplicaGroup(self.chip, config, launcher=self)
        return self.group

    def free_tiles(self, group: ReplicaGroup) -> List[Coord]:
        """Launcher hook: members land on free, empty fabric regions."""
        return self.fabric.free_regions()

    def launch(
        self, group: ReplicaGroup, names: List[str], donor: Optional[Dict[str, Any]]
    ) -> None:
        """Launcher hook: a member whose region already holds an image
        (a protocol switch restarts software, not the bitstream) is placed
        at once; one on a blank region is spawned through the ICAP with
        the variant diversity admits it to, and starts as its bitstream
        commits."""
        blank = [
            name for name in names
            if self.fabric.region_at(group.placement[name]).state is RegionState.EMPTY
        ]
        super().launch(group, [name for name in names if name not in blank], donor)

        def ready(node) -> None:
            self.spawn_completions[node.name] = self.chip.sim.now
            self.hand_over(node, donor)
            node.start()

        for name in blank:
            result = self.fabric.spawn(
                self.principal,
                group.replicas[name],
                self.diversity.admit(name),
                group.placement[name],
                on_ready=ready,
            )
            if result != IcapResult.OK:
                raise RuntimeError(f"spawn of {name} rejected: {result}")

    def retire(self, group: ReplicaGroup, name: str) -> None:
        """Launcher hook: blank the member's region and forget its variant."""
        if self.chip.has_node(name):
            self.fabric.despawn(group.placement[name])
        self.diversity.assignment.pop(name, None)

    # ------------------------------------------------------------------
    # Elastic scaling (§II.D: "scaling out/in the system when f may change")
    # ------------------------------------------------------------------
    def scale_out(self) -> Optional[str]:
        """Add one replica to the group (raises effective f when the
        protocol's size function allows it).  Returns the new name."""
        group = self._require_group()
        if not self.free_tiles(group):
            return None
        group.resize(len(group.members) + 1)
        return group.members[-1]

    def scale_in(self) -> Optional[str]:
        """Remove the highest-index replica.  Returns its name."""
        group = self._require_group()
        if len(group.members) <= FAMILIES[group.protocol].replicas_for(group.f):
            return None
        name = group.members[-1]
        group.resize(len(group.members) - 1)
        return name

    def _require_group(self) -> ReplicaGroup:
        if self.group is None:
            raise RuntimeError("no group deployed yet")
        return self.group
