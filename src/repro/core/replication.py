"""Replication management: replica groups as fabric-spawned softcores.

§II.A: "Using an FPGA, it is possible to spawn replicas as soft cores or
logical blocks, using off-the-shelf soft IPs ... the flexibility to
create hard-replicas quickly and on-demand, using only one fabric, in a
similar way to creating virtual machines or containers at software
level."  The :class:`ReplicationManager` does exactly that: it spawns a
:class:`~repro.bft.group.ReplicaGroup`'s members through the fabric's
ICAP (E9 measures the elasticity curve), tracks which variant each
replica runs, and scales the group out/in.  The group's own constructor
builds it; the manager is only its launcher (where members land, how
they come up).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bft.group import FAMILIES, GroupConfig, Launcher, ReplicaGroup
from repro.bft.safety import SafetyRecorder
from repro.core.diversity import DiversityManager
from repro.crypto.keys import KeyStore
from repro.fabric.fabric import FpgaFabric
from repro.fabric.icap import IcapResult
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
    def deploy_group(
        self,
        config: GroupConfig,
        keystore: Optional[KeyStore] = None,
        safety: Optional[SafetyRecorder] = None,
    ) -> ReplicaGroup:
        """Build a group whose replicas come online via fabric spawns.

        Returns the group immediately; replicas join the chip as their
        bitstreams commit.
        """
        self.group = ReplicaGroup(self.chip, config, keystore, safety, launcher=self)
        return self.group

    def free_tiles(self, chip: Chip) -> List[Coord]:
        """Launcher hook: members land on free, empty fabric regions."""
        return self.fabric.free_regions()

    def launch(self, group: ReplicaGroup) -> None:
        """Launcher hook: spawn each member through the ICAP with its
        variant; each starts as its bitstream commits."""
        assignment = self.diversity.assign(group.members)

        def make_ready_callback(name: str):
            def ready(node) -> None:
                self.spawn_completions[name] = self.chip.sim.now
                node.start()

            return ready

        for name, replica in group.replicas.items():
            result = self.fabric.spawn(
                self.principal,
                replica,
                assignment[name],
                group.placement[name],
                on_ready=make_ready_callback(name),
            )
            if result != IcapResult.OK:
                raise RuntimeError(f"spawn of {name} rejected: {result}")

    # ------------------------------------------------------------------
    # Elastic scaling (§II.D: "scaling out/in the system when f may change")
    # ------------------------------------------------------------------
    def scale_out(self) -> Optional[str]:
        """Add one replica to the group (raises effective f when the
        protocol's size function allows it).  Returns the new name."""
        group = self._require_group()
        free = self.fabric.free_regions()
        if not free:
            return None
        index = len(group.context.members)
        name = f"{group.config.group_id}-r{index}"
        group.context.members.append(name)
        group.placement[name] = free[0]
        replica = group.make_replica(name)
        group.replicas[name] = replica
        donor = group._most_advanced_state()
        variant = self.diversity.assign(group.context.members)[name]

        def ready(node) -> None:
            if donor is not None:
                node.import_state(donor)
            self.spawn_completions[name] = self.chip.sim.now

        self.fabric.spawn(self.principal, replica, variant, free[0], on_ready=ready)
        group.configure_clients()
        return name

    def scale_in(self) -> Optional[str]:
        """Remove the highest-index replica.  Returns its name."""
        group = self._require_group()
        family = FAMILIES[group.protocol]
        minimum = family.replicas_for(group.config.f)
        if len(group.context.members) <= minimum:
            return None
        name = group.context.members.pop()
        coord = group.placement.pop(name)
        removed = group.replicas.pop(name, None)
        if removed is not None:
            removed.shutdown()
        if self.chip.has_node(name):
            self.fabric.despawn(coord)
        self.diversity.assignment.pop(name, None)
        group.configure_clients()
        return name

    def _require_group(self) -> ReplicaGroup:
        if self.group is None:
            raise RuntimeError("no group deployed yet")
        return self.group
