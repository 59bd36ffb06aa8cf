"""Spanning replica groups: one SMR group across several chips."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bft.app import KeyValueStore, StateMachine
from repro.bft.client import ClientNode
from repro.bft.group import FAMILIES
from repro.bft.replica import BaseReplica, GroupContext
from repro.bft.safety import SafetyRecorder
from repro.crypto.keys import KeyStore
from repro.metrics import MetricsRegistry
from repro.sos.system import MultiChipSystem


class SpanningGroup:
    """A replica group whose members live on different chips.

    Functionally identical to :class:`repro.bft.group.ReplicaGroup` for
    the protocol layer (same :class:`GroupContext`), but placement is
    chip-aware and the failure unit of interest is a whole chip: with
    replicas spread so that no chip hosts more than f of them, any single
    chip failure is masked (experiment E11).
    """

    def __init__(
        self,
        system: MultiChipSystem,
        protocol: str,
        f: int,
        group_id: str = "span",
        app_factory: Callable[[], StateMachine] = KeyValueStore,
        chips: Optional[List[str]] = None,
        keystore: Optional[KeyStore] = None,
        safety: Optional[SafetyRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        family = FAMILIES[protocol]
        n = family.replicas_for(f)
        chip_names = chips or sorted(system.chips)
        if not chip_names:
            raise ValueError("spanning group needs at least one chip")
        self.system = system
        self.protocol = protocol
        self.metrics = metrics or MetricsRegistry()
        member_names = [f"{group_id}-r{i}" for i in range(n)]
        self.context = GroupContext(
            group_id=group_id,
            members=member_names,
            f=f,
            app_factory=app_factory,
            keystore=keystore or KeyStore(),
            safety=safety or SafetyRecorder(),
            metrics=self.metrics,
        )
        self.replicas: Dict[str, BaseReplica] = {}
        self.home_chip: Dict[str, str] = {}
        self.clients: List[ClientNode] = []
        self._reply_quorum = family.reply_quorum_for(f)
        for i, name in enumerate(member_names):
            chip_name = chip_names[i % len(chip_names)]
            chip = system.chips[chip_name]
            replica = family.replica_cls(name, self.context)
            free = chip.free_tiles()
            if not free:
                raise ValueError(f"no free tile on chip {chip_name!r}")
            chip.place_node(replica, free[0])
            self.replicas[name] = replica
            self.home_chip[name] = chip_name
            replica.start()

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        """Ordered member names."""
        return list(self.context.members)

    @property
    def f(self) -> int:
        """Fault bound."""
        return self.context.f

    @property
    def safety(self) -> SafetyRecorder:
        """The shared safety recorder."""
        return self.context.safety

    @property
    def reply_quorum(self) -> int:
        """Matching replies a client needs."""
        return self._reply_quorum

    def replicas_on(self, chip_name: str) -> List[str]:
        """Members hosted by one chip."""
        return [m for m, c in self.home_chip.items() if c == chip_name]

    def correct_replicas(self) -> List[BaseReplica]:
        """Replicas that are neither crashed nor compromised."""
        return [r for r in self.replicas.values() if r.is_correct]

    def attach_client(self, client: ClientNode, chip_name: str) -> None:
        """Place and configure a client on a named chip."""
        chip = self.system.chips[chip_name]
        chip.place_node(client, chip.free_tiles()[0])
        read_quorum = self.f + 1 if FAMILIES[self.protocol].byzantine_safe else 1
        client.configure(self.members, self.reply_quorum, read_quorum)
        self.clients.append(client)


def build_spanning_group(
    system: MultiChipSystem,
    protocol: str = "minbft",
    f: int = 1,
    **kwargs,
) -> SpanningGroup:
    """Build a replica group spread round-robin over the system's chips."""
    return SpanningGroup(system, protocol, f, **kwargs)
