"""Replica-group construction and live protocol switching.

:func:`build_group` is the high-level entry point experiments use: pick a
protocol family and a fault bound f, and get a placed, running replica
group plus the client-side parameters (member list, reply quorum).

A family is its replica class (:data:`FAMILIES`), which states its size
rule, fault model and config class.  A group holds only the family, in
``config.protocol``, and f, in ``context.f``; its size and reply quorum
derive from those two.

:class:`ReplicaGroup` is the one code that names, places, rebuilds, adds
and drops members; its :class:`Launcher` says how a member comes up and
goes away (at once here, through the ICAP for a
:class:`~repro.core.replication.ReplicationManager`, one chip per member
for :func:`~repro.sos.builder.build_spanning_group`).

:meth:`ReplicaGroup.switch_protocol` implements the adaptation mechanism
of §II.D: snapshot the most advanced correct replica, rebuild the
replicas in the new family on the *same tiles with the same names* (so
clients and key material survive), import the snapshot everywhere, and
re-point the clients.  Kept members restart in software at no simulated
cost; a member the new family adds comes up like any other newcomer (an
ICAP spawn on the fabric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Type

from repro.bft.app import KeyValueStore, StateMachine
from repro.bft.cft import CftReplica
from repro.bft.client import ClientNode
from repro.bft.minbft import MinBftReplica
from repro.bft.passive import PassiveReplica
from repro.bft.pbft import PbftReplica
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.bft.safety import SafetyRecorder
from repro.crypto.keys import KeyStore
from repro.noc.topology import Coord
from repro.soc.chip import Chip

#: Each family's name and its replica class, which states the rest.
FAMILIES: Dict[str, Type[BaseReplica]] = {
    "pbft": PbftReplica, "minbft": MinBftReplica, "cft": CftReplica, "passive": PassiveReplica,
}


def protocol_config_for(
    protocol: str,
    batching: Optional[Any] = None,
    leases: Optional[Any] = None,
    **kwargs: Any,
) -> ProtocolConfig:
    """Build the protocol family's config object, with optional batching
    and leases.

    A convenience for experiments/campaigns that sweep batching or lease
    knobs without caring which config class each family uses::

        cfg = protocol_config_for("minbft", batching=BatchConfig(batch_size=8))
        cfg = protocol_config_for("pbft", leases=LeaseConfig(duration=20_000.0))
    """
    family = FAMILIES.get(protocol)
    if family is None:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {sorted(FAMILIES)}")
    return family.config_cls(batching=batching, leases=leases, **kwargs)


@dataclass
class GroupConfig:
    """Parameters for building a replica group."""

    protocol: str = "minbft"
    f: int = 1
    group_id: str = "g0"
    app_factory: Callable[[], StateMachine] = KeyValueStore
    placement: Optional[List[Coord]] = None
    protocol_config: Optional[ProtocolConfig] = None

    def __post_init__(self) -> None:
        if self.protocol not in FAMILIES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {sorted(FAMILIES)}"
            )
        if self.f < 0:
            raise ValueError("f must be non-negative")


class Launcher:
    """How a :class:`ReplicaGroup`'s members come up and go away: this
    base places them on the group's chip and starts them, all at once."""

    def free_tiles(self, group: "ReplicaGroup") -> List[Coord]:
        """Tiles for the next members, in member order (at deploy,
        ``config.placement`` overrides them)."""
        return group.chip.free_tiles()

    def chip_for(self, group: "ReplicaGroup", name: str) -> Chip:
        """The chip a member lives on."""
        return group.chip

    def launch(
        self, group: "ReplicaGroup", names: List[str], donor: Optional[Dict[str, Any]]
    ) -> None:
        """Bring up constructed, tile-assigned members: place each and
        hand it the donor state, then start them all."""
        for name in names:
            replica = group.replicas[name]
            self.chip_for(group, name).place_node(replica, group.placement[name])
            self.hand_over(replica, donor)
        for name in names:
            group.replicas[name].start()

    def retire(self, group: "ReplicaGroup", name: str) -> None:
        """Take a dropped (already shut down) member off its tile."""
        self.chip_for(group, name).remove_node(name)

    @staticmethod
    def hand_over(replica: BaseReplica, donor: Optional[Dict[str, Any]]) -> None:
        """Give a placed member the group's state.  A leased member then
        holds conflicting writes for one lease duration: a grant its
        predecessor of the same name accepted may still be live."""
        if donor is None:
            return
        replica.import_state(donor)
        if replica.lease_manager is not None:
            replica.lease_manager.quiesce()


class ReplicaGroup:
    """A placed, running group of replicas plus its shared context."""

    def __init__(
        self,
        chip: Chip,
        config: GroupConfig,
        launcher: Optional[Launcher] = None,
    ) -> None:
        self.chip = chip
        self.config = config
        self.safety = SafetyRecorder()
        self.launcher = launcher or Launcher()
        self.placement: Dict[str, Coord] = {}
        self.context = GroupContext(
            group_id=config.group_id,
            members=[],
            f=config.f,
            app_factory=config.app_factory,
            keystore=KeyStore(),
            safety=self.safety,
            metrics=chip.metrics,
        )
        self.replicas: Dict[str, BaseReplica] = {}
        self.clients: List[ClientNode] = []
        self._reshape(FAMILIES[self.protocol].replicas_for(self.f), restart=False)

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        """Ordered member names."""
        return list(self.context.members)

    @property
    def protocol(self) -> str:
        """The current protocol family."""
        return self.config.protocol

    @property
    def f(self) -> int:
        """Current fault bound."""
        return self.context.f

    @property
    def liveness_quorum(self) -> int:
        """Correct members the group needs to make progress: all but f."""
        return len(self.context.members) - self.context.f

    @property
    def reply_quorum(self) -> int:
        """Matching replies a client needs, read or write."""
        return FAMILIES[self.protocol].vouch_quorum(self.context.f)

    def correct_replicas(self) -> List[BaseReplica]:
        """Replicas that are neither crashed nor compromised."""
        return [r for r in self.replicas.values() if r.is_correct]

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    @property
    def leases_enabled(self) -> bool:
        """True when the current replicas run with read leases."""
        return any(r.lease_manager is not None for r in self.replicas.values())

    def attach_client(self, client: ClientNode, coord: Optional[Coord] = None) -> None:
        """Place (unless the caller already did) and configure a client
        for this group; a client on another chip is placed by its caller."""
        if client.chip is None:
            target = coord or self.chip.free_tiles()[0]
            self.chip.place_node(client, target)
        self.configure_clients([client])
        self.clients.append(client)

    def configure_clients(self, clients: Optional[List[ClientNode]] = None) -> None:
        """Point clients (default: every attached one) at the current
        membership, quorums and read mode — the one place that does, so a
        protocol switch or a scale event cannot drop a parameter."""
        for client in self.clients if clients is None else clients:
            client.configure(self.members, self.reply_quorum, lease_reads=self.leases_enabled)

    # ------------------------------------------------------------------
    # Leases (detector / rejuvenation integration)
    # ------------------------------------------------------------------
    def revoke_leases(self, name: str) -> None:
        """Revoke ``name``'s read leases everywhere and stop re-granting.

        Called before a replica is rejuvenated or acted on as a suspect;
        a no-op when leases are off.  Safe on every member: only the
        acting primary's manager has grants to revoke.
        """
        for replica in self.replicas.values():
            if replica.lease_manager is not None:
                replica.lease_manager.revoke_holder(name)

    def readmit_leases(self, name: str) -> None:
        """Allow lease grants to ``name`` again (it healed)."""
        for replica in self.replicas.values():
            if replica.lease_manager is not None:
                replica.lease_manager.readmit_holder(name)

    # ------------------------------------------------------------------
    # Fault helpers (used by experiments)
    # ------------------------------------------------------------------
    def crash(self, name: str) -> None:
        """Crash one replica."""
        self.replicas[name].crash()

    def compromise(self, name: str, strategy=None) -> None:
        """Compromise one replica, optionally installing a strategy."""
        if strategy is not None:
            strategy.activate(self.replicas[name])
        else:
            self.replicas[name].compromise()

    # ------------------------------------------------------------------
    # Membership: protocol switching (§II.D) and scale events
    # ------------------------------------------------------------------
    def switch_protocol(
        self,
        protocol: str,
        f: Optional[int] = None,
        protocol_config: Optional[ProtocolConfig] = None,
    ) -> None:
        """Swap the group to a different protocol family in place.

        Without a ``protocol_config`` the new family keeps the group's
        batching and leases, its other fields at the family's defaults.
        The group keeps its id and its members' names and tiles: each
        kept member restarts in place on the most advanced correct
        member's state; if the new family needs more members the tail is
        launched, if fewer the tail is retired.
        """
        old_config = self.config.protocol_config
        if protocol_config is None and old_config is not None:
            # Batching and leases are the group's, not the family's.
            protocol_config = protocol_config_for(
                protocol, batching=old_config.batching, leases=old_config.leases
            )
        self.config.protocol = protocol
        self.config.protocol_config = protocol_config
        if f is not None:
            self.context.f = f
        self._reshape(FAMILIES[protocol].replicas_for(self.f), restart=True)
        self.chip.metrics.counter(f"{self.config.group_id}.protocol_switches").inc()

    def resize(self, n: int) -> None:
        """Grow or shrink the group to ``n`` members (a scale event): the
        tail is launched or retired, the other members run on."""
        self._reshape(n, restart=False)

    def _reshape(self, n: int, restart: bool) -> None:
        """The one membership path: retire the members past ``n``,
        rebuild the kept ones when ``restart``, name and place the added
        tail, launch what is new and re-point the clients.  The donor
        state is taken only when a member is launched: a bare shrink
        imports nothing."""
        names = self.context.members
        donor = self._most_advanced_state() if restart or n > len(names) else None
        for name in names[n:]:
            self.replicas[name].shutdown()
            self.launcher.retire(self, name)
            del self.replicas[name], self.placement[name]
        del names[n:]
        added = [f"{self.config.group_id}-r{i}" for i in range(len(names), n)]
        if added:
            tiles = (not names and self.config.placement) or self.launcher.free_tiles(self)
            if len(tiles) < len(added):
                raise ValueError(f"need {n} tiles for {self.protocol} f={self.f}")
            self.placement.update(zip(added, tiles))
        kept = list(names) if restart else []
        for name in kept:
            self.replicas[name].shutdown()  # for good: see BaseReplica.recover
            self.replicas[name].chip.remove_node(name)
        names.extend(added)
        # Built in the current family; protocol_config=None is its defaults.
        replica_cls = FAMILIES[self.protocol]
        for name in kept + added:
            self.replicas[name] = replica_cls(name, self.context, self.config.protocol_config)
        self.launcher.launch(self, kept + added, donor)
        self.configure_clients()

    def _most_advanced_state(self) -> Optional[Dict[str, Any]]:
        correct = self.correct_replicas()
        if not correct:
            return None
        return max(correct, key=lambda r: r.last_executed).export_state()


def build_group(chip: Chip, config: Optional[GroupConfig] = None) -> ReplicaGroup:
    """Build, place, and start a replica group on a chip."""
    return ReplicaGroup(chip, config or GroupConfig())
