"""Replica-group construction and live protocol switching.

:func:`build_group` is the high-level entry point experiments use: pick a
protocol family and a fault bound f, and get a placed, running replica
group plus the client-side parameters (member list, reply quorum).

:class:`ReplicaGroup`'s constructor is the one place that names, builds
and assigns tiles to members; its :class:`Launcher` hook says how they
come up (at once here, through the ICAP for a
:class:`~repro.core.replication.ReplicationManager`).

:meth:`ReplicaGroup.switch_protocol` implements the adaptation mechanism
of §II.D: quiesce, snapshot the most advanced correct replica, rebuild the
replicas in the new family on the *same tiles with the same names* (so
clients and key material survive), import the snapshot everywhere, and
re-point the clients.  The switch costs real simulated time (state
transfer + protocol restart), which E5 accounts against the adaptation
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Type

from repro.bft.app import KeyValueStore, StateMachine
from repro.bft.cft import CftReplica
from repro.bft.cft import required_replicas as cft_n
from repro.bft.client import ClientNode
from repro.bft.minbft import MinBftConfig, MinBftReplica
from repro.bft.minbft import required_replicas as minbft_n
from repro.bft.passive import PassiveConfig, PassiveReplica
from repro.bft.passive import required_replicas as passive_n
from repro.bft.pbft import PbftReplica
from repro.bft.pbft import required_replicas as pbft_n
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.bft.safety import SafetyRecorder
from repro.crypto.keys import KeyStore
from repro.noc.topology import Coord
from repro.soc.chip import Chip


@dataclass(frozen=True)
class _Family:
    """Static description of one protocol family."""

    replica_cls: Type[BaseReplica]
    replicas_for: Callable[[int], int]
    reply_quorum_for: Callable[[int], int]
    byzantine_safe: bool
    config_cls: Type[ProtocolConfig]


FAMILIES: Dict[str, _Family] = {
    "pbft": _Family(PbftReplica, pbft_n, lambda f: f + 1, True, ProtocolConfig),
    "minbft": _Family(MinBftReplica, minbft_n, lambda f: f + 1, True, MinBftConfig),
    "cft": _Family(CftReplica, cft_n, lambda f: 1, False, ProtocolConfig),
    "passive": _Family(PassiveReplica, passive_n, lambda f: 1, False, PassiveConfig),
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
    """How a :class:`ReplicaGroup`'s members come up: this base places
    them on the chip's free tiles and starts them, all at once."""

    def free_tiles(self, chip: Chip) -> List[Coord]:
        """The tiles members land on when ``config.placement`` is None."""
        return chip.free_tiles()

    def launch(self, group: "ReplicaGroup") -> None:
        """Bring up the group's constructed, tile-assigned members."""
        for name, replica in group.replicas.items():
            group.chip.place_node(replica, group.placement[name])
        for replica in group.replicas.values():
            replica.start()


class ReplicaGroup:
    """A placed, running group of replicas plus its shared context."""

    def __init__(
        self,
        chip: Chip,
        config: GroupConfig,
        keystore: Optional[KeyStore] = None,
        safety: Optional[SafetyRecorder] = None,
        launcher: Optional[Launcher] = None,
    ) -> None:
        self.chip = chip
        self.config = config
        self.keystore = keystore or KeyStore()
        self.safety = safety or SafetyRecorder()
        self.protocol = config.protocol
        launcher = launcher or Launcher()
        family = FAMILIES[config.protocol]
        n = family.replicas_for(config.f)
        member_names = [f"{config.group_id}-r{i}" for i in range(n)]
        placement = config.placement or launcher.free_tiles(chip)
        if len(placement) < n:
            raise ValueError(f"need {n} tiles for {config.protocol} f={config.f}")
        self.placement: Dict[str, Coord] = dict(zip(member_names, placement))
        self.context = GroupContext(
            group_id=config.group_id,
            members=member_names,
            f=config.f,
            app_factory=config.app_factory,
            keystore=self.keystore,
            safety=self.safety,
            metrics=chip.metrics,
        )
        self.replicas: Dict[str, BaseReplica] = {
            name: self.make_replica(name) for name in member_names
        }
        self.clients: List[ClientNode] = []
        launcher.launch(self)

    # ------------------------------------------------------------------
    def make_replica(self, name: str) -> BaseReplica:
        """Construct (not place) one member in the group's current
        protocol family; ``config.protocol_config=None`` means the
        family's defaults."""
        family = FAMILIES[self.protocol]
        return family.replica_cls(name, self.context, self.config.protocol_config)

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        """Ordered member names."""
        return list(self.context.members)

    @property
    def f(self) -> int:
        """Current fault bound."""
        return self.context.f

    @property
    def reply_quorum(self) -> int:
        """Matching replies a client needs with the current protocol."""
        return FAMILIES[self.protocol].reply_quorum_for(self.context.f)

    def replica(self, name: str) -> BaseReplica:
        """Look up a replica by name."""
        return self.replicas[name]

    def correct_replicas(self) -> List[BaseReplica]:
        """Replicas that are neither crashed nor compromised."""
        return [r for r in self.replicas.values() if r.is_correct]

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    @property
    def read_quorum(self) -> int:
        """Matching replies a fast-path read needs: f+1 (>= 1 correct)."""
        return self.context.f + 1 if FAMILIES[self.protocol].byzantine_safe else 1

    @property
    def leases_enabled(self) -> bool:
        """True when the current replicas run with read leases."""
        return any(r.lease_manager is not None for r in self.replicas.values())

    def attach_client(self, client: ClientNode, coord: Optional[Coord] = None) -> None:
        """Place (if needed) and configure a client for this group."""
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
            client.configure(
                self.members,
                self.reply_quorum,
                self.read_quorum,
                lease_reads=self.leases_enabled,
            )

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
    # Protocol switching (adaptation, §II.D)
    # ------------------------------------------------------------------
    def switch_protocol(
        self,
        protocol: str,
        f: Optional[int] = None,
        protocol_config: Optional[ProtocolConfig] = None,
    ) -> float:
        """Swap the group to a different protocol family in place.

        Returns the simulated time charged for the switch (state transfer
        and restart).  Without a ``protocol_config`` the new family keeps
        the group's batching and leases, its other fields at the family's
        defaults.  The group keeps its id; replica *names* change only
        if the new family needs a different group size (extras are spawned
        on free tiles / surplus members are despawned).
        """
        family = FAMILIES[protocol]
        new_f = self.config.f if f is None else f
        n = family.replicas_for(new_f)
        donor = self._most_advanced_state()

        # Tear down the old replicas (keep their tiles reserved in order).
        # shutdown() deactivates the old instances so no zombie timers or
        # in-flight callbacks keep acting under the reused names.
        old_coords = [self.placement[name] for name in self.context.members]
        for name in list(self.replicas):
            self.replicas[name].shutdown()
            self.chip.remove_node(name)
        self.replicas.clear()

        member_names = [f"{self.config.group_id}-r{i}" for i in range(n)]
        coords = list(old_coords[:n])
        if len(coords) < n:
            extra = [c for c in self.chip.free_tiles() if c not in coords]
            coords.extend(extra[: n - len(coords)])
        if len(coords) < n:
            raise ValueError(f"not enough tiles to switch to {protocol} f={new_f}")

        old_config = self.config.protocol_config
        if protocol_config is None and old_config is not None:
            # Batching and leases are the group's, not the family's.
            protocol_config = protocol_config_for(
                protocol, batching=old_config.batching, leases=old_config.leases
            )
        self.protocol = protocol
        self.config.protocol = protocol
        self.config.protocol_config = protocol_config
        self.config.f = new_f
        self.placement = dict(zip(member_names, coords))
        self.context.members[:] = member_names
        self.context.f = new_f

        # Placed before the import: a leased replica's era change reads
        # the clock.  Started once all are placed, as Launcher does.
        for name in member_names:
            replica = self.make_replica(name)
            self.chip.place_node(replica, self.placement[name])
            if donor is not None:
                replica.import_state(donor)
            if replica.lease_manager is not None:
                # A grant the old primary sent may reach its successor.
                replica.lease_manager.quiesce()
            self.replicas[name] = replica
        for replica in self.replicas.values():
            replica.start()
        self.configure_clients()

        # Charge switch time: a state-transfer round plus restart slack,
        # scaled by history length (executed sequence numbers — the
        # executed-request ledger itself is bounded per client).
        switch_cost = 2_000.0 + 50.0 * (donor["last_executed"] if donor else 0)
        self.chip.metrics.counter(f"{self.config.group_id}.protocol_switches").inc()
        return switch_cost

    def _most_advanced_state(self) -> Optional[Dict[str, Any]]:
        best: Optional[BaseReplica] = None
        for replica in self.replicas.values():
            if not replica.is_correct:
                continue
            if best is None or replica.last_executed > best.last_executed:
                best = replica
        return best.export_state() if best is not None else None


def build_group(
    chip: Chip,
    config: Optional[GroupConfig] = None,
    keystore: Optional[KeyStore] = None,
    safety: Optional[SafetyRecorder] = None,
) -> ReplicaGroup:
    """Build, place, and start a replica group on a chip."""
    return ReplicaGroup(chip, config or GroupConfig(), keystore=keystore, safety=safety)
