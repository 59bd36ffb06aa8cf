"""The facade: one object that assembles a resilient manycore system.

:class:`ResilientSystem` is the public API a downstream user starts from
(see ``examples/quickstart.py``): it builds the chip, the fabric, a
diversified replica group spawned as softcores, the rejuvenation
schedule, the severity detector, and the adaptation controller — the
complete architecture of the paper in one call.

What it shares with :class:`~repro.shard.manager.ShardedSystem` is
written once: :class:`Substrate`, and :meth:`Substrate.deploy`, which
stands one group up with machinery of its own.  ``ResilientSystem``
deploys once, ``ShardedSystem`` once per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.bft.client import ClientConfig, ClientNode
from repro.bft.group import GroupConfig, ReplicaGroup
from repro.bft.replica import ProtocolConfig
from repro.core.adaptation import AdaptationController, AdaptationPolicy
from repro.core.diversity import DiversityManager, VariantLibrary
from repro.core.rejuvenation import RejuvenationPolicy, RejuvenationScheduler
from repro.core.replication import ReplicationManager
from repro.core.severity import SeverityDetector
from repro.fabric.fabric import FpgaFabric
from repro.noc.topology import Coord
from repro.sim.simulator import Simulator
from repro.soc.chip import Chip, ChipConfig

#: The functionality every group implements; its variants register under it.
SERVICE = "service"


@dataclass
class OrchestratorConfig:
    """Everything needed to stand up a resilient system."""

    seed: int = 0
    width: int = 6
    height: int = 6
    protocol: str = "minbft"
    f: int = 1
    n_variants: int = 6
    n_vendors: int = 3
    rejuvenation: Optional[RejuvenationPolicy] = None
    adaptation: Optional[AdaptationPolicy] = None
    enable_rejuvenation: bool = True
    enable_adaptation: bool = False
    # The family's config (see protocol_config_for); None uses its defaults.
    protocol_config: Optional[ProtocolConfig] = None


@dataclass
class DeployedGroup:
    """One replica group and the resilience machinery that is its own."""

    diversity: DiversityManager
    replication: ReplicationManager
    group: ReplicaGroup
    detector: SeverityDetector
    rejuvenation: Optional[RejuvenationScheduler]
    adaptation: Optional[AdaptationController]


class Substrate:
    """What both facades stand on: a seeded simulator, the chip, its
    fabric and the variant pool registered with it."""

    def __init__(self, config: OrchestratorConfig) -> None:
        self.config = cfg = config
        self.sim = Simulator(seed=cfg.seed)
        self.chip = Chip(self.sim, ChipConfig(width=cfg.width, height=cfg.height))
        self.fabric = FpgaFabric(self.sim, self.chip)
        self.library = VariantLibrary.generate(SERVICE, cfg.n_variants, cfg.n_vendors)
        self.fabric.register_variants(SERVICE, self.library.names())

    def deploy(
        self,
        group_id: str,
        clients: List[Any],
        policy: Optional[RejuvenationPolicy],
        placement: Optional[List[Coord]] = None,
        principals: Tuple[str, str] = ("replication-manager", "rejuvenation"),
    ) -> DeployedGroup:
        """Stand one group up from ``self.config``: diversity manager →
        replication manager → group → detector (watching ``clients``) →
        rejuvenation under ``policy`` and adaptation, when enabled.
        ``principals`` name its two ICAP writers."""
        cfg = self.config
        diversity = DiversityManager(self.library)
        replication = ReplicationManager(
            self.chip, self.fabric, diversity, principal=principals[0]
        )
        group = replication.deploy_group(
            GroupConfig(
                protocol=cfg.protocol,
                f=cfg.f,
                group_id=group_id,
                placement=placement,
                protocol_config=cfg.protocol_config,
            )
        )
        detector = SeverityDetector(group, clients)
        rejuvenation: Optional[RejuvenationScheduler] = None
        if cfg.enable_rejuvenation:
            # The detector is masked around planned maintenance so that
            # rejuvenation downtime is not read as an attack.
            rejuvenation = RejuvenationScheduler(
                group, self.fabric, diversity, policy,
                principal=principals[1], detector=detector,
            )
        adaptation: Optional[AdaptationController] = None
        if cfg.enable_adaptation:
            adaptation = AdaptationController(group, detector, cfg.adaptation)
        return DeployedGroup(diversity, replication, group, detector, rejuvenation, adaptation)

    def run(self, duration: float) -> None:
        """Advance the simulation."""
        self.sim.run(until=self.sim.now + duration)


class ResilientSystem(Substrate):
    """A fully assembled fault- and intrusion-resilient manycore SoC."""

    def __init__(self, config: Optional[OrchestratorConfig] = None) -> None:
        super().__init__(config or OrchestratorConfig())
        self.clients: List[ClientNode] = []
        deployed = self.deploy("sys", self.clients, self.config.rejuvenation)
        self.diversity = deployed.diversity
        self.replication = deployed.replication
        self.group = deployed.group
        self.detector = deployed.detector
        self.rejuvenation = deployed.rejuvenation
        self.adaptation = deployed.adaptation

    # ------------------------------------------------------------------
    def add_client(self, name: str, client_config: Optional[ClientConfig] = None) -> ClientNode:
        """Create, place, and configure a client of the system."""
        client = ClientNode(name, client_config)
        self.group.attach_client(client)
        self.clients.append(client)
        return client

    def start(self, warmup: float = 50_000.0) -> None:
        """Start background machinery and clients.

        ``warmup`` runs the simulator long enough for the fabric spawns
        to complete before clients begin issuing requests.
        """
        self.sim.run(until=self.sim.now + warmup)
        for client in self.clients:
            client.start()
        if self.rejuvenation is not None:
            self.rejuvenation.start()
        self.detector.start()

    # ------------------------------------------------------------------
    # Convenience queries for examples and tests
    # ------------------------------------------------------------------
    @property
    def is_safe(self) -> bool:
        """True while no SMR safety violation was recorded."""
        return self.group.safety.is_safe

    def completed_operations(self) -> int:
        """Total operations completed across all clients."""
        return sum(c.completed for c in self.clients)

    def summary(self) -> str:
        """One-line status for example scripts."""
        return (
            f"t={self.sim.now:.0f} protocol={self.group.protocol} "
            f"f={self.group.f} ops={self.completed_operations()} "
            f"threat={self.detector.level.name} "
            f"safety={'SAFE' if self.is_safe else 'VIOLATED'}"
        )
