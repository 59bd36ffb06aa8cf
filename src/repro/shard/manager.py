"""`ShardedSystem`: many independent replica groups on one chip.

The facade mirrors :class:`~repro.core.orchestrator.ResilientSystem` but
deploys N replica groups on disjoint, compact tile regions, each with its
*own* resilience machinery — diversity manager, severity detector,
rejuvenation scheduler, and (optionally) adaptation controller — each
deployed through :meth:`~repro.core.orchestrator.Substrate.deploy`.
Independence is the point: one
shard can escalate to PBFT or cycle through rejuvenation while the other
shards keep serving at full speed, and losing an entire shard's tiles
degrades 1/N of the keyspace instead of the whole service.

Failover is shard-granular: a periodic health monitor compares each
group's correct-replica count against its liveness quorum and flips the
directory's degraded flag, which makes every router fail operations on
that shard fast (no retransmit storms into a dead region) while traffic
to the surviving shards flows untouched.

Notes on the per-shard machinery:

* The default rejuvenation policy uses ``relocate=False`` — chip-wide
  relocation would walk replicas out of their shard's region.  Pass an
  explicit policy to override.
* Protocol escalation (e.g. minbft→pbft) grows the group by spawning
  its new members on tiles from the launcher's ``free_tiles`` (the
  chip's free, empty fabric regions), so leave headroom when sizing the
  mesh for adaptive shards.
* ``kill_shard`` stops the victim's maintenance machinery before
  crashing its tiles: a rejuvenation pass against a dead region would
  otherwise "resurrect" replicas on crashed tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bft.group import FAMILIES
from repro.core.orchestrator import DeployedGroup, OrchestratorConfig, Substrate
from repro.core.rejuvenation import RejuvenationPolicy
from repro.core.severity import ThreatLevel
from repro.mesoscale.admission import AdmissionController
from repro.mesoscale.population import ClientPopulation, PopulationConfig
from repro.shard.directory import ShardDirectory
from repro.shard.placement import PlacementPlanner, ShardRegion
from repro.shard.router import RouterConfig, ShardRouter
from repro.sim.timers import PeriodicTimer


@dataclass
class ShardConfig(OrchestratorConfig):
    """Everything needed to stand up a sharded resilient system: the
    single system's fields (on an 8x8 mesh by default), applied to every
    shard's group, plus the sharding ones."""

    width: int = 8
    height: int = 8
    n_shards: int = 2
    router: Optional[RouterConfig] = None
    #: Fixed consistent-hash salt.  When None the salt is drawn from the
    #: system's own seeded RNG (the single-system default); a fixed salt
    #: keeps key ownership the same across seeds.
    directory_salt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")


@dataclass
class Shard(DeployedGroup):
    """One shard: a deployed replica group on its own tile region."""

    shard_id: str
    region: ShardRegion


class ShardedSystem(Substrate):
    """N independent replica groups serving one partitioned keyspace."""

    #: How often the health monitor re-reads every shard's correct replicas.
    HEALTH_CHECK_PERIOD = 10_000.0

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        super().__init__(config or ShardConfig())
        cfg = self.config
        shard_ids = [f"s{i}" for i in range(cfg.n_shards)]
        if cfg.directory_salt is not None:
            self.directory = ShardDirectory(shard_ids, salt=cfg.directory_salt)
        else:
            rng = self.sim.rng.stream("shard.directory")
            self.directory = ShardDirectory.from_rng(shard_ids, rng)
        self.planner = PlacementPlanner(self.chip, self.fabric)
        group_size = FAMILIES[cfg.protocol].replicas_for(cfg.f)
        self.shards: Dict[str, Shard] = {}
        for shard_id in shard_ids:
            region = self.planner.allocate(shard_id, group_size)
            # Relocation is off by default: the chip-wide scheduler
            # would move replicas out of the shard's region.
            deployed = self.deploy(
                shard_id, [],
                cfg.rejuvenation or RejuvenationPolicy(relocate=False),
                placement=list(region.tiles),
                principals=(f"replication-{shard_id}", f"rejuvenation-{shard_id}"),
            )
            self.shards[shard_id] = Shard(shard_id=shard_id, region=region, **vars(deployed))
        self.routers: List[ShardRouter] = []
        self.populations: List[ClientPopulation] = []
        self._health_timer: Optional[PeriodicTimer] = None

    # ------------------------------------------------------------------
    # Traffic attachment
    # ------------------------------------------------------------------
    def place_router(
        self, name: str, router_config: Optional[RouterConfig] = None
    ) -> ShardRouter:
        """Create, place, and fully bind one router front end.

        Each tenant/population gets its *own* router node (routers
        serialize message handling on their core, so a shared router
        would become the scaling bottleneck the shards exist to remove).
        The router is placed on the free tile nearest the mesh centre to
        keep worst-case hop counts down, and bound to every shard so the
        group's reconfiguration path and each shard's severity detector
        see it like any other client.
        """
        router = ShardRouter(
            name, self.directory, router_config or self.config.router
        )
        free = self.planner.free_candidates()
        if not free:
            free = [c for c in self.chip.free_tiles()
                    if self.planner.owner_of(c) is None]
        if not free:
            raise ValueError(f"no free tile to place router {name!r}")
        center = self.chip.topology.center()
        coord = min(free, key=lambda c: (c.manhattan(center), c))
        self.chip.place_node(router, coord)
        for shard_id, shard in self.shards.items():
            shard.group.clients.append(router.bind(
                shard_id, shard.group.members,
                shard.group.reply_quorum, shard.group.read_quorum,
                lease_reads=shard.group.leases_enabled,
            ))
            shard.detector.clients.append(router.shard_stats(shard_id))
        self.routers.append(router)
        return router

    def attach_population(
        self,
        name: str,
        config: Optional[PopulationConfig] = None,
        router_config: Optional[RouterConfig] = None,
    ) -> ClientPopulation:
        """Attach an aggregated client population behind its own router.

        The primary traffic API: one population object models
        ``config.n_clients`` clients (10^5–10^6 is the design point) with
        O(1) state, sampling demand from its workload's arrival process.
        Open-mode populations get an
        :class:`~repro.mesoscale.admission.AdmissionController` wired to
        the shard directory and every shard's severity detector, so
        demand for degraded or threatened shards is shed at the source.
        The population starts
        with the system (see :meth:`start`).  Which ops are reads is the
        workload's ``is_read``, told to the router op by op.
        """
        cfg = config or PopulationConfig()
        router = self.place_router(name, router_config)
        controller: Optional[AdmissionController] = None
        if cfg.mode == "open":
            controller = AdmissionController(
                self.directory,
                {sid: shard.detector for sid, shard in self.shards.items()},
                self.sim.rng.stream(f"mesoscale.{name}.admission"),
            )
        population = ClientPopulation(name, router, cfg, controller)
        self.populations.append(population)
        return population

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, warmup: float = 60_000.0) -> None:
        """Spawn-settle, then start drivers and per-shard machinery.

        ``warmup`` must cover all groups' fabric spawns — they share one
        ICAP, so configuration time grows with the shard count.
        """
        self.sim.run(until=self.sim.now + warmup)
        for population in self.populations:
            population.start()
        for shard in self.shards.values():
            shard.detector.start()
            if shard.rejuvenation is not None:
                shard.rejuvenation.start()
        self._health_timer = PeriodicTimer(
            self.sim, self.HEALTH_CHECK_PERIOD, self._check_health
        )

    # ------------------------------------------------------------------
    # Shard-level failover
    # ------------------------------------------------------------------
    def _liveness_quorum(self, shard: Shard) -> int:
        """Minimum correct replicas for the group to make progress."""
        n = FAMILIES[shard.group.protocol].replicas_for(shard.group.f)
        return n - shard.group.f

    def _check_health(self) -> None:
        for shard_id, shard in self.shards.items():
            correct = len(shard.group.correct_replicas())
            degraded = self.directory.is_degraded(shard_id)
            if correct < self._liveness_quorum(shard):
                if not degraded:
                    self.directory.mark_degraded(shard_id)
                    self.chip.metrics.counter("shard.degraded_transitions").inc()
            elif degraded:
                self.directory.restore(shard_id)

    def kill_shard(self, shard_id: str) -> None:
        """Crash every tile of one shard (the shard-failover scenario).

        Stops the shard's maintenance machinery first so rejuvenation
        cannot resurrect replicas on dead tiles; the health monitor then
        marks the shard degraded at its next tick.
        """
        shard = self.shards[shard_id]
        shard.detector.stop()
        if shard.rejuvenation is not None:
            shard.rejuvenation.stop()
        for name in shard.group.members:
            if self.chip.has_node(name):
                self.chip.tiles[self.chip.coord_of(name)].crash()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_safe(self) -> bool:
        """True while no shard recorded an SMR safety violation."""
        return all(s.group.safety.is_safe for s in self.shards.values())

    def shard_safe(self, shard_id: str) -> bool:
        """Safety of a single shard's group."""
        return self.shards[shard_id].group.safety.is_safe

    def completed_operations(self) -> int:
        """Total operations completed across all populations."""
        return sum(p.completed for p in self.populations)

    def failed_operations(self) -> int:
        """Total operations failed across all populations."""
        return sum(p.failures for p in self.populations)

    def shard_metrics(self, shard_id: str) -> Dict[str, object]:
        """A flat per-shard status/metrics record for reports."""
        shard = self.shards[shard_id]
        metrics = self.chip.metrics
        ops = metrics.counter(f"shard.{shard_id}.ops").value
        latency = metrics.histogram(f"shard.{shard_id}.latency")
        return {
            "shard": shard_id,
            "protocol": shard.group.protocol,
            "replicas": len(shard.group.members),
            "correct": len(shard.group.correct_replicas()),
            "status": self.directory.status()[shard_id],
            "threat": ThreatLevel(shard.detector.level).name,
            "ops": ops,
            "p50_latency": latency.percentile(50) if latency.count else 0.0,
            "p95_latency": latency.percentile(95) if latency.count else 0.0,
            "inflight": metrics.gauge(f"shard.{shard_id}.inflight").value,
            "safe": shard.group.safety.is_safe,
        }

    def summary(self) -> str:
        """One-line status for scripts (mirrors ResilientSystem)."""
        degraded = self.directory.degraded_shards()
        return (
            f"t={self.sim.now:.0f} shards={len(self.shards)} "
            f"protocol={self.config.protocol} f={self.config.f} "
            f"ops={self.completed_operations()} "
            f"degraded={len(degraded)} "
            f"safety={'SAFE' if self.is_safe else 'VIOLATED'}"
        )
