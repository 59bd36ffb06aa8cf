"""One promise check: a :class:`Scenario` in, an :class:`Outcome` out.

A scenario is data: the system (one replica group, or a sharded service
of ``shards`` groups), its family, f, chip, batching, leases and view
timeout, its requesters, a fault schedule
(:data:`repro.campaign.scenario.Schedule`), the horizon, the progress
window and the seed.  :class:`Trial` builds it on a fresh simulator and
plays it out through :class:`~repro.campaign.scenario.FaultPlayer`; the
outcome is what the sweeps judge (:func:`repro.check.check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.leases import LeaseConfig
from repro.bft.messages import Prepare
from repro.campaign.scenario import (
    FaultPlayer, Schedule, Step, closed_drivers, open_window, protocol_config, sharded_system,
)
from repro.core import DiversityManager, ReplicationManager, VariantLibrary
from repro.fabric import FpgaFabric
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import AlternatingKV, FactoryWorkload, UniformKeys

#: How long a sharded service warms up before its drivers and schedule start.
SHARD_WARMUP = 60_000.0


@dataclass(frozen=True)
class Requesters:
    """``count`` clients ``c0``, ``c1``, … of ``window`` outstanding
    requests each; with ``reads`` their gets take the read path.  A
    sharded service's are closed-loop drivers on 256 uniform keys."""

    count: int = 2
    window: int = 1
    think_time: float = 100.0
    timeout: float = 5_000.0
    reads: bool = False


@dataclass(frozen=True)
class Scenario:
    """Everything one run depends on.  ``shards`` 0 is one group with
    :class:`~repro.bft.ClientNode` requesters (a scale-out step makes it
    fabric-spawned); more is a sharded service of that many groups on a
    ``chip`` × ``chip`` mesh, warmed up for :data:`SHARD_WARMUP`.  A run
    is served when every requester completes something in ``window`` and
    together at least ``progress`` operations."""

    name: str
    protocol: str
    seed: int
    horizon: float
    window: Tuple[float, float]
    f: int = 1
    chip: int = 5
    batching: Optional[Tuple[int, float, int]] = None
    leases: bool = False
    view_timeout: Optional[float] = None
    requesters: Requesters = Requesters()
    faults: Schedule = ()
    shards: int = 0
    progress: int = 1


@dataclass(frozen=True)
class Outcome:
    """``served`` holds each requester's completions in the window;
    ``violations`` counts agreement and order violations plus votes the
    PBFT triage mishandled."""

    safe: bool
    served: Tuple[int, ...]
    stalled: bool
    violations: int

    def to_json(self) -> Dict[str, Any]:
        return {"safe": self.safe, "served": list(self.served),
                "stalled": self.stalled, "violations": self.violations}

    def metrics(self) -> Dict[str, int]:
        """The flat record a campaign trial stores."""
        served = {f"served.c{i}": n for i, n in enumerate(self.served)}
        return {"safe": int(self.safe), "stalled": int(self.stalled),
                "violations": self.violations, **served}


class Trial:
    """A scenario built on a fresh simulator: ``sim``, ``group`` (or the
    sharded ``system``), ``clients`` and ``faults``, its armed
    :class:`~repro.campaign.scenario.FaultPlayer`; :meth:`run` plays it
    to the horizon once."""

    def __init__(self, scenario: Scenario) -> None:
        s = self.scenario = scenario
        leases = (LeaseConfig.n_ranges, LeaseConfig.duration, LeaseConfig.renew_period)
        config = protocol_config(s.protocol, s.batching, leases if s.leases else None, s.view_timeout)
        r = s.requesters
        #: (replica, vote kind) of every vote the PBFT triage dropped.
        self.dropped: Set[Tuple[str, str]] = set()
        self.mistriaged = 0
        if s.shards:
            self.system = system = sharded_system(
                s.seed, s.shards, router_timeout=r.timeout, protocol=s.protocol, f=s.f,
                width=s.chip, height=s.chip, protocol_config=config,
            )
            self.sim = system.sim
            self._check_triage(shard.group for shard in system.shards.values())
            self.clients = closed_drivers(system, r.count, r.think_time, AlternatingKV(UniformKeys(256)))
            window = open_window(system, self.clients, SHARD_WARMUP, s.horizon - SHARD_WARMUP, s.faults)
            self.faults = window.faults
            return
        self.sim = sim = Simulator(seed=s.seed)
        chip = Chip(sim, ChipConfig(width=s.chip, height=s.chip))
        group_config = GroupConfig(protocol=s.protocol, f=s.f, group_id="g", protocol_config=config)
        if any(isinstance(e, Step) and e.to is None for e in s.faults):
            fabric = FpgaFabric(sim, chip)
            library = VariantLibrary.generate("svc", 4, 2)
            fabric.register_variants("svc", library.names())
            manager = ReplicationManager(chip, fabric, DiversityManager(library))
            self.group = group = manager.deploy_group(group_config)
        else:
            self.group = group = build_group(chip, group_config)
        self._check_triage([group])
        workload = FactoryWorkload(AlternatingKV().op, reads=lambda op: op[0] == "get") if r.reads else AlternatingKV()
        self.clients = []
        for i in range(r.count):
            client = ClientNode(f"c{i}", ClientConfig(
                think_time=r.think_time, timeout=r.timeout, max_outstanding=r.window, workload=workload,
            ))
            group.attach_client(client)
            client.start()
            self.clients.append(client)
        self.faults = FaultPlayer(s.faults, sim, {None: group}).arm()

    def _check_triage(self, groups: Iterable[Any]) -> None:
        if self.scenario.protocol == "pbft":
            for group in groups:
                for replica in group.replicas.values():
                    replica._vote_is_moot = self._checked_triage(replica)

    def _checked_triage(self, replica: Any) -> Any:
        """A PBFT replica's vote triage, checked as it reads each vote:
        only a vote matching its slot's pre-prepare, in the replica's
        view, from the member it names, may be queued or dropped."""
        triage = replica._vote_is_moot

        def queued(slot: Any, vote: Any) -> Set[str]:
            return slot.prepares_queued if type(vote) is Prepare else slot.commits_queued

        def checked(sender: str, vote: Any) -> bool:
            slot = replica._slots.get((vote.view, vote.seq))
            before = None if slot is None else set(queued(slot, vote))
            moot = triage(sender, vote)
            if moot or (slot is not None and queued(slot, vote) != before):
                if not (
                    slot is not None and slot.pre_prepare is not None
                    and slot.pre_prepare.digest == vote.digest
                    and vote.view == replica.view and sender == vote.replica
                ):
                    self.mistriaged += 1
            if moot:
                self.dropped.add((replica.name, type(vote).__name__))
            return moot

        return checked

    def run(self) -> Outcome:
        """Play the scenario and its fault schedule to the horizon."""
        s = self.scenario
        self.faults.run(s.horizon)
        served = tuple(client.completions_in(*s.window) for client in self.clients)
        violations = sum(len(g.safety.violations) for g in self.faults.groups.values()) + self.mistriaged
        return Outcome(
            safe=violations == 0,
            served=served,
            stalled=sum(served) < s.progress or 0 in served,
            violations=violations,
        )


def run(scenario: Scenario) -> Outcome:
    """Build ``scenario`` and play it out."""
    return Trial(scenario).run()
