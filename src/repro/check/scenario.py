"""One promise check: a :class:`Scenario` in, an :class:`Outcome` out.

A scenario is data: the replica group (family, f, chip, batching, leases,
view timeout), its requesters, a fault schedule (a Byzantine strategy,
crashes, membership steps), the horizon, the progress window and the
seed.  :class:`Trial` builds it on a fresh simulator and plays it out;
the outcome is what the sweeps judge (:func:`repro.check.check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.leases import LeaseConfig
from repro.bft.messages import Prepare
from repro.campaign.scenario import protocol_config
from repro.core import DiversityManager, ReplicationManager, VariantLibrary
from repro.fabric import FpgaFabric
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import AlternatingKV, FactoryWorkload


@dataclass(frozen=True)
class Requesters:
    """``count`` clients ``c0``, ``c1``, … of ``window`` outstanding
    requests each; with ``reads`` their gets take the read path."""

    count: int = 2
    window: int = 1
    think_time: float = 100.0
    timeout: float = 5_000.0
    reads: bool = False


@dataclass(frozen=True)
class Crash:
    """At ``at``, member ``member`` crashes — ``None``: the primary of the
    highest view a live member holds — and recovers ``outage`` later
    (``None``: it stays down)."""

    at: float
    member: Optional[int] = None
    outage: Optional[float] = None


@dataclass(frozen=True)
class Step:
    """A membership change at ``at``: a switch to family ``to``, or a
    scale-out when ``to`` is ``None`` (the group is then fabric-spawned)."""

    at: float
    to: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """Everything one run depends on.  ``byzantine`` is (strategy, member,
    activation time); a switch rebuilds every member, so the strategy is
    activated again on the rebuilt one.  A run is served when every
    requester completes something in ``window`` and together at least
    ``progress`` operations."""

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
    byzantine: Optional[Tuple[str, int, float]] = None
    crashes: Tuple[Crash, ...] = ()
    steps: Tuple[Step, ...] = ()
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


def _acting_primary(group: Any) -> str:
    """The primary of the highest view a live member holds."""
    return group.context.primary_of(max(r.view for r in group.correct_replicas()))


class Trial:
    """A scenario built on a fresh simulator: ``sim``, ``group``,
    ``clients``; :meth:`run` plays it to the horizon once."""

    def __init__(self, scenario: Scenario) -> None:
        s = self.scenario = scenario
        self.sim = sim = Simulator(seed=s.seed)
        chip = Chip(sim, ChipConfig(width=s.chip, height=s.chip))
        leases = (LeaseConfig.n_ranges, LeaseConfig.duration, LeaseConfig.renew_period)
        config = GroupConfig(protocol=s.protocol, f=s.f, group_id="g", protocol_config=protocol_config(
            s.protocol, s.batching, leases if s.leases else None, s.view_timeout
        ))
        if any(step.to is None for step in s.steps):
            fabric = FpgaFabric(sim, chip)
            library = VariantLibrary.generate("svc", 4, 2)
            fabric.register_variants("svc", library.names())
            self.manager = ReplicationManager(chip, fabric, DiversityManager(library))
            self.group = group = self.manager.deploy_group(config)
        else:
            self.group = group = build_group(chip, config)
        #: (replica, vote kind) of every vote the PBFT triage dropped.
        self.dropped: Set[Tuple[str, str]] = set()
        self.mistriaged = 0
        if s.protocol == "pbft":
            for replica in group.replicas.values():
                replica._vote_is_moot = self._checked_triage(replica)
        r = s.requesters
        workload = FactoryWorkload(AlternatingKV().op, reads=lambda op: op[0] == "get") if r.reads else AlternatingKV()
        self.clients = []
        for i in range(r.count):
            client = ClientNode(f"c{i}", ClientConfig(
                think_time=r.think_time, timeout=r.timeout, max_outstanding=r.window, workload=workload,
            ))
            group.attach_client(client)
            client.start()
            self.clients.append(client)
        self._attack = None
        if s.byzantine is not None:
            self._attack = make_strategy(s.byzantine[0], sim.rng.stream("byzantine"))
            sim.schedule_at(s.byzantine[2], self._compromise)
        for step in s.steps:
            sim.schedule_at(step.at, self._change, step)

    def _compromise(self) -> None:
        self._attack.activate(self.group.replicas[self.group.members[self.scenario.byzantine[1]]])

    def _change(self, step: Step) -> None:
        if step.to is None:
            self.manager.scale_out()
            return
        self.group.switch_protocol(step.to)
        if self._attack is not None:
            self._compromise()  # the rebuilt member is a new, correct object

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
        """Play to the horizon.  A crash or recovery at t comes after
        every event at t, so "the acting primary" is the one at t."""
        s, group = self.scenario, self.group
        moments = [(c.at, i, False) for i, c in enumerate(s.crashes)] + [
            (c.at + c.outage, i, True) for i, c in enumerate(s.crashes) if c.outage is not None
        ]
        down: Dict[int, str] = {}
        for at, i, recovering in sorted(moments, key=lambda m: m[0]):
            self.sim.run(until=at)
            if recovering:
                group.replicas[down[i]].recover()
            else:
                member = s.crashes[i].member
                down[i] = _acting_primary(group) if member is None else group.members[member]
                group.crash(down[i])
        self.sim.run(until=s.horizon)
        served = tuple(client.completions_in(*s.window) for client in self.clients)
        violations = len(group.safety.violations) + self.mistriaged
        return Outcome(
            safe=violations == 0,
            served=served,
            stalled=sum(served) < s.progress or 0 in served,
            violations=violations,
        )


def run(scenario: Scenario) -> Outcome:
    """Build ``scenario`` and play it out."""
    return Trial(scenario).run()
