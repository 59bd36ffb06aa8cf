"""Phased threat scenarios: the timeline driver for adaptation runs (E5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.faults.byzantine import make_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.bft.group import ReplicaGroup
    from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class AttackPhase:
    """One phase of a threat timeline.

    ``strategy`` names a Byzantine strategy (or "crash"/None for benign
    phases); ``target_index`` selects the victim by member position (so
    the phase stays valid across protocol switches that rename members).
    """

    start: float
    end: float
    strategy: Optional[str] = None
    target_index: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("phase needs 0 <= start < end")


@dataclass
class ThreatScenario:
    """A list of phases applied to a replica group over time.

    ``apply`` schedules each phase's attack at its start and a clean-up
    at its end: the victim is rejuvenated out of compromise by recreating
    it through the group's recovery hook (default: ``recover()``), which
    models the attacker losing its foothold when the phase ends.
    """

    phases: List[AttackPhase] = field(default_factory=list)
    applied: List[str] = field(default_factory=list)

    def horizon(self) -> float:
        """End time of the last phase."""
        return max((p.end for p in self.phases), default=0.0)

    def apply(self, sim: "Simulator", group: "ReplicaGroup") -> None:
        """Schedule every phase against the group."""
        for phase in self.phases:
            if phase.strategy is None:
                continue
            sim.schedule_at(phase.start, self._start_phase, sim, group, phase)
            sim.schedule_at(phase.end, self._end_phase, group, phase)

    # ------------------------------------------------------------------
    def _victim(self, group: "ReplicaGroup", phase: AttackPhase) -> Optional[str]:
        members = group.members
        if not members:
            return None
        return members[phase.target_index % len(members)]

    def _start_phase(self, sim: "Simulator", group: "ReplicaGroup", phase: AttackPhase) -> None:
        victim = self._victim(group, phase)
        if victim is None or victim not in group.replicas:
            return
        replica = group.replicas[victim]
        if phase.strategy == "crash":
            replica.crash()
        else:
            strategy = make_strategy(
                phase.strategy, sim.rng.stream(f"scenario.{phase.start}")
            )
            strategy.activate(replica)
        self.applied.append(f"{phase.label or phase.strategy}@{sim.now:.0f}->{victim}")

    def _end_phase(self, group: "ReplicaGroup", phase: AttackPhase) -> None:
        victim = self._victim(group, phase)
        if victim is None or victim not in group.replicas:
            return
        replica = group.replicas[victim]
        if not replica.is_correct:
            replica.recover()
