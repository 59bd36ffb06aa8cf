"""Rejuvenation scheduling: proactive, diverse, relocating (§II.C).

"An FPGA allows restarting or spawning new soft cores and logical blocks
at runtime — avoiding slow device restarts ... one can partially
rejuvenate some soft cores while others continue to run ... rejuvenate to
diverse softcore variants that are loaded in different FPGA spatial
locations, which can avoid potential backdoors in the FPGA grid fabric."

The scheduler walks the replica group round-robin so at most one replica
is down at a time (staying within the protocol's f), and per policy:

* ``diversify``  — pick a different variant from the pool on each pass
  (resets APT knowledge reuse);
* ``relocate``   — move to a free tile (escapes fabric-bound trojans);
* reactive hooks — severity detectors can trigger an immediate
  out-of-band pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bft.group import ReplicaGroup
from repro.core.diversity import DiversityManager
from repro.fabric.fabric import FpgaFabric
from repro.fabric.icap import IcapResult
from repro.sim.timers import PeriodicTimer


@dataclass
class RejuvenationPolicy:
    """What a rejuvenation pass does.

    ``period`` is the interval between *individual replica* rejuvenations
    (the group cycle time is ``period * n``).  The period-vs-APT-speed
    race is the E4 sweep.
    """

    period: float = 20_000.0
    diversify: bool = True
    relocate: bool = True
    #: Proactive recovery: when a group member is crashed or compromised,
    #: the next tick rejuvenates *it* instead of the round-robin target —
    #: taking a correct replica down while another is already faulty
    #: would drop the group below its liveness quorum (n - f), and a
    #: freshly rejuvenated replica could not even complete state sync
    #: (f + 1 matching peer offers) against a single live peer.  Off by
    #: default to preserve the pure round-robin schedule the §II.C
    #: experiments race against APT speed.
    heal_first: bool = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("rejuvenation period must be positive")


class RejuvenationScheduler:
    """Round-robin proactive rejuvenation of a replica group."""

    #: How long the severity detector is suppressed around each pass, so
    #: planned maintenance is not read as an attack.
    DETECTOR_MASK = 50_000.0

    def __init__(
        self,
        group: ReplicaGroup,
        fabric: FpgaFabric,
        diversity: Optional[DiversityManager],
        policy: Optional[RejuvenationPolicy] = None,
        principal: str = "rejuvenation",
        on_rejuvenated: Optional[Callable[[str], None]] = None,
        detector=None,
    ) -> None:
        self.group = group
        self.fabric = fabric
        self.diversity = diversity
        self.policy = policy or RejuvenationPolicy()
        self.principal = principal
        self.on_rejuvenated = on_rejuvenated
        # Optional SeverityDetector: masked around each pass so planned
        # maintenance does not read as an attack.
        self.detector = detector
        fabric.icap.grant(principal)
        self._cursor = 0
        self._timer: Optional[PeriodicTimer] = None
        self._in_flight = False
        self.passes = 0
        self.failures = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the proactive schedule."""
        sim = self.group.chip.sim
        self._timer = PeriodicTimer(sim, self.policy.period, self._tick)

    def stop(self) -> None:
        """Stop the proactive schedule."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def rejuvenate_now(self, name: str) -> bool:
        """Reactive entry point: rejuvenate a specific replica immediately.

        Returns False if a pass is already in flight (caller retries).
        """
        if self._in_flight:
            return False
        return self._rejuvenate(name)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._in_flight:
            return  # previous reconfiguration still running; skip a beat
        members = self.group.members
        if not members:
            return
        if self.policy.heal_first:
            unhealthy = [
                m
                for m in members
                if not (
                    self.group.chip.has_node(m) and self.group.replicas[m].is_correct
                )
            ]
            if unhealthy:
                # Heal the faulty member; if it cannot be healed (evicted
                # from the chip, region dead) defer the proactive pass —
                # rejuvenating a *correct* replica now would take the
                # group below quorum.  The cursor does not advance, so
                # the round-robin order resumes where it left off.
                healable = [m for m in unhealthy if self.group.chip.has_node(m)]
                if healable:
                    self._rejuvenate(healable[0])
                return
        name = members[self._cursor % len(members)]
        self._cursor += 1
        self._rejuvenate(name)

    def _rejuvenate(self, name: str) -> bool:
        if not self.group.chip.has_node(name):
            return False
        if self.detector is not None:
            self.detector.suppress(self.DETECTOR_MASK)
        # Read-lease safety: the victim must not serve leased reads while
        # it reconfigures, and the primary must not re-grant to it until
        # the pass lands.  No-op when leases are off.
        self.group.revoke_leases(name)
        variant: Optional[str] = None
        if self.policy.diversify and self.diversity is not None:
            rng = self.group.chip.sim.rng.stream("core.rejuvenation")
            variant = self.diversity.next_variant_for(name, rng)
        new_coord = None
        if self.policy.relocate:
            free = self.fabric.free_regions()
            if free:
                current = self.group.chip.coord_of(name)
                # Prefer the free tile farthest from the current location
                # (maximizes escape distance from localized implants).
                new_coord = max(free, key=lambda c: (current.manhattan(c), c))
        self._in_flight = True

        def done(result: IcapResult) -> None:
            self._in_flight = False
            if result == IcapResult.OK:
                self.passes += 1
                if new_coord is not None:
                    self.group.placement[name] = new_coord
                # The replica came back clean: allow lease grants again
                # (they resume at the primary's next renewal tick).
                self.group.readmit_leases(name)
                if self.on_rejuvenated is not None:
                    self.on_rejuvenated(name)
            else:
                self.failures += 1

        result = self.fabric.rejuvenate(
            self.principal, name, variant=variant, new_coord=new_coord, on_done=done
        )
        if result != IcapResult.OK:
            self._in_flight = False
            self.failures += 1
            return False
        return True

    # ------------------------------------------------------------------
    @property
    def cycle_time(self) -> float:
        """Time to rejuvenate the whole group once."""
        return self.policy.period * max(1, len(self.group.members))
