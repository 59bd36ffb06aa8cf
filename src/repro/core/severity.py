"""Severity detectors: the sensors that trigger adaptation (§II.D).

"This would require research on ... severity detectors that can trigger
adaptation actions once needed."  Our detector fuses four observable
signals over a sliding window — none of which requires trusting the
replicas themselves:

* client-visible timeout rate (liveness degradation),
* view changes / elections per window (protocol-level suspicion),
* rejected certificates (``ui_rejected``, ``bad_digest`` counters —
  cryptographic evidence of tampering),
* safety violations from the omniscient recorder (only available in
  simulation; real deployments would use attestation divergence).

The fused score maps to three levels with hysteresis so the controller
does not flap between protocols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bft.client import ClientNode
from repro.bft.group import ReplicaGroup
from repro.sim.timers import PeriodicTimer


class ThreatLevel(enum.IntEnum):
    """Assessed threat, ordered so comparisons read naturally."""

    LOW = 0
    ELEVATED = 1
    CRITICAL = 2


@dataclass
class SeverityConfig:
    """How the detector samples (the A2 sensitivity sweep): one
    assessment per ``window``, and ``hysteresis_windows`` consecutive
    calm windows to de-escalate one level."""

    window: float = 20_000.0
    hysteresis_windows: int = 2


class SeverityDetector:
    """Sliding-window threat assessment over a replica group."""

    TIMEOUT_RATE_ELEVATED = 0.05  # timeouts per completed op
    TIMEOUT_RATE_CRITICAL = 0.25
    VIEW_CHANGES_ELEVATED = 1     # view changes + elections per window
    VIEW_CHANGES_CRITICAL = 4
    EVIDENCE_ELEVATED = 1         # rejected certificates
    EVIDENCE_CRITICAL = 10

    def __init__(
        self,
        group: ReplicaGroup,
        clients: List[ClientNode],
        config: Optional[SeverityConfig] = None,
        on_change: Optional[Callable[[ThreatLevel], None]] = None,
    ) -> None:
        self.group = group
        self.clients = clients
        self.config = config or SeverityConfig()
        self.on_change = on_change
        self.level = ThreatLevel.LOW
        self._timer: Optional[PeriodicTimer] = None
        self._calm_windows = 0
        self._last = _Snapshot()
        self._suppressed_until = -float("inf")
        self.assessments = 0
        self.escalations = 0
        self.suppressed_assessments = 0
        self.history: List = []  # (time, level) transitions

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic assessment."""
        sim = self.group.chip.sim
        self._timer = PeriodicTimer(sim, self.config.window, self._assess)
        self._last = self._snapshot()

    def stop(self) -> None:
        """Stop assessing."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    def _snapshot(self) -> "_Snapshot":
        snap = _Snapshot()
        snap.completed = sum(c.completed for c in self.clients)
        snap.timeouts = sum(c.timeouts for c in self.clients)
        metrics = self.group.chip.metrics
        gid = self.group.config.group_id
        for suffix in ("view_changes", "elections"):
            name = f"{gid}.{suffix}"
            if name in metrics:
                snap.view_changes += metrics.counter(name).value
        for suffix in ("ui_rejected", "bad_digest", "corrupt_dropped", "usig_halted"):
            name = f"{gid}.{suffix}"
            if name in metrics:
                snap.evidence += metrics.counter(name).value
        snap.violations = len(self.group.safety.violations)
        return snap

    def suppress(self, duration: float) -> None:
        """Mask assessment during *planned* disruption (maintenance).

        Proactive rejuvenation takes replicas down on purpose; without
        masking, the detector reads its own side effects — timeouts and
        view changes — as an attack (a feedback pathology experiment A2
        measures).  Windows overlapping the suppression interval update
        the baseline but do not classify.
        """
        if duration < 0:
            raise ValueError("suppression duration must be non-negative")
        sim = self.group.chip.sim
        self._suppressed_until = max(self._suppressed_until, sim.now + duration)

    def _assess(self) -> None:
        self.assessments += 1
        now_snap = self._snapshot()
        delta = now_snap.minus(self._last)
        self._last = now_snap
        if self.group.chip.sim.now <= self._suppressed_until:
            self.suppressed_assessments += 1
            return
        assessed = self._classify(delta)
        self._apply(assessed)

    def _classify(self, delta: "_Snapshot") -> ThreatLevel:
        if delta.violations > 0:
            return ThreatLevel.CRITICAL
        rate = delta.timeouts / max(1, delta.completed)
        if (
            rate >= self.TIMEOUT_RATE_CRITICAL
            or delta.view_changes >= self.VIEW_CHANGES_CRITICAL
            or delta.evidence >= self.EVIDENCE_CRITICAL
        ):
            return ThreatLevel.CRITICAL
        if (
            rate >= self.TIMEOUT_RATE_ELEVATED
            or delta.view_changes >= self.VIEW_CHANGES_ELEVATED
            or delta.evidence >= self.EVIDENCE_ELEVATED
        ):
            return ThreatLevel.ELEVATED
        return ThreatLevel.LOW

    def _apply(self, assessed: ThreatLevel) -> None:
        if assessed > self.level:
            self._calm_windows = 0
            self._transition(assessed)
        elif assessed < self.level:
            self._calm_windows += 1
            if self._calm_windows >= self.config.hysteresis_windows:
                self._calm_windows = 0
                self._transition(ThreatLevel(self.level - 1))
        else:
            self._calm_windows = 0

    def _transition(self, new_level: ThreatLevel) -> None:
        if new_level == self.level:
            return
        if new_level > self.level:
            self.escalations += 1
        self.level = new_level
        self.history.append((self.group.chip.sim.now, new_level))
        if self.on_change is not None:
            self.on_change(new_level)


class _Snapshot:
    """Cumulative counter snapshot for windowed deltas."""

    def __init__(self) -> None:
        self.completed = 0
        self.timeouts = 0
        self.view_changes = 0
        self.evidence = 0
        self.violations = 0

    def minus(self, other: "_Snapshot") -> "_Snapshot":
        delta = _Snapshot()
        delta.completed = self.completed - other.completed
        delta.timeouts = self.timeouts - other.timeouts
        delta.view_changes = self.view_changes - other.view_changes
        delta.evidence = self.evidence - other.evidence
        delta.violations = self.violations - other.violations
        return delta
