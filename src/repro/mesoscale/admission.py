"""Admission control for aggregated client populations.

A population can offer orders of magnitude more demand than a degraded
shard can absorb.  Retrying that demand into a dead or struggling region
is exactly the retransmit storm the shard directory's fast-fail exists
to avoid — so the mesoscale engine sheds at the *source* instead: before
an operation is ever submitted, the :class:`AdmissionController` checks
the health of the shards the operation would touch and either admits it
or returns a shed reason.

Two signals drive the decision, both re-using the per-shard machinery
the system already maintains (nothing here probes replicas directly):

* the :class:`~repro.shard.directory.ShardDirectory` degraded flag — a
  failed-over shard sheds deterministically (``shed_degraded``);
* the shard's :class:`~repro.core.severity.SeverityDetector` threat
  level — ELEVATED and CRITICAL shards admit only a fixed fraction
  of demand, sampled from a seeded stream so runs stay byte-stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.severity import ThreatLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.severity import SeverityDetector
    from repro.shard.directory import ShardDirectory
    from repro.sim.rng import RngStream

#: Shed reasons the controller can return (populations also use
#: ``queue_full``, which is decided by backlog accounting, not health).
SHED_DEGRADED = "degraded"
SHED_THROTTLED = "throttled"


class AdmissionController:
    """Per-population gate over the shards an operation would touch.

    Traffic for a shard the directory marked degraded is shed, not
    fast-failed: shed demand never reaches the router, so it shows up in
    shed counters instead of failure counters.
    """

    #: The probability that an operation touching a shard at that threat
    #: level is admitted; 1.0 does not throttle.
    ELEVATED_ADMIT = 1.0
    CRITICAL_ADMIT = 0.5

    def __init__(
        self,
        directory: "ShardDirectory",
        detectors: Dict[str, "SeverityDetector"],
        rng: Optional["RngStream"] = None,
    ) -> None:
        self.directory = directory
        self.detectors = detectors
        self.rng = rng
        self.admitted = 0
        self.shed_by_reason: Dict[str, int] = {}

    def decide(self, shard_ids: Sequence[str]) -> Optional[str]:
        """Admit (``None``) or shed (reason string) one operation.

        Multi-shard operations (``mget`` fan-out) are judged by their
        *worst* shard — a ticket needs every fragment, so one degraded
        owner dooms the whole operation anyway.
        """
        level = ThreatLevel.LOW
        for shard_id in shard_ids:
            if self.directory.is_degraded(shard_id):
                return self._shed(SHED_DEGRADED)
            detector = self.detectors.get(shard_id)
            if detector is not None and detector.level > level:
                level = ThreatLevel(detector.level)
        fraction = self.admit_fraction(level)
        if fraction < 1.0:
            if self.rng is None:
                raise ValueError(
                    "admission throttling needs an RngStream (rng=None)"
                )
            if not self.rng.bernoulli(fraction):
                return self._shed(SHED_THROTTLED)
        self.admitted += 1
        return None

    def admit_fraction(self, level: ThreatLevel) -> float:
        """The admitted fraction of demand at a given threat level."""
        if level >= ThreatLevel.CRITICAL:
            return self.CRITICAL_ADMIT
        if level >= ThreatLevel.ELEVATED:
            return self.ELEVATED_ADMIT
        return 1.0

    def _shed(self, reason: str) -> str:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return reason

    @property
    def shed(self) -> int:
        """Total operations shed across all reasons."""
        return sum(self.shed_by_reason.values())
