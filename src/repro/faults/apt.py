"""Advanced Persistent Threat model (paper §II.C).

"A big deal of time and effort is usually put to identify vulnerabilities
and exploit them."  The APT attacker works on one replica at a time: after
an exponentially distributed *effort time* it compromises the replica.
Two levers connect this to the paper's defences:

* **Diversity**: effort spent on a variant is reusable — once the attacker
  has broken variant V anywhere, breaking another replica running V takes
  only ``reuse_factor`` of the nominal effort.  A monoculture therefore
  collapses quickly after the first breach.
* **Rejuvenation**: when a replica is rejuvenated, in-progress effort
  against it is lost; if it also *changed variant*, the attacker must
  start from the new variant's state; if it relocated, any fabric
  implants are left behind (handled by :mod:`repro.faults.trojan`).

The attacker targets replicas round-robin with ``parallelism`` concurrent
work streams, modelling a resourced adversary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


@dataclass
class AptConfig:
    """Attacker parameters.

    ``mean_effort`` is the expected time to first-break a fresh variant;
    ``reuse_factor`` scales effort when the variant is already known
    (0.05 = 20x faster); ``parallelism`` is how many replicas are worked
    concurrently.
    """

    mean_effort: float = 50_000.0
    reuse_factor: float = 0.05
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.mean_effort <= 0:
            raise ValueError("mean_effort must be positive")
        if not 0 < self.reuse_factor <= 1:
            raise ValueError("reuse_factor must be in (0, 1]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class _WorkItem:
    """In-progress attack on one replica."""

    replica: str
    variant: str
    event: object = None  # ScheduledEvent for completion


class AptAttacker:
    """The APT process: compromises replicas over time.

    Integrates through three callables so it stays decoupled from the
    replica classes:

    * ``targets()`` — current replica names (the attacker re-reads this,
      so scale-out/in changes the attack surface),
    * ``variant_of(name)`` — the variant a replica currently runs,
    * ``compromise(name)`` — effect a successful break.

    Call :meth:`notify_rejuvenated` whenever the defence rejuvenates a
    replica: pending effort on it is discarded and restarted against its
    (possibly new) variant.
    """

    def __init__(
        self,
        sim: "Simulator",
        targets: Callable[[], List[str]],
        variant_of: Callable[[str], str],
        compromise: Callable[[str], None],
        config: Optional[AptConfig] = None,
        rng_name: str = "faults.apt",
    ) -> None:
        self.sim = sim
        self.targets = targets
        self.variant_of = variant_of
        self.compromise = compromise
        self.config = config or AptConfig()
        self._rng = sim.rng.stream(rng_name)
        self.known_variants: Set[str] = set()
        self.compromised: Set[str] = set()
        self._active: Dict[str, _WorkItem] = {}
        self._started = False

    def start(self) -> None:
        """Begin the campaign."""
        self._started = True
        self._fill_pipeline()

    # ------------------------------------------------------------------
    def _fill_pipeline(self) -> None:
        if not self._started:
            return
        candidates = [
            name
            for name in self.targets()
            if name not in self.compromised and name not in self._active
        ]
        for name in candidates:
            if len(self._active) >= self.config.parallelism:
                break
            self._begin_work(name)

    def _begin_work(self, replica: str) -> None:
        variant = self.variant_of(replica)
        effort_mean = self.config.mean_effort
        if variant in self.known_variants:
            effort_mean *= self.config.reuse_factor
        effort = self._rng.exponential(effort_mean)
        item = _WorkItem(replica=replica, variant=variant)
        item.event = self.sim.schedule(effort, self._complete, item)
        self._active[replica] = item

    def _complete(self, item: _WorkItem) -> None:
        # The work item may be stale if rejuvenation raced the completion.
        if self._active.get(item.replica) is not item:
            return
        del self._active[item.replica]
        current_variant = self.variant_of(item.replica)
        if current_variant != item.variant:
            # The replica was diversified underneath the attack; the
            # exploit chain no longer applies.  Re-attack the new variant.
            self._begin_work(item.replica)
            return
        self.known_variants.add(item.variant)
        self.compromised.add(item.replica)
        self.compromise(item.replica)
        self._fill_pipeline()

    # ------------------------------------------------------------------
    def notify_rejuvenated(self, replica: str) -> None:
        """Defence hook: replica was rejuvenated (restart attack on it)."""
        item = self._active.pop(replica, None)
        if item is not None and item.event is not None:
            item.event.cancel()
        self.compromised.discard(replica)
        if self._started:
            self._fill_pipeline()

    @property
    def compromised_count(self) -> int:
        """Number of currently compromised replicas."""
        return len(self.compromised)
