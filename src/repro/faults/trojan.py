"""Dormant hardware trojans bound to fabric locations.

Paper §I/§II.C: "stealthy logic, backdoors, trojans, kill switches" may
lurk in fabricated silicon or FPGA grid regions; "rejuvenate to diverse
softcore variants that are loaded in different FPGA spatial locations,
which can avoid potential backdoors in the FPGA grid fabric".  We model a
trojan as bound to a *tile coordinate*: once armed, it affects whichever
node occupies that tile.  Relocation (spatial rejuvenation) escapes it;
restarting in place does not.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator
    from repro.soc.chip import Chip


class DormantTrojan:
    """A timed trojan in the fabric under one tile.

    Arms at ``trigger_time``; from then on, whenever a node occupies the
    tile, ``effect(node)`` is applied (default: compromise).  The trojan
    re-applies to any later occupant — the backdoor is in the *fabric*,
    not the logic loaded onto it.
    """

    def __init__(
        self,
        sim: "Simulator",
        chip: "Chip",
        coord: Coord,
        trigger_time: float,
        effect: Optional[Callable[["object"], None]] = None,
        recheck_period: float = 1000.0,
    ) -> None:
        if trigger_time < 0:
            raise ValueError("trigger time must be non-negative")
        if recheck_period <= 0:
            raise ValueError("recheck period must be positive")
        self.sim = sim
        self.chip = chip
        self.coord = coord
        self.trigger_time = trigger_time
        self.effect = effect or self._default_effect
        self.recheck_period = recheck_period
        self.armed = False
        self.victims: list = []
        sim.schedule_at(max(trigger_time, sim.now), self._arm)

    @staticmethod
    def _default_effect(node: "object") -> None:
        node.compromise()  # type: ignore[attr-defined]

    def _arm(self) -> None:
        self.armed = True
        self._strike()

    def _strike(self) -> None:
        if not self.armed:
            return
        tile = self.chip.tiles[self.coord]
        node = tile.node
        if node is not None and node.is_correct:
            self.effect(node)
            self.victims.append(node.name)
        # Keep watching: a rejuvenated or relocated-in node is a new victim.
        self.sim.schedule(self.recheck_period, self._strike)

    def __repr__(self) -> str:  # pragma: no cover
        state = "armed" if self.armed else "dormant"
        return f"<DormantTrojan @{self.coord} {state} victims={len(self.victims)}>"
