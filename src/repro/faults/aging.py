"""Weibull wear-out model for tiles: hardware aging (paper §II.C).

"Aging occurs also in hardware, due to the deterioration of hardware
material under overuse and overheating."  We model each tile's lifetime as
Weibull-distributed with shape k > 1 (increasing hazard rate): the longer
a tile has been in service since its last rejuvenation/repair, the more
likely it degrades and then crashes.  Rejuvenation resets the clock —
which is exactly why rejuvenation restores the resource margin that
replication needs (§IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.noc.topology import Coord

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator
    from repro.soc.chip import Chip


@dataclass
class WeibullParams:
    """Weibull lifetime parameters.

    ``scale`` is the characteristic life (63.2% failed by then), ``shape``
    > 1 gives wear-out behaviour.  ``degrade_fraction`` is the point in a
    tile's sampled lifetime at which it enters DEGRADED state (elevated
    transient-fault rate) before finally crashing.
    """

    scale: float = 1_000_000.0
    shape: float = 2.5
    degrade_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.shape <= 0:
            raise ValueError("Weibull scale and shape must be positive")
        if not 0 < self.degrade_fraction <= 1:
            raise ValueError("degrade_fraction must be in (0, 1]")


class AgingModel:
    """Schedules degrade+crash events per tile from Weibull lifetimes.

    ``on_crash(coord)`` fires after the tile physically fails (the tile's
    own ``crash()`` has already run).  ``refresh(coord)`` — called by the
    rejuvenation machinery — resamples the lifetime from now, modelling
    replaced/reconfigured fabric.
    """

    def __init__(
        self,
        sim: "Simulator",
        chip: "Chip",
        params: Optional[WeibullParams] = None,
        on_crash: Optional[Callable[[Coord], None]] = None,
        rng_name: str = "faults.aging",
    ) -> None:
        self.sim = sim
        self.chip = chip
        self.params = params or WeibullParams()
        self.on_crash = on_crash
        self._rng = sim.rng.stream(rng_name)
        self._events: Dict[Coord, list] = {}
        self.crashes = 0

    def start(self) -> None:
        """Sample lifetimes for all tiles and schedule their wear-out."""
        for coord in self.chip.topology.coords():
            self._schedule_for(coord)

    def refresh(self, coord: Coord) -> None:
        """Reset a tile's aging clock (post-rejuvenation/repair)."""
        for event in self._events.get(coord, []):
            event.cancel()
        tile = self.chip.tiles[coord]
        if tile.state.value == "degraded":
            tile.repair()
        self._schedule_for(coord)

    def _schedule_for(self, coord: Coord) -> None:
        lifetime = self._rng.weibull(self.params.scale, self.params.shape)
        degrade_at = lifetime * self.params.degrade_fraction
        events = []
        events.append(self.sim.schedule(degrade_at, self._degrade, coord))
        events.append(self.sim.schedule(lifetime, self._crash, coord))
        self._events[coord] = events

    def _degrade(self, coord: Coord) -> None:
        tile = self.chip.tiles[coord]
        if tile.state.value == "ok":
            tile.degrade()

    def _crash(self, coord: Coord) -> None:
        tile = self.chip.tiles[coord]
        if tile.state.value == "crashed":
            return
        tile.crash()
        self.crashes += 1
        if self.on_crash is not None:
            self.on_crash(coord)


def weibull_hazard(t: float, scale: float, shape: float) -> float:
    """The Weibull hazard rate h(t) = (k/λ)(t/λ)^(k-1) (analysis helper)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    if scale <= 0 or shape <= 0:
        raise ValueError("scale and shape must be positive")
    if t == 0:
        if shape < 1:
            raise ValueError("hazard diverges at t=0 for shape < 1")
        return 0.0 if shape > 1 else 1.0 / scale
    return (shape / scale) * (t / scale) ** (shape - 1)


def weibull_reliability(t: float, scale: float, shape: float) -> float:
    """R(t) = exp(-(t/λ)^k): probability a component survives to t."""
    import math

    if t < 0:
        raise ValueError("time must be non-negative")
    return math.exp(-((t / scale) ** shape))
