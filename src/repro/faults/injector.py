"""Fault-campaign driver: scheduled and stochastic injection.

The injector is the experiments' single entry point for benign faults:
node crashes, tile crashes, NoC link failures, tile degradation, and
transient bitflips into hybrid counter registers (the E6 campaign and the
C3 fault-space campaigns).  All stochastic choices come from named RNG
streams, so campaigns are reproducible.

Every injection — scheduled or stochastic — increments a counter, and
:meth:`FaultInjector.counters` exports them as a flat dict so campaign
trials can cross-check *injected* totals against *classified* outcomes
(the C3 accounting invariant).  :meth:`FaultInjector.stop` cancels both
the stochastic campaign timers and any still-pending one-shot injection
events, so back-to-back trials in one process never leak scheduled
events into each other.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.noc.topology import Coord
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.hybrids.registers import Register
    from repro.hybrids.usig import Usig
    from repro.sim.events import ScheduledEvent
    from repro.sim.simulator import Simulator
    from repro.soc.chip import Chip


class FaultInjector:
    """Schedules fault events against a chip and its hybrids."""

    def __init__(self, sim: "Simulator", chip: "Chip", rng_name: str = "faults.injector") -> None:
        self.sim = sim
        self.chip = chip
        self._rng = sim.rng.stream(rng_name)
        self.injected_crashes = 0
        self.injected_bitflips = 0
        self.injected_link_faults = 0
        self.injected_degrades = 0
        self._timers: List[PeriodicTimer] = []
        self._events: List["ScheduledEvent"] = []

    # ------------------------------------------------------------------
    # Scheduled (deterministic) faults
    # ------------------------------------------------------------------
    def _schedule(self, time: float, callback, *args: Any) -> None:
        self._events.append(self.sim.schedule_at(time, callback, *args))

    def crash_node_at(self, name: str, time: float) -> None:
        """Crash a named node at an absolute time."""
        self._schedule(time, self.crash_node_now, name)

    def crash_tile_at(self, coord: Coord, time: float) -> None:
        """Physically crash a tile at an absolute time."""
        self._schedule(time, self.crash_tile_now, coord)

    def degrade_tile_at(self, coord: Coord, time: float) -> None:
        """Degrade a tile (elevated wear state) at an absolute time."""
        self._schedule(time, self.degrade_tile_now, coord)

    def fail_link_at(self, a: Coord, b: Coord, time: float) -> None:
        """Hard-fail a NoC link at an absolute time."""
        self._schedule(time, self.fail_link_now, a, b)

    def repair_link_at(self, a: Coord, b: Coord, time: float) -> None:
        """Repair a NoC link at an absolute time."""
        self._schedule(time, self.chip.noc.repair_link, a, b)

    def bitflip_register_at(self, register: "Register", bit: int, time: float) -> None:
        """Flip one physical bit of a hybrid register at an absolute time."""
        self._schedule(time, self.flip_register_bit_now, register, bit)

    # ------------------------------------------------------------------
    # Stochastic campaigns
    # ------------------------------------------------------------------
    def bitflip_campaign(
        self,
        usig: "Usig",
        rate_per_bit: float,
        check_period: float = 1000.0,
        until: Optional[float] = None,
    ) -> PeriodicTimer:
        """Poisson bitflips into a USIG's counter register.

        ``rate_per_bit`` is the per-physical-bit flip probability per time
        unit (SEU rate); each period we draw the number of flips from the
        corresponding Poisson and place them uniformly over physical bits.
        Bigger codewords (ECC/TMR) naturally absorb more raw flips.
        """
        if rate_per_bit < 0:
            raise ValueError("rate_per_bit must be non-negative")

        def flip_round() -> None:
            if until is not None and self.sim.now > until:
                timer.stop()
                return
            mean = rate_per_bit * usig.physical_bits * check_period
            flips = self._rng.poisson(mean)
            for _ in range(flips):
                bit = self._rng.randint(0, usig.physical_bits - 1)
                usig.inject_bitflip(bit)
                self.injected_bitflips += 1

        timer = PeriodicTimer(self.sim, check_period, flip_round)
        self._timers.append(timer)
        return timer

    def random_link_failures(
        self, rate: float, check_period: float = 5000.0, repair_after: Optional[float] = None
    ) -> PeriodicTimer:
        """Stochastic link failures at ``rate`` per link per time unit."""
        links = sorted(self.chip.noc.links)

        def fail_round() -> None:
            for (a, b) in links:
                if self._rng.bernoulli(rate * check_period):
                    self.fail_link_now(a, b)
                    if repair_after is not None:
                        self._events.append(
                            self.sim.schedule(
                                repair_after, self.chip.noc.repair_link, a, b
                            )
                        )

        timer = PeriodicTimer(self.sim, check_period, fail_round)
        self._timers.append(timer)
        return timer

    # ------------------------------------------------------------------
    # Lifecycle and accounting
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Cancel every stochastic campaign timer *and* every pending
        one-shot injection event.

        Back-to-back trials in one worker process build a fresh simulator
        each time, but an injector whose events outlive its trial (e.g. a
        repair scheduled past the horizon) would fire into the tail of a
        later ``sim.run`` on the same simulator.  ``stop()`` makes the
        injector inert; counters are preserved for reporting.
        """
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        for event in self._events:
            if event.pending:
                event.cancel()
        self._events.clear()

    def counters(self) -> Dict[str, int]:
        """Injected-fault totals, flat and JSON-ready for trial metrics."""
        return {
            "injected_crashes": self.injected_crashes,
            "injected_bitflips": self.injected_bitflips,
            "injected_link_faults": self.injected_link_faults,
            "injected_degrades": self.injected_degrades,
            "injected_total": (
                self.injected_crashes
                + self.injected_bitflips
                + self.injected_link_faults
                + self.injected_degrades
            ),
        }

    # ------------------------------------------------------------------
    # Immediate-fire primitives (public so a classifier can resolve its
    # victim at fire time — replica objects are rebuilt on rejuvenation,
    # so binding targets early would inject into a dead object).  Each
    # returns True iff a fault was actually applied and counted.
    # ------------------------------------------------------------------
    def crash_node_now(self, name: str) -> bool:
        if self.chip.has_node(name):
            self.chip.node(name).crash()
            self.injected_crashes += 1
            return True
        return False

    def crash_tile_now(self, coord: Coord) -> bool:
        tile = self.chip.tiles[coord]
        if tile.state.value != "crashed":
            tile.crash()
            self.injected_crashes += 1
            return True
        return False

    def degrade_tile_now(self, coord: Coord) -> bool:
        tile = self.chip.tiles[coord]
        if tile.state.value == "ok":
            tile.degrade()
            self.injected_degrades += 1
            return True
        return False

    def fail_link_now(self, a: Coord, b: Coord) -> bool:
        self.chip.noc.fail_link(a, b)
        self.injected_link_faults += 1
        return True

    def flip_register_bit_now(self, register: "Register", bit: int) -> bool:
        register.inject_bitflip(bit)
        self.injected_bitflips += 1
        return True
