"""Deterministic discrete-event simulation kernel.

Every other subsystem in :mod:`repro` (the NoC, the SoC tiles, the FPGA
fabric, the BFT protocol suite, the fault injectors) runs on top of this
kernel.  The kernel is deliberately small:

* :class:`~repro.sim.simulator.Simulator` — the event loop, clock, and
  scheduling API.
* :class:`~repro.sim.events.ScheduledEvent` — a cancellable handle for a
  scheduled callback.
* :class:`~repro.sim.timers.Timeout` / :class:`~repro.sim.timers.PeriodicTimer`
  — restartable one-shot and periodic timers over that handle.
* :class:`~repro.sim.rng.RngRegistry` / :class:`~repro.sim.rng.RngStream` —
  named, independently seeded random streams so that simulations are
  bit-reproducible regardless of the order in which components draw
  randomness.

Determinism contract: two runs with the same master seed and the same
sequence of API calls produce identical event orderings and identical
results.  Ties in event time are broken by scheduling priority and then by
insertion order.
"""

from repro.sim.events import ScheduledEvent
from repro.sim.rng import (
    RngRegistry,
    RngStream,
    derive_generation_seed,
    derive_trial_seed,
)
from repro.sim.simulator import SimTime, Simulator
from repro.sim.timers import PeriodicTimer, Timeout

__all__ = [
    "PeriodicTimer",
    "RngRegistry",
    "RngStream",
    "ScheduledEvent",
    "SimTime",
    "Simulator",
    "Timeout",
    "derive_generation_seed",
    "derive_trial_seed",
]
