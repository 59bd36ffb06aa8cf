"""Fault and attacker models (benign and Byzantine/intrusion faults).

The paper's threat landscape (§I) spans accidental faults — fabrication
defects, dust, aging, overheating, design glitches — and malicious ones —
stealthy logic, backdoors, trojans, kill switches, post-fab editing, and
Advanced Persistent Threats.  This package turns the classes the
experiments exercise into executable injectors:

* :mod:`~repro.faults.injector` — campaign driver: crashes, transient
  register bitflips, link failures, scheduled or stochastic.
* :mod:`~repro.faults.byzantine` — behaviour strategies installed on
  compromised nodes (equivocate, corrupt, drop, delay, silent).
* :mod:`~repro.faults.aging` — Weibull wear-out of tiles (increasing
  hazard rate, the hardware analogue of software aging).
* :mod:`~repro.faults.trojan` — dormant, spatially bound trojans tied to
  fabric locations (escaped by relocation).
* :mod:`~repro.faults.apt` — an Advanced Persistent Threat that invests
  time per replica, reuses knowledge across identical variants, and is
  reset by rejuvenation.
* :mod:`~repro.faults.exploits` — vulnerability-class model for the
  diversity analysis (one exploit compromises every replica whose
  variant shares the targeted class).
"""

from repro.faults.aging import AgingModel, WeibullParams
from repro.faults.apt import AptAttacker, AptConfig
from repro.faults.byzantine import (
    ByzantineStrategy,
    CorruptStrategy,
    DelayStrategy,
    DropStrategy,
    EquivocateStrategy,
    SilentStrategy,
    make_strategy,
)
from repro.faults.exploits import Exploit, compromise_set
from repro.faults.injector import FaultInjector
from repro.faults.trojan import DormantTrojan

__all__ = [
    "AgingModel",
    "AptAttacker",
    "AptConfig",
    "ByzantineStrategy",
    "CorruptStrategy",
    "DelayStrategy",
    "DormantTrojan",
    "DropStrategy",
    "EquivocateStrategy",
    "Exploit",
    "FaultInjector",
    "SilentStrategy",
    "WeibullParams",
    "compromise_set",
    "make_strategy",
]
