"""repro: fault- and intrusion-resilient manycore systems on a chip.

A from-scratch Python reproduction of Shoker, Esteves-Verissimo and Völp,
"The Path to Fault- and Intrusion-Resilient Manycore Systems on a Chip"
(DSN 2023) — the complete architecture the paper envisions, built as a
deterministic discrete-event simulation:

* a tile-based manycore SoC over a 2D-mesh NoC (:mod:`repro.soc`,
  :mod:`repro.noc`),
* an FPGA fabric with internal, partial, dynamic reconfiguration
  (:mod:`repro.fabric`),
* the USIG trusted hybrid with ECC/TMR/plain register
  storage and a gate-complexity model (:mod:`repro.hybrids`),
* a replication protocol suite — PBFT, MinBFT, CFT, passive
  (:mod:`repro.bft`),
* benign and malicious fault models — aging, bitflips, trojans,
  Byzantine strategies, APTs (:mod:`repro.faults`),
* statistical fault-injection campaigns with outcome classification
  and dependability reporting (:mod:`repro.faultspace`),
* consensual reconfiguration (:mod:`repro.recon`),
* the paper's resilience orchestration: replication, diversity,
  rejuvenation, adaptation, hybridization (:mod:`repro.core`), and
* a sharded service layer: many replica groups on disjoint tile
  regions of one chip, for linear throughput scaling
  (:mod:`repro.shard`), and
* a mesoscale workload engine: aggregated client populations (10^5–10^6
  modeled clients per object) with arrival-process demand, admission
  control, and load shedding (:mod:`repro.mesoscale`), and
* a sweep-scale campaign engine: resumable result stores and trial-level
  process parallelism, one kernel per trial (:mod:`repro.campaign`),
* promise checks: named fault scenarios played into outcomes and held
  to one table of pinned findings, swept as campaigns (:mod:`repro.check`), and
* evolutionary design-space exploration: an NSGA-II loop over the
  protocol/batching/sharding/placement/rejuvenation space with common
  random numbers, trial memoization, and Pareto decision support
  (:mod:`repro.evolve`).

Quickstart::

    from repro.core import ResilientSystem, OrchestratorConfig

    system = ResilientSystem(OrchestratorConfig(seed=1, protocol="minbft"))
    client = system.add_client("c0")
    system.start()
    system.run(500_000)
    print(system.summary())
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "bft",
    "campaign",
    "check",
    "core",
    "crypto",
    "evolve",
    "fabric",
    "faults",
    "faultspace",
    "hybrids",
    "mesoscale",
    "metrics",
    "noc",
    "recon",
    "shard",
    "sim",
    "soc",
    "sos",
    "workloads",
]
