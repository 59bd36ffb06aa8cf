"""Workloads and arrival processes.

* :mod:`~repro.workloads.workload` — the :class:`Workload` API: one
  object is all of a requester's traffic — the op stream (``op(i)``),
  which of it is a read (``is_read(op)``) and the arrival process.
  :class:`KVWorkload` classifies its gets as reads, :class:`AlternatingKV`
  orders everything, and :class:`FactoryWorkload` wraps any ``factory(i)``
  callable with an optional ``reads`` predicate.
* :mod:`~repro.workloads.arrivals` — aggregated demand models for
  client populations: Poisson, heavy-tailed Pareto bursts, diurnal
  sinusoid, and flash crowds.

A fault or threat timeline is a fault schedule
(:data:`repro.campaign.scenario.Schedule`).
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    ParetoArrivals,
    PoissonArrivals,
    sample_poisson,
)
from repro.workloads.workload import (
    AlternatingKV,
    FactoryWorkload,
    KVWorkload,
    UniformKeys,
    Workload,
    ZipfKeys,
    kv_workload,
)

__all__ = [
    "AlternatingKV",
    "ArrivalProcess",
    "DiurnalArrivals",
    "FactoryWorkload",
    "FlashCrowdArrivals",
    "KVWorkload",
    "ParetoArrivals",
    "PoissonArrivals",
    "UniformKeys",
    "Workload",
    "ZipfKeys",
    "kv_workload",
    "sample_poisson",
]
