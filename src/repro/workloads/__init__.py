"""Workload generators, arrival processes, and threat scenarios.

* :mod:`~repro.workloads.workload` — the unified :class:`Workload` API:
  one object bundling the op mix (``op(i)``), the key distribution, and
  the arrival process.  A bare ``op_factory`` callable becomes one by
  wrapping it in :class:`FactoryWorkload`.
* :mod:`~repro.workloads.arrivals` — aggregated demand models for
  client populations: Poisson, heavy-tailed Pareto bursts, diurnal
  sinusoid, and flash crowds.
* :mod:`~repro.workloads.generators` — legacy operation factories for
  the closed-loop clients: uniform/skewed KV mixes, counter increments,
  and a deterministic CPS sensor stream.
* :mod:`~repro.workloads.scenarios` — phased threat scenarios (calm →
  attack → calm) used by the adaptation experiment (E5).
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    ParetoArrivals,
    PoissonArrivals,
    sample_poisson,
)
from repro.workloads.generators import (
    control_sensor_ops,
    counter_ops,
    kv_skewed_ops,
    kv_uniform_ops,
)
from repro.workloads.scenarios import AttackPhase, ThreatScenario
from repro.workloads.workload import (
    FactoryWorkload,
    KVWorkload,
    UniformKeys,
    Workload,
    ZipfKeys,
    kv_workload,
    read_only_predicate_of,
)

__all__ = [
    "ArrivalProcess",
    "AttackPhase",
    "DiurnalArrivals",
    "FactoryWorkload",
    "FlashCrowdArrivals",
    "KVWorkload",
    "ParetoArrivals",
    "PoissonArrivals",
    "ThreatScenario",
    "UniformKeys",
    "Workload",
    "ZipfKeys",
    "control_sensor_ops",
    "counter_ops",
    "kv_skewed_ops",
    "kv_uniform_ops",
    "kv_workload",
    "read_only_predicate_of",
    "sample_poisson",
]
