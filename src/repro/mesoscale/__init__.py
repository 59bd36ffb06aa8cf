"""Mesoscale workload engine: aggregated client populations.

Per-client drivers stop scaling around 10^2 clients — every client is an
object, a timer chain, and a slice of the event heap.  This package
models client *populations* instead: one :class:`ClientPopulation`
stands in for 10^5–10^6 clients, sampling aggregate demand per tick from
an arrival process (:mod:`repro.workloads.arrivals`) and injecting it
through a :class:`~repro.shard.router.ShardRouter` front end, with
:class:`AdmissionController` shedding demand for degraded or threatened
shards before it ever touches the NoC.

Attach populations to a sharded system with
:meth:`repro.shard.manager.ShardedSystem.attach_population`; the C4
bench (``benchmarks/bench_c4_mesoscale.py``) and the ``mesoscale``
campaign runner are the reference drivers.
"""

from repro.mesoscale.admission import (
    SHED_DEGRADED,
    SHED_THROTTLED,
    AdmissionController,
)
from repro.mesoscale.population import (
    SHED_QUEUE_FULL,
    ClientPopulation,
    PopulationConfig,
)

__all__ = [
    "AdmissionController",
    "ClientPopulation",
    "PopulationConfig",
    "SHED_DEGRADED",
    "SHED_QUEUE_FULL",
    "SHED_THROTTLED",
]
