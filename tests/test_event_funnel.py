"""Every kernel event goes through ``Simulator.schedule_at``.

A profiler outside the program (``benchmarks/perf/trace.py``) patches
``Simulator.schedule_at`` on the class and attributes each fired event to
the layer of its callback; its per-layer counts add up to ``events_fired``
only if nothing schedules around that one method — a heap push of its
own, or a ``schedule_at`` bound before the patch.  Patched the same way
here, before the system is built, on a short sharded run of each protocol
shape the service benchmark gates: PBFT without leases, MinBFT with them.
"""

import pytest

from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.mesoscale import PopulationConfig
from repro.shard import ShardConfig, ShardedSystem
from repro.sim import Simulator
from repro.workloads import kv_workload


@pytest.fixture
def wrapped_fires(monkeypatch):
    """Patch the funnel on the class; the list counts fired wrapped events."""
    fires = [0]
    original = Simulator.schedule_at

    def fire(callback, args):
        fires[0] += 1
        callback(*args)

    def schedule_at(sim, time, callback, *args, priority=0):
        return original(sim, time, fire, callback, args, priority=priority)

    monkeypatch.setattr(Simulator, "schedule_at", schedule_at)
    return fires


@pytest.mark.parametrize("protocol, leases", [
    ("pbft", None),
    ("minbft", LeaseConfig(n_ranges=16, duration=30_000.0, renew_period=1_000.0)),
])
def test_every_fired_event_went_through_the_patched_funnel(wrapped_fires, protocol, leases):
    system = ShardedSystem(ShardConfig(
        seed=7, width=6, height=6, n_shards=2, protocol=protocol, f=1,
        enable_rejuvenation=False,
        protocol_config=protocol_config_for(
            protocol, batching=BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=4),
            leases=leases,
        ),
    ))
    system.attach_population("pop", PopulationConfig(
        n_clients=8, tick=100.0, max_inflight=16, queue_limit=256,
        workload=kv_workload(keys=64, read_ratio=0.5, rate_per_client=0.002),
    ))
    system.start(warmup=60_000)
    system.run(20_000)
    metrics = system.chip.metrics
    local_reads = sum(metrics.counter(f"{s}.reads.local").value for s in system.shards)
    assert system.completed_operations() > 50
    assert (local_reads > 0) == (leases is not None)  # the lease path ran, or stayed idle
    assert wrapped_fires[0] == system.sim.events_fired > 0
