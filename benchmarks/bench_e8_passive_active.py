"""E8 — §II.A: passive replication is cheap but not seamless.

The paper: passive replication "is a cheap solution that typically
requires one passive backup replica.  However, recovery is slow, requires
reliable detection and is not seamless to the user", while active
replication "masks faults" outright.  We crash the primary mid-run and
measure what the client experiences:

* passive pairs with failure-detector timeouts of 2k / 10k / 50k cycles;
* active MinBFT (2f+1) and PBFT (3f+1) groups.

Metrics: replicas used (cost), steady-state messages per operation
(overhead), the failover gap (longest interval with no completed
operations around the crash), and client timeouts.

Shape assertions:
* passive uses the fewest replicas and messages;
* the passive failover gap tracks the detection timeout (slower detector
  -> longer outage) and always dwarfs the active gap;
* active replication masks the crash seamlessly (no client timeouts,
  gap within a few normal latencies);
* everybody stays safe.
"""

from conftest import build_protocol_stack, run_once

from repro.bft.passive import PassiveConfig
from repro.metrics import Table

CRASH_AT = 150_000.0
HORIZON = 500_000.0


def run_config(protocol, detect_timeout=None, seed=23, crash_index=0):
    protocol_config = None
    if protocol == "passive":
        protocol_config = PassiveConfig(
            heartbeat_period=max(500.0, detect_timeout / 5), view_timeout=detect_timeout
        )
    sim, chip, group, clients = build_protocol_stack(
        protocol, f=1, seed=seed, think_time=100.0, timeout=5_000.0,
        protocol_config=protocol_config,
    )
    client = clients[0]
    client.start()
    sim.run(until=50_000)
    delivered_before = chip.metrics.counter("noc.delivered").value
    ops_before = client.completed
    sim.run(until=CRASH_AT)
    steady_msgs = chip.metrics.counter("noc.delivered").value - delivered_before
    steady_ops = client.completed - ops_before
    group.crash(group.members[crash_index])
    sim.run(until=HORIZON)
    gap = client.max_completion_gap(100_000.0, HORIZON)
    return {
        "replicas": len(group.members),
        "msgs_per_op": steady_msgs / steady_ops if steady_ops else float("inf"),
        "gap": gap,
        "timeouts": client.timeouts,
        "completed": client.completed,
        "safe": group.safety.is_safe,
    }


def experiment():
    table = Table(
        "E8",
        ["scheme", "replicas", "steady msgs/op", "failover gap", "client timeouts",
         "ops total", "safe"],
        title=f"Primary crash at t={CRASH_AT:.0f}: passive failover vs active masking",
    )
    results = {}
    configs = [
        ("passive detect=2k", "passive", 2_000.0, 0),
        ("passive detect=10k", "passive", 10_000.0, 0),
        ("passive detect=50k", "passive", 50_000.0, 0),
        ("minbft, backup dies", "minbft", None, 2),
        ("minbft, primary dies", "minbft", None, 0),
        ("pbft, backup dies", "pbft", None, 3),
        ("pbft, primary dies", "pbft", None, 0),
    ]
    for label, protocol, timeout, crash_index in configs:
        r = run_config(protocol, timeout, crash_index=crash_index)
        results[label] = r
        table.add_row(
            [label, r["replicas"], r["msgs_per_op"], r["gap"], r["timeouts"],
             r["completed"], r["safe"]]
        )
    table.print()
    return results


def test_e8_passive_vs_active(benchmark):
    results = run_once(benchmark, experiment)

    # Cost ordering: passive (2) < minbft (3) < pbft (4) replicas.
    assert results["passive detect=10k"]["replicas"] == 2
    assert results["minbft, backup dies"]["replicas"] == 3
    assert results["pbft, backup dies"]["replicas"] == 4
    # Steady-state message overhead: passive cheapest.
    assert (
        results["passive detect=10k"]["msgs_per_op"]
        < results["minbft, backup dies"]["msgs_per_op"]
        < results["pbft, backup dies"]["msgs_per_op"]
    )

    # The passive failover gap tracks detection time.
    gap_2k = results["passive detect=2k"]["gap"]
    gap_10k = results["passive detect=10k"]["gap"]
    gap_50k = results["passive detect=50k"]["gap"]
    assert gap_2k < gap_10k < gap_50k
    assert gap_10k >= 10_000.0  # at least the detector timeout

    # Active replication masks a BACKUP crash outright: no timeouts, no
    # client-visible gap beyond a few normal latencies.
    for masked in ["minbft, backup dies", "pbft, backup dies"]:
        assert results[masked]["timeouts"] == 0
        assert results[masked]["gap"] < gap_2k

    # Even the active protocols' worst case (primary crash -> view
    # change) recovers faster than a sluggish passive detector.
    for worst in ["minbft, primary dies", "pbft, primary dies"]:
        assert results[worst]["gap"] < gap_50k

    # Passive failover is visible to the client.
    assert results["passive detect=10k"]["timeouts"] > 0

    for r in results.values():
        assert r["safe"]
