"""C2 — §II: sharding scales committed-ops throughput across replica groups.

The paper's §II argument is that MPSoC distribution/parallelization make
on-chip resilience affordable; a single consensus pipeline caps service
throughput no matter how many tiles the chip has.  ``repro.shard``
partitions the keyspace across N independent replica groups on disjoint
tile regions; this bench holds the aggregate client load fixed (same
drivers, same think time, same seed) and varies only the shard count.

Metrics: aggregate committed ops in a fixed window, p95 latency, and the
per-shard ops split (key-hash balance); plus a shard-failover scenario —
crash every tile of one shard mid-run and watch the directory degrade
exactly that shard while the survivors keep serving.

Shape assertions:
* throughput rises monotonically 1 → 2 → 4 shards;
* 4 shards commit ≥ 2× the 1-shard baseline under identical load+seed;
* all shards carry traffic (the consistent-hash split is not degenerate);
* killing one shard degrades exactly it; survivors stay safe & serving.

Rejuvenation is disabled throughout so the measurement isolates the
consensus-pipeline bottleneck (maintenance interference is E4/E10's
story, not this one).
"""

from conftest import run_once

from repro.campaign import scenario
from repro.metrics import Table
from repro.workloads import AlternatingKV, UniformKeys

SEED = 7
N_CLIENTS = 8
THINK_TIME = 50.0
WARMUP = 60_000.0
DURATION = 240_000.0
KEY_SPACE = 256


def run_sharded(n_shards, kill_shard=None, seed=SEED):
    system = scenario.sharded_system(seed, n_shards, width=8, height=8)
    drivers = scenario.closed_drivers(
        system, N_CLIENTS, THINK_TIME, AlternatingKV(UniformKeys(KEY_SPACE))
    )
    kill = scenario.kill_at_half(kill_shard, WARMUP, DURATION)
    return scenario.open_window(system, drivers, WARMUP, DURATION, kill).run()


def scaling_run(n_shards):
    window = run_sharded(n_shards)
    system = window.system
    stats = scenario.window_stats(window, "p95_latency_ms")
    per_shard = [
        system.chip.metrics.counter(f"shard.{sid}.ops").value
        for sid in system.directory.shard_ids
    ]
    return stats["ops"], stats["p95_latency_ms"], per_shard, system


def failover_run(n_shards=4, victim="s1"):
    window = run_sharded(n_shards, kill_shard=victim)
    system, drivers, start = window.system, window.sources, window.start
    kill_at = start + DURATION / 2
    pre_window = kill_at - start
    pre_kill = sum(d.completions_in(start, kill_at) for d in drivers)
    # Give the health monitor + in-flight retransmits one settling period
    # before judging the survivors' post-kill service rate.
    post_start = kill_at + 20_000.0
    post_window = system.sim.now - post_start
    post_kill = sum(d.completions_in(post_start, system.sim.now) for d in drivers)
    pre_rate = pre_kill / pre_window
    post_rate = post_kill / post_window
    failed = sum(d.failures for d in drivers)
    return system, drivers, pre_rate, post_rate, failed


def experiment():
    table = Table(
        "C2a",
        ["shards", "ops", "ops/s (sim)", "p95 latency", "speedup", "shard split"],
        title="Fixed client load over 1, 2, 4 replica groups",
    )
    results = {}
    for n_shards in [1, 2, 4]:
        ops, p95, per_shard, system = scaling_run(n_shards)
        results[n_shards] = (ops, per_shard, system)
        table.add_row([
            n_shards,
            ops,
            round(ops / (DURATION / 1000.0), 1),
            round(p95, 1),
            round(ops / results[1][0], 2),
            "/".join(str(s) for s in per_shard),
        ])
    table.print()

    system, drivers, pre_rate, post_rate, failed = failover_run()
    fo = Table(
        "C2b",
        ["degraded", "ops/kcyc pre-kill", "ops/kcyc post-kill",
         "fast-failed ops", "survivors safe"],
        title="Shard failover: kill all of s1's tiles mid-run",
    )
    survivors_safe = all(
        system.shard_safe(s) for s in system.directory.live_shards()
    )
    fo.add_row([
        ",".join(system.directory.degraded_shards()) or "-",
        round(pre_rate * 1000, 2),
        round(post_rate * 1000, 2),
        failed,
        "yes" if survivors_safe else "NO",
    ])
    fo.print()
    return results, (system, pre_rate, post_rate, failed, survivors_safe)


def test_c2_shard_scaling(benchmark):
    results, failover = run_once(benchmark, experiment)

    ops1, _, sys1 = results[1]
    ops2, _, sys2 = results[2]
    ops4, split4, sys4 = results[4]

    # Monotone scaling under identical aggregate load and seed.
    assert ops1 < ops2 < ops4
    # The acceptance bar: 4 shards at least double the single-group rate.
    assert ops4 >= 2.0 * ops1
    # The hash split is not degenerate: every shard carries real traffic.
    assert all(s > 0.1 * max(split4) for s in split4)
    # Scaling did not cost correctness anywhere.
    for system in (sys1, sys2, sys4):
        assert system.is_safe
        assert system.failed_operations() == 0

    # Failover: exactly the victim is degraded; the rest keep serving.
    system, pre_rate, post_rate, failed, survivors_safe = failover
    assert system.directory.degraded_shards() == ["s1"]
    assert survivors_safe
    # 3 of 4 shards live: at least half the pre-kill service rate remains
    # (the ideal is ~3/4; headroom covers retransmit churn at the kill).
    assert post_rate > 0.5 * pre_rate
    # Operations on the dead shard fail fast instead of hanging forever.
    assert failed > 0
