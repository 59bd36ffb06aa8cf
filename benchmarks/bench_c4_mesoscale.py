"""C4 — mesoscale traffic: aggregated client populations at 10^5–10^6 scale.

Per-client drivers (one object + timer chain each) cap how much demand a
simulation can model; real edge services face populations the paper's
manycore SoCs are supposed to absorb.  :mod:`repro.mesoscale` replaces
per-client state with *aggregated* populations: one object samples
"how many ops did my N clients generate this tick?" from an arrival
process and injects the result through a shard router, with admission
control shedding demand for degraded shards at the source.

This bench drives two populations — together modeling 10^5 (smoke) or
10^6 (full) clients — through a 4-shard system and kills one shard
mid-run.

Shape assertions:

* memory is O(populations), not O(clients): attaching the populations
  allocates under a fixed byte budget regardless of modeled count;
* service is steady: p99 latency over two consecutive pre-kill windows
  stays within a 3x band;
* determinism: the same seed reproduces the run's result record
  byte-for-byte (populations draw only from named derived streams);
* failover: killing ``s1`` degrades exactly it, admission control sheds
  demand with reason ``degraded`` (it never reaches the NoC), and the
  survivors keep serving after the kill.

Standalone (CI smoke): ``python benchmarks/bench_c4_mesoscale.py --smoke``
"""

import json
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once

from repro.campaign.scenario import (
    attach_populations,
    demand_totals,
    kill_at_half,
    open_window,
    sharded_system,
    window_stats,
)
from repro.metrics import Table
from repro.metrics.traffic import (
    aggregate_completions,
    aggregate_latencies,
    latency_percentiles,
)
from repro.workloads import PoissonArrivals, kv_workload

SEED = 11
N_POPULATIONS = 2
N_SHARDS = 4
WARMUP = 60_000.0
TICK = 100.0
MAX_INFLIGHT = 64
VICTIM = "s1"
# Aggregate offered rate is held constant while the modeled population
# scales 10x: the per-client rate shrinks so the bench measures the
# engine's O(populations) scaling, not a bigger service.  8 ops/s sits
# under the 4-shard system's ~11 ops/s closed-loop capacity (C2), so
# pre-kill latency reflects service time, not backlog queueing.
RATE_TOTAL = 0.008  # ops per sim ms across all modeled clients
SMOKE_PER_POP, FULL_PER_POP = 50_000, 500_000
SMOKE_DURATION, FULL_DURATION = 90_000.0, 240_000.0
SMOKE_DET_DURATION, FULL_DET_DURATION = 45_000.0, 60_000.0
# Settling period after the kill before judging survivor service (health
# monitor tick + in-flight retransmits), as in the C2 failover scenario.
SETTLE = 20_000.0
ATTACH_BYTE_BUDGET = 1_000_000  # bytes for *all* populations + routers


def scenario(per_pop, duration, kill=None, seed=SEED):
    """One mesoscale run; returns a flat, JSON-stable result record."""
    system = sharded_system(seed, N_SHARDS, width=8, height=8)
    rate_per_client = RATE_TOTAL / (per_pop * N_POPULATIONS)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    populations = attach_populations(
        system, [f"pop{i}" for i in range(N_POPULATIONS)],
        n_clients=per_pop,
        workload=kv_workload(keys=256, arrivals=PoissonArrivals(rate_per_client)),
        tick=TICK, max_inflight=MAX_INFLIGHT,
    )
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    attach_bytes = after - before

    measured = open_window(system, populations, WARMUP, duration, kill_at_half(kill, WARMUP, duration)).run()
    start, end = measured.start, measured.end
    kill_at = start + duration / 2

    # Two consecutive pre-kill windows for the p99-stability check.
    window = (kill_at - start) / 2
    p99_w1 = latency_percentiles(
        aggregate_latencies(populations, start, start + window), (99.0,)
    )["p99"]
    p99_w2 = latency_percentiles(
        aggregate_latencies(populations, start + window, start + 2 * window),
        (99.0,),
    )["p99"]
    stats = window_stats(measured, "p50_latency_ms", "p99_latency_ms")
    record = {
        "modeled_clients": sum(p.modeled_clients for p in populations),
        "attach_bytes": attach_bytes,
        "ops": stats["ops"],
        "post_kill_ops": aggregate_completions(
            populations, kill_at + SETTLE, end
        ),
        "p50": stats["p50_latency_ms"],
        "p99": stats["p99_latency_ms"],
        "p99_window1": p99_w1,
        "p99_window2": p99_w2,
        **demand_totals(populations),
        "failed_ops": system.failed_operations(),
        "degraded": ",".join(system.directory.degraded_shards()),
        "survivors_safe": all(
            system.shard_safe(s) for s in system.directory.live_shards()
        ),
        "safe": system.is_safe,
        "footprints": [p.state_footprint() for p in populations],
        "duration": duration,
    }
    return record


def _bytes(record):
    # tracemalloc numbers depend on allocator warm-up, not on the sim;
    # everything else in the record must reproduce bit-for-bit.
    stable = {k: v for k, v in record.items() if k != "attach_bytes"}
    return json.dumps(stable, sort_keys=True).encode("utf-8")


def experiment(smoke=False):
    per_pop = SMOKE_PER_POP if smoke else FULL_PER_POP
    duration = SMOKE_DURATION if smoke else FULL_DURATION
    det_duration = SMOKE_DET_DURATION if smoke else FULL_DET_DURATION

    # Determinism pair: identical seeds must reproduce the record bytes.
    det_a = scenario(per_pop, det_duration)
    det_b = scenario(per_pop, det_duration)
    identical = _bytes(det_a) == _bytes(det_b)

    # The headline scenario: mesoscale load with a mid-run shard kill.
    main = scenario(per_pop, duration, kill=VICTIM)

    table = Table(
        "C4",
        ["clients", "attach KiB", "ops", "ops/s (sim)", "p50", "p99",
         "shed(degraded)", "degraded", "identical"],
        title=(f"{N_POPULATIONS} aggregated populations, "
               f"{main['modeled_clients']} modeled clients, kill {VICTIM}"),
    )
    table.add_row([
        main["modeled_clients"],
        round(main["attach_bytes"] / 1024.0, 1),
        main["ops"],
        round(main["ops"] / (duration / 1000.0), 1),
        round(main["p50"], 1),
        round(main["p99"], 1),
        f"{main['shed']}({main['shed_degraded']})",
        main["degraded"] or "-",
        "yes" if identical else "NO",
    ])
    table.print()

    return {"main": main, "identical": identical, "det": det_a}


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    main = results["main"]

    # The mesoscale scale claim: >= 10^5 modeled clients actually drove
    # traffic, with O(populations) memory for the client-side state.
    assert main["modeled_clients"] >= 100_000
    assert main["ops"] > 0
    assert main["attach_bytes"] < ATTACH_BYTE_BUDGET, (
        f"population attach allocated {main['attach_bytes']} bytes"
    )
    # No per-client state: internal collections scale with completions.
    for footprint in main["footprints"]:
        assert all(v <= main["ops"] + main["shed"] for v in footprint.values())

    # Demand conservation: offered == admitted + shed + backlog.
    assert main["offered"] == main["admitted"] + main["shed"] + main["backlog"]

    # Pre-kill service is steady: consecutive-window p99s within 3x.
    assert main["p99_window1"] > 0 and main["p99_window2"] > 0
    ratio = main["p99_window2"] / main["p99_window1"]
    assert 1 / 3 <= ratio <= 3, f"pre-kill p99 unstable (ratio {ratio:.2f})"

    # Failover: exactly the victim degrades, admission control sheds at
    # the source (reason "degraded"), survivors keep serving and stay
    # safe after the kill.
    assert main["degraded"] == VICTIM
    assert main["shed_degraded"] > 0
    assert main["post_kill_ops"] > 0
    assert main["survivors_safe"]

    # Determinism: same seed, byte-identical record.
    assert results["identical"]


def test_c4_mesoscale(benchmark):
    check(run_once(benchmark, lambda: experiment(smoke=True)))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    main = outcome["main"]
    print(
        "C4 "
        + ("smoke " if smoke else "")
        + f"OK: {main['modeled_clients']} modeled clients, {main['ops']} ops, "
        + f"p99 {main['p99']:.1f}ms, shed {main['shed']} "
        + f"({main['shed_degraded']} degraded), "
        + f"byte-identical={outcome['identical']}"
    )
