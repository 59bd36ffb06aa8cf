"""E12 — read-only fast path: the hybrid-BFT optimization playbook.

Every system in the paper's hybrid-BFT lineage (PBFT itself, MinBFT,
CheapBFT...) ships a read-only optimization: reads skip ordering and
complete on f+1 matching unordered replies.  This bench sweeps the read
ratio of a KV workload over MinBFT and PBFT with the fast path on and
off, reporting throughput, latency, and ordered-log growth.

The driver stack is the current API end to end: a
:func:`~repro.workloads.kv_workload` carries the read ratio and
classifies its own ops (``is_read``), and a closed-mode population
replays it through :meth:`ShardedSystem.attach_population`, telling the
router per op whether it is a read.  "Fast path off" is expressed the
same way production code would hit it: an opaque
:class:`~repro.workloads.FactoryWorkload` (same op sequence, no
``reads``), so nothing classifies reads and every op is ordered.

Shape assertions:
* with the fast path, throughput rises with the read ratio (reads are
  cheaper than ordered operations); without it, read ratio barely
  matters;
* fast reads never enter the ordered log;
* the benefit is larger for PBFT (whose ordered path is pricier);
* safety holds and reads return committed values (spot-checked by the
  correctness tests in tests/test_bft_reads.py).

Standalone (CI smoke): ``python benchmarks/bench_e12_read_path.py
--smoke`` runs a shorter horizon with the same shape assertions.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once  # noqa: E402  (also sets REPRO_TABLE_LOG)

from repro.campaign import scenario  # noqa: E402
from repro.metrics import Table  # noqa: E402
from repro.workloads import FactoryWorkload, kv_workload  # noqa: E402

DURATION = 250_000.0
SMOKE_DURATION = 80_000.0
READ_RATIOS = [0.0, 0.5, 0.9]
KEYS = 16
THINK_TIME = 50.0
SEED = 83


def run_config(protocol, read_ratio, fast_path, duration):
    system = scenario.sharded_system(SEED, 1, protocol=protocol)
    workload = kv_workload(keys=KEYS, read_ratio=read_ratio)
    if not fast_path:
        # Same op sequence, opaque classification: no reads predicate,
        # so every op takes the ordered path.
        workload = FactoryWorkload(workload.op, name="kv-opaque")
    drivers = scenario.closed_drivers(system, 1, THINK_TIME, workload)
    window = scenario.open_window(system, drivers, 20_000, duration).run()
    stats = scenario.window_stats(window, "mean_latency_ms")
    group = system.shards["s0"].group
    ordered = max(r.last_executed for r in group.correct_replicas())
    return {
        "ops": stats["ops"],
        "mean_lat": stats["mean_latency_ms"] if stats["ops"] else float("nan"),
        "fast_replies": system.chip.metrics.counter("s0.fast_reads").value,
        "ordered": ordered,
        "safe": system.is_safe,
    }


def experiment(smoke=False):
    duration = SMOKE_DURATION if smoke else DURATION
    table = Table(
        "E12",
        ["protocol", "read ratio", "fast path", "ops", "mean lat",
         "fast replies", "ordered ops", "safe"],
        title="Read-only fast path: throughput vs read ratio",
    )
    results = {}
    for protocol in ["minbft", "pbft"]:
        for ratio in READ_RATIOS:
            for fast in [False, True]:
                r = run_config(protocol, ratio, fast, duration)
                results[(protocol, ratio, fast)] = r
                table.add_row(
                    [protocol, ratio, fast, r["ops"], round(r["mean_lat"], 1),
                     r["fast_replies"], r["ordered"], r["safe"]]
                )
    table.print()
    return results


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    for protocol in ["minbft", "pbft"]:
        # With the fast path, more reads -> more throughput.
        with_fast = [results[(protocol, r, True)]["ops"] for r in READ_RATIOS]
        assert with_fast[0] < with_fast[1] < with_fast[2]
        # Without it, the read ratio is irrelevant (everything is ordered).
        without = [results[(protocol, r, False)]["ops"] for r in READ_RATIOS]
        assert max(without) - min(without) < 0.1 * max(without)
        # At 90% reads the fast path is a clear win.
        assert (
            results[(protocol, 0.9, True)]["ops"]
            > 1.5 * results[(protocol, 0.9, False)]["ops"]
        )
        # Fast reads never inflate the ordered log.
        fast_run = results[(protocol, 0.9, True)]
        assert fast_run["ordered"] < 0.3 * fast_run["ops"]
        assert fast_run["fast_replies"] > 0
        for r in READ_RATIOS:
            for fast in [False, True]:
                assert results[(protocol, r, fast)]["safe"]

    # PBFT benefits more (its ordered path costs more).
    gain_pbft = (
        results[("pbft", 0.9, True)]["ops"] / results[("pbft", 0.9, False)]["ops"]
    )
    gain_minbft = (
        results[("minbft", 0.9, True)]["ops"] / results[("minbft", 0.9, False)]["ops"]
    )
    assert gain_pbft > gain_minbft


def test_e12_read_fast_path(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    check(experiment(smoke=smoke))
    print("E12 " + ("smoke " if smoke else "") + "OK")
