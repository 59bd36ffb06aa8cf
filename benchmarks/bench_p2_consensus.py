"""P2 — perf: consensus request batching + pipelined agreement.

The consensus hot path caps service throughput: with closed-loop clients
and one request per agreement round, every operation pays a full
three-phase exchange (PBFT) or UI-signed round (MinBFT) plus its own MAC
vector / USIG certificate.  This bench measures how far request batching
(one round orders k requests under one batch digest) plus pipelining (a
bounded in-flight window of concurrent sequence numbers) plus open-loop
clients (``max_outstanding`` requests in flight per client — what keeps
batches full) lift **committed operations per simulated second**.

Scenarios:

* P2a — PBFT: closed-loop batch=1 baseline vs batched + pipelined +
  open-loop, same client count, same seed.  Sim-time throughput is
  deterministic, so the >= 2x gate is exact, not a wall-clock race.
* P2b — MinBFT: the same pairing on the 2f+1 hybrid protocol (one
  usig_create certifies a whole batch).

That ``batch_size=1`` is event-identical to no batching at all is checked
per family by ``tests/test_bft_batching.py``, not here.

Shape assertions:
* batched+pipelined >= 2x the committed ops/sec of the closed loop on
  BOTH protocols (deterministic, simulated time);
* mean batch size > 1 and the in-flight window actually pipelines
  (peak inflight > 1) in the batched runs;
* every run stays safe (no safety-recorder violation).

Standalone (CI smoke): ``python benchmarks/bench_p2_consensus.py --smoke``
runs shorter horizons with the same deterministic gates.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once  # noqa: E402  (also sets REPRO_TABLE_LOG)

from repro.campaign import get_runner  # noqa: E402
from repro.metrics import Table  # noqa: E402

PROTOCOLS = ("pbft", "minbft")
N_CLIENTS = 4
THINK_TIME = 50.0
BATCH_SIZE = 8
MAX_INFLIGHT = 8
BATCH_DELAY = 50.0
MAX_OUTSTANDING = 16
DURATION = 120_000.0
WARMUP = 30_000.0
SMOKE_DURATION = 40_000.0
SMOKE_WARMUP = 10_000.0
RATIO_GATE = 2.0
SEED = 7


def service_run(protocol, batched, duration, warmup):
    """One ``consensus_batching`` trial: the closed loop at batch=1, or
    the batched + pipelined + open-loop configuration under test."""
    params = {
        "protocol": protocol, "n_clients": N_CLIENTS, "think_time": THINK_TIME,
        "duration": duration, "warmup": warmup,
    }
    if batched:
        params.update(
            batch_size=BATCH_SIZE, batch_delay=BATCH_DELAY,
            max_inflight=MAX_INFLIGHT, max_outstanding=MAX_OUTSTANDING,
        )
    return get_runner("consensus_batching")(params, SEED)


def experiment(smoke=False):
    duration = SMOKE_DURATION if smoke else DURATION
    warmup = SMOKE_WARMUP if smoke else WARMUP
    results = {}
    for tag, protocol in (("P2a", "pbft"), ("P2b", "minbft")):
        baseline = service_run(protocol, False, duration, warmup)
        batched = service_run(protocol, True, duration, warmup)
        ratio = batched["ops_per_sec"] / baseline["ops_per_sec"] if baseline["ops_per_sec"] else 0.0
        results[protocol] = {"baseline": baseline, "batched": batched, "ratio": ratio}
        table = Table(
            tag,
            ["mode", "ops", "ops/s (sim)", "mean lat", "batch", "peak infl", "safe"],
            title=(
                f"{protocol}: closed loop batch=1 vs batch={BATCH_SIZE} "
                f"x{MAX_INFLIGHT} inflight, {N_CLIENTS} clients x{MAX_OUTSTANDING} outstanding"
            ),
        )
        for label, r in (("closed-loop", baseline), ("batched+pipelined", batched)):
            table.add_row([
                label,
                r["ops"],
                round(r["ops_per_sec"], 1),
                round(r["mean_latency_ms"], 1),
                round(r["mean_batch_size"], 2),
                int(r["peak_inflight"]),
                "yes" if r["safe"] else "NO",
            ])
        table.print()

    results["ratio_gate"] = RATIO_GATE
    return results


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    for protocol in PROTOCOLS:
        r = results[protocol]
        assert r["baseline"]["safe"] and r["batched"]["safe"], f"{protocol}: unsafe run"
        assert r["baseline"]["ops"] > 0, f"{protocol}: baseline made no progress"
        # The batching actually engaged: real batches, real pipelining.
        assert r["batched"]["mean_batch_size"] > 1.0, f"{protocol}: batches never filled"
        assert r["batched"]["peak_inflight"] > 1, f"{protocol}: window never pipelined"
        # The P2 gate, in deterministic simulated time.
        assert r["ratio"] >= results["ratio_gate"], (
            f"{protocol}: batched speedup {r['ratio']:.2f}x below "
            f"{results['ratio_gate']}x gate"
        )


def test_p2_consensus(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    print(
        "P2 "
        + ("smoke " if smoke else "")
        + "OK: "
        + ", ".join(
            f"{p} {outcome[p]['ratio']:.2f}x" for p in PROTOCOLS
        )
    )
