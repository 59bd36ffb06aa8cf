"""P4 — perf: leased local reads on the sharded read path.

Quorum fast-path reads (E12) already skip the ordered log, but every
read still costs a full quorum exchange: the router broadcasts to all
n replicas and collects matching replies, so each read burns ~2n
router-core slots and one compute slot on *every* replica.  Read leases
(§ read path) collapse that to one NoC hop: the primary grants per-key-
range leases to the whole group, and a leased replica answers ``get``
from local committed state — one request, one reply, one replica core.
Writes stay safe via write-through invalidation (conflicting writes are
held until holders ack the revocation or the lease expires).

This bench measures what that buys at saturation, on the honest system
model: one ShardedSystem, an aggregated open-loop population at a 90%
read ratio, leases off vs on, same seed, simulated time (deterministic).

Scenarios:

* P4a — PBFT (3f+1): quorum fast-path reads vs leased reads.
* P4b — MinBFT (2f+1): the same pairing on the hybrid protocol.
* P4c — staleness under fire: a fabric-backed group with a heal-first
  rejuvenation scheduler; the primary is killed mid-run and healed; a
  staleness oracle checks no read ever returned a value more than one
  lease duration behind the committed prefix.

Shape assertions:
* leased reads >= 2x the completed ops/sec of the quorum fast path on
  BOTH protocols (deterministic, simulated time);
* zero ordered-log growth from leased reads: ordered commits stay at
  the write fraction of the mix, and most reads resolve on the lease
  path (``reads.local``) rather than the quorum fallback;
* every run stays safe (no safety-recorder violation);
* P4c records zero staleness violations across kill + rejuvenation.

Standalone (CI smoke): ``python benchmarks/bench_p4_leased_reads.py
--smoke`` runs a shorter horizon with the same deterministic gates.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once  # noqa: E402  (also sets REPRO_TABLE_LOG)

from repro.bft import ClientConfig, ClientNode, GroupConfig  # noqa: E402
from repro.bft.group import protocol_config_for  # noqa: E402
from repro.bft.leases import LeaseConfig  # noqa: E402
from repro.campaign.runners import (  # noqa: E402
    LEASED_READS_PARAMS,
    leased_reads_report,
    leased_reads_window,
)
from repro.core import (  # noqa: E402
    DiversityManager,
    RejuvenationPolicy,
    RejuvenationScheduler,
    VariantLibrary,
)
from repro.core.replication import ReplicationManager  # noqa: E402
from repro.fabric import FpgaFabric  # noqa: E402
from repro.metrics import Table  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.soc import Chip, ChipConfig  # noqa: E402
from repro.workloads import FactoryWorkload  # noqa: E402

PROTOCOLS = ("pbft", "minbft")
SEED = 5
# P4a/b run the ``leased_reads`` runner at its own defaults (2 shards,
# 1000 modeled clients at 2e-4 ops/ms each, 90% reads over 64 keys,
# batch 8 x4 inflight); only the horizon is the bench's.
N_SHARDS = LEASED_READS_PARAMS["n_shards"]
READ_RATIO = LEASED_READS_PARAMS["read_ratio"]
N_CLIENTS = LEASED_READS_PARAMS["n_clients"]
# P4c's staleness oracle needs the lease terms it checks against.
LEASES = LeaseConfig(n_ranges=64, duration=30_000.0, renew_period=1_000.0)
DURATION = 400_000.0
SMOKE_DURATION = 150_000.0
RATIO_GATE = 2.0
ORDERED_FRAC_GATE = 0.15  # ordered commits per completed op, 90% reads
LOCAL_FRAC_GATE = 0.6  # leased-read share of all completions


def service_run(protocol, leases, duration):
    """One ``leased_reads`` trial, plus the router-side fallback count."""
    window = leased_reads_window(
        {"protocol": protocol, "leases": leases, "duration": duration}, SEED
    )
    system = window.system
    report = leased_reads_report(window)
    report["lease_fallbacks"] = sum(
        system.chip.metrics.counter(f"shard.{sid}.lease_fallbacks").value
        for sid in system.shards
    )
    return report


def staleness_run():
    """P4c: kill + heal-first rejuvenation under a staleness oracle.

    A fabric-backed MinBFT group serves a writer and a leased reader;
    the primary is crashed mid-run, the heal-first scheduler brings it
    back, and the oracle asserts no read returned a value more than one
    lease duration behind the committed prefix at *any* point.
    """
    sim = Simulator(seed=SEED)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", 5, 3)
    fabric.register_variants("svc", library.names())
    diversity = DiversityManager(library)
    manager = ReplicationManager(chip, fabric, diversity)
    group = manager.deploy_group(
        GroupConfig(
            protocol="minbft", f=1, group_id="g",
            protocol_config=protocol_config_for("minbft", leases=LEASES),
        )
    )
    sim.run(until=30_000)

    writes = []  # (client-visible completion time, value)
    violations = []

    def on_write(request, reply):
        writes.append((sim.now, request.op[2]))

    def on_read(request, reply):
        now = sim.now
        got = reply.result if reply.result is not None else -1
        for done_at, value in writes:
            if done_at <= now - LEASES.duration and value > got:
                violations.append((now, got, value, done_at))

    writer = ClientNode(
        "cw",
        ClientConfig(
            think_time=2_000, timeout=30_000, max_requests=60,
            workload=FactoryWorkload(lambda i: ("put", "hot", i)), on_result=on_write,
        ),
    )
    reader = ClientNode(
        "cr",
        ClientConfig(
            think_time=300, timeout=30_000, max_requests=500,
            workload=FactoryWorkload(
                lambda i: ("get", "hot"), reads=lambda op: op[0] == "get"
            ),
            on_result=on_read,
        ),
    )
    group.attach_client(writer)
    group.attach_client(reader)
    writer.start()
    reader.start()
    scheduler = RejuvenationScheduler(
        group, fabric, diversity,
        RejuvenationPolicy(
            period=20_000, diversify=False, relocate=False, heal_first=True
        ),
    )
    scheduler.start()
    victim = group.members[0]  # the primary: kill forces a view change too
    sim.schedule_at(sim.now + 30_000, group.crash, victim)
    # Run to completion (latencies spike around the kill and the heal, so
    # a fixed horizon would race them); the cap keeps a wedge finite.
    cap = sim.now + 1_500_000
    while (writer.completed < 60 or reader.completed < 500) and sim.now < cap:
        sim.run(until=sim.now + 50_000)
    return {
        "writes": writer.completed,
        "reads": reader.completed,
        "leased_reads": reader.leased_reads_completed,
        "violations": len(violations),
        "heal_passes": scheduler.passes,
        "victim_healed": group.replicas[victim].is_correct,
        "safe": group.safety.is_safe,
    }


def experiment(smoke=False):
    duration = SMOKE_DURATION if smoke else DURATION

    results = {}
    for tag, protocol in (("P4a", "pbft"), ("P4b", "minbft")):
        baseline = service_run(protocol, False, duration)
        leased = service_run(protocol, True, duration)
        ratio = (
            leased["ops_per_sec"] / baseline["ops_per_sec"]
            if baseline["ops_per_sec"]
            else 0.0
        )
        results[protocol] = {"baseline": baseline, "leased": leased, "ratio": ratio}
        table = Table(
            tag,
            ["read path", "ops", "ops/s (sim)", "mean lat", "local", "fallback",
             "ordered frac", "safe"],
            title=(
                f"{protocol}: quorum fast path vs leased reads, "
                f"{N_CLIENTS} clients @ {int(READ_RATIO * 100)}% reads, "
                f"{N_SHARDS} shards"
            ),
        )
        for label, r in (("quorum", baseline), ("leased", leased)):
            table.add_row([
                label,
                r["ops"],
                round(r["ops_per_sec"], 1),
                round(r["mean_latency_ms"], 1),
                r["reads_local"],
                r["lease_fallbacks"],
                round(r["ordered_frac"], 3),
                "yes" if r["safe"] else "NO",
            ])
        table.print()

    staleness = staleness_run()
    results["staleness"] = staleness
    st = Table(
        "P4c",
        ["writes", "reads", "leased", "violations", "heals", "healed", "safe"],
        title="Staleness bound across primary kill + heal-first rejuvenation",
    )
    st.add_row([
        staleness["writes"],
        staleness["reads"],
        staleness["leased_reads"],
        staleness["violations"],
        staleness["heal_passes"],
        "yes" if staleness["victim_healed"] else "NO",
        "yes" if staleness["safe"] else "NO",
    ])
    st.print()

    results["ratio_gate"] = RATIO_GATE
    return results


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    for protocol in PROTOCOLS:
        r = results[protocol]
        assert r["baseline"]["safe"] and r["leased"]["safe"], f"{protocol}: unsafe run"
        assert r["baseline"]["ops"] > 0, f"{protocol}: baseline made no progress"
        # The lease path actually engaged, and carried most of the reads.
        assert r["leased"]["reads_local"] > 0, f"{protocol}: no leased reads"
        local_frac = r["leased"]["reads_local"] / r["leased"]["ops"]
        assert local_frac >= LOCAL_FRAC_GATE, (
            f"{protocol}: only {local_frac:.2f} of completions were leased reads"
        )
        # Zero ordered-log growth from leased reads: ordered commits stay
        # at the write fraction of the 90%-read mix.
        assert r["leased"]["ordered_frac"] <= ORDERED_FRAC_GATE, (
            f"{protocol}: ordered fraction {r['leased']['ordered_frac']:.3f} "
            f"exceeds {ORDERED_FRAC_GATE} — reads leaked into the ordered log"
        )
        # The P4 gate, in deterministic simulated time.
        assert r["ratio"] >= results["ratio_gate"], (
            f"{protocol}: leased speedup {r['ratio']:.2f}x below "
            f"{results['ratio_gate']}x gate"
        )
    st = results["staleness"]
    assert st["violations"] == 0, f"{st['violations']} staleness violations"
    assert st["writes"] == 60 and st["reads"] == 500, "P4c did not complete"
    assert st["leased_reads"] > 0, "P4c reader never used the lease path"
    assert st["heal_passes"] >= 1 and st["victim_healed"], "P4c heal never landed"
    assert st["safe"]


def test_p4_leased_reads(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    print(
        "P4 "
        + ("smoke " if smoke else "")
        + "OK: "
        + ", ".join(f"{p} {outcome[p]['ratio']:.2f}x" for p in PROTOCOLS)
        + f", staleness violations={outcome['staleness']['violations']}"
    )
