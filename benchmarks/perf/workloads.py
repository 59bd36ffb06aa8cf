"""The service workloads: build, run-in, timed window, deterministic record, checks.

Every workload is the ROADMAP's headline path — 10^6 modeled clients in two
open-loop populations -> 4 shards on an 8x8 mesh -> batched (and, where on,
leased) BFT groups -> NoC — driven only through public API.  The load
generator is the in-simulator Poisson population, so it runs on the simulated
clock and is never late; the seed reaches the program only as
``ShardConfig.seed`` (arrival draws).  The consistent-hash ring is pinned
(``DIRECTORY_SALT``) because with 256 keys the seed-drawn ring moves the
hottest shard's share between 1.05x and 1.28x of the mean, which alone moved
p99 by 16 % across seeds and drowned every other signal.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.faults.byzantine import make_strategy
from repro.mesoscale import PopulationConfig
from repro.metrics.stats import percentile
from repro.shard import ShardConfig, ShardedSystem
from repro.shard.router import RouterConfig
from repro.workloads import kv_workload

from perf.host import at_reference_speed, calibrate, window_at_reference_speed
from perf.trace import Tracer

N_SHARDS = 4
N_POPULATIONS = 2
CLIENTS_PER_POPULATION = 500_000
KEYS = 256
DIRECTORY_SALT = 2  # per-shard key counts 70/62/69/55 of 256: imbalance 1.09
BATCHING = BatchConfig(batch_size=8, batch_delay=100.0, max_inflight=4)
LEASES = LeaseConfig(n_ranges=64, duration=30_000.0, renew_period=1_000.0)
WARMUP_MS = 60_000.0  # fabric spawns settle; traffic starts after it
RUN_IN_MS = 20_000.0  # untimed, traffic on: route cache, digest memo, leases warm
SLICE_MS = 250.0
CHUNKS = 100  # a calibration snippet runs before, between and after the window's chunks
SETUP_REPS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str
    leases: bool
    read_ratio: float
    rate: float  # aggregate offered ops per simulated second (Poisson, open loop)
    #: Timed-window length in sim-ms per second of ``--seconds`` budget, sized
    #: so the window takes about that long on the 2-core reference host.  The
    #: window is fixed in *simulated* time so sim-clock results are exact.
    sim_ms_per_second: float
    #: Gated workloads are listed in BENCHMARK.json: steady and failure-free.
    gated: bool = True
    view_timeout: Optional[float] = None
    router_timeout: Optional[float] = None
    #: (fraction of the window, action, shard id)
    faults: Tuple[Tuple[float, str, str], ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "e2e-mixed",
        "ROADMAP headline: MinBFT + leases, 50 % reads at ~70 % of saturation, so every "
        "layer on the path works and latency is sensitive to any service-time change",
        protocol="minbft", leases=True, read_ratio=0.5, rate=34.0, sim_ms_per_second=52_000.0,
    ),
    Workload(
        "write-pbft",
        "PBFT, no leases, 0 % reads: agreement, MAC vectors and multicast dominate and the "
        "read/lease path is idle, so a bft/crypto/noc change must show here and a read-path change must not",
        protocol="pbft", leases=False, read_ratio=0.0, rate=15.0, sim_ms_per_second=80_000.0,
    ),
    Workload(
        "read-leased",
        "MinBFT + leases, 95 % reads at ~80 % of saturation: router, lease table and population do "
        "the work (ordered share ~0.05), so a gain for writes that costs reads shows beside write-pbft",
        protocol="minbft", leases=True, read_ratio=0.95, rate=72.0, sim_ms_per_second=61_000.0,
    ),
    Workload(
        "fault-storm",
        "e2e-mixed under the paper's fault model: primary crash, equivocating backup, whole-shard "
        "loss. Ops fail by design and results swing with the seed, so it is reported but not gated",
        protocol="minbft", leases=True, read_ratio=0.5, rate=30.0, sim_ms_per_second=85_000.0,
        gated=False, view_timeout=8_000.0, router_timeout=3_000.0,
        faults=((0.2, "crash_primary", "s0"), (0.4, "compromise_backup", "s2"),
                (0.6, "kill_shard", "s1")),
    ),
]}

GATED = [w for w in WORKLOADS.values() if w.gated]


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def _system(workload: Workload, seed: int) -> ShardedSystem:
    options: Dict[str, Any] = {}
    if workload.view_timeout is not None:
        options["view_timeout"] = workload.view_timeout
    return ShardedSystem(ShardConfig(
        seed=seed, width=8, height=8, n_shards=N_SHARDS, protocol=workload.protocol, f=1,
        enable_rejuvenation=False, directory_salt=DIRECTORY_SALT,
        protocol_config=protocol_config_for(
            workload.protocol, batching=BATCHING,
            leases=LEASES if workload.leases else None, **options,
        ),
        router=(RouterConfig(timeout=workload.router_timeout)
                if workload.router_timeout is not None else None),
    ))


def _attach(system: ShardedSystem, workload: Workload) -> None:
    per_client_per_ms = workload.rate / 1000.0 / (N_POPULATIONS * CLIENTS_PER_POPULATION)
    for i in range(N_POPULATIONS):
        system.attach_population(f"pop{i}", PopulationConfig(
            n_clients=CLIENTS_PER_POPULATION, tick=100.0, max_inflight=64, queue_limit=2048,
            workload=kv_workload(keys=KEYS, read_ratio=workload.read_ratio,
                                 rate_per_client=per_client_per_ms),
        ))


def build(workload: Workload, seed: int) -> ShardedSystem:
    """Config -> ShardedSystem -> 2 x attach_population (not yet started)."""
    system = _system(workload, seed)
    _attach(system, workload)
    return system


def time_setup(workload: Workload, seed: int, reps: int = SETUP_REPS) -> Dict[str, Any]:
    """``reps`` build-to-ready repetitions, interleaved with calibration snippets."""
    samples, calib = [], [calibrate()]
    for _ in range(reps):
        start = time.perf_counter()
        build(workload, seed).start(warmup=WARMUP_MS)
        samples.append(time.perf_counter() - start)
        calib.append(calibrate())
    return {
        "setup_s": at_reference_speed(statistics.median(samples), statistics.median(calib)),
        "samples": samples,
        "calib": calib,
    }


def window_shape(workload: Workload, seconds: float) -> Tuple[int, int]:
    """(chunks, slices per chunk) of the timed window for a ``--seconds`` budget."""
    slices = max(4, round(workload.sim_ms_per_second * seconds / SLICE_MS))
    per_chunk = max(1, round(slices / CHUNKS))
    return round(slices / per_chunk), per_chunk


# ----------------------------------------------------------------------
# Faults (fault-storm only)
# ----------------------------------------------------------------------

def _inject(system: ShardedSystem, action: str, shard_id: str) -> None:
    group = system.shards[shard_id].group
    if action == "kill_shard":
        system.kill_shard(shard_id)
        return
    primary = group.correct_replicas()[0].primary
    if action == "crash_primary":
        group.crash(primary)
    elif action == "compromise_backup":
        victim = next(m for m in group.members if m != primary)
        group.compromise(
            victim, make_strategy("equivocate", system.sim.rng.stream("perf.byzantine"))
        )
    else:
        raise ValueError(f"unknown fault action {action!r}")


# ----------------------------------------------------------------------
# Counters read between slices
# ----------------------------------------------------------------------

def _shard_ops(system: ShardedSystem) -> List[float]:
    return [system.chip.metrics.counter(f"shard.{s}.ops").value for s in system.shards]


def _snapshot(system: ShardedSystem) -> Dict[str, float]:
    """Cumulative counts read from public objects; a window is a difference."""
    m, pops = system.chip.metrics, system.populations

    def per_shard(pattern: str) -> float:
        return sum(m.counter(pattern.format(s)).value for s in system.shards)

    batch = [m.histogram(f"{s}.batch.size") for s in system.shards]
    snap = {
        "events": system.sim.events_fired,
        "completed": sum(p.completed for p in pops),
        "offered": sum(p.offered for p in pops),
        "admitted": sum(p.admitted for p in pops),
        "shed": sum(p.shed for p in pops),
        "failures": sum(p.failures for p in pops),
        "delivered": m.counter("noc.delivered").value,
        "dropped": m.counter("noc.dropped").value,
        "flit_hops": m.counter("noc.flit_hops").value,
        # committed_ops counts every op each replica executes.
        "committed": sum(
            m.counter(f"{s}.committed_ops").value / len(shard.group.members)
            for s, shard in system.shards.items()
        ),
        "batches": sum(h.count for h in batch),
        "batched": sum(h.total for h in batch),
        "view_changes": per_shard("{}.view_changes"),
        "reads_local": per_shard("{}.reads.local"),
        "reads_quorum_fallback": per_shard("{}.reads.quorum_fallback"),
        "lease_fallbacks": per_shard("shard.{}.lease_fallbacks"),
        "lease_revoked": per_shard("{}.lease.revoked"),
        "timeouts": sum(r.timeouts for r in system.routers),
        "rejected_degraded": per_shard("shard.{}.rejected_degraded"),
        "degraded_transitions": m.counter("shard.degraded_transitions").value,
    }
    for reason in ("queue_full", "degraded", "throttled"):
        snap[f"shed_{reason}"] = sum(p.shed_by_reason.get(reason, 0) for p in pops)
    return snap


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------

def measure(
    workload: Workload, seed: int, seconds: float, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """Build, warm, run the timed window; return the pass's record.

    With a ``tracer`` the whole pass runs under its patches (so every event
    is attributed) but only the timed window is recorded.
    """
    if tracer is None:
        return _measure(workload, seed, seconds, None)
    with tracer.installed():
        return _measure(workload, seed, seconds, tracer)


def _measure(
    workload: Workload, seed: int, seconds: float, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    system = _system(workload, seed)
    attach_bytes = 0
    if tracer is not None:
        tracemalloc.start()
        _attach(system, workload)
        attach_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    else:
        _attach(system, workload)
    system.start(warmup=WARMUP_MS)
    system.run(RUN_IN_MS)

    sim, pops, directory = system.sim, system.populations, system.directory
    chunks, per_chunk = window_shape(workload, seconds)
    window = chunks * per_chunk * SLICE_MS
    start_ms = sim.now
    kill_at: Optional[float] = None
    for fraction, action, shard_id in workload.faults:
        sim.schedule(fraction * window, _inject, system, action, shard_id)
        if action == "kill_shard":
            kill_at = start_ms + fraction * window

    first = _snapshot(system)
    shard_ops = first_shard_ops = _shard_ops(system)
    served_once = [False] * N_SHARDS
    gap = [0.0] * N_SHARDS
    unavail_ms = 0.0
    detect_ms = 0.0
    pending_peak = backlog_peak = inflight_peak = 0
    backlog_ms = 0.0
    chunk_wall: List[float] = []
    chunk_shard_ops: List[List[float]] = []  # cumulative per-shard ops at chunk ends
    inflight_gauges = [system.chip.metrics.gauge(f"{s}.inflight") for s in system.shards]

    clock = time.perf_counter
    calib = [calibrate()]
    for _ in range(chunks):
        wall = 0.0
        if tracer is not None:
            tracer.recording = True
        for _ in range(per_chunk):
            t0 = clock()
            system.run(SLICE_MS)
            wall += clock() - t0
            # Reads only: no events are added, so sliced == unsliced results.
            now_ops = _shard_ops(system)
            for i, shard_id in enumerate(system.shards):
                if now_ops[i] > shard_ops[i]:
                    served_once[i] = True
                    gap[i] = 0.0
                elif served_once[i] and not directory.is_degraded(shard_id):
                    gap[i] += SLICE_MS
                    unavail_ms = max(unavail_ms, gap[i])
                else:
                    gap[i] = 0.0
            shard_ops = now_ops
            if kill_at is not None and not detect_ms and sim.now > kill_at \
                    and directory.degraded_shards():
                detect_ms = sim.now - kill_at
            backlog = sum(p.backlog for p in pops)
            backlog_ms += backlog * SLICE_MS
            backlog_peak = max(backlog_peak, backlog)
            pending_peak = max(pending_peak, sim.pending_count())
            inflight_peak = max(inflight_peak, *(int(g.value) for g in inflight_gauges))
        if tracer is not None:
            tracer.recording = False
        calib.append(calibrate())
        chunk_wall.append(wall)
        chunk_shard_ops.append(shard_ops)

    end_ms = sim.now
    last = _snapshot(system)
    d = {key: last[key] - first[key] for key in last}
    ops = d["completed"]
    latencies = sorted(lat for p in pops for lat in p.latencies_in(start_ms, end_ms))
    unfinished = sum(p.backlog + p.inflight for p in pops)
    issued = d["admitted"] + d["shed"] - d["shed_queue_full"]
    shard_delta = [b - a for a, b in zip(first_shard_ops, shard_ops)]
    packets = d["delivered"] + d["dropped"]
    failed_frac = min(1.0, (d["shed"] + d["failures"] + unfinished) / max(1, d["offered"]))

    # The deterministic record: simulated-clock results and exact counts.
    sim_record: Dict[str, float] = {
        "goodput_ops_per_sim_s": ops / (window / 1000.0),
        "lat_p50_ms": percentile(latencies, 50.0),
        "lat_p99_ms": percentile(latencies, 99.0),
        "served_frac": 1.0 - failed_frac,
        "lat_samples": len(latencies),
        "sim.events_fired": d["events"],
        "sim.events_per_op": d["events"] / max(1, ops),
        "sim.pending_peak": pending_peak,
        "noc.packets": packets,
        "noc.flit_hops": d["flit_hops"],
        "noc.dropped": d["dropped"],
        "noc.packets_per_op": packets / max(1, ops),
        "bft.ordered_ops": d["committed"],
        "bft.ordered_frac": d["committed"] / max(1, ops),
        "bft.batch_mean": d["batched"] / max(1, d["batches"]),
        "bft.inflight_peak": inflight_peak,
        "bft.view_changes": d["view_changes"],
        "bft.reads_local": d["reads_local"],
        "bft.reads_quorum_fallback": d["reads_quorum_fallback"],
        "bft.lease_fallbacks": d["lease_fallbacks"],
        "bft.lease_revoked": d["lease_revoked"],
        "shard.ops_imbalance": max(shard_delta) / max(1e-9, sum(shard_delta) / N_SHARDS),
        "shard.timeouts": d["timeouts"],
        "shard.rejected_degraded": d["rejected_degraded"],
        "shard.degraded_transitions": d["degraded_transitions"],
        "shard.detect_ms": detect_ms,
        "shard.unavail_ms": unavail_ms,
        "mesoscale.offered": d["offered"],
        "mesoscale.admitted": d["admitted"],
        "mesoscale.shed_queue_full": d["shed_queue_full"],
        "mesoscale.shed_degraded": d["shed_degraded"],
        "mesoscale.shed_throttled": d["shed_throttled"],
        "mesoscale.failed_frac": failed_frac,
        "mesoscale.backlog_peak": backlog_peak,
        "mesoscale.backlog_wait_ms": backlog_ms / max(1, issued),
        "mesoscale.unfinished_end": unfinished,
    }
    wall_s = sum(chunk_wall)
    host_record = {
        "sim_ops_per_wall_s": ops / window_at_reference_speed(chunk_wall, calib),
        "sim.wall_s": wall_s,
        "sim.events_per_wall_s": d["events"] / wall_s,
        "host.calib_s": statistics.mean(calib),
    }
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "window_ms": window,
        "sim": sim_record,
        "host": host_record,
        "sim_digest": digest(sim_record),
        "attempted": int(d["offered"]),
        "failed": int(d["shed"] + d["failures"]),
        "checks": _checks(workload, system, sim_record, d, chunk_shard_ops),
    }
    if tracer is not None:
        traced = tracer.fold(wall_s)
        traced.update({
            "noc.hop_events_per_packet": tracer.events["noc"] / max(1, packets),
            "bft.events_per_op": tracer.events["bft"] / max(1, ops),
            "crypto.auth_calls_per_op": tracer.calls["crypto"] / max(1, ops),
            "hybrids.usig_calls_per_op": tracer.calls["hybrids"] / max(1, ops),
            "mesoscale.attach_bytes": attach_bytes,
        })
        record["traced"] = traced
        record["checks"].append(_check(
            "traced_events_sum", sum(tracer.events.values()) == d["events"],
            f"sum L.events {sum(tracer.events.values())} vs events_fired {d['events']}",
        ))
    return record


def digest(sim_record: Dict[str, float]) -> str:
    """Hash of the deterministic record (same seed => same digest)."""
    return hashlib.sha256(json.dumps(sim_record, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str) -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _checks(
    workload: Workload,
    system: ShardedSystem,
    rec: Dict[str, float],
    d: Dict[str, float],
    chunk_shard_ops: List[List[float]],
) -> List[Dict[str, Any]]:
    killed = {sid for _, action, sid in workload.faults if action == "kill_shard"}
    survivors = [sid for sid in system.shards if sid not in killed]
    checks = [
        _check("safe", all(system.shard_safe(sid) for sid in survivors),
               "no SMR safety violation on " + ",".join(survivors)),
    ]
    # Demand conservation per population, exact over the whole run.
    for pop in system.populations:
        lhs = pop.offered - pop.shed - pop.failures - pop.completed
        checks.append(_check(
            f"conserved_{pop.name}", lhs == pop.backlog + pop.inflight,
            f"offered-shed-failed-completed={lhs} backlog+inflight={pop.backlog + pop.inflight}",
        ))
    if not workload.faults:
        quiet = ("bft.view_changes", "shard.degraded_transitions",
                 "mesoscale.shed_degraded", "mesoscale.shed_throttled")
        checks.append(_check("no_fault_signals", all(rec[k] == 0 for k in quiet),
                             " ".join(f"{k}={rec[k]:g}" for k in quiet)))
        checks.append(_check(
            "no_failed_ops", d["shed"] + d["failures"] == 0,
            f"shed={d['shed']:g} failed={d['failures']:g} (gated workloads are failure-free)"))
    if workload.name == "read-leased":
        checks.append(_check("ordered_frac", 0.03 <= rec["bft.ordered_frac"] <= 0.08,
                             f"{rec['bft.ordered_frac']:.4f} in [0.03, 0.08]"))
    if workload.name == "write-pbft":
        checks.append(_check("ordered_frac", 0.98 <= rec["bft.ordered_frac"] <= 1.02,
                             f"{rec['bft.ordered_frac']:.4f} in [0.98, 1.02]"))
        checks.append(_check(
            "read_path_idle", rec["bft.reads_local"] == 0 and rec["bft.lease_fallbacks"] == 0,
            f"reads_local={rec['bft.reads_local']:g} lease_fallbacks={rec['bft.lease_fallbacks']:g}"))
    if workload.name == "fault-storm":
        degraded = system.directory.degraded_shards()
        s0_changes = system.chip.metrics.counter("s0.view_changes").value
        checks.append(_check("degraded_set", set(degraded) == killed,
                             f"degraded at end: {degraded}, killed: {sorted(killed)}"))
        checks.append(_check("s0_view_change", s0_changes >= 1, f"s0.view_changes={s0_changes}"))
        for fraction, action, sid in workload.faults:
            if action == "compromise_backup":
                i = list(system.shards).index(sid)
                at = int(fraction * len(chunk_shard_ops)) - 1
                after = chunk_shard_ops[-1][i] - chunk_shard_ops[at][i]
                checks.append(_check(f"{sid}_masks_intrusion", after > 0,
                                     f"{sid} completed {after:g} ops after the compromise"))
    return checks
