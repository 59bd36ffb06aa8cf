"""Metric tables: every name the benchmark reports, with unit, clock and direction.

``BENCHMARK.json`` is generated from these tables (``run.py manifest``); the
self-tests fail when the two drift apart.  Layers are the package names under
``src/repro``; everything outside the eight on the service path is ``other``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

LAYERS = ("sim", "noc", "soc", "crypto", "hybrids", "bft", "shard", "mesoscale", "other")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" (wall time, noisy) | "sim" (simulated, exact per seed)
    what: str
    #: End-to-end only: the share of the parent's median by which the metric
    #: may worsen before it counts as a regression.
    bound: Optional[float] = None


# Bounds are sized from the spread over ten seeds on the 2-core reference
# host (README "Steadiness"): every spread there is below a third of its bound.
# "Host" seconds of the two gated host-clock metrics are at reference speed
# (perf/host.py): wall seconds x 10 ms / the interleaved calibration snippets.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "host",
           "median of 15 build-to-ready repetitions (config -> ShardedSystem -> 2 x "
           "attach_population -> start(warmup); imports excluded), at reference speed", 0.25),
    Metric("sim_ops_per_wall_s", "ops/s", "higher", "host",
           "client ops completed in the timed window / its wall seconds at reference "
           "speed: invariant to event economy, so fewer events and faster events both count", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "peak resident set (VmHWM) of the measuring process at exit", 0.10),
    Metric("goodput_ops_per_sim_s", "ops/s", "higher", "sim",
           "completions in the window / window sim-seconds", 0.05),
    Metric("lat_p50_ms", "sim-ms", "lower", "sim",
           "median router-submit->reply latency of ops completed in the window", 0.20),
    Metric("lat_p99_ms", "sim-ms", "lower", "sim",
           "p99 of the same (>= 140 samples beyond it at --seconds 12)", 0.15),
    Metric("served_frac", "share", "higher", "sim",
           "1 - (shed + failed + unfinished at window end) / offered, over the "
           "window: a refused or stranded op is a failure", 0.02),
]

_COUNTS: List[Metric] = [
    Metric("sim.events_fired", "count", "lower", "sim", "kernel events fired in the window"),
    Metric("sim.events_per_op", "count", "lower", "sim", "events fired / ops completed"),
    Metric("sim.events_per_wall_s", "1/s", "higher", "host", "events fired / window wall seconds"),
    Metric("sim.wall_s", "s", "lower", "host", "raw wall seconds of the timed window"),
    Metric("sim.pending_peak", "count", "lower", "sim", "max pending_count() at slice ends"),
    Metric("noc.packets", "count", "lower", "sim", "packets delivered + dropped"),
    Metric("noc.flit_hops", "count", "lower", "sim", "flit x hop traversals"),
    Metric("noc.dropped", "count", "lower", "sim", "packets dropped"),
    Metric("noc.packets_per_op", "count", "lower", "sim", "packets / ops completed"),
    Metric("noc.hop_events_per_packet", "count", "lower", "sim",
           "traced noc.events / packets: the express economy actually achieved"),
    Metric("crypto.auth_calls_per_op", "count", "lower", "sim",
           "traced digest / compute_mac / verify_mac / Authenticator calls / ops"),
    Metric("hybrids.usig_calls_per_op", "count", "lower", "sim",
           "traced Usig.create_ui + UsigVerifier.verify_ui calls / ops"),
    Metric("bft.ordered_ops", "count", "lower", "sim",
           "ops through the ordered log (committed_ops / replicas, summed over shards)"),
    Metric("bft.ordered_frac", "share", "lower", "sim", "ordered ops / ops completed"),
    Metric("bft.events_per_op", "count", "lower", "sim", "traced bft.events / ops completed"),
    Metric("bft.batch_mean", "count", "higher", "sim", "mean requests per proposed batch"),
    Metric("bft.inflight_peak", "count", "lower", "sim",
           "max proposals in flight on any shard at slice ends"),
    Metric("bft.view_changes", "count", "lower", "sim", "view-change counter, all shards"),
    Metric("bft.reads_local", "count", "higher", "sim", "reads served from a lease"),
    Metric("bft.reads_quorum_fallback", "count", "lower", "sim",
           "lease reads refused by the target (no covering lease)"),
    Metric("bft.lease_fallbacks", "count", "lower", "sim", "router fallbacks to the quorum read path"),
    Metric("bft.lease_revoked", "count", "lower", "sim", "lease revocations (write-through)"),
    Metric("shard.ops_imbalance", "share", "lower", "sim", "max / mean of per-shard completed ops"),
    Metric("shard.timeouts", "count", "lower", "sim", "router sub-operation timeouts"),
    Metric("shard.rejected_degraded", "count", "lower", "sim", "router fast-fails on a degraded shard"),
    Metric("shard.degraded_transitions", "count", "lower", "sim", "health-monitor live->degraded flips"),
    Metric("shard.detect_ms", "sim-ms", "lower", "sim",
           "kill_shard -> directory marks the shard degraded (0 when nothing is killed)"),
    Metric("shard.unavail_ms", "sim-ms", "lower", "sim",
           "longest run of 250-ms slices in which a live-listed shard completed "
           "nothing (after its first completion), max over shards"),
    Metric("mesoscale.offered", "count", "higher", "sim", "ops the populations generated"),
    Metric("mesoscale.admitted", "count", "higher", "sim", "ops submitted to a router"),
    Metric("mesoscale.shed_queue_full", "count", "lower", "sim", "demand shed: backlog at queue_limit"),
    Metric("mesoscale.shed_degraded", "count", "lower", "sim", "demand shed: shard degraded"),
    Metric("mesoscale.shed_throttled", "count", "lower", "sim", "demand shed: threat-level throttle"),
    Metric("mesoscale.failed_frac", "share", "lower", "sim", "1 - served_frac"),
    Metric("mesoscale.backlog_peak", "count", "lower", "sim", "max total backlog at slice ends"),
    Metric("mesoscale.backlog_wait_ms", "sim-ms", "lower", "sim",
           "Little's-law wait before router submit: sum(backlog x slice) / ops issued"),
    Metric("mesoscale.unfinished_end", "count", "lower", "sim", "backlog + in flight at window end"),
    Metric("mesoscale.attach_bytes", "B", "lower", "host",
           "tracemalloc growth across the two attach_population calls (traced pass)"),
]

_PROBES: List[Metric] = [
    Metric("sim.probe_events_per_s", "1/s", "higher", "host",
           "80k self-rescheduling no-op events over 4096 pending timers"),
    Metric("sim.probe_cancel_events_per_s", "1/s", "higher", "host",
           "same, every firing also re-arms a timeout and cancels the previous one"),
    Metric("noc.probe_stream_packets_per_s", "1/s", "higher", "host",
           "12x12 corner-to-corner closed loop (express effective)"),
    Metric("noc.probe_contended_packets_per_s", "1/s", "higher", "host",
           "64 concurrent flows on 8x8 (express rarely batches: the service-path shape)"),
    Metric("crypto.probe_auth_per_s", "1/s", "higher", "host",
           "Authenticator.create over 3 recipients + 3 verify, 256-B payload"),
    Metric("hybrids.probe_usig_per_s", "1/s", "higher", "host", "Usig.create_ui + verify_ui"),
    Metric("bft.probe_minbft_commits_per_wall_s", "1/s", "higher", "host",
           "one f=1 MinBFT group on 6x6, 4 closed-loop clients: the no-sharding baseline"),
    Metric("bft.probe_pbft_commits_per_wall_s", "1/s", "higher", "host", "same for PBFT"),
    Metric("shard.probe_lookups_per_s", "1/s", "higher", "host", "ShardDirectory.shard_for, 100k keys"),
    Metric("campaign.probe_trials_per_wall_s", "1/s", "higher", "host",
           "builtin faultspace campaign, 60 short trials, inline executor + store + summary"),
    Metric("campaign.probe_store_appends_per_s", "1/s", "higher", "host",
           "2k ResultStore.append + reopen/resume scan"),
]

_HOST: List[Metric] = [
    Metric("host.nproc", "count", "higher", "host", "os.cpu_count()"),
    Metric("host.calib_s", "s", "lower", "host",
           "mean of the calibration snippets interleaved with the window (10 ms = reference speed)"),
    Metric("trace.overhead_frac", "share", "lower", "host", "traced window wall / untraced - 1"),
]


def _layer_metrics() -> List[Metric]:
    out = []
    for layer in LAYERS:
        out += [
            Metric(f"{layer}.events", "count", "lower", "sim",
                   f"kernel events whose handler belongs to {layer} (traced pass, exact)"),
            Metric(f"{layer}.self_s", "s", "lower", "host",
                   f"wall seconds inside {layer} spans minus their child spans"
                   + ("; plus the kernel itself: window wall minus all event spans"
                      if layer == "sim" else "")),
            Metric(f"{layer}.self_frac", "share", "lower", "host",
                   f"{layer}.self_s / traced window wall"),
        ]
    return out


PER_LAYER: List[Metric] = _layer_metrics() + _COUNTS + _PROBES + _HOST


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and extremes of a sample, as the result file stores them."""
    values = sorted(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }


def spread(stats: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
