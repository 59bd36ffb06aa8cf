"""What a replica retains does not grow with how long it has been running.

Deterministic proxies for the benchmark's ``peak_rss_mb`` (no RSS here):
collection sizes and live-object counts after N and 4N requests, late
votes that must not resurrect a dropped entry, fault scenarios that run on
truncated logs, and a ``tracemalloc`` budget over a steady-state window so
a re-introduced per-slot or per-sample leak fails tier-1.
"""

import gc
import tracemalloc

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, SafetyRecorder, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.bft.messages import (
    Append,
    AppendAck,
    ClientRequest,
    CommitNotice,
    MbCommit,
    MbPrepare,
)
from repro.bft.minbft import _MbSlot
from repro.bft.pbft import PbftReplica
from repro.bft.replica import BaseReplica
from repro.crypto import mac
from repro.faults import make_strategy
from repro.hybrids.usig import UI
from repro.mesoscale import PopulationConfig
from repro.shard import ShardConfig, ShardedSystem
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import kv_workload

PROTOCOLS = ["minbft", "cft", "pbft", "passive"]
BATCHING = BatchConfig(8, batch_delay=100.0, max_inflight=4)
OUTSTANDING = 8  # open-loop client pipeline in the batched mode
SLACK = 4


def build(protocol, batched, n_requests):
    config = None
    if batched:
        config = protocol_config_for(protocol, batching=BATCHING, leases=LeaseConfig())
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=config)
    )
    client = ClientNode("c0", ClientConfig(
        think_time=50, timeout=20_000, max_requests=n_requests,
        max_outstanding=OUTSTANDING if batched else 1,
    ))
    group.attach_client(client)
    return sim, group, client


def agreement_state(replica):
    """Sizes of every per-sequence collection the replica's protocol keeps."""
    sizes = {"pending_execution": len(replica._pending_execution)}
    for attr in ("_slots", "_ready", "_log", "_acks", "_buffered"):
        if hasattr(replica, attr):
            sizes[attr] = len(getattr(replica, attr))
    return sizes


def peak_agreement_state(protocol, batched, n_requests):
    """Run ``n_requests`` to completion; the largest size each collection
    reached on any replica, sampled every 500 sim-ms and at the end."""
    sim, group, client = build(protocol, batched, n_requests)
    peak = {}

    def sample():
        for replica in group.replicas.values():
            for attr, size in agreement_state(replica).items():
                peak[attr] = max(peak.get(attr, 0), size)
        if client.completed < n_requests:
            sim.schedule(500.0, sample)

    client.start()
    sim.schedule(500.0, sample)
    sim.run(until=4_000_000)
    assert client.completed == n_requests
    assert group.safety.is_safe
    sample()
    return peak


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched+leases"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_agreement_state_is_bounded_by_the_window_not_the_run(protocol, batched):
    n = 120
    # Requests in flight bound the entries in flight (one per request
    # unbatched); PBFT additionally keeps up to two checkpoint intervals.
    window = (OUTSTANDING if batched else 1) + SLACK
    if protocol == "pbft":
        window += 2 * PbftReplica.CHECKPOINT_INTERVAL
    short = peak_agreement_state(protocol, batched, n)
    long = peak_agreement_state(protocol, batched, 4 * n)
    assert short.keys() == long.keys()
    for attr in long:
        assert short[attr] <= window, (attr, short)
        assert long[attr] <= window, (attr, long)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_recorder_and_the_log_above_the_checkpoint_are_bounded_over_a_long_run(protocol):
    """10⁶ sim-ms of a closed-loop client: the safety recorder keeps the
    seqs above its low-watermark (the lowest ``last_executed`` of the
    group at the last checkpoint), a member the log above its checkpoint."""
    sim, group, client = build(protocol, batched=False, n_requests=None)
    client.config.think_time = 200
    interval = BaseReplica.CHECKPOINT_INTERVAL
    peak = {"recorder": 0, "log": 0}

    def sample():
        peak["recorder"] = max(peak["recorder"], len(group.safety._committed))
        for replica in group.replicas.values():
            peak["log"] = max(peak["log"], len(replica._executed_log))
        sim.schedule(1_000.0, sample)

    client.start()
    sim.schedule(1_000.0, sample)
    sim.run(until=1_000_000)
    assert client.completed > 10 * interval  # the run crossed many checkpoints
    assert group.safety.is_safe
    assert peak["log"] < interval
    assert peak["recorder"] <= interval + SLACK


def test_the_recorder_drops_only_what_every_member_passed_and_checks_above_it():
    safety = SafetyRecorder()
    members = ["a", "b", "c"]
    for seq in range(1, 11):
        safety.record_commit("a", seq, b"%d" % seq)
    for seq in range(1, 7):
        safety.record_commit("b", seq, b"%d" % seq)
    safety.checkpoint(members)  # c, crashed at the start, has executed nothing
    assert sorted(safety._committed) == list(range(1, 11))
    for seq in range(1, 5):
        safety.record_commit("c", seq, b"%d" % seq)
    safety.checkpoint(members)
    assert sorted(safety._committed) == list(range(5, 11))
    assert safety.highest_committed == 10 and safety.is_safe
    # c's next commit lies above the watermark: a conflicting one is caught.
    safety.record_commit("c", 5, b"other")
    assert [(v.kind, v.seq) for v in safety.violations] == [("agreement", 5)]


def _live(*types):
    gc.collect()
    counts = dict.fromkeys(types, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched+leases"])
def test_minbft_live_objects_do_not_scale_with_requests(batched):
    def after(n_requests):
        sim, group, client = build("minbft", batched, n_requests)
        client.start()
        sim.run(until=4_000_000)
        assert client.completed == n_requests
        return _live(_MbSlot, MbPrepare, UI)  # group still referenced here

    short, long = after(100), after(400)
    for kind in short:
        # Anything per-request would add hundreds; a handful of messages
        # parked in reply caches / hold-back queues may differ.
        assert long[kind] <= short[kind] + 8, (kind.__name__, short, long)
        assert long[kind] <= 40, (kind.__name__, long)


# ----------------------------------------------------------------------
# Late votes for an executed sequence number
# ----------------------------------------------------------------------
def test_minbft_late_commit_does_not_recreate_the_slot():
    sim, group, client = build("minbft", batched=False, n_requests=20)
    client.start()
    sim.run(until=1_000_000)
    assert client.completed == 20
    backup = group.replicas[group.members[1]]
    primary = group.members[0]
    assert backup._slots == {} and backup._exec_cursor is not None
    executed = backup._exec_cursor - 1
    executed_before = backup.app.ops_executed
    late = MbCommit(
        backup.view, group.members[2], UI(primary, executed, b"m" * 16),
        b"d" * 32, UI(group.members[2], 999, b"m" * 16),
    )
    backup._handle_commit(group.members[2], late)
    assert backup._slots == {} and backup._ready == {}
    assert backup.app.ops_executed == executed_before
    # The live window is untouched: a vote at the cursor still opens a slot.
    ahead = MbCommit(
        backup.view, group.members[2], UI(primary, backup._exec_cursor, b"m" * 16),
        b"d" * 32, UI(group.members[2], 1000, b"m" * 16),
    )
    backup._handle_commit(group.members[2], ahead)
    assert list(backup._slots) == [backup._exec_cursor]


def test_cft_late_ack_recreates_nothing_and_still_announces_the_commit():
    sim, group, client = build("cft", batched=False, n_requests=20)
    client.start()
    sim.run(until=1_000_000)
    assert client.completed == 20
    leader = group.replicas[group.members[0]]
    assert leader.is_primary and leader.last_executed > 0
    assert leader._log == {} and leader._acks == {}
    sent = []
    leader.broadcast = lambda dests, message, size: sent.append(message)
    executed = leader.last_executed - 3
    leader._handle_ack(group.members[2], AppendAck(leader.view, executed, group.members[2]))
    assert leader._log == {} and leader._acks == {}
    assert sent == [CommitNotice(leader.view, leader.last_executed, leader.name)]
    # A follower asked to re-log what it already executed acks without keeping it.
    follower = group.replicas[group.members[1]]
    replies = []
    follower.send = lambda dest, message, size: replies.append(message)
    relog = Append(leader.view, executed, ClientRequest("c0", 1, ("get", "k")), leader.name)
    follower._handle_append(leader.name, relog)
    assert follower._log == {}
    assert replies == [AppendAck(leader.view, executed, follower.name)]


def test_a_cft_follower_that_syncs_across_a_hole_keeps_nothing_it_executed():
    """A follower misses the APPEND for seq 10 and the commit notices up
    to 14, so it logs 11–15 above a hole: the commit point passing the
    hole makes it sync, and the replayed log executes past entries it
    holds; those go with the round."""
    sim, group, client = build("cft", batched=False, n_requests=40)
    follower = group.replicas[group.members[1]]
    handlers = follower._peer_handlers
    append, notice = handlers[Append], handlers[CommitNotice]
    handlers[Append] = lambda sender, message: (
        None if message.seq == 10 else append(sender, message)
    )
    handlers[CommitNotice] = lambda sender, message: (
        None if 10 <= message.seq < 15 else notice(sender, message)
    )
    held = []

    def sample():
        held.extend(seq for seq in follower._log if seq <= follower.last_executed)
        if client.completed < 40:
            sim.schedule(50.0, sample)

    client.start()
    sim.schedule(50.0, sample)
    sim.run(until=1_000_000)
    assert client.completed == 40 and group.safety.is_safe
    assert follower.state_syncs >= 1 and follower.last_executed == 40
    assert held == [] and follower._log == {} and follower._acks == {}


# ----------------------------------------------------------------------
# Faults on truncated logs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched+leases"])
@pytest.mark.parametrize("protocol", ["minbft", "cft"])
def test_view_change_recovery_and_state_transfer_on_truncated_logs(protocol, batched):
    n = 300
    sim, group, client = build(protocol, batched, n)
    old_primary = group.replicas[group.members[0]]
    client.start()
    sim.schedule_at(20_000, group.crash, old_primary.name)
    sim.schedule_at(150_000, old_primary.recover)
    sim.run(until=6_000_000)
    assert client.completed == n
    assert group.safety.is_safe and not group.safety.violations
    survivors = [group.replicas[m] for m in group.members[1:]]
    assert all(r.view >= 1 for r in survivors)  # the view change happened
    assert old_primary.state_syncs >= 1  # ... and it caught up by state transfer
    assert len({r.app.state_digest() for r in group.replicas.values()}) == 1
    assert len({r.last_executed for r in group.replicas.values()}) == 1
    for replica in group.replicas.values():
        for attr, size in agreement_state(replica).items():
            assert size <= OUTSTANDING + SLACK, (replica.name, attr, size)


def test_minbft_new_view_reusing_an_executed_usig_counter_is_not_shadowed():
    """A MinBFT sequence number is the primary's USIG counter, and the
    counters of different primaries overlap.  r1 misses 20 000 sim-ms of
    view 0, so its counter (one per COMMIT it sent) trails r0's (one per
    PREPARE); when r0 crashes, r1 leads view 1 with numbers view 0 has
    executed.  A slot kept under such a number across the view change
    shadowed the new PREPARE — the backup never voted and the group sat
    out another view timeout (602 -> 1066 completed ops in the churn run
    that found it; fails at 76f5517, the parent of PR 16)."""
    view_timeout = 8_000.0
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(
        protocol="minbft", f=1, group_id="g",
        protocol_config=protocol_config_for("minbft", view_timeout=view_timeout),
    ))
    client = ClientNode("c0", ClientConfig(think_time=50, timeout=20_000))
    group.attach_client(client)
    client.start()
    r0, r1, r2 = (group.replicas[name] for name in group.members)
    sim.schedule_at(10_000, r1.crash)
    sim.schedule_at(30_000, r1.recover)
    sim.run(until=60_000)
    executed_in_view_0 = r2.last_executed
    assert r1.last_executed == executed_in_view_0  # r1 caught up, but its
    assert r1.usig.peek_counter() + 10 < executed_in_view_0  # counter did not
    r0.crash()
    sim.run(until=92_000)  # client timeout, one progress timeout, the view change
    view_changes = chip.metrics.counter("g.view_changes").value
    assert (r1.view, r2.view, view_changes) == (1, 1, 2)
    # Both survivors commit under the reused numbers, in view 1, at once.
    assert min(r1.last_executed, r2.last_executed) > executed_in_view_0 + 5
    sim.run(until=92_000 + 4 * view_timeout)
    assert (r1.view, r2.view) == (1, 1)
    assert chip.metrics.counter("g.view_changes").value == view_changes
    assert client.completed > executed_in_view_0 + 50
    assert group.safety.is_safe and not group.safety.violations


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched+leases"])
def test_minbft_equivocating_backup_on_truncated_logs(batched):
    n = 300
    sim, group, client = build("minbft", batched, n)
    client.start()
    strategy = make_strategy("equivocate", sim.rng.stream("bounded"))
    sim.schedule_at(20_000, group.compromise, group.members[1], strategy)
    sim.run(until=6_000_000)
    assert client.completed == n
    assert group.safety.is_safe and not group.safety.violations
    for replica in group.correct_replicas():
        assert len(replica._slots) <= OUTSTANDING + SLACK


# ----------------------------------------------------------------------
# Retained bytes over a steady-state window
# ----------------------------------------------------------------------
WINDOW_MS = 100_000.0
#: Retained-growth budget for the second window.  What legitimately grows
#: is samples at 8 B each (two per completion in the population; one per
#: NoC packet, routed sub-request and batch in histograms); the
#: SafetyRecorder's committed map grew too until it got its low-watermark
#: (on 3.11: 111 476 B before, -14 783 B after; 0.28 MB on 3.9-3.13 when
#: this budget was set).
#: Either leak this guards against fails it alone: a slot per sequence
#: number made it 1.19 MB, a boxed float per sample 0.76 MB, both 1.67 MB.
BUDGET_BYTES = 500_000


def _retained_bytes():
    """Traced bytes still live.  The request-digest memo is a bounded
    process-wide cache that empties itself when full; emptied here so the
    figure does not depend on where in its cycle earlier tests left it."""
    mac._DIGEST_MEMO.clear()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_retained_bytes_over_a_steady_window_stay_under_budget():
    # Traced from before the build: growing a block allocated before
    # tracing started would count its whole new size as retained.
    tracemalloc.start()
    try:
        system = ShardedSystem(ShardConfig(
            seed=7, width=6, height=6, n_shards=2, protocol="minbft", f=1,
            enable_rejuvenation=False,
            protocol_config=protocol_config_for(
                "minbft", batching=BATCHING,
                leases=LeaseConfig(n_ranges=64, duration=30_000.0, renew_period=1_000.0),
            ),
        ))
        system.attach_population("pop", PopulationConfig(
            n_clients=100_000, tick=100.0, max_inflight=64, queue_limit=2048,
            workload=kv_workload(
                keys=128, read_ratio=0.5, rate_per_client=20.0 / 1000.0 / 100_000
            ),
        ))
        system.start(warmup=20_000.0)
        system.run(WINDOW_MS)  # caches, leases and reply windows fill
        population = system.populations[0]
        completed, before = population.completed, _retained_bytes()
        system.run(WINDOW_MS)
        grown = _retained_bytes() - before
    finally:
        tracemalloc.stop()
    assert population.completed - completed > 1_500  # the window did real work
    assert system.is_safe
    assert grown <= BUDGET_BYTES, f"{grown} B retained over {WINDOW_MS:g} sim-ms"
