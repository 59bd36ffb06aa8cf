"""Consensus hot path: batching, pipelining, and open-loop clients.

Covers the P2 machinery end-to-end:

* batch_size=1 is *exactly* the legacy protocol (event-identical runs);
* real batches order many requests per agreement round, converge, and
  survive primary crashes / view changes;
* open-loop clients keep a window outstanding and complete everything;
* the bounded execution ledger keeps replay semantics (satellite 1);
* checkpoint log truncation composed with a view change neither
  resurrects truncated slots nor re-executes operations (satellite 3).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchAccumulator, BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.messages import (
    ClientReply,
    ClientRequest,
    RequestBatch,
    proposal_digest,
    proposal_keys,
    requests_of,
)
from repro.bft.pbft import PbftReplica
from repro.bft.replica import ExecutionLedger
from repro.crypto.mac import digest
from repro.metrics.registry import MetricsRegistry
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.soc.node import NodeState

ALL_PROTOCOLS = ["pbft", "minbft", "cft", "passive"]
LEADER_PROTOCOLS = ["pbft", "minbft", "cft"]


def build(protocol, f=1, seed=1, width=5, height=5, client_cfg=None, protocol_config=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=width, height=height))
    group = build_group(
        chip,
        GroupConfig(protocol=protocol, f=f, group_id="g", protocol_config=protocol_config),
    )
    client = ClientNode("c0", client_cfg or ClientConfig(think_time=50, timeout=20_000))
    group.attach_client(client)
    return sim, chip, group, client


def run_workload(protocol, protocol_config=None, max_outstanding=1, n_requests=30,
                 seed=1, until=1_500_000):
    cfg = ClientConfig(
        think_time=50, timeout=20_000,
        max_requests=n_requests, max_outstanding=max_outstanding,
    )
    sim, chip, group, client = build(
        protocol, seed=seed, client_cfg=cfg, protocol_config=protocol_config
    )
    client.start()
    sim.run(until=until)
    return sim, chip, group, client


# ----------------------------------------------------------------------
# Exactness: batch_size=1 through the machinery == the legacy code path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_batch_size_one_is_event_identical(protocol):
    legacy = run_workload(protocol, protocol_config=None)
    forced = run_workload(
        protocol, protocol_config=protocol_config_for(protocol, BatchConfig(batch_size=1))
    )
    sim_a, _, group_a, client_a = legacy
    sim_b, _, group_b, client_b = forced
    assert client_a.completed == client_b.completed == 30
    assert sim_a.now == sim_b.now
    assert sim_a.events_fired == sim_b.events_fired
    assert client_a.latencies == client_b.latencies
    digests_a = [r.app.state_digest() for r in group_a.correct_replicas()]
    digests_b = [r.app.state_digest() for r in group_b.correct_replicas()]
    assert digests_a == digests_b


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(batch_size=0)
    with pytest.raises(ValueError):
        BatchConfig(batch_delay=-1)
    with pytest.raises(ValueError):
        ClientConfig(max_outstanding=0)
    with pytest.raises(ValueError):
        RequestBatch((ClientRequest("c", 0, "op"),))  # batches carry >= 2


def test_proposal_digest_matches_bare_request_digest():
    request = ClientRequest("c0", 3, ("put", "k", 1))
    assert proposal_digest(request) == digest((request.client, request.rid, request.op))
    batch = RequestBatch((request, ClientRequest("c1", 0, ("get", "k"))))
    assert proposal_digest(batch) != proposal_digest(request)
    assert requests_of(batch) == batch.requests
    assert requests_of(request) == (request,)


# ----------------------------------------------------------------------
# Real batching: correctness and convergence under load
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_batched_open_loop_executes_everything(protocol):
    batching = BatchConfig(batch_size=4, batch_delay=100, max_inflight=4)
    sim, chip, group, client = run_workload(
        protocol,
        protocol_config=protocol_config_for(protocol, batching),
        max_outstanding=8,
        n_requests=60,
    )
    assert client.completed == 60
    assert group.safety.is_safe
    digests = {r.app.state_digest() for r in group.correct_replicas()}
    assert len(digests) == 1
    # The batch histogram saw real batches on the primary.
    hist = chip.metrics.histogram("g.batch.size")
    assert hist.count > 0
    assert max(hist.values()) > 1
    # committed_ops counts operations, not rounds: every replica applied
    # each of the 60 ops exactly once.
    n_correct = len(group.correct_replicas())
    assert chip.metrics.counter("g.committed_ops").value == 60 * n_correct
    assert sum(r.app.ops_executed for r in group.replicas.values()) == 60 * n_correct


def test_batching_fewer_rounds_than_ops():
    batching = BatchConfig(batch_size=8, batch_delay=100, max_inflight=4)
    sim, chip, group, client = run_workload(
        "minbft",
        protocol_config=protocol_config_for("minbft", batching),
        max_outstanding=16,
        n_requests=64,
    )
    assert client.completed == 64
    # Sequence numbers advanced far less than one per operation.
    primary = group.replicas[group.members[0]]
    assert primary.last_executed < 40
    assert chip.metrics.gauge("g.inflight").peak >= 2  # pipelined
    assert chip.metrics.gauge("g.inflight").value == 0  # drained at the end


def test_open_loop_client_is_faster_than_closed_loop():
    closed = run_workload("minbft", n_requests=40, until=3_000_000)
    open_ = run_workload("minbft", n_requests=40, max_outstanding=8, until=3_000_000)
    assert closed[3].completed == open_[3].completed == 40
    # Same work, wider window: the open loop finishes strictly earlier.
    assert open_[3]._completion_times[-1] < closed[3]._completion_times[-1]


# ----------------------------------------------------------------------
# Faults under batched load
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", LEADER_PROTOCOLS)
def test_batched_primary_crash_recovers_liveness(protocol):
    batching = BatchConfig(batch_size=4, batch_delay=100, max_inflight=4)
    cfg = ClientConfig(think_time=50, timeout=20_000, max_outstanding=8)
    sim, chip, group, client = build(
        protocol, client_cfg=cfg, protocol_config=protocol_config_for(protocol, batching)
    )
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.run(until=3_000_000)
    assert client.completed > 100
    assert group.safety.is_safe
    client.stop()
    sim.run(until=sim.now + 500_000)  # drain in-flight rounds
    digests = {r.app.state_digest() for r in group.correct_replicas()}
    assert len(digests) == 1


def test_batched_backup_recovery_catches_up():
    batching = BatchConfig(batch_size=4, batch_delay=100, max_inflight=4)
    cfg = ClientConfig(think_time=50, timeout=20_000, max_outstanding=8)
    sim, chip, group, client = build(
        "minbft", client_cfg=cfg, protocol_config=protocol_config_for("minbft", batching)
    )
    client.start()
    victim = group.members[1]
    sim.schedule_at(40_000, group.crash, victim)
    sim.schedule_at(120_000, group.replicas[victim].recover)
    sim.run(until=1_200_000)
    client.stop()
    sim.run(until=sim.now + 400_000)
    assert group.safety.is_safe
    recovered = group.replicas[victim]
    primary = group.replicas[group.members[0]]
    assert recovered.last_executed == primary.last_executed
    assert recovered.app.state_digest() == primary.app.state_digest()


# ----------------------------------------------------------------------
# Satellite 3: checkpoint log truncation x view change
# ----------------------------------------------------------------------
def test_pbft_truncated_slots_stay_dead_across_view_change(monkeypatch):
    monkeypatch.setattr(PbftReplica, "CHECKPOINT_INTERVAL", 8)
    cfg = ClientConfig(think_time=50, timeout=20_000)
    sim, chip, group, client = build("pbft", client_cfg=cfg)
    client.start()
    sim.schedule_at(120_000, group.crash, group.members[0])  # force a view change
    sim.run(until=2_000_000)
    assert client.completed > 60  # checkpoints fired both sides of the switch
    assert group.safety.is_safe
    for replica in group.correct_replicas():
        assert replica.view > 0  # the view change actually happened
        assert replica._stable_seq > 0  # truncation actually happened
        # No slot at or below the stable checkpoint was resurrected by
        # the new view's re-proposals.
        assert all(seq > replica._stable_seq for (_, seq) in replica._slots)
    # No re-execution: each op applied once per live correct replica.
    executions = sum(r.app.ops_executed for r in group.replicas.values())
    assert executions <= client.completed * len(group.members)


def test_pbft_batched_checkpoint_view_change_consistent(monkeypatch):
    monkeypatch.setattr(PbftReplica, "CHECKPOINT_INTERVAL", 8)
    config = protocol_config_for(
        "pbft", BatchConfig(batch_size=4, batch_delay=100, max_inflight=4)
    )
    cfg = ClientConfig(think_time=50, timeout=20_000, max_outstanding=8)
    sim, chip, group, client = build("pbft", client_cfg=cfg, protocol_config=config)
    client.start()
    sim.schedule_at(120_000, group.crash, group.members[0])
    sim.run(until=2_500_000)
    assert client.completed > 60
    assert group.safety.is_safe
    digests = {r.app.state_digest() for r in group.correct_replicas()}
    assert len(digests) == 1
    for replica in group.correct_replicas():
        assert all(seq > replica._stable_seq for (_, seq) in replica._slots)


# ----------------------------------------------------------------------
# The admission check's O(1) index == the scan of every slot it replaced
# ----------------------------------------------------------------------
def _scan_under_agreement(replica, key):
    """The original admission check: walk every slot / log entry."""
    if hasattr(replica, "_log"):  # cft
        return any(
            e.seq > replica._committed_seq and key in proposal_keys(e.request)
            for e in replica._log.values()
        )
    slots, bound = replica._slots.values(), "prepare"
    if isinstance(replica, PbftReplica):
        # PBFT keeps old-view slots for its VIEW-CHANGE, but orders nothing in them.
        slots = [slot for (view, _), slot in replica._slots.items() if view == replica.view]
        bound = "pre_prepare"
    return any(
        getattr(slot, bound) is not None
        and not slot.committed
        and key in proposal_keys(getattr(slot, bound).request)
        for slot in slots
    )


@pytest.mark.parametrize("protocol", LEADER_PROTOCOLS)
def test_admission_check_equals_slot_scan(protocol, monkeypatch):
    monkeypatch.setattr(PbftReplica, "CHECKPOINT_INTERVAL", 8)
    config = protocol_config_for(
        protocol, BatchConfig(batch_size=4, batch_delay=100, max_inflight=4)
    )
    cfg = ClientConfig(think_time=50, timeout=20_000, max_outstanding=8)
    sim, chip, group, client = build(protocol, client_cfg=cfg, protocol_config=config)
    answers = {True: 0, False: 0}
    recent = {}  # the last requests any replica waited on: pending, then committed

    def probe_recent_requests(event):
        # Not only the requests that happen to reach admission: every
        # recently pending request, asked of every replica, on every 200th
        # event — across the crash, the view change and (PBFT) the
        # checkpoint truncations.
        if sim.events_fired % 200:
            return
        for replica in group.replicas.values():
            recent.update(replica._pending_requests)
        for key in list(recent)[:-24]:
            del recent[key]
        for replica in group.replicas.values():
            for request in recent.values():
                answer = replica._already_ordering(request)
                assert answer == _scan_under_agreement(replica, request.key())
                answers[answer] += 1

    sim.add_trace_hook(probe_recent_requests)
    client.start()
    # Mute the primary instead of crashing it: it keeps binding proposals
    # that can never commit, so the view change (and, for PBFT, the next
    # checkpoints) must drop *uncommitted* slots from the index.
    group.replicas[group.members[0]].add_outbound_filter(
        lambda dst, message: None if 120_000 <= sim.now < 400_000 else message
    )
    sim.run(until=650_000)
    assert client.completed > 60 and group.safety.is_safe
    assert answers[True] > 200 and answers[False] > 200  # both outcomes exercised
    for replica in group.correct_replicas():
        assert replica.view > 0  # the view change happened
        if protocol == "pbft":
            assert replica._stable_seq > 0  # and so did checkpoint truncation


# ----------------------------------------------------------------------
# Satellite 1: the bounded execution ledger
# ----------------------------------------------------------------------
def test_execution_ledger_basic_replay_semantics():
    ledger = ExecutionLedger(window=8)
    assert not ledger.contains("c0", 0)
    ledger.add("c0", 0)
    assert ledger.contains("c0", 0)
    assert not ledger.contains("c0", 1)
    assert not ledger.contains("c1", 0)
    assert len(ledger) == 1  # one tracked client


def test_execution_ledger_out_of_order_window():
    ledger = ExecutionLedger(window=8)
    for rid in (5, 3, 7, 4, 6):
        ledger.add("c0", rid)
    for rid in (3, 4, 5, 6, 7):
        assert ledger.contains("c0", rid)
    assert not ledger.contains("c0", 2)  # inside the window, never executed
    assert not ledger.contains("c0", 8)


def test_execution_ledger_ancient_rids_report_executed():
    ledger = ExecutionLedger(window=8)
    for rid in range(100):
        ledger.add("c0", rid)
    # Far below the high-watermark window: treated as executed (replay).
    assert ledger.contains("c0", 0)
    assert ledger.contains("c0", 91)
    assert ledger.contains("c0", 99)
    assert not ledger.contains("c0", 100)
    # The recent set is pruned: bounded by 2x the window, not by history.
    assert len(ledger._recent["c0"]) <= 2 * ledger.window


def test_execution_ledger_export_restore_roundtrip():
    ledger = ExecutionLedger(window=8)
    for rid in (0, 1, 2, 5):
        ledger.add("c0", rid)
    ledger.add("c1", 9)
    restored = ExecutionLedger.restore(ledger.export(), window=8)
    for client, rid in (("c0", 0), ("c0", 5), ("c1", 9)):
        assert restored.contains(client, rid)
    assert not restored.contains("c0", 3)
    assert not restored.contains("c0", 4)
    assert not restored.contains("c1", 8)


def test_replica_reply_cache_bounded_per_client():
    sim, chip, group, client = run_workload("minbft", n_requests=100, max_outstanding=4,
                                            until=3_000_000)
    assert client.completed == 100
    primary = group.replicas[group.members[0]]
    cache = primary._last_reply["c0"]
    assert len(cache) <= primary.REPLY_CACHE_SIZE
    assert max(cache) == 99  # the newest replies are retained
    # The ledger still answers replay checks for every historical rid.
    for rid in (0, 50, 99):
        assert primary.already_executed(ClientRequest("c0", rid, ("get", "k0")))


def cache_reply_by_scanning(caches, size, reply):
    """The eviction ``_cache_reply`` replaced, kept as its reference."""
    cache = caches.setdefault(reply.client, {})
    cache[reply.rid] = reply
    while len(cache) > size:
        del cache[min(cache)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        # (client, how, n): rid n steps from the client's newest (mostly
        # ahead, sometimes a duplicate or a little behind), or rid n itself.
        st.tuples(st.sampled_from("abc"), st.sampled_from(["step", "step", "step", "at"]),
                  st.integers(-3, 6)),
        max_size=400,
    ),
    st.sampled_from([1, 5, 64]),
)
def test_reply_cache_in_rid_order_evicts_what_scanning_for_the_minimum_did(stream, size):
    _, _, group, _ = build("minbft")
    replica = group.replicas[group.members[0]]
    replica.REPLY_CACHE_SIZE = size
    resent = []
    replica.send = lambda dst, message, size_bytes: resent.append(message)
    reference, newest = {}, {}
    for client, how, n in stream:
        rid = max(0, n + (newest.get(client, 0) if how == "step" else 3))
        newest[client] = max(rid, newest.get(client, 0))
        reply = ClientReply(replica.name, client, rid, ("ok", len(resent)), 0)
        replica._cache_reply(reply)
        cache_reply_by_scanning(reference, size, reply)
        assert replica._last_reply == reference
        assert all(list(c) == sorted(c) for c in replica._last_reply.values())
    for client, cache in reference.items():
        for rid in range(min(cache) - 2, max(cache) + 3):
            resent.clear()
            answered = replica.resend_cached_reply(ClientRequest(client, rid, ("get", "k")))
            assert answered == (rid in cache) and resent == ([cache[rid]] if answered else [])
    # State transfer keeps the order, so the receiver evicts correctly too.
    _, _, other_group, _ = build("minbft")
    receiver = other_group.replicas[other_group.members[1]]
    receiver.REPLY_CACHE_SIZE = size
    receiver.import_state(replica.export_state())
    assert receiver._last_reply == reference
    assert all(list(c) == sorted(c) for c in receiver._last_reply.values())
    for client in reference:
        reply = ClientReply(replica.name, client, max(reference[client]) + 1, "next", 0)
        receiver._cache_reply(reply)
        cache_reply_by_scanning(reference, size, reply)
    assert receiver._last_reply == reference


# ----------------------------------------------------------------------
# Accumulator unit behaviour
# ----------------------------------------------------------------------
def test_accumulator_pools_under_full_window():
    """While the in-flight window is full, requests pool and later cuts
    are fuller — the property the P2 speedup rides on."""
    sim, chip, group, _ = build("minbft")
    primary = group.replicas[group.members[0]]
    proposed = []
    acc = BatchAccumulator(
        primary, BatchConfig(batch_size=3, max_inflight=1),
        lambda proposal: proposed.append(proposal) or True,
    )
    for rid in range(7):
        acc.add(ClientRequest("cx", rid, ("put", "k", rid)))
    # Window of 1: the first cut went out (partial is impossible here —
    # size bound met at rid=2), the rest pooled.
    assert len(proposed) == 1
    assert len(acc._open) == 4
    acc.on_committed()  # frees the slot: next cut is a full batch
    assert len(proposed) == 2
    assert len(requests_of(proposed[1])) == 3
    acc.reset()
    assert acc.inflight == 0 and not acc._open and not acc.pending_keys


# ----------------------------------------------------------------------
# The cut rule: a full batch needs window room, a partial one an empty
# pipeline (and its delay due)
# ----------------------------------------------------------------------
def bare_replica():
    """What a BatchAccumulator asks of its replica, on a kernel of its own:
    nothing else schedules, so ``sim.events_fired`` counts the
    accumulator's events."""
    return SimpleNamespace(
        sim=Simulator(seed=1), state=NodeState.OK,
        group=SimpleNamespace(metrics=MetricsRegistry(), group_id="g"),
    )


def accumulator(config, accept=lambda: True):
    replica = bare_replica()
    sim = replica.sim
    proposed = []

    def propose(proposal):
        proposed.append((len(requests_of(proposal)), acc.inflight - 1))
        return accept()

    acc = BatchAccumulator(replica, config, propose)
    rids = iter(range(10_000))
    acc.feed = lambda n=1: [acc.add(ClientRequest("cx", next(rids), ("put", "k", 0))) for _ in range(n)]
    return sim, acc, proposed  # proposed: (batch size, rounds already in flight)


def test_partial_batch_waits_for_an_empty_pipeline():
    sim, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=4))
    acc.feed(4)
    acc.feed(4)
    assert proposed == [(4, 0), (4, 1)]  # full batches: at once, window permitting
    acc.feed(1)
    sim.run(until=50)
    assert len(proposed) == 2  # delay not due, and a round is out
    sim.run(until=150)
    acc.feed(1)
    assert len(proposed) == 2  # delay due: still held behind the rounds in flight
    acc.on_committed()
    assert len(proposed) == 2 and acc.inflight == 1
    acc.on_committed()  # the commit that empties the pipeline
    assert proposed[2:] == [(2, 0)] and not acc._open
    # With nothing in flight a lone request waits exactly its delay.
    acc.on_committed()
    acc.feed(1)
    sim.run(until=sim.now + 99)
    assert len(proposed) == 3
    sim.run(until=sim.now + 1)
    assert proposed[3:] == [(1, 0)]


def test_full_batches_fill_the_window_and_zero_means_unbounded():
    _, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=2))
    acc.feed(13)
    assert proposed == [(4, 0), (4, 1)] and len(acc._open) == 5  # third full batch: no room
    acc.on_committed()
    assert proposed[2:] == [(4, 1)] and len(acc._open) == 1
    _, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=0))
    acc.feed(21)
    assert proposed == [(4, n) for n in range(5)] and len(acc._open) == 1


@pytest.mark.parametrize("refuse", [False, True])
def test_refused_proposal_frees_the_pipeline_for_a_held_partial_batch(refuse):
    accept = [True]
    sim, acc, proposed = accumulator(
        BatchConfig(batch_size=4, batch_delay=100, max_inflight=1), lambda: accept[0]
    )
    acc.feed(9)
    sim.run(until=100)
    assert proposed == [(4, 0)] and len(acc._open) == 5  # window full, delay due
    accept[0] = not refuse
    acc.on_committed()
    if refuse:  # the full batch was dropped, so nothing is in flight: the rest goes
        assert proposed[1:] == [(4, 0), (1, 0)] and acc.inflight == 0
    else:
        assert proposed[1:] == [(4, 0)] and acc.inflight == 1 and len(acc._open) == 1
    assert acc.pending_keys == {r.key() for r in acc._open}


def test_reset_releases_everything_and_disarms_the_timer():
    sim, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=4))
    acc.feed(6)
    sim.run(until=100)  # delay due, held behind the round in flight
    acc.reset()
    assert acc.inflight == 0 and not acc._open and not acc.pending_keys
    acc.feed(1)  # a new era's first request: its own delay, no inherited credit
    assert len(proposed) == 1
    sim.run(until=199)
    assert len(proposed) == 1
    sim.run(until=200)
    assert proposed[1:] == [(1, 0)]


def test_flush_dispatches_partial_batches_without_waiting():
    """View installation re-batches every pending request and must not
    wait on a delay: flush is bounded by the window only."""
    sim, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=4))
    acc.feed(4)
    acc.feed(2)
    acc.flush()
    assert proposed == [(4, 0), (2, 1)] and sim.now == 0
    _, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=2))
    acc.feed(11)
    acc.flush()
    assert proposed == [(4, 0), (4, 1)] and len(acc._open) == 3  # the remainder pumps out on commits


def test_batch_size_one_schedules_no_event_of_its_own():
    for config in (BatchConfig(batch_size=1), BatchConfig(batch_size=1, max_inflight=2)):
        sim, acc, proposed = accumulator(config)
        acc.feed(5)
        acc.on_committed()
        acc.on_committed()
        sim.run()
        assert sim.events_fired == 0 and sim.now == 0
        assert all(size == 1 for size, _ in proposed)


def test_delay_bound_is_a_deadline_not_a_poll():
    sim, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=4))
    acc.feed(5)  # one round out, one request held behind it
    sim.run(until=1_000)
    assert sim.events_fired == 1  # the deadline; re-arming every delay made this 10
    assert proposed == [(4, 0)]
    acc.on_committed()
    assert proposed[1:] == [(1, 0)]
    sim.run(until=2_000)
    assert sim.events_fired == 1


def test_delay_credit_does_not_outlive_the_pool():
    sim, acc, proposed = accumulator(BatchConfig(batch_size=4, batch_delay=100, max_inflight=1))
    acc.feed(5)
    sim.run(until=100)  # the held request's delay is due
    acc.feed(3)  # ...and now it is part of a full batch, behind a full window
    acc.on_committed()
    assert proposed == [(4, 0), (4, 0)] and not acc._open
    acc.on_committed()
    acc.feed(1)  # a lone request on an idle pipeline: it still waits its own delay
    assert len(proposed) == 2
    sim.run(until=sim.now + 100)
    assert proposed[2:] == [(1, 0)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 8]),
    st.sampled_from([0, 1, 2, 4]),
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(1, 5)),
            st.tuples(st.just("commit"), st.integers(1, 2)),
            st.tuples(st.just("wait"), st.sampled_from([10, 50, 100, 250])),
            st.tuples(st.just("refuse"), st.integers(1, 2)),
            st.tuples(st.just("reset"), st.just(0)),
        ),
        max_size=60,
    ),
)
def test_every_request_goes_once_and_partial_batches_only_into_an_empty_pipeline(
    batch_size, max_inflight, script
):
    config = BatchConfig(batch_size=batch_size, batch_delay=100, max_inflight=max_inflight)
    replica = bare_replica()
    sim = replica.sim
    sent, dropped, arrived = [], [], {}
    refusals = [0]

    def propose(proposal):
        requests = requests_of(proposal)
        assert max_inflight == 0 or acc.inflight <= max_inflight
        if len(requests) < batch_size:
            assert acc.inflight == 1  # itself: a partial batch found the pipeline empty
        sent.extend(r.key() for r in requests)
        if refusals[0]:
            refusals[0] -= 1
            return False
        return True

    acc = BatchAccumulator(replica, config, propose)

    def check():
        assert max_inflight == 0 or acc.inflight <= max_inflight
        assert acc.pending_keys == {r.key() for r in acc._open}
        if acc._open and acc.inflight == 0:
            assert sim.now - arrived[acc._open[0].key()] <= config.batch_delay

    rid = 0
    for step, n in script + [("drain", 0)]:
        if step == "add":
            for _ in range(n):
                request = ClientRequest("cx", rid, ("put", "k", rid))
                rid += 1
                arrived[request.key()] = sim.now
                acc.add(request)
                check()
        elif step == "commit":
            for _ in range(n):
                acc.on_committed()
                check()
        elif step == "wait":
            sim.run(until=sim.now + n)
        elif step == "refuse":
            refusals[0] = n
        elif step == "reset":
            dropped.extend(r.key() for r in acc._open)
            acc.reset()
        else:  # drain: commit what is out and let deadlines pass until nothing is pooled
            refusals[0] = 0
            while acc._open or acc.inflight:
                acc.on_committed()
                sim.run(until=sim.now + config.batch_delay)
        check()
    assert sorted(sent + dropped) == sorted(arrived)  # exactly once, or dropped by a reset
    assert len(set(sent)) == len(sent)
