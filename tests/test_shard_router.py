"""Tests for the shard router: routing, fan-out, quorums, fast failure."""

import pytest

from repro.shard import (
    RouterConfig,
    ShardConfig,
    ShardedSystem,
    ShardRouter,
    default_key_of,
)
from tests.conftest import closed_driver


def build(n_shards=2, seed=11, **overrides):
    cfg = dict(
        seed=seed, n_shards=n_shards, width=8, height=8,
        enable_rejuvenation=False,
    )
    cfg.update(overrides)
    return ShardedSystem(ShardConfig(**cfg))


# ----------------------------------------------------------------------
# Key extraction
# ----------------------------------------------------------------------
def test_default_key_of_single_key_ops():
    assert default_key_of(("put", "k1", 5)) == "k1"
    assert default_key_of(("get", "k2")) == "k2"
    assert default_key_of(("del", "k3")) == "k3"
    assert default_key_of(("cas", "k4", 1, 2)) == "k4"


def test_default_key_of_mget_fans_out():
    assert default_key_of(("mget", "a", "b", "c")) == ["a", "b", "c"]


def test_default_key_of_rejects_garbage():
    with pytest.raises(ValueError):
        default_key_of(("noop",))
    with pytest.raises(ValueError):
        default_key_of(("mget",))
    with pytest.raises(ValueError):
        default_key_of(42)


# ----------------------------------------------------------------------
# One routing decision per op, and the two rules it keeps apart
# ----------------------------------------------------------------------
#: op -> (the router's plan for it as a read: (shard, sub-op, result slot,
#: lease target) per leg, whether it is a local leased read, its shards;
#: ValueError when it cannot be routed), ClientSession.lease_target(op)
#: per shard, the members whose LeaseTable.covers(op).  Captured on the
#: code before routes were worked out once: the router routes any
#: (kind, key, ...), the lease path serves only KV kinds with str keys.
ROUTE_TABLE = [
    (("put", "k1", 5),
     ([("s0", ("put", "k1", 5), None, "s0-r1")], True, ["s0"]),
     {"s0": "s0-r1", "s1": "s1-r1"}, ["s0-r1", "s1-r1"]),
    (("get", "k1"),
     ([("s0", ("get", "k1"), None, "s0-r1")], True, ["s0"]),
     {"s0": "s0-r1", "s1": "s1-r1"}, ["s0-r1", "s1-r1"]),
    (("del", "k1"),
     ([("s0", ("del", "k1"), None, "s0-r1")], True, ["s0"]),
     {"s0": "s0-r1", "s1": "s1-r1"}, ["s0-r1", "s1-r1"]),
    (("cas", "k1", 1, 2),
     ([("s0", ("cas", "k1", 1, 2), None, "s0-r1")], True, ["s0"]),
     {"s0": "s0-r1", "s1": "s1-r1"}, ["s0-r1", "s1-r1"]),
    (("mget", "k0", "k5", "k1"),  # fans out over both shards
     ([("s0", ("get", "k0"), "k0", "s0-r0"), ("s1", ("get", "k5"), "k5", "s1-r1"),
       ("s0", ("get", "k1"), "k1", "s0-r1")], True, ["s0", "s1"]),
     {"s0": "s0-r0", "s1": "s1-r0"}, []),
    (("mget", "k1", "k1"),  # a duplicated key: two legs, one result slot
     ([("s0", ("get", "k1"), "k1", "s0-r1"), ("s0", ("get", "k1"), "k1", "s0-r1")],
      True, ["s0"]),
     {"s0": "s0-r1", "s1": "s1-r1"}, ["s0-r1", "s1-r1"]),
    (("mget",), ValueError, {"s0": None, "s1": None}, []),
    (("get", 7),  # a non-str key routes, but is never leased
     ([("s0", ("get", 7), None, None)], False, ["s0"]),
     {"s0": None, "s1": None}, []),
    (("mget", "k1", 7),  # ...while an mget's str-keyed fragments still are
     ([("s0", ("get", "k1"), "k1", "s0-r1"), ("s0", ("get", 7), 7, None)], False, ["s0"]),
     {"s0": None, "s1": None}, []),
    (("incr", "k1"),  # not a KV kind: routed on its key, never leased
     ([("s0", ("incr", "k1"), None, None)], False, ["s0"]),
     {"s0": None, "s1": None}, []),
    ("opaque", ValueError, {"s0": None, "s1": None}, []),
]


def test_one_route_per_op_keeps_the_routing_and_the_lease_rules_apart():
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig

    system = build(
        n_shards=2, protocol="minbft",
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig()),
    )
    router = system.place_router("c0")
    system.start(warmup=60_000)
    for i, key in enumerate(["k0", "k5"]):  # commit evidence: primaries keep granting
        router.submit(("put", key, i))
    system.run(20_000)
    assert [system.directory.shard_for(k) for k in ("k0", "k1", "k5")] == ["s0", "s0", "s1"]
    members = [m for shard in system.shards.values() for m in shard.group.members]
    replicas = {m: s.group.replicas[m] for s in system.shards.values() for m in s.group.members}
    for op, routed, targets, covering in ROUTE_TABLE:
        if routed is ValueError:
            with pytest.raises(ValueError):
                router.route(op, read_only=True)
        else:
            read = router.route(op, read_only=True)
            plan = [(sid, sub_op, key, target) for sid, _, sub_op, key, target in read.plan]
            assert (plan, read.local, list(read.shards)) == routed, op
            # An op sent as a write has the same legs, and no lease at all.
            write = router.route(op)
            assert [leg[:4] for leg in write.plan] == [leg[:4] for leg in read.plan]
            assert all(leg[4] is None for leg in write.plan) and not write.local
        assert {sid: s.lease_target(op) for sid, s in router._sessions.items()} == targets, op
        assert [m for m in members if replicas[m].lease_table.covers(op)] == covering, op


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_operations_reach_the_owning_shard():
    system = build()
    router = system.place_router("c0")
    system.start(warmup=60_000)

    results = []
    key = "k17"
    owner = system.directory.shard_for(key)
    router.submit(("put", key, 1), results.append)
    system.run(60_000)
    assert len(results) == 1 and results[0].ok
    assert router.stats[owner].completed == 1
    other = [s for s in system.directory.shard_ids if s != owner][0]
    assert router.stats[other].completed == 0
    # The write landed only on the owning group's state machines.
    assert any(
        r.app.snapshot().get(key) == 1
        for r in system.shards[owner].group.correct_replicas()
    )
    assert all(
        key not in r.app.snapshot()
        for r in system.shards[other].group.correct_replicas()
    )


def test_reads_route_like_writes():
    system = build()
    router = system.place_router("c0")
    system.start(warmup=60_000)
    results = []
    router.submit(("put", "k3", 42), results.append)
    system.run(30_000)
    router.submit(("get", "k3"), results.append)
    system.run(30_000)
    assert [r.ok for r in results] == [True, True]
    assert results[1].value == 42


def test_mget_aggregates_across_shards():
    system = build(n_shards=4)
    router = system.place_router("c0")
    system.start(warmup=80_000)
    keys = [f"k{i}" for i in range(8)]
    owners = {system.directory.shard_for(k) for k in keys}
    assert len(owners) > 1  # the workload genuinely spans shards
    results = []
    for i, key in enumerate(keys):
        router.submit(("put", key, i), results.append)
    system.run(60_000)
    assert all(r.ok for r in results)
    out = []
    router.submit(tuple(["mget"] + keys), out.append)
    system.run(60_000)
    assert len(out) == 1 and out[0].ok
    assert out[0].value == {key: i for i, key in enumerate(keys)}


def test_degraded_shard_fails_fast():
    system = build()
    router = system.place_router("c0")
    system.start(warmup=60_000)
    victim = system.directory.shard_for("k0")
    system.directory.mark_degraded(victim)
    results = []
    before = system.sim.now
    router.submit(("put", "k0", 1), results.append)
    assert len(results) == 1  # synchronous rejection, no timeout burned
    assert not results[0].ok
    assert "degraded" in results[0].error
    assert system.sim.now == before
    assert router.stats[victim].rejected_degraded == 1
    metric = system.chip.metrics.counter(f"shard.{victim}.rejected_degraded")
    assert metric.value == 1


def test_driver_continues_after_failures():
    """A closed-loop driver keeps issuing ops when part of the keyspace
    is down: failures count, completions continue on live shards."""
    system = build(n_shards=2)
    driver = closed_driver(system, "c0", think_time=50.0)
    system.start(warmup=60_000)
    system.run(30_000)
    completed_before = driver.completed
    system.directory.mark_degraded("s0")
    system.run(60_000)
    assert driver.failures > 0
    assert driver.completed > completed_before
    assert driver.running


def test_protocol_switch_repoints_router():
    """Escalating one shard to PBFT mid-run re-points every router at the
    new membership through the group's client list."""
    system = build(n_shards=2)
    router = system.place_router("c0")
    system.start(warmup=60_000)
    shard = system.shards["s0"]
    assert len(shard.group.members) == 3  # minbft 2f+1
    shard.group.switch_protocol("pbft")
    assert len(shard.group.members) == 4  # pbft 3f+1
    session = router._sessions["s0"]
    assert session.members == shard.group.members
    assert session.reply_quorum == shard.group.reply_quorum
    # The other shard's binding is untouched.
    assert router._sessions["s1"].members == system.shards["s1"].group.members
    # And the switched shard still serves through the router.
    results = []
    key = next(k for k in (f"k{i}" for i in range(64))
               if system.directory.shard_for(k) == "s0")
    router.submit(("put", key, 9), results.append)
    system.run(120_000)
    assert results and results[0].ok


def test_per_shard_metrics_are_populated():
    system = build(n_shards=2)
    driver = closed_driver(system, "c0", think_time=50.0)
    system.start(warmup=60_000)
    system.run(120_000)
    assert driver.completed > 0
    total = 0
    for sid in system.directory.shard_ids:
        ops = system.chip.metrics.counter(f"shard.{sid}.ops").value
        hist = system.chip.metrics.histogram(f"shard.{sid}.latency")
        assert hist.count == ops
        if ops:
            assert hist.percentile(50) <= hist.percentile(95)
        total += ops
    assert total == driver.completed
    # All sub-operations drained: no in-flight leftovers.
    router = system.routers[0]
    assert router.inflight <= 1  # at most the driver's current op


def test_router_timeout_retransmits_and_recovers():
    """Crashing the primary of one shard: the router's retransmit path
    (broadcast + primary rotation) must eventually complete the op."""
    system = build(
        n_shards=2,
        router=RouterConfig(timeout=10_000.0),
    )
    router = system.place_router("c0")
    system.start(warmup=60_000)
    key = next(k for k in (f"k{i}" for i in range(64))
               if system.directory.shard_for(k) == "s0")
    group = system.shards["s0"].group
    group.crash(group.members[0])  # the view-0 primary
    results = []
    router.submit(("put", key, 1), results.append)
    system.run(200_000)
    assert results and results[0].ok
    assert router.timeouts > 0
    assert router.stats["s0"].timeouts > 0


def test_read_nack_addressed_to_another_requester_is_ignored():
    """A nack meant for someone else whose rid collides with a live leased
    read must not push the router off the lease path (it used to: the
    router checked rid, sender and membership but not ``nack.client``)."""
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig
    from repro.bft.messages import ReadNack

    system = build(
        n_shards=1, protocol="minbft",
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig()),
    )
    router = system.place_router("c0")
    system.start(warmup=60_000)
    results = []
    before = router.messages_sent
    router.submit(("get", "k1"), results.append, read_only=True)  # the router's rid 0
    assert router.messages_sent == before + 1  # leased: one replica asked
    member = system.shards["s0"].group.members[0]
    router.on_message(member, ReadNack(member, "someone-else", 0))
    assert router.messages_sent == before + 1  # no drop to the quorum read
    assert system.chip.metrics.counter("shard.s0.lease_fallbacks").value == 0
    system.run(60_000)
    assert results and results[0].ok


def test_a_get_submitted_without_read_only_is_ordered():
    """The router holds no classifier of its own: a ``get`` is a read only
    when its submitter says so, even on a shard that runs leases."""
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig

    system = build(
        n_shards=1, protocol="minbft",
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig()),
    )
    router = system.place_router("c0")
    system.start(warmup=60_000)
    sent = []
    router.add_outbound_filter(lambda dst, message: sent.append((dst, message)) or message)
    results = []
    router.submit(("get", "k1"), results.append)
    ((dst, request),) = sent
    assert dst == router._sessions["s0"].primary()
    assert not request.read_only and not request.lease_read
    system.run(60_000)
    assert results and results[0].ok
    group = system.shards["s0"].group
    assert max(r.last_executed for r in group.correct_replicas()) == 1  # it was ordered


# ----------------------------------------------------------------------
# O(1) per-op bookkeeping: in-flight counts and the lease-target order
# ----------------------------------------------------------------------
def _scan_inflight(router, shard_id):
    """The per-shard in-flight depth: the shard session's open exchanges."""
    return len(router._sessions[shard_id].exchanges)


def test_per_shard_inflight_count_equals_a_scan_of_the_subops(monkeypatch):
    """Through issue, completion, timeout-failure and degraded fast-fail
    the shard sessions' open exchanges, the published gauge and the
    router's total agree."""
    monkeypatch.setattr(ShardRouter, "MAX_ATTEMPTS", 2)
    system = build(n_shards=2, router=RouterConfig(timeout=5_000.0))
    router = system.place_router("c0")
    system.start(warmup=60_000)
    shards = system.directory.shard_ids

    def check():
        for sid in shards:
            gauge = system.chip.metrics.gauge(f"shard.{sid}.inflight")
            if sid in seen:
                assert gauge.value == _scan_inflight(router, sid), sid
        assert router.inflight == sum(_scan_inflight(router, sid) for sid in shards)

    seen, done = set(), []
    keys = [f"k{i}" for i in range(24)]
    for i, key in enumerate(keys):
        router.submit(("put", key, i), done.append)
        seen.add(system.directory.shard_for(key))
        check()
    router.submit(("mget", *keys[:6]), done.append)
    check()
    assert router.inflight == 30
    for _ in range(40):
        system.run(500)
        check()
    assert len(done) == 25 and all(r.ok for r in done) and router.inflight == 0
    # Failure paths: every replica of s0 crashed -> timeouts exhaust attempts.
    victim = system.shards["s0"].group
    for name in victim.members:
        victim.crash(name)
    s0_keys = [k for k in keys if system.directory.shard_for(k) == "s0"][:4]
    for key in s0_keys:
        router.submit(("put", key, 0), done.append)
    check()
    assert _scan_inflight(router, "s0") == len(s0_keys)
    for _ in range(60):
        system.run(500)
        check()
    assert _scan_inflight(router, "s0") == 0 and router.stats["s0"].failed == len(s0_keys)
    system.directory.mark_degraded("s0")
    router.submit(("put", s0_keys[0], 1), done.append)  # fails fast, never in flight
    check()
    assert not done[-1].ok


def test_lease_target_is_the_keys_holder_whatever_the_placement():
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig, lease_holder

    system = build(
        n_shards=2, protocol="minbft",
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig()),
    )
    router = system.place_router("c0")
    system.start(warmup=60_000)
    chip = system.chip
    reads = [("get", f"k{i}") for i in range(64)]
    session = router._sessions["s0"]

    def targets():
        return [session.lease_target(op) for op in reads]

    before = targets()
    assert before == [lease_holder(session.members, op[1]) for op in reads]
    assert set(before) == set(session.members)  # every member holds some key
    # Where a member — or the router — sits is no part of the rule.
    corner = max(chip.free_tiles(), key=lambda c: c.manhattan(router.coord))
    chip.relocate_node(session.members[0], corner)
    chip.relocate_node(router.name, min(chip.free_tiles(), key=lambda c: c.manhattan(corner)))
    assert targets() == before
    # A holder that left the chip has no target: its keys take the quorum read.
    gone = session.members[1]
    chip.remove_node(gone)
    assert targets() == [None if t == gone else t for t in before]
    # The rule follows the member list the session is bound with.
    rest = [m for m in session.members if m != gone]
    router.bind("s0", rest, session.reply_quorum, lease_reads=True)
    assert targets() == [lease_holder(rest, op[1]) for op in reads]
    router.bind("s0", rest, session.reply_quorum, lease_reads=False)
    assert targets() == [None] * len(reads)


# ----------------------------------------------------------------------
# A sub-operation's life: its deadline is one kernel event
# ----------------------------------------------------------------------
def _pending_router_events(system, router):
    """Kernel events still due that would call back into ``router`` or
    one of its shard sessions."""
    owners = [router, *router._sessions.values()]
    return [
        event for *_, event in system.sim._heap
        if event.pending and any(getattr(event.callback, "__self__", None) is owner
                                 for owner in owners)
    ]


def test_a_completed_sub_op_leaves_nothing_armed_in_the_kernel():
    system = build(n_shards=2)
    driver = closed_driver(system, "c0", think_time=50.0)
    router = system.routers[0]
    system.start(warmup=60_000)
    system.run(30_000)
    assert driver.completed > 50
    while router.inflight == 0:
        system.sim.step()
    # An op in flight: its sub-operation's deadline is armed, and only it.
    armed = _pending_router_events(system, router)
    assert router.inflight == 1 and len(armed) == 1
    (exchange,) = [e for s in router._sessions.values() for e in s.exchanges.values()]
    assert armed[0] is exchange.deadline and armed[0].time == exchange.sent_at + 30_000.0
    driver.stop()
    system.run(30_000)
    assert router.inflight == 0
    assert _pending_router_events(system, router) == []


def test_an_unanswered_sub_op_backs_off_then_fails_after_max_attempts():
    """The crashed primary's backups never get a reply through: the
    sub-operation retransmits at timeout, 2x, 4x ... of it, and fails at
    the MAX_ATTEMPTS-th expiry, counted once per expiry and once failed."""
    timeout = 1_000.0
    system = build(n_shards=2, router=RouterConfig(timeout=timeout))
    router = system.place_router("c0")
    system.start(warmup=60_000)
    group = system.shards["s0"].group
    group.crash(group.members[0])  # the view-0 primary
    router.add_inbound_filter(lambda sender, message: None)  # no reply gets through
    sends = []
    router.add_outbound_filter(
        lambda dst, message: sends.append((system.sim.now, dst)) or message
    )
    expiries = []  # the router's give-up policy is asked at every expiry
    session = router._sessions["s0"]
    gives_up = session.gives_up
    session.gives_up = lambda exchange: (expiries.append(system.sim.now), gives_up(exchange))[1]
    key = next(k for k in (f"k{i}" for i in range(64))
               if system.directory.shard_for(k) == "s0")
    results = []
    start = system.sim.now
    router.submit(("put", key, 1), results.append)
    system.run(300_000)
    n = ShardRouter.MAX_ATTEMPTS
    assert expiries == [start + timeout * (2 ** i - 1) for i in range(1, n + 1)]
    # The request, then a retransmission to every member at each expiry
    # but the last, which fails the sub-operation instead.
    assert sends == [(start, group.members[0])] + [
        (at, member) for at in expiries[:-1] for member in group.members
    ]
    assert len(results) == 1 and not results[0].ok
    assert results[0].error == f"shard s0 unresponsive after {n} attempt(s)"
    assert results[0].latency == expiries[-1] - start
    assert router.timeouts == router.stats["s0"].timeouts == n
    assert router.stats["s0"].failed == 1 and router.stats["s0"].completed == 0
    assert system.chip.metrics.counter("shard.s0.failed_ops").value == 1
    assert router.inflight == 0 and _pending_router_events(system, router) == []


# ----------------------------------------------------------------------
# Rids per (router, shard): one shard's traffic does not age another's
# ----------------------------------------------------------------------
def test_a_stalled_shard_is_not_told_a_request_was_executed_that_it_never_ran(monkeypatch):
    """While a router numbered the sub-operations of every shard from one
    counter, a request whose first send to ``s0`` was lost came back —
    after ``s1`` completed more than a ledger window of sub-operations and
    ``s0`` executed a newer one — as an ancient replay: ``s0`` answered
    "already executed" for a request no member of it ran, and the
    sub-operation could only fail after MAX_ATTEMPTS.  Each shard session
    now numbers its own."""
    from repro.bft.replica import BaseReplica, ExecutionLedger

    answered = []
    already_executed = BaseReplica.already_executed

    def recording(replica, request):
        seen = already_executed(replica, request)
        if seen:
            answered.append((replica.name, request.key()))
        return seen

    monkeypatch.setattr(BaseReplica, "already_executed", recording)
    timeout = 150_000.0
    system = build(n_shards=2, router=RouterConfig(timeout=timeout))
    router = system.place_router("c0")
    system.start(warmup=60_000)
    keys = {sid: [k for k in (f"k{i}" for i in range(64)) if system.directory.shard_for(k) == sid]
            for sid in ("s0", "s1")}
    s0 = system.shards["s0"].group
    lost = [True]
    router.add_outbound_filter(lambda dst, message: None if lost[0] and dst in s0.members else message)
    stalled = []
    sent_at = system.sim.now
    router.submit(("put", keys["s0"][0], "x"), stalled.append)  # its first send is lost
    lost[0] = False
    done = []
    n = ExecutionLedger.DEFAULT_WINDOW + 44
    for i in range(n):
        router.submit(("put", keys["s1"][i % len(keys["s1"])], i), done.append)
        while i % 50 == 49 and router.inflight > 1:
            system.run(1_000)
    router.submit(("put", keys["s0"][1], "y"), done.append)  # s0 executes a newer one
    while router.inflight > 1:
        system.run(1_000)
    assert len(done) == n + 1 and all(r.ok for r in done)
    assert not stalled and system.sim.now < sent_at + timeout
    system.run(sent_at + timeout + 20_000 - system.sim.now)  # its deadline: resent to all
    assert [r.ok for r in stalled] == [True]
    assert answered == []
