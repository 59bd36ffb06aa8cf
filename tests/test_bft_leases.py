"""Read leases: single-hop local reads with bounded staleness (P4).

Covers the lease subsystem end-to-end:

* leased reads complete locally with zero ordered-log growth;
* one leaseholder per key (``lease_holder``): the requester's target, the
  only member that serves the key and the only member a write revokes are
  the same member — as a property, on the wire, and under a zero-slack
  freshness oracle;
* write-through invalidation: conflicting writes are held until the
  key's holder acked (or the lease expired — the crashed-holder backstop,
  one armed event per manager);
* the staleness bound holds, including across a primary kill;
* view changes and ``heal_first`` rejuvenation revoke outstanding
  leases before the replica serves (or is re-granted) again.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bft import ClientConfig, ClientNode, ClientSession, GroupConfig, build_group
from repro.bft.app import KeyValueStore
from repro.bft.group import protocol_config_for
from repro.bft.leases import (
    LeaseConfig,
    LeaseManager,
    LeaseTable,
    keys_of,
    lease_holder,
    range_of,
    stable_key_hash,
)
from repro.bft.messages import (
    ClientReply,
    ClientRequest,
    LeaseGrant,
    LeaseRevoke,
    LeaseRevokeAck,
    ReadNack,
)
from repro.metrics.registry import MetricsRegistry
from repro.core import (
    DiversityManager,
    RejuvenationPolicy,
    RejuvenationScheduler,
    VariantLibrary,
)
from repro.core.replication import ReplicationManager
from repro.fabric import FpgaFabric
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node
from repro.soc.node import NodeState
from repro.workloads import FactoryWorkload

ALL_PROTOCOLS = ["pbft", "minbft", "cft", "passive"]
QUORUM_PROTOCOLS = ["pbft", "minbft"]

DURATION = 15_000.0
RENEW = 3_000.0


def is_read(op):
    return isinstance(op, tuple) and op and op[0] in ("get", "mget")


def mixed_ops(i):
    """The standard 90/10 read-heavy mix over 8 keys."""
    if (i * 37) % 100 < 10:
        return ("put", f"k{i % 8}", i)
    return ("get", f"k{i % 8}")


def lease_config(**kwargs):
    kwargs.setdefault("duration", DURATION)
    kwargs.setdefault("renew_period", RENEW)
    return LeaseConfig(**kwargs)


def key_held_by(members, holder, avoid_ranges=()):
    """A key whose one leaseholder is ``holder`` (outside ``avoid_ranges``)."""
    return next(
        k for k in (f"k{i}" for i in range(512))
        if lease_holder(members, k) == holder and range_of(k, 16) not in avoid_ranges
    )


def build(protocol, leases=None, f=1, seed=1, client_cfg=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    cfg = protocol_config_for(protocol, leases=leases) if leases is not None else None
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=f, group_id="g", protocol_config=cfg)
    )
    client = ClientNode(
        "c0",
        client_cfg
        or ClientConfig(
            think_time=50,
            timeout=10_000,
            workload=FactoryWorkload(mixed_ops, reads=is_read),
        ),
    )
    group.attach_client(client)
    return sim, chip, group, client


# ----------------------------------------------------------------------
# Unit behaviour: hashing, config
# ----------------------------------------------------------------------
def test_keys_of_recognises_kv_shapes():
    assert keys_of(("put", "k", 1)) == ("k",)
    assert keys_of(("get", "k")) == ("k",)
    assert keys_of(("del", "k")) == ("k",)
    assert keys_of(("cas", "k", 1, 2)) == ("k",)
    assert keys_of(("mget", "a", "b")) == ("a", "b")
    assert keys_of(("add", 1)) is None  # counter ops: no routable key
    assert keys_of("opaque") is None
    assert keys_of(()) is None


def test_range_of_is_stable_and_in_bounds():
    for key in ("k0", "hot", "some-long-key"):
        r = range_of(key, 16)
        assert 0 <= r < 16
        assert r == range_of(key, 16)  # process-independent, repeatable
    assert stable_key_hash("k0") == stable_key_hash("k0")


def test_lease_config_validation():
    with pytest.raises(ValueError):
        LeaseConfig(n_ranges=0)
    with pytest.raises(ValueError):
        LeaseConfig(duration=0)
    with pytest.raises(ValueError):
        LeaseConfig(renew_period=0)
    with pytest.raises(ValueError):
        LeaseConfig(duration=10.0, renew_period=20.0)  # would flap


def test_lease_table_rejects_wrong_era_grants():
    sim, chip, group, _ = build("minbft", leases=lease_config())
    primary = group.members[0]
    holder = group.replicas[group.members[1]]
    read = ("get", key_held_by(group.members, holder.name))
    all_ranges = tuple(range(16))
    # A grant from a *future* view is not ours yet: rejected.
    stale = LeaseGrant(primary, 5, 0, all_ranges, sim.now + 10_000)
    holder.lease_table.on_grant(primary, stale)
    assert not holder.lease_table.covers(read)
    # A grant claiming the right view but sent by a non-primary: rejected.
    imposter = group.members[2]
    forged = LeaseGrant(imposter, 0, 0, all_ranges, sim.now + 10_000)
    holder.lease_table.on_grant(imposter, forged)
    assert not holder.lease_table.covers(read)
    # The genuine article is accepted — and expires (advance less than a
    # renew period so the live primary cannot re-grant underneath us).
    good = LeaseGrant(primary, 0, 0, all_ranges, sim.now + 50)
    holder.lease_table.on_grant(primary, good)
    assert holder.lease_table.covers(read)
    assert not holder.lease_table.covers(("add", 1))  # keyless: never leased
    sim.run(until=sim.now + 100)
    assert not holder.lease_table.covers(read)


# ----------------------------------------------------------------------
# One leaseholder per key: the rule as a property, and on the wire
# ----------------------------------------------------------------------
class StubReplica:
    """Just enough replica for a LeaseTable / LeaseManager: a name, a view,
    a clock, the group's member list and a ``send`` that records."""

    state = NodeState.OK

    def __init__(self, sim, name, members, view):
        self.sim, self.name, self.view = sim, name, view
        self.group = SimpleNamespace(
            members=members, group_id="g", metrics=MetricsRegistry(),
            primary_of=lambda v: members[v % len(members)],
        )
        self.app = KeyValueStore()
        self.sent = []

    @property
    def is_primary(self):
        return self.group.primary_of(self.view) == self.name

    def other_members(self):
        return [m for m in self.group.members if m != self.name]

    def send(self, dst, message, size):
        self.sent.append((dst, message))


@settings(max_examples=80, deadline=None)
@given(
    members=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        min_size=2, max_size=7, unique=True,
    ),
    key=st.text(min_size=1, max_size=12),
    view=st.integers(min_value=0, max_value=20),
)
def test_target_server_and_revoked_member_are_the_keys_one_holder(members, key, view):
    sim = Simulator(seed=1)
    holder = lease_holder(members, key)
    primary = members[view % len(members)]
    # The requester aims the key's leased reads at the holder.
    node = SimpleNamespace(name="c", chip=SimpleNamespace(has_node=lambda name: True))
    session = ClientSession(node, 1_000.0)
    session.configure(members, 1, lease_reads=True)
    assert session.lease_target(("get", key)) == holder
    # Every backup is granted every range; only the holder serves the key
    # (the primary answers from its self-lease, not from a table).
    grant = LeaseGrant(primary, view, 0, tuple(range(16)), sim.now + 1_000)
    serving = []
    for name in members:
        table = LeaseTable(StubReplica(sim, name, members, view), LeaseConfig())
        table.on_grant(primary, grant)
        if table.covers(("get", key)):
            serving.append(name)
    assert serving == ([holder] if holder != primary else [])
    # The primary revokes the holder and nobody else — nobody when that is itself.
    replica = StubReplica(sim, primary, members, view)
    manager = LeaseManager(replica, LeaseConfig())
    manager.start()
    manager._on_renew()
    assert sorted(dst for dst, _ in replica.sent) == sorted(replica.other_members())
    del replica.sent[:]
    parked = manager.intercept(ClientRequest("c", 0, ("put", key, 1)))
    revoked = [dst for dst, m in replica.sent if isinstance(m, LeaseRevoke)]
    assert revoked == ([holder] if holder != primary else [])
    assert parked == (holder != primary)
    manager.stop()


def test_renewal_bookkeeping_fresh_renewed_lapsed_revoking_and_suspended():
    """What one renewal writes and counts, on both sides: the primary's
    ``_granted``, its granted / renewed / expired counters (the
    ``leased-reads`` summaries report them) and each holder's table."""
    sim = Simulator(seed=1)
    members = ["p", "b1", "b2"]
    config = LeaseConfig(n_ranges=4, duration=100.0, renew_period=50.0)
    primary = StubReplica(sim, "p", members, 0)
    primary.already_executed = lambda request: True  # a released write goes nowhere
    manager = LeaseManager(primary, config)
    tables = {
        name: LeaseTable(StubReplica(sim, name, members, 0), config)
        for name in ("b1", "b2")
    }
    counters = [
        primary.group.metrics.counter(f"g.lease.{name}")
        for name in ("granted", "renewed", "expired")
    ]

    def deliver():
        """Hand what the primary sent to the holders' tables; the grants."""
        sent, primary.sent[:] = list(primary.sent), []
        grants = []
        for dst, message in sent:
            if isinstance(message, LeaseGrant):
                tables[dst].on_grant("p", message)
                grants.append((dst, message.ranges, message.expiry))
            else:
                tables[dst].on_revoke("p", message)
        return grants

    def renew(at):
        sim.run(until=at)
        manager.on_committed()  # commit evidence: the primary may grant
        manager._on_renew()
        return deliver()

    def state():
        return (
            [c.value for c in counters],
            {h: dict(held) for h, held in manager._granted.items()},
            {h: dict(t._grants) for h, t in tables.items()},
        )

    def ack(holder, ranges):
        manager.on_revoke_ack(holder, LeaseRevokeAck(holder, 0, 0, tuple(ranges)))

    every = (0, 1, 2, 3)
    key = key_held_by(members, "b1")
    r = range_of(key, 4)
    rest = tuple(x for x in every if x != r)

    # A fresh grant: every range to every backup.
    assert renew(0.0) == [("b1", every, 100.0), ("b2", every, 100.0)]
    assert state() == (
        [8, 0, 0],
        {"b1": dict.fromkeys(every, 100.0), "b2": dict.fromkeys(every, 100.0)},
        {h: dict.fromkeys(every, (0, 0, 100.0)) for h in ("b1", "b2")},
    )
    # A renewal before expiry.
    assert renew(50.0) == [("b1", every, 150.0), ("b2", every, 150.0)]
    assert state()[0] == [8, 8, 0]
    assert state()[2] == {h: dict.fromkeys(every, (0, 0, 150.0)) for h in ("b1", "b2")}
    # Every grant lapsed: each counts as expired and granted afresh.
    assert renew(300.0) == [("b1", every, 400.0), ("b2", every, 400.0)]
    assert state()[:2] == (
        [16, 8, 8],
        {"b1": dict.fromkeys(every, 400.0), "b2": dict.fromkeys(every, 400.0)},
    )
    # A write on b1's key puts its range under revocation: not renewed.
    sim.run(until=310.0)
    assert manager.intercept(ClientRequest("cx", 0, ("put", key, 1)))
    assert deliver() == []  # the revoke reached b1's table
    assert renew(350.0) == [("b1", rest, 450.0), ("b2", rest, 450.0)]
    assert state() == (
        [16, 14, 8],
        {"b1": dict.fromkeys(rest, 450.0),
         "b2": {**dict.fromkeys(rest, 450.0), r: 400.0}},
        {"b1": dict.fromkeys(rest, (0, 0, 450.0)),
         "b2": {**dict.fromkeys(rest, (0, 0, 450.0)), r: (0, 0, 400.0)}},
    )
    # b1 acks: the range is grantable again — fresh for b1, lapsed for b2.
    sim.run(until=360.0)
    ack("b1", (r,))
    assert manager.parked_writes == 0
    assert renew(420.0) == [("b1", every, 520.0), ("b2", every, 520.0)]
    assert state() == (
        [18, 20, 9],
        {"b1": dict.fromkeys(every, 520.0), "b2": dict.fromkeys(every, 520.0)},
        {h: dict.fromkeys(every, (0, 0, 520.0)) for h in ("b1", "b2")},
    )
    # A suspended holder is revoked and skipped until readmitted.
    sim.run(until=430.0)
    manager.revoke_holder("b2")
    assert deliver() == []
    sim.run(until=440.0)
    ack("b2", every)
    assert renew(470.0) == [("b1", every, 570.0)]
    assert state() == (
        [18, 24, 9],
        {"b1": dict.fromkeys(every, 570.0), "b2": {}},
        {"b1": dict.fromkeys(every, (0, 0, 570.0)), "b2": {}},
    )
    manager.readmit_holder("b2")
    assert renew(480.0) == [("b1", every, 580.0), ("b2", every, 580.0)]
    assert state() == (
        [22, 28, 9],
        {"b1": dict.fromkeys(every, 580.0), "b2": dict.fromkeys(every, 580.0)},
        {h: dict.fromkeys(every, (0, 0, 580.0)) for h in ("b1", "b2")},
    )


class Probe(Node):
    """A client-side node that records what it is sent."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def granted_group(protocol="minbft", seed=1):
    """A leased group two renewals in (every backup holds every range),
    with a probe node placed beside it."""
    sim, chip, group, client = build(protocol, leases=lease_config(), seed=seed)
    probe = Probe("probe")
    chip.place_node(probe, chip.free_tiles()[0])
    sim.run(until=2 * RENEW + 100)
    return sim, group, client, probe


def test_non_holder_with_a_valid_grant_nacks_a_misrouted_leased_read():
    """The holder-side check: a grant on the key's range in the wrong
    member's table is not a lease on the key — no write would revoke it."""
    sim, group, _, probe = granted_group()
    _, holder, other = group.members
    key = key_held_by(group.members, holder)
    table = group.replicas[other].lease_table
    entry = table._grants[range_of(key, 16)]
    assert entry[0] == group.replicas[other].view and entry[2] > sim.now + 1_000
    probe.send(other, ClientRequest("probe", 0, ("get", key), True, True), 64)
    probe.send(holder, ClientRequest("probe", 1, ("get", key), True, True), 64)
    sim.run(until=sim.now + 1_000)
    answers = {message.rid: (sender, message) for sender, message in probe.received}
    assert answers[0] == (other, ReadNack(other, "probe", 0))
    sender, reply = answers[1]
    assert sender == holder and isinstance(reply, ClientReply) and reply.leased


def test_a_write_revokes_its_keys_holders_and_nobody_else():
    sim, group, _, _ = granted_group()
    primary, b1, b2 = (group.replicas[m] for m in group.members)
    manager = primary.lease_manager
    revoked = group.chip.metrics.counter("g.lease.revoked")
    sent = []
    primary.add_outbound_filter(
        lambda dst, m: sent.append((dst, m)) if isinstance(m, LeaseRevoke) else None
    )

    def write(rid, op):
        del sent[:]
        parked = manager.intercept(ClientRequest("cx", rid, op))
        return parked, [(dst, m.ranges) for dst, m in sent]

    mine = key_held_by(group.members, primary.name)
    taken = {range_of(mine, 16)}
    theirs = key_held_by(group.members, b1.name, taken)
    taken.add(range_of(theirs, 16))
    # The primary holds the key: nobody to revoke, nothing to wait for.
    assert write(0, ("put", mine, 1)) == (False, [])
    assert manager.parked_writes == 0 and revoked.value == 0
    # A backup holds it: exactly one revoke, to that backup, for that range.
    assert write(1, ("put", theirs, 1)) == (True, [(b1.name, (range_of(theirs, 16),))])
    assert manager.parked_writes == 1 and revoked.value == 1
    # The other backup keeps its grant on the range and is not asked.
    assert range_of(theirs, 16) in manager._granted[b2.name]
    # Several keys: each key's holder, on each key's range.
    k1 = key_held_by(group.members, b1.name, taken)
    k2 = key_held_by(group.members, b2.name, taken | {range_of(k1, 16)})
    parked, revokes = write(2, ("mget", mine, k1, k2))  # not a KV read: a conflict
    assert parked and sorted(revokes) == sorted(
        [(b1.name, (range_of(k1, 16),)), (b2.name, (range_of(k2, 16),))]
    )
    # Underivable keys conflict with everything anybody still holds.
    parked, revokes = write(3, ("add", 1))
    asked = {name: {r for dst, ranges in revokes if dst == name for r in ranges}
             for name in (b1.name, b2.name)}
    assert parked and {dst for dst, _ in revokes} == set(asked)
    assert asked[b1.name] == set(range(16)) - {range_of(theirs, 16), range_of(k1, 16)}
    assert asked[b2.name] == set(range(16)) - {range_of(k2, 16)}


# ----------------------------------------------------------------------
# The fast path: local reads, zero ordered-log growth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_leased_reads_are_local_and_never_ordered(protocol):
    cfg = ClientConfig(
        think_time=50, timeout=10_000, max_requests=200,
        workload=FactoryWorkload(mixed_ops, reads=is_read),
    )
    sim, chip, group, client = build(
        protocol, leases=lease_config(), client_cfg=cfg, seed=3
    )
    assert group.leases_enabled
    client.start()
    sim.run(until=3_000_000)
    assert client.completed == 200
    assert group.safety.is_safe
    n_writes = sum(1 for i in range(200) if mixed_ops(i)[0] == "put")
    # Zero ordered-log growth from reads: only the writes were ordered.
    assert max(r.last_executed for r in group.correct_replicas()) == n_writes
    # The overwhelming majority of reads took the single-hop lease path
    # (the remainder fell back before the first grants landed).
    assert client.leased_reads_completed > 100
    metrics = chip.metrics
    assert metrics.counter("g.reads.local").value == client.leased_reads_completed
    assert (
        metrics.counter("g.reads.quorum_fallback").value == client.lease_fallbacks
    )
    assert metrics.counter("g.lease.granted").value > 0
    assert metrics.counter("g.lease.renewed").value > 0


def test_mutations_marked_as_reads_are_refused_by_lease_path():
    """A malicious client marking a write leased gets no local answer."""
    cfg = ClientConfig(
        think_time=50, timeout=10_000, max_requests=5,
        workload=FactoryWorkload(
            lambda i: ("put", "k", i),
            reads=lambda op: True,  # claims everything is a read
        ),
    )
    sim, chip, group, client = build("minbft", leases=lease_config(), client_cfg=cfg)
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 5
    kv = group.replicas[group.members[0]].app
    assert kv.ops_executed == 5  # each put executed exactly once
    assert group.safety.is_safe


# ----------------------------------------------------------------------
# Write-through invalidation and the staleness bound
# ----------------------------------------------------------------------
def staleness_oracle(sim, duration):
    """Build (on_write, on_read, violations): asserts no read returns a
    value more than ``duration`` behind the committed prefix."""
    writes = []  # (client-visible completion time, value)
    violations = []

    def on_write(request, reply):
        writes.append((sim.now, request.op[2]))

    def on_read(request, reply):
        now = sim.now
        got = reply.result if reply.result is not None else -1
        for done_at, value in writes:
            if done_at <= now - duration and value > got:
                violations.append((now, got, value, done_at))

    return on_write, on_read, violations


def run_staleness_scenario(protocol, kill_primary=False, seed=9):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    cfg = protocol_config_for(protocol, leases=lease_config())
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=cfg)
    )
    on_write, on_read, violations = staleness_oracle(sim, DURATION)
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
            think_time=300, timeout=30_000, max_requests=400,
            workload=FactoryWorkload(lambda i: ("get", "hot"), reads=is_read),
            on_result=on_read,
        ),
    )
    group.attach_client(writer)
    group.attach_client(reader)
    writer.start()
    reader.start()
    if kill_primary:
        sim.schedule_at(120_000, group.crash, group.members[0])
    sim.run(until=3_000_000)
    return group, writer, reader, violations


@pytest.mark.parametrize("protocol", QUORUM_PROTOCOLS)
def test_no_read_past_the_staleness_bound(protocol):
    group, writer, reader, violations = run_staleness_scenario(protocol)
    assert writer.completed == 60
    assert reader.completed == 400
    assert reader.leased_reads_completed > 0
    assert violations == []
    assert group.safety.is_safe


def test_staleness_bound_holds_across_primary_kill():
    """View change revokes leases (view-tagged grants): reads racing the
    kill fall back instead of serving stale state from the old era."""
    group, writer, reader, violations = run_staleness_scenario(
        "minbft", kill_primary=True
    )
    assert writer.completed == 60
    assert reader.completed == 400
    assert violations == []
    assert group.safety.is_safe
    # The view change really happened, and leased reads resumed after it.
    survivor = group.replicas[group.members[1]]
    assert survivor.view > 0
    assert reader.leased_reads_completed > 0


def run_freshness_scenario(protocol, seed=5):
    """Two read-your-writes clients and three readers over six keys — two
    per member, the primary included — under a zero-slack oracle
    (``staleness_oracle`` only flags a read a whole lease ``duration``
    behind; revoking the wrong holder would pass it):

    * values: once a write has completed at its client, no read *issued
      afterwards*, by any client, returns an older value — the writers
      re-read their key one sim-ms after each put;
    * the gate: the instant a primary lets a write through to ordering, no
      other member would still serve any of its keys.  Fault-free a holder
      executes a write about when the client learns of it, so the values
      alone rarely show a lease that was never revoked; this does, at once.
    """
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    cfg = protocol_config_for(protocol, leases=lease_config())
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=cfg)
    )
    keys = []
    for member in group.members * 2:
        keys.append(key_held_by(group.members, member, {range_of(k, 16) for k in keys}))
    completed = {}  # key -> newest value whose write completed at its client
    floors = {}  # (client, rid) -> completed[key] when the read was issued
    violations = []

    def issue_read(name, rid, key):
        floors[(name, rid)] = completed.get(key, -1)
        return ("get", key)

    def on_result(request, reply):
        if request.op[0] == "put":
            _, key, value = request.op
            completed[key] = max(completed.get(key, -1), value)
            return
        floor = floors.pop((request.client, request.rid))
        got = -1 if reply.result is None else reply.result
        if got < floor:
            violations.append(("stale", sim.now, request.client, request.op[1], got, floor))

    for replica in group.replicas.values():
        def gate(request, replica=replica, intercept=replica.lease_manager.intercept):
            parked = intercept(request)
            if not parked and request.op[0] == "put":
                read = ("get", request.op[1])
                violations.extend(
                    ("served elsewhere", sim.now, other.name, request.op[1])
                    for other in group.replicas.values()
                    if other is not replica and other.lease_table.covers(read)
                )
            return parked
        replica.lease_manager.intercept = gate

    # One writer per key, so a key's values rise in commit order.
    def put_then_get(name, own):
        def next_op(i):
            key = own[(i // 2) % len(own)]
            return ("put", key, i // 2) if i % 2 == 0 else issue_read(name, i, key)
        return next_op

    writers = [
        ClientNode(
            name,
            ClientConfig(
                think_time=1, timeout=30_000, max_requests=120,
                workload=FactoryWorkload(put_then_get(name, own), reads=is_read),
                on_result=on_result,
            ),
        )
        for name, own in (("w0", keys[0::2]), ("w1", keys[1::2]))
    ]
    readers = [
        ClientNode(
            name,
            ClientConfig(
                think_time=think, timeout=30_000, max_requests=300,
                max_outstanding=window,
                workload=FactoryWorkload(
                    lambda i, name=name, stride=stride: issue_read(
                        name, i, keys[(i * stride) % len(keys)]
                    ),
                    reads=is_read,
                ),
                on_result=on_result,
            ),
        )
        for name, think, window, stride in (
            ("r0", 40, 1, 1), ("r1", 70, 1, 5), ("r2", 90, 4, 1),
        )
    ]
    clients = writers + readers
    for client in clients:
        group.attach_client(client)
    sim.run(until=2 * RENEW + 100)  # grants are out before the first op
    for client in clients:
        client.start()
    sim.run(until=3_000_000)
    return group, clients, violations


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_no_read_issued_after_a_completed_write_returns_an_older_value(protocol):
    group, clients, violations = run_freshness_scenario(protocol)
    assert [c.completed for c in clients] == [120, 120, 300, 300, 300]
    # The lease path did the work, at every member: each holds two of the keys.
    assert sum(c.leased_reads_completed for c in clients) > 500
    assert group.chip.metrics.counter("g.lease.revoked").value > 0
    assert violations == []
    assert group.safety.is_safe


def test_crashed_holder_cannot_wedge_writes_past_expiry():
    """A holder that crashes without acking its revocation holds writes to
    *its* keys at most one lease duration (the expiry backstop) — and
    writes to anybody else's keys not at all."""
    sim, chip, group, client = build(
        "minbft", leases=lease_config(),
        client_cfg=ClientConfig(think_time=100, timeout=60_000, max_requests=3),
    )
    primary, live, victim = (group.replicas[m] for m in group.members)
    stuck_key = key_held_by(group.members, victim.name)
    free_key = key_held_by(group.members, live.name)
    client.config.workload = FactoryWorkload(lambda i: ("put", stuck_key, i))
    bystander = ClientNode(
        "c1",
        ClientConfig(
            think_time=100, timeout=60_000, max_requests=3,
            workload=FactoryWorkload(lambda i: ("put", free_key, i)),
        ),
    )
    group.attach_client(bystander)
    # Let grants land, then crash a backup holder silently.
    sim.run(until=2 * RENEW + 100)
    assert len(victim.lease_table) > 0
    victim.crash()
    client.start()
    bystander.start()
    sim.run(until=sim.now + DURATION / 3)
    # The live holder acked within the round; the dead one's key still waits.
    assert bystander.completed == 3 and max(bystander.latencies) < 1_000
    assert client.completed == 0 and primary.lease_manager.parked_writes == 1
    sim.run(until=sim.now + 10 * DURATION)
    assert client.completed == 3
    # Every write waited at most ~one duration for the dead holder.
    assert all(lat <= DURATION + 2_000 for lat in client.latencies)
    assert group.safety.is_safe


def test_each_held_write_is_released_just_past_its_own_expiry():
    """Two writes behind one dead holder, on ranges whose grants run out a
    renewal apart: the single backstop fires for the first and re-arms."""
    sim, group, _, _ = granted_group()
    primary, _, victim = (group.replicas[m] for m in group.members)
    manager = primary.lease_manager
    first = key_held_by(group.members, victim.name)
    second = key_held_by(group.members, victim.name, {range_of(first, 16)})
    victim.crash()
    first_expiry = manager._granted[victim.name][range_of(first, 16)]
    assert manager.intercept(ClientRequest("cx", 0, ("put", first, 1)))
    # The primary cannot know: the next renewal extends the other range.
    sim.run(until=sim.now + RENEW)
    second_expiry = manager._granted[victim.name][range_of(second, 16)]
    assert second_expiry == first_expiry + RENEW
    assert manager.intercept(ClientRequest("cx", 1, ("put", second, 1)))
    released = []
    primary._admit_ordered = lambda request: released.append((sim.now, request.rid))
    sim.run(until=first_expiry + 0.5)
    assert manager.parked_writes == 2 and released == []
    sim.run(until=second_expiry + 0.5)
    assert manager.parked_writes == 1 and released == [(first_expiry + 1.0, 0)]
    sim.run(until=second_expiry + 1.5)
    assert manager.parked_writes == 0 and released[1:] == [(second_expiry + 1.0, 1)]
    assert manager._backstop is None  # nothing outstanding, nothing armed


def test_acked_revocations_leave_one_backstop_not_one_each():
    """Acks arrive within a round; the expiry backstop must not cost a
    kernel event per revoked range that sits in the heap for a lease
    duration and fires to do nothing."""
    sim, chip, group, client = build(
        "minbft", leases=lease_config(),
        client_cfg=ClientConfig(think_time=50, timeout=60_000, max_requests=100),
    )
    manager = group.replicas[group.members[0]].lease_manager
    keys = []  # eight backup-held keys, a range each
    for i in range(8):
        taken = {range_of(k, 16) for k in keys}
        keys.append(key_held_by(group.members, group.members[1 + i % 2], taken))
    client.config.workload = FactoryWorkload(lambda i: ("put", keys[i % 8], i))
    fired = []
    expire = manager._expire_revocations
    manager._expire_revocations = lambda: (fired.append(sim.events_fired), expire())[1]
    sim.run(until=2 * RENEW + 100)
    client.start()
    sim.run(until=sim.now + 40 * DURATION)
    assert client.completed == 100
    assert chip.metrics.counter("g.lease.revoked").value >= 90  # nearly every write revoked
    assert chip.metrics.counter("g.lease.expired").value == 0  # ...and was acked
    assert len(fired) <= 6  # one per revoked range, 100, before
    assert manager._backstop is None and not manager._revoking


# ----------------------------------------------------------------------
# Revocation on suspicion / rejuvenation
# ----------------------------------------------------------------------
def test_revoked_holder_is_not_regranted_until_readmitted():
    sim, chip, group, client = build("minbft", leases=lease_config(), seed=5)
    client.config.max_requests = 500
    client.start()
    sim.run(until=2 * RENEW + 100)
    victim = group.members[2]
    holder = group.replicas[victim]
    assert len(holder.lease_table) > 0
    group.revoke_leases(victim)
    # The revocation reaches the holder and nothing is re-granted.
    sim.run(until=sim.now + 3 * RENEW)
    assert len(holder.lease_table) == 0
    primary = group.replicas[group.members[0]]
    assert not primary.lease_manager._granted.get(victim)
    # Readmission resumes grants at the next renewal tick.
    group.readmit_leases(victim)
    sim.run(until=sim.now + 2 * RENEW)
    assert len(holder.lease_table) > 0
    assert group.safety.is_safe


def test_heal_first_rejuvenation_revokes_before_regrant():
    """The scheduler revokes the victim's leases before reconfiguring it
    and only readmits once the pass landed — grants to the victim never
    overlap the heal."""
    sim = Simulator(seed=7)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", 5, 3)
    fabric.register_variants("svc", library.names())
    diversity = DiversityManager(library)
    manager = ReplicationManager(chip, fabric, diversity)
    cfg = protocol_config_for("minbft", leases=lease_config())
    group = manager.deploy_group(
        GroupConfig(protocol="minbft", f=1, group_id="g", protocol_config=cfg)
    )
    sim.run(until=30_000)
    client = ClientNode(
        "c0",
        ClientConfig(
            think_time=50, timeout=10_000,
            workload=FactoryWorkload(mixed_ops, reads=is_read),
        ),
    )
    group.attach_client(client)
    client.start()

    victim = group.members[2]
    timeline = []
    original_revoke = group.revoke_leases
    original_readmit = group.readmit_leases
    group.revoke_leases = lambda name: (
        timeline.append(("revoke", name, sim.now)), original_revoke(name)
    )[1]
    group.readmit_leases = lambda name: (
        timeline.append(("readmit", name, sim.now)), original_readmit(name)
    )[1]
    holder = group.replicas[victim]
    original_grant = holder.lease_table.on_grant
    holder.lease_table.on_grant = lambda s, g: (
        timeline.append(("grant", victim, sim.now)), original_grant(s, g)
    )[1]

    scheduler = RejuvenationScheduler(
        group, fabric, diversity,
        RejuvenationPolicy(
            period=20_000, diversify=False, relocate=False, heal_first=True
        ),
    )
    scheduler.start()
    crash_at = sim.now + 10_000
    sim.schedule_at(crash_at, group.crash, victim)
    sim.run(until=crash_at + 400_000)

    assert scheduler.passes >= 1
    assert group.replicas[victim].is_correct  # healed
    revokes = [t for kind, name, t in timeline if kind == "revoke" and name == victim]
    readmits = [t for kind, name, t in timeline if kind == "readmit" and name == victim]
    assert revokes and readmits
    first_revoke, first_readmit = min(revokes), min(readmits)
    assert first_revoke >= crash_at
    assert first_readmit > first_revoke  # heal completed in between
    # No grant reached the victim inside the revoked window.
    grants = [t for kind, name, t in timeline if kind == "grant"]
    assert not [t for t in grants if first_revoke <= t < first_readmit]
    # After readmission the victim serves leased reads again.
    sim.run(until=sim.now + 3 * RENEW)
    assert len(holder.lease_table) > 0
    assert group.safety.is_safe
