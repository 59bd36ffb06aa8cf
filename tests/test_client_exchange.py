"""The client exchange: one table of rules, run against both requesters.

:class:`~repro.bft.client.ClientSession` is the one copy of the
requester's half of the protocol.  Every rule below is checked through a
:class:`ClientNode` with a window of one (the closed loop), a
:class:`ClientNode` with a wider window, and a :class:`ShardRouter`
sub-operation — the requester's sends are captured instead of delivered,
replies and nacks are handed to ``on_message`` and the simulator is run
to an exchange's deadline, so each row sees exactly one decision.
"""

import inspect

import pytest

import repro.shard.router
from repro.bft import ClientConfig, ClientNode, ClientSession
from repro.bft.messages import ClientReply, ReadNack
from repro.bft.replica import ExecutionLedger
from repro.noc import Coord
from repro.shard import RouterConfig, ShardRouter
from repro.shard.directory import ShardDirectory
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node
from repro.workloads import FactoryWorkload

MEMBERS = ["g-r0", "g-r1", "g-r2"]
OUTSIDER = "g-r3"  # on the chip, not (yet) in the group
WRITE = ("put", "k1", 1)
READ = ("get", "k1")
TIMEOUT, MAX_TIMEOUT = 1_000.0, 3_000.0


def is_get(op):
    return op[0] == "get"


class Requester:
    """One requester on a 4x4 chip beside four sink nodes, talking to a
    three-member group with ``reply_quorum = 2``."""

    def __init__(self, kind, lease_reads):
        self.sim = Simulator(seed=3)
        self.chip = Chip(self.sim, ChipConfig(width=4, height=4))
        for i, name in enumerate(MEMBERS + [OUTSIDER]):
            self.chip.place_node(Node(name), Coord(i, 0))
        self.results = []
        if kind == "router":
            self.window = 1
            self.node = ShardRouter("rq", ShardDirectory(["s0"]), RouterConfig(timeout=TIMEOUT))
            self.chip.place_node(self.node, Coord(1, 1))
            self.session = self.node.bind("s0", MEMBERS, 2, lease_reads=lease_reads)
        else:
            self.window = int(kind.rpartition("-w")[2])
            self.node = ClientNode("rq", ClientConfig(max_outstanding=self.window, timeout=TIMEOUT))
            self.chip.place_node(self.node, Coord(1, 1))
            self.node.configure(MEMBERS, 2, lease_reads=lease_reads)
            self.session = self.node.session
        self.sent = []
        self.node.add_outbound_filter(self._capture)

    def _capture(self, dst, message):
        self.sent.append((dst, message))
        return None  # nothing reaches the NoC

    # -- driving ---------------------------------------------------------
    def issue(self, op):
        """Put ``op`` in flight as rid 0 (a window > 1 fills up with it)."""
        if isinstance(self.node, ShardRouter):
            self.node.submit(op, self.results.append, is_get(op))
        else:
            self.node.config.workload = FactoryWorkload(lambda i: op, reads=is_get)
            self.node.start()
        return self.take_sent()

    def take_sent(self):
        sent, self.sent = self.sent, []
        return sent

    def reply(self, sender, rid=0, view=0, leased=False, replica=None, result="v"):
        self.node.on_message(
            sender, ClientReply(replica or sender, "rq", rid, result, view, leased)
        )

    def nack(self, sender, rid=0, client="rq", replica=None):
        self.node.on_message(sender, ReadNack(replica or sender, client, rid))

    def expire(self, rid=0):
        """Run to ``rid``'s deadline: it fires, with every deadline due
        at the same instant (a window sent together expires together)."""
        self.sim.run(until=self.exchange(rid).deadline.time)
        return self.take_sent()

    # -- observing -------------------------------------------------------
    def exchange(self, rid=0):
        """The open exchange for ``rid``; None once it completed."""
        return self.session.exchanges.get(rid)

    def timeout_of(self, rid=0):
        """How long ``rid`` waits from now (just sent or just resent)."""
        return self.exchange(rid).deadline.time - self.sim.now

    def fresh_timeout(self):
        """The timeout the next request starts from."""
        if isinstance(self.node, ShardRouter):
            self.node.submit(WRITE)
        else:
            self.sim.run(until=self.sim.now + self.node.config.think_time)
        newest = self.session.exchanges[max(self.session.exchanges)]
        return newest.deadline.time - newest.sent_at

    def lease_fallbacks(self):
        if isinstance(self.node, ShardRouter):
            return self.chip.metrics.counter("shard.s0.lease_fallbacks").value
        return self.node.lease_fallbacks


KINDS = ["client-w1", "client-w4", "router"]


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


def dsts(sent, rid=0):
    return [dst for dst, message in sent if message.rid == rid]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def test_dispatch_write_to_primary_read_to_all_leased_read_to_one(kind):
    assert dsts(Requester(kind, lease_reads=True).issue(WRITE)) == ["g-r0"]
    assert dsts(Requester(kind, lease_reads=False).issue(READ)) == MEMBERS
    rq = Requester(kind, lease_reads=True)
    (target,) = dsts(rq.issue(READ))
    assert target in MEMBERS
    request = rq.exchange().request
    assert request.read_only and request.lease_read and request.client == "rq"


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
def test_spoofed_and_non_member_replies_are_ignored(kind):
    rq = Requester(kind, lease_reads=False)
    rq.issue(WRITE)
    rq.reply("g-r0", replica="g-r1")  # transport sender != claimed replica
    rq.reply(OUTSIDER)
    rq.reply(OUTSIDER, replica="g-r1")
    assert rq.exchange().votes == {}
    rq.reply("g-r0")
    rq.reply("g-r0")  # one member, one vote
    assert rq.exchange() is not None
    rq.reply("g-r1", result="other")  # does not match
    assert rq.exchange() is not None
    rq.reply("g-r2")
    assert rq.exchange() is None


def test_lone_unleased_reply_does_not_complete_a_leased_read(kind):
    rq = Requester(kind, lease_reads=True)
    (target,) = dsts(rq.issue(READ))
    rq.reply(target, leased=False)
    assert rq.exchange() is not None and rq.exchange().votes == {}
    rq.reply(target, leased=True)
    assert rq.exchange() is None


def test_unleased_read_completes_on_read_quorum(kind):
    rq = Requester(kind, lease_reads=False)
    rq.issue(READ)
    rq.reply("g-r2")
    assert rq.exchange() is not None
    rq.reply("g-r1")
    assert rq.exchange() is None


# ----------------------------------------------------------------------
# ReadNack
# ----------------------------------------------------------------------
def test_read_nack_drops_to_quorum_read_with_votes_cleared(kind):
    rq = Requester(kind, lease_reads=True)
    (target,) = dsts(rq.issue(READ))
    exchange = rq.exchange()
    exchange.votes["stale"] = {target}
    rq.nack(target)
    assert exchange.votes == {} and rq.lease_fallbacks() == 1
    request = exchange.request
    assert request.rid == 0 and request.read_only and not request.lease_read
    assert dsts(rq.take_sent()) == MEMBERS
    rq.nack(target)  # a second nack finds no lease path to leave
    assert rq.lease_fallbacks() == 1 and rq.take_sent() == []
    rq.reply(target)
    rq.reply("g-r0" if target != "g-r0" else "g-r1")
    assert rq.exchange() is None


@pytest.mark.parametrize(
    "forged",
    [
        dict(sender="g-r1", replica="g-r2"),  # transport sender != claimed replica
        dict(sender=OUTSIDER),  # not a member
        dict(sender="g-r1", client="someone-else"),  # addressed to another requester
    ],
    ids=["spoofed", "non-member", "other-addressee"],
)
def test_read_nack_that_is_not_ours_is_ignored(kind, forged):
    """The ``other-addressee`` row on the router is the PR 22 bugfix: the
    router used to check rid, sender and membership but not
    ``nack.client``, so a nack meant for another requester whose rid
    collided made it abandon the lease path."""
    rq = Requester(kind, lease_reads=True)
    rq.issue(READ)
    rq.nack(**forged)
    assert rq.exchange().request.lease_read
    assert rq.lease_fallbacks() == 0 and rq.take_sent() == []


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_read_timeout_falls_back_to_the_ordered_path_under_the_same_rid(kind):
    rq = Requester(kind, lease_reads=False)
    rq.issue(READ)
    rq.reply("g-r1")
    exchange = rq.exchange()
    assert len(exchange.votes) == 1
    sent = rq.expire()
    request = exchange.request
    assert request.rid == 0 and not request.read_only and not request.lease_read
    assert exchange.votes == {} and dsts(sent) == MEMBERS
    assert all(m is request for d, m in sent if m.rid == 0)
    # A stalled read implicates no primary; once ordered, its next expiry does.
    assert rq.session.rotations == 0 and rq.session.primary() == "g-r0"
    rq.expire()
    assert rq.session.rotations == 1 and rq.session.primary() == "g-r1"
    assert rq.node.timeouts == (2 if kind == "router" else 1)
    # A leased read skips the quorum read and goes straight to ordered.
    rq = Requester(kind, lease_reads=True)
    rq.issue(READ)
    rq.expire()
    request = rq.exchange().request
    assert request.rid == 0 and not request.read_only and not request.lease_read


def test_write_timeout_rebroadcasts_suspects_and_backs_off(kind, monkeypatch):
    monkeypatch.setattr(ClientSession, "MAX_TIMEOUT", MAX_TIMEOUT)
    rq = Requester(kind, lease_reads=False)
    assert dsts(rq.issue(WRITE)) == ["g-r0"]
    assert rq.timeout_of() == TIMEOUT and rq.session.primary() == "g-r0"
    sent = rq.expire()
    for rid in range(rq.window):  # a window sent together expires together
        assert dsts(sent, rid) == MEMBERS
    assert rq.session.primary_hint == 1 and rq.session.primary() == "g-r1"
    assert rq.timeout_of() == 2 * TIMEOUT
    rq.expire()
    assert rq.timeout_of() == MAX_TIMEOUT  # 4 000 capped
    rq.expire()
    assert rq.timeout_of() == MAX_TIMEOUT
    assert rq.session.primary_hint == 3 and rq.node.timeouts == 3


def test_completion_adopts_the_view_and_resets_the_backoff(kind):
    """The completed exchange's backoff goes with it: the next request
    starts from the base timeout."""
    rq = Requester(kind, lease_reads=False)
    rq.issue(WRITE)
    rq.expire()
    assert rq.timeout_of() == 2 * TIMEOUT
    rq.reply("g-r1", view=5)
    assert rq.session.primary_hint == 1  # no quorum yet, nothing adopted
    rq.reply("g-r2", view=5)
    assert rq.exchange() is None
    assert rq.session.primary_hint == 5 % 3 and rq.session.primary() == "g-r2"
    assert rq.fresh_timeout() == TIMEOUT


def test_reconfigure_repoints_exchanges_in_flight(kind):
    """What ``ReplicaGroup.switch_protocol`` does to every entry of its
    ``clients`` list, mid-run."""
    rq = Requester(kind, lease_reads=False)
    rq.issue(WRITE)
    rq.expire()
    rq.expire()
    assert rq.session.primary_hint == 2
    grown = ["g-r1", "g-r2", OUTSIDER, "g-r0"]
    rq.session.configure(grown, 3)
    assert rq.session.primary_hint == 2 and rq.session.primary() == OUTSIDER
    rq.session.configure(grown[:3], 3)
    assert rq.session.members == grown[:3] and rq.session.primary_hint == 2
    rq.reply("g-r0")  # left the group: no longer counted
    assert rq.exchange().votes == {}
    assert dsts(rq.expire()) == grown[:3]  # retransmits follow the new membership
    # It was last sent under g-r2; the new membership re-aimed the hint, so
    # this expiry does not rotate it.  The next one does.
    assert rq.session.primary() == OUTSIDER
    rq.expire()
    assert rq.session.primary() == "g-r1"  # hint 3 wraps over three members
    for name in grown[:2]:
        rq.reply(name)
    assert rq.exchange() is not None  # the new reply quorum is 3
    rq.reply(OUTSIDER)  # joined after the request was sent
    assert rq.exchange() is None
    with pytest.raises(ValueError):
        rq.session.configure(grown, 0)


# ----------------------------------------------------------------------
# One deadline per exchange, one hint rotation per round
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["client-w4", "router"])
def test_exchanges_expiring_together_rotate_the_hint_once_per_round(kind):
    """Four exchanges of one session sent under one primary expire
    together: the hint rotates once, and a second stalled round rotates
    it once more.  A client counts a timeout per rotation, a router one
    per sub-operation expiry."""
    rq = Requester(kind, lease_reads=False)
    for _ in range(1 if kind == "client-w4" else 4):
        rq.issue(WRITE)
    assert sorted(rq.session.exchanges) == [0, 1, 2, 3]
    sent = rq.expire()
    assert all(dsts(sent, rid) == MEMBERS for rid in range(4))
    assert rq.session.primary() == "g-r1" and rq.session.rotations == 1
    rq.expire()
    assert rq.session.primary() == "g-r2" and rq.session.rotations == 2
    assert rq.node.timeouts == (2 if kind == "client-w4" else 8)


def test_a_request_whose_replies_were_lost_is_retransmitted_while_the_window_completes():
    """rid 0's replies are lost while the other slot of a window-2 client
    completes every quarter timeout: rid 0 must still go to every member
    within one timeout of its send."""
    rq = Requester("client-w2", lease_reads=False)
    rq.issue(WRITE)  # rids 0 and 1 in flight
    while rq.sim.now <= TIMEOUT:
        rid = max(rq.session.exchanges)
        if rid != 0:
            for sender in MEMBERS[:2]:
                rq.reply(sender, rid=rid)
        rq.sim.run(until=rq.sim.now + TIMEOUT / 4)
    assert rq.exchange(0) is not None and rq.node.completed >= 3
    assert sorted(dsts(rq.sent)) == MEMBERS


def _complete_all_but_rid_0(rq, rounds):
    """Each round, answer the newest open request unless it is rid 0
    (whose replies are lost), then let 100 ms pass and a router submit
    one more write; a client refills its window by itself."""
    for _ in range(rounds):
        newest = max(rq.session.exchanges)
        if newest:
            for sender in MEMBERS[:2]:
                rq.reply(sender, rid=newest)
        if isinstance(rq.node, ShardRouter):
            rq.node.submit(WRITE, rq.results.append)
        rq.sim.run(until=rq.sim.now + 100.0)


def test_a_client_waits_while_its_oldest_request_trails_a_ledger_window():
    """The replicas' ledger calls a rid a window below its newest executed
    one an ancient replay, so a session never opens a rid that far past
    its oldest open one.  A client's window does not bound that span
    while one request keeps retrying and the others complete: the new
    request gives way and waits for the oldest."""
    window = ExecutionLedger.DEFAULT_WINDOW
    rq = Requester("client-w2", lease_reads=False)
    rq.issue(WRITE)
    _complete_all_but_rid_0(rq, 2 * window)
    assert list(rq.session.exchanges) == [0] and rq.exchange(0).attempts >= 5
    assert rq.session._next_rid == window and rq.node.completed == window - 1
    rq.reply("g-r0")
    rq.reply("g-r1")  # rid 0 completes: the window refills
    rq.sim.run(until=rq.sim.now + 100.0)
    assert sorted(rq.session.exchanges) == [window, window + 1]


def test_a_router_gives_up_a_sub_operation_a_ledger_window_behind():
    """A router cannot make its submitters wait: at the rid that would
    put its oldest open sub-operation a ledger window behind, that oldest
    one gives way — it fails — and the new one goes out."""
    window = ExecutionLedger.DEFAULT_WINDOW
    rq = Requester("router", lease_reads=False)
    rq.issue(WRITE)
    _complete_all_but_rid_0(rq, 2 * window)
    failed = [r.error for r in rq.results if not r.ok]
    assert failed == ["shard s0 left it a ledger window behind"]
    assert len(rq.results) == 2 * window and list(rq.session.exchanges) == [2 * window]
    assert rq.node.stats["s0"].failed == 1


# ----------------------------------------------------------------------
# One copy
# ----------------------------------------------------------------------
#: The session's exchange rules, its deadline methods among them: ``open``
#: numbers and arms, ``_on_deadline`` resends, backs off and rotates the
#: hint, ``close`` disarms.
RULES = (
    "primary", "open", "accept", "nacked", "rebroadcast", "close", "_on_deadline",
)
RULE_TEXT = (
    ".replica or sender not in", "dataclasses.replace(", "BACKOFF_FACTOR",
    "primary_hint +=", "reply.view %", "match_key()", "ClientRequest(",
    "schedule_at(", "_next_rid", "MAX_TIMEOUT",
)


@pytest.mark.parametrize(
    "owner", [ClientNode, repro.shard.router], ids=["ClientNode", "shard.router"]
)
def test_requesters_do_not_refork_the_exchange(owner):
    """The rules live on the session only: neither requester defines a
    method of the same name, and neither's source restates one."""
    assert all(name in vars(ClientSession) for name in RULES)
    classes = [owner] if inspect.isclass(owner) else [
        cls for cls in vars(owner).values()
        if inspect.isclass(cls) and cls.__module__ == owner.__name__
    ]
    for cls in classes:
        forked = [name for name in RULES if name in vars(cls)]
        assert not forked, f"{cls.__name__} re-defines exchange rules: {forked}"
    source = inspect.getsource(owner)
    restated = [text for text in RULE_TEXT if text in source]
    assert not restated, f"{owner.__name__} restates exchange rules: {restated}"
