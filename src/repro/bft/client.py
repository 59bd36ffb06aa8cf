"""Clients: the requester's half of the protocol, and the workload driver.

:class:`ClientSession` is the one copy of what a requester does towards a
replica group — numbering and timing each request, dispatch, reply
voting, ``ReadNack`` and timeout fall-backs, primary-hint rotation and
adoption — used by :class:`ClientNode` here and by every
:class:`~repro.shard.router.ShardRouter` (one session per shard).

:class:`ClientNode` drives one group with ``ClientConfig.workload`` — the
ops it sends and which of them are reads — and a window of
``ClientConfig.max_outstanding`` concurrently outstanding requests; a
window of one is the classic closed loop, larger windows are the workload
shape that keeps a batching primary's batches full (P2 bench).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.bft.leases import holder_of_all, keys_of, lease_holder
from repro.bft.messages import ClientReply, ClientRequest, ReadNack
from repro.bft.replica import ExecutionLedger
from repro.metrics.traffic import TrafficSource
from repro.sim.events import ScheduledEvent
from repro.soc.chip import is_corrupted
from repro.soc.node import Node
from repro.workloads.workload import AlternatingKV, Workload


@dataclass
class ClientConfig:
    """Client behaviour parameters.

    ``workload`` is what the client sends: op ``i`` of its
    :class:`~repro.workloads.workload.Workload` is request ``i``, and an
    op its ``is_read`` accepts is broadcast unordered and completes on
    ``reply_quorum`` matching replies, falling back to the ordered path
    on timeout.  The default alternates puts and gets over 64 keys, every
    op ordered.  ``think_time`` is the gap between a completed operation and
    the next request; ``timeout`` triggers retransmission-to-all (which
    is also what lets backups detect a mute primary); ``max_requests``
    bounds the run (None = until stopped).

    ``max_outstanding`` is the client's window: up to that many requests
    are kept in flight concurrently, each voted and completed
    independently (what keeps a batching primary's batches full).  The
    default of 1 is the classic closed loop.  The session never opens a
    rid :attr:`~repro.bft.replica.ExecutionLedger.DEFAULT_WINDOW` (256)
    or more past its oldest open one, so a wider window — or one request
    that keeps retrying while the others complete — holds new requests
    back instead of breaking the replicas' replay detection.

    ``on_result`` (when set) observes every completion as ``(request,
    accepted_reply)`` — the hook the staleness-bound oracle in the lease
    tests and the P4 bench use.
    """

    think_time: float = 100.0
    timeout: float = 30_000.0
    max_requests: Optional[int] = None
    workload: Workload = field(default_factory=AlternatingKV)
    max_outstanding: int = 1
    on_result: Optional[Callable[[ClientRequest, ClientReply], None]] = None

    def __post_init__(self) -> None:
        if self.max_outstanding < 1:
            raise ValueError(f"max_outstanding must be >= 1, got {self.max_outstanding}")


@dataclass
class Exchange:
    """One request in flight: the request as last sent (a fall-back
    rewrites it under the same rid), when it was first sent, who has
    replied (by the replies' match key), its retransmit deadline (the
    kernel event), its expiries so far, the member believed primary when
    it was last sent ordered (None while it is a read), what the owner
    files it under, and, for a write on a leased group (None before its
    first reply), who replied each match key in each view and what the
    licensed replies vouched for: ``(match, None)`` from the holder,
    ``(match, view)`` from that view's primary."""

    __slots__ = ("request", "sent_at", "votes", "deadline", "attempts", "sent_under",
                 "context", "views", "licensed")  # one per operation: keep it lean
    request: ClientRequest
    sent_at: float
    votes: Dict[Any, Set[str]]
    deadline: Optional[ScheduledEvent]
    attempts: int
    sent_under: Optional[str]
    context: Any
    views: Optional[Dict[Any, Set[str]]]
    licensed: Optional[Set[Any]]


class ClientSession:
    """One requester's half of the protocol towards one replica group.

    Owns the requester's picture of the group (members, the reply quorum,
    whether reads are leased, the believed primary), its open
    ``exchanges`` (by rid, oldest first) and the rules every
    :class:`Exchange` follows.  ``node`` is the NoC node that sends and is
    replied to; ``timeout`` is a fresh exchange's retransmit deadline.
    Whether an op is a read is the owner's to say, in :meth:`open`.

    The session numbers its requests (rids count up per session, so a
    group's execution ledger sees one monotone stream per requester) and
    times each on its own deadline, backed off per exchange.  The primary
    hint rotates only if it still names the member the expired exchange
    was last sent under: k exchanges expiring together rotate it once, a
    second stalled round once more.  :meth:`open` checks the ledger's
    premise: it opens no rid a ledger window past the oldest open one.

    What stays the owner's is giving up: :meth:`gives_up` is asked at
    each expiry (a router gives up on a degraded shard or after
    ``MAX_ATTEMPTS``, a :class:`ClientNode` never), and the owner decides
    which side gives way when :meth:`open` refuses (a client waits for
    its oldest request, a router fails it).  Which replica serves a leased read is nobody's
    choice: :meth:`lease_target` is the key's one leaseholder.  On a leased
    group an ordered request completes only with a licence among its
    matching replies (:meth:`accept`): the barrier that keeps a leased read
    issued after it from returning an older value.

    A replica group reconfigures its requesters through
    :meth:`configure`, so a session is what sits in a group's ``clients``
    list on behalf of a router.
    """

    #: Each expiry multiplies an exchange's timeout by this much.
    BACKOFF_FACTOR = 2.0
    #: The backed-off timeout never exceeds this.
    MAX_TIMEOUT = 480_000.0

    def __init__(self, node: Node, timeout: float) -> None:
        self.node = node
        self.timeout = timeout
        self.members: List[str] = []
        self.reply_quorum = 1
        self.lease_reads = False
        self.primary_hint = 0
        self.exchanges: Dict[int, Exchange] = {}
        self._next_rid = 0
        self.rotations = 0  # primary-hint rotations: one per stalled round
        self.read_fallbacks = 0  # reads whose deadline sent them down the ordered path

    def configure(
        self, replicas: List[str], reply_quorum: int, lease_reads: bool = False
    ) -> None:
        """Point the session at a replica group (callable mid-run when
        the adaptation layer switches protocols: exchanges in flight are
        voted and retransmitted against the new membership).

        ``lease_reads=True`` lets read-only ops go out as **leased
        reads**: one message to one replica, accepting its lone leased
        reply; a :class:`ReadNack` drops the op to the quorum read path.
        """
        if reply_quorum < 1:
            raise ValueError("reply quorum must be >= 1")
        self.members = list(replicas)
        self.reply_quorum = reply_quorum
        self.lease_reads = lease_reads
        self.primary_hint %= max(1, len(self.members))

    def primary(self) -> str:
        """The replica currently believed to be primary."""
        return self.members[self.primary_hint % len(self.members)]

    def lease_target(self, op: Any) -> Optional[str]:
        """The one replica a leased read of ``op`` goes to: the holder of
        its (first) key, :func:`~repro.bft.leases.lease_holder` — the only
        member that will serve it, and one of the two whose licence
        completes a write of it (:meth:`accept`).  None when the group
        runs no leases, the keys are underivable, or the holder is not
        placed on this chip.  Grant state is not tracked here: a holder
        whose lease lapsed answers with a :class:`ReadNack` and the read
        drops to the quorum path."""
        keys = keys_of(op) if self.lease_reads else None
        return self.holder_target(keys[0]) if keys else None

    def holder_target(self, key: str) -> Optional[str]:
        """:meth:`lease_target` for an op already known to lease ``key``
        first: its holder, or None when not placed on this chip."""
        holder = lease_holder(self.members, key)
        chip = self.node.chip
        return holder if chip is not None and chip.has_node(holder) else None

    def open(
        self, op: Any, read_only: bool, lease_target: Optional[str], context: Any = None
    ) -> Optional[Exchange]:
        """Send the session's next request, arm its deadline and return
        its exchange, filed under ``context``: a leased read goes to
        ``lease_target`` alone — the op's :meth:`lease_target`, which the
        owner worked out, None for anything but a leased read — any other
        read to every member (fast path: wait for ``reply_quorum``
        matching), a write to the believed primary.

        None, and nothing sent, while the next rid would be a ledger
        window or more past the oldest open one: the replicas would call
        that one an ancient replay."""
        rid = self._next_rid
        exchanges = self.exchanges
        # Every open rid is above the last one opened minus the window, so
        # only this one can be a window behind.
        if rid - ExecutionLedger.DEFAULT_WINDOW in exchanges:
            return None
        self._next_rid = rid + 1
        node = self.node
        request = ClientRequest(
            node.name, rid, op, read_only=read_only, lease_read=lease_target is not None,
        )
        primary = None
        if lease_target is not None:
            node.send(lease_target, request, request.wire_size())
        elif read_only:
            node.broadcast(self.members, request, request.wire_size())
        else:
            primary = self.primary()
            node.send(primary, request, request.wire_size())
        sim = node.sim
        exchange = exchanges[rid] = Exchange(
            request, sim.now, {}, None, 0, primary, context, None, None
        )
        exchange.deadline = sim.schedule_at(sim.now + self.timeout, self._on_deadline, exchange)
        return exchange

    def accept(self, exchange: Exchange, sender: str, reply: ClientReply) -> bool:
        """Count ``reply`` towards ``exchange``; True when it completes it
        (the exchange is closed and the replier's view is adopted for
        primary targeting).

        On a leased group an ordered request also needs a
        :attr:`~repro.bft.messages.ClientReply.licensed` reply among its
        matching ones (:meth:`_licensed`)."""
        if sender != reply.replica or sender not in self.members:
            return False  # transport-authenticated sender must match the claim
        request = exchange.request
        lease_read = request.lease_read
        if lease_read and not reply.leased:
            return False  # a lone unleased reply must not complete a read
        # The leaseholder answers alone; its staleness is bounded.
        needed = 1 if lease_read else self.reply_quorum
        match = reply.match_key()
        votes = exchange.votes.setdefault(match, set())
        votes.add(sender)
        if self.lease_reads and not request.read_only:
            if not self._licensed(exchange, sender, reply, match):
                return False
        if len(votes) < needed:
            return False
        self.primary_hint = reply.view % len(self.members)
        self.close(exchange)
        return True

    def _licensed(self, exchange: Exchange, sender: str, reply: ClientReply, match: Any) -> bool:
        """Note ``reply``'s view and licence; True once ``match`` holds a
        licence this requester can rely on.  The member it sends the op's
        leased reads to (the holder of all its keys) licenses by having
        executed the write.  The primary of view v licenses only once
        ``reply_quorum`` replies with ``match`` report v: a view is the
        replier's own claim, so a correct member must vouch that the
        licensing primary leads it."""
        views = exchange.views
        licensed = exchange.licensed
        if views is None:
            views = exchange.views = {}
            licensed = exchange.licensed = set()
        view = reply.view
        views.setdefault((match, view), set()).add(sender)
        if reply.licensed:
            members = self.members
            if sender == holder_of_all(members, keys_of(exchange.request.op)):
                licensed.add((match, None))
            elif sender == members[view % len(members)]:
                licensed.add((match, view))
        quorum = self.reply_quorum
        return (match, None) in licensed or any(
            len(views[seen]) >= quorum for seen in licensed if seen[0] == match
        )

    def close(self, exchange: Exchange) -> None:
        """Forget ``exchange`` and disarm its deadline (a completing
        :meth:`accept` does this itself)."""
        exchange.deadline.cancel()
        del self.exchanges[exchange.request.rid]

    def nacked(self, exchange: Exchange, sender: str, nack: ReadNack) -> bool:
        """No valid lease at the target.  True when the nack is genuine —
        from the member it names, addressed to this requester, for a read
        still on the lease path — and ``exchange`` has been dropped to the
        quorum read with its votes cleared; the owner then calls
        :meth:`rebroadcast` (or gives up on the exchange)."""
        if sender != nack.replica or sender not in self.members:
            return False
        if nack.client != self.node.name or not exchange.request.lease_read:
            return False
        exchange.request = dataclasses.replace(exchange.request, lease_read=False)
        exchange.votes = {}
        return True

    def rebroadcast(self, exchange: Exchange) -> None:
        """Send the exchange's current request to every member."""
        request = exchange.request
        exchange.sent_under = None if request.read_only else self.primary()
        self.node.broadcast(self.members, request, request.wire_size())

    def gives_up(self, exchange: Exchange) -> bool:
        """Asked at each expiry, before anything is resent: True when the
        owner has given up on ``exchange`` and closed it.  Never, here."""
        return False

    def _on_deadline(self, exchange: Exchange) -> None:
        """``exchange`` went unanswered.  Unless the owner :meth:`gives_up`,
        resend it to every member (so each backup's view-change timer
        arms) and re-arm it backed off; rotate the hint if it still names
        the member the exchange was last sent under as an ordered request
        (a stalled read implicates no primary).  A read whose fast path
        stalled first falls back to the ordered path under the same rid,
        votes cleared."""
        exchange.attempts += 1
        if self.gives_up(exchange):
            return
        if self.primary() == exchange.sent_under:
            self.primary_hint += 1
            self.rotations += 1
        request = exchange.request
        if request.read_only:
            exchange.request = dataclasses.replace(request, read_only=False, lease_read=False)
            exchange.votes = {}
            self.read_fallbacks += 1
        self.rebroadcast(exchange)
        delay = min(self.timeout * self.BACKOFF_FACTOR ** exchange.attempts, self.MAX_TIMEOUT)
        sim = self.node.sim
        exchange.deadline = sim.schedule_at(sim.now + delay, self._on_deadline, exchange)


class ClientNode(Node, TrafficSource):
    """A client of one replica group: the workload loop over a
    :class:`ClientSession`.

    Keeps up to ``max_outstanding`` requests in flight, issuing the next
    ``think_time`` after a completion; the session sends each request to
    the believed primary, collects replies until ``reply_quorum``
    *matching* ones arrive (f+1 for BFT — at least one is from a correct
    replica) and retransmits to all replicas when that request's own
    deadline expires.  A client never gives up on a request.

    Windowed measurement (``completions_in``/``latencies_in``/
    ``max_completion_gap``) comes from the shared
    :class:`~repro.metrics.traffic.TrafficSource` mixin.
    """

    def __init__(self, name: str, config: Optional[ClientConfig] = None) -> None:
        Node.__init__(self, name)
        TrafficSource.__init__(self)
        self.config = config or ClientConfig()
        self.session = ClientSession(self, self.config.timeout)
        self._issued = 0  # ops taken from the workload
        self.fast_reads_completed = 0
        self.leased_reads_completed = 0
        self.lease_fallbacks = 0
        self.running = False

    @property
    def timeouts(self) -> int:
        """Stalled rounds: one per primary-hint rotation, however many
        requests expired together (what a severity detector samples)."""
        return self.session.rotations

    # ------------------------------------------------------------------
    def configure(
        self, replicas: List[str], reply_quorum: int, lease_reads: bool = False
    ) -> None:
        """Point the client at a replica group: :meth:`ClientSession.configure`."""
        self.session.configure(replicas, reply_quorum, lease_reads)

    def start(self) -> None:
        """Begin (or resume) issuing requests."""
        if not self.session.members:
            raise ValueError(f"client {self.name} has no replicas configured")
        self.running = True
        self.session.timeout = self.config.timeout
        self._fill_window()

    def stop(self) -> None:
        """Stop issuing requests (those in flight are abandoned)."""
        self.running = False
        session = self.session
        for exchange in list(session.exchanges.values()):
            session.close(exchange)

    # ------------------------------------------------------------------
    @property
    def primary_name(self) -> str:
        """The replica currently believed to be primary."""
        return self.session.primary()

    # ------------------------------------------------------------------
    # The window
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        if not self.running:
            return
        config, session = self.config, self.session
        workload = config.workload
        while len(session.exchanges) < config.max_outstanding:
            if config.max_requests is not None and self._issued >= config.max_requests:
                if not session.exchanges:
                    self.running = False
                break
            op = workload.op(self._issued)
            read = workload.is_read(op)
            if session.open(op, read, session.lease_target(op) if read else None) is None:
                break  # a ledger window past the oldest: wait for it
            self._issued += 1

    def _complete_one(self, exchange: Exchange, reply: ClientReply) -> None:
        request = exchange.request
        if request.lease_read:
            self.leased_reads_completed += 1
        elif request.read_only:
            self.fast_reads_completed += 1
        if self.config.on_result is not None:
            self.config.on_result(request, reply)
        self.record_completion(self.sim.now, self.sim.now - exchange.sent_at)
        self.sim.schedule(self.config.think_time, self._fill_window)

    def on_message(self, sender: str, message: Any) -> None:
        if is_corrupted(message):
            return
        if isinstance(message, ReadNack):
            exchange = self.session.exchanges.get(message.rid)
            if exchange is not None and self.session.nacked(exchange, sender, message):
                self.lease_fallbacks += 1
                self.session.rebroadcast(exchange)
        elif isinstance(message, ClientReply):
            exchange = self.session.exchanges.get(message.rid)
            if exchange is not None and self.session.accept(exchange, sender, message):
                self._complete_one(exchange, message)
