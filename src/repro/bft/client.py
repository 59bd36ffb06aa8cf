"""Clients: the requester's half of the protocol, and the workload driver.

:class:`ClientSession` is the one copy of what a requester does towards a
replica group — dispatch, reply voting, ``ReadNack`` and timeout
fall-backs, primary-hint adoption — used by :class:`ClientNode` here and
by every :class:`~repro.shard.router.ShardRouter` (one session per shard).

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

from repro.bft.leases import keys_of, lease_holder
from repro.bft.messages import ClientReply, ClientRequest, ReadNack
from repro.metrics.traffic import TrafficSource
from repro.sim.timers import Timeout
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
    default of 1 is the classic closed loop.  Keep it below the replicas'
    execution-ledger window (256) or replay detection of very old rids
    degrades.

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
    rewrites it under the same rid), when it was first sent, and who has
    replied so far, grouped by the replies' match key."""

    __slots__ = ("request", "sent_at", "votes")  # one per operation: keep it lean
    request: ClientRequest
    sent_at: float
    votes: Dict[Any, Set[str]]


class ClientSession:
    """One requester's half of the protocol towards one replica group.

    Owns the requester's picture of the group (members, the reply quorum,
    whether reads are leased, the believed primary) and the rules every
    :class:`Exchange` follows.  ``node`` is the NoC node that sends and
    is replied to.  Whether an op is a read is not the session's to
    decide: the owner passes it to :meth:`open`.

    Two policies are the owner's, not the session's: *who owns the timer*
    (the owner arms it after :meth:`open` and calls :meth:`escalate` when
    it expires) and *how often an expiry suspects the primary* (the owner
    calls :meth:`suspect_primary` — once per expired timer, however many
    exchanges that timer covers).  Which replica serves a leased read is
    nobody's choice: :meth:`lease_target` is the key's one leaseholder.

    A replica group reconfigures its requesters through
    :meth:`configure`, so a session is what sits in a group's ``clients``
    list on behalf of a router.
    """

    #: Each expiry without progress multiplies the timeout by this much.
    BACKOFF_FACTOR = 2.0
    #: The backed-off timeout never exceeds this.
    MAX_TIMEOUT = 480_000.0

    def __init__(self, node: Node) -> None:
        self.node = node
        self.members: List[str] = []
        self.reply_quorum = 1
        self.lease_reads = False
        self.primary_hint = 0

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
        its (first) key, :func:`~repro.bft.leases.lease_holder` — the
        member the primary revokes for that key and the only one that will
        serve it.  None when the group runs no leases, the keys are
        underivable, or the holder is not placed on this chip.  Grant state
        is not tracked here: a holder whose lease lapsed answers with a
        :class:`ReadNack` and the read drops to the quorum path."""
        keys = keys_of(op) if self.lease_reads else None
        return self.holder_target(keys[0]) if keys else None

    def holder_target(self, key: str) -> Optional[str]:
        """:meth:`lease_target` for an op already known to lease ``key``
        first: its holder, or None when not placed on this chip."""
        holder = lease_holder(self.members, key)
        chip = self.node.chip
        return holder if chip is not None and chip.has_node(holder) else None

    def open(
        self, rid: int, op: Any, read_only: bool, lease_target: Optional[str]
    ) -> Exchange:
        """Send request ``rid`` and return its exchange: a leased read
        goes to ``lease_target`` alone — the op's :meth:`lease_target`,
        which the owner worked out, None for anything but a leased read —
        any other read to every member (fast path: wait for
        ``reply_quorum`` matching), a write to the believed primary."""
        request = ClientRequest(
            self.node.name, rid, op,
            read_only=read_only, lease_read=lease_target is not None,
        )
        if lease_target is not None:
            self.node.send(lease_target, request, request.wire_size())
        elif read_only:
            self.node.broadcast(self.members, request, request.wire_size())
        else:
            self.node.send(self.primary(), request, request.wire_size())
        return Exchange(request, self.node.sim.now, {})

    def accept(self, exchange: Exchange, sender: str, reply: ClientReply) -> bool:
        """Count ``reply`` towards ``exchange``; True when it completes it
        (and the replier's view is adopted for primary targeting)."""
        if sender != reply.replica or sender not in self.members:
            return False  # transport-authenticated sender must match the claim
        lease_read = exchange.request.lease_read
        if lease_read and not reply.leased:
            return False  # a lone unleased reply must not complete a read
        # The leaseholder answers alone; its staleness is bounded.
        needed = 1 if lease_read else self.reply_quorum
        votes = exchange.votes.setdefault(reply.match_key(), set())
        votes.add(sender)
        if len(votes) < needed:
            return False
        self.primary_hint = reply.view % len(self.members)
        return True

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
        self.node.broadcast(self.members, request, request.wire_size())

    def escalate(self, exchange: Exchange) -> bool:
        """``exchange`` timed out: retransmit to every member, so each
        backup sees the request (that is what arms their view-change
        timers).  A read whose fast path stalled (concurrent writes or
        faulty replies) first falls back to the ordered path under the
        same rid, votes cleared — True when that happened."""
        fell_back = exchange.request.read_only
        if fell_back:
            exchange.request = dataclasses.replace(
                exchange.request, read_only=False, lease_read=False
            )
            exchange.votes = {}
        self.rebroadcast(exchange)
        return fell_back

    def suspect_primary(self, current_timeout: float) -> float:
        """A timer expired: aim at the next member, and return the
        timeout to wait next (backed off, capped at :attr:`MAX_TIMEOUT`)."""
        self.primary_hint += 1
        return min(current_timeout * self.BACKOFF_FACTOR, self.MAX_TIMEOUT)


class ClientNode(Node, TrafficSource):
    """A client of one replica group: the workload loop over a
    :class:`ClientSession`.

    Keeps up to ``max_outstanding`` requests in flight under one timer,
    issuing the next ``think_time`` after a completion; the session sends
    each request to the believed primary, collects replies until
    ``reply_quorum`` *matching* ones arrive (f+1 for BFT — at least one
    is from a correct replica) and retransmits to all replicas on
    timeout.

    Windowed measurement (``completions_in``/``latencies_in``/
    ``max_completion_gap``) comes from the shared
    :class:`~repro.metrics.traffic.TrafficSource` mixin.
    """

    def __init__(self, name: str, config: Optional[ClientConfig] = None) -> None:
        Node.__init__(self, name)
        TrafficSource.__init__(self)
        self.config = config or ClientConfig()
        self.session = ClientSession(self)
        self._rid = 0
        self._outstanding: Dict[int, Exchange] = {}
        self._timeout: Optional[Timeout] = None
        self._current_timeout = 0.0
        self.fast_reads_completed = 0
        self.leased_reads_completed = 0
        self.read_fallbacks = 0
        self.lease_fallbacks = 0
        self.timeouts = 0
        self.running = False

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
        self._timeout = Timeout(self.sim, self.config.timeout, self._on_timeout)
        self._current_timeout = self.config.timeout
        self._fill_window()

    def stop(self) -> None:
        """Stop issuing requests (those in flight are abandoned)."""
        self.running = False
        if self._timeout is not None:
            self._timeout.cancel()

    # ------------------------------------------------------------------
    @property
    def primary_name(self) -> str:
        """The replica currently believed to be primary."""
        return self.session.primary()

    # ------------------------------------------------------------------
    # The window: one timer over every outstanding request
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        if not self.running:
            return
        while len(self._outstanding) < self.config.max_outstanding:
            if self.config.max_requests is not None and self._rid >= self.config.max_requests:
                if not self._outstanding:
                    self.running = False
                break
            self._issue_one()
        assert self._timeout is not None
        if self._outstanding:
            if not self._timeout.armed:
                self._timeout.duration = self._current_timeout
                self._timeout.start()
        else:
            self._timeout.cancel()

    def _issue_one(self) -> None:
        workload = self.config.workload
        op = workload.op(self._rid)
        read = workload.is_read(op)
        session = self.session
        self._outstanding[self._rid] = session.open(
            self._rid, op, read, session.lease_target(op) if read else None
        )
        self._rid += 1

    def _complete_one(self, exchange: Exchange, reply: ClientReply) -> None:
        request = exchange.request
        if request.lease_read:
            self.leased_reads_completed += 1
        elif request.read_only:
            self.fast_reads_completed += 1
        if self.config.on_result is not None:
            self.config.on_result(request, reply)
        del self._outstanding[request.rid]
        self.record_completion(self.sim.now, self.sim.now - exchange.sent_at)
        # Progress: reset backoff and give the rest a fresh window.
        self._current_timeout = self.config.timeout
        assert self._timeout is not None
        if self._outstanding:
            self._timeout.duration = self._current_timeout
            self._timeout.start()
        else:
            self._timeout.cancel()
        self.sim.schedule(self.config.think_time, self._fill_window)

    def _on_timeout(self) -> None:
        if not self.running or not self._outstanding:
            return
        self.timeouts += 1
        # One timer covers the window: escalate everything still open,
        # then suspect the primary once for the expiry.
        for exchange in self._outstanding.values():  # in rid order
            if self.session.escalate(exchange):
                self.read_fallbacks += 1
        self._current_timeout = self.session.suspect_primary(self._current_timeout)
        assert self._timeout is not None
        self._timeout.duration = self._current_timeout
        self._timeout.start()

    def on_message(self, sender: str, message: Any) -> None:
        if is_corrupted(message):
            return
        if isinstance(message, ReadNack):
            exchange = self._outstanding.get(message.rid)
            if exchange is not None and self.session.nacked(exchange, sender, message):
                self.lease_fallbacks += 1
                self.session.rebroadcast(exchange)
        elif isinstance(message, ClientReply):
            exchange = self._outstanding.get(message.rid)
            if exchange is not None and self.session.accept(exchange, sender, message):
                self._complete_one(exchange, message)
