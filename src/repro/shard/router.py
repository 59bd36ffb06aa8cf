"""The shard router: a client-facing front end over many replica groups.

A :class:`ShardRouter` is a placed NoC node (replicas only reply to names
the chip can route to) that accepts whole-service operations, consults
the :class:`~repro.shard.directory.ShardDirectory` for ownership, and
speaks the BFT client protocol to the owning group through one
:class:`~repro.bft.client.ClientSession` per shard — the exchange rules a
:class:`~repro.bft.client.ClientNode` follows too.

The router's own part: a multi-key ``("mget", k1, k2, …)`` fans out one
sub-operation per key to each owning shard and completes when every
fragment has its quorum; each sub-operation has its own retransmit timer
and a bounded number of attempts; operations against a shard the
directory has marked degraded fail fast instead of burning retransmit
timeouts (a leased read still tries its key's leaseholder).

Per-shard service metrics (ops, latency histogram, in-flight depth) are
published through the chip's :class:`~repro.metrics.registry.MetricsRegistry`
under ``shard.<id>.*`` names, and per-shard liveness counters
(:class:`ShardStats`) expose the ``completed``/``timeouts`` attributes
the severity detector samples — the router stands in for a population of
clients, one pseudo-client per shard.

Traffic reaches a router through :meth:`ShardRouter.submit`, whose
caller says per operation whether it is a read (the router holds no
classifier of its own); the callers are
:class:`~repro.mesoscale.population.ClientPopulation` objects
(conceptually tenant applications co-located on the router's tile — not
NoC nodes themselves, so the only on-chip traffic is the router's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.bft.client import ClientSession, Exchange
from repro.bft.leases import keys_of
from repro.bft.messages import ClientReply, ReadNack
from repro.metrics.traffic import TrafficSource
from repro.shard.directory import ShardDirectory
from repro.sim.timers import Timeout
from repro.soc.node import Node


def default_key_of(op: Any) -> Union[str, List[str]]:
    """Extract the routing key(s) from a KV-style operation tuple.

    ``("mget", k1, k2, …)`` routes per key (a list return means fan-out);
    every other recognised shape — ``("put", k, v)``, ``("get", k)``,
    ``("del", k)``, ``("cas", k, old, new)`` — routes on its first
    operand.
    """
    if isinstance(op, tuple) and op:
        if op[0] == "mget":
            keys = list(op[1:])
            if not keys:
                raise ValueError("mget needs at least one key")
            return keys
        if len(op) >= 2:
            return op[1]
    raise ValueError(f"cannot derive a routing key from operation {op!r}")


@dataclass
class RouterConfig:
    """Routing behaviour parameters: ``timeout`` arms a timer per
    sub-operation, backed off by the shard's
    :class:`~repro.bft.client.ClientSession` on each expiry; the
    sub-operation fails after :attr:`ShardRouter.MAX_ATTEMPTS` of them."""

    timeout: float = 30_000.0


@dataclass
class ShardStats:
    """Liveness counters for one (router, shard) pair.

    Exposes the ``completed``/``timeouts`` attributes a
    :class:`~repro.core.severity.SeverityDetector` samples from its
    client list, so each shard's detector sees only traffic aimed at
    that shard.
    """

    shard_id: str
    completed: int = 0
    timeouts: int = 0
    failed: int = 0
    rejected_degraded: int = 0


@dataclass
class TicketResult:
    """Outcome of one submitted operation."""

    ok: bool
    value: Any
    latency: float
    error: Optional[str] = None


class _ShardSession(ClientSession):
    """The router's session with one shard's group, plus the per-shard
    bookkeeping only a router keeps."""

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self.inflight = 0  # sub-operations awaiting a quorum from this shard
        # Metric handles, bound on first use: a zero-valued metric created
        # ahead of use would change byte-stable summaries.
        self.ops: Any = None
        self.latency: Any = None
        self.inflight_gauge: Any = None


@dataclass
class _Ticket:
    """One submitted operation, possibly fanned out into sub-operations."""

    ticket_id: int
    op: Any
    started_at: float
    on_complete: Optional[Callable[[TicketResult], None]]
    multi: bool
    remaining: int = 0
    results: Dict[Any, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


@dataclass
class _SubOp:
    """One routed fragment: a client exchange with a single shard, under
    its own retransmit timer."""

    rid: int
    ticket: _Ticket
    shard_id: str
    key: Any  # result slot for multi-key tickets (None for single ops)
    exchange: Exchange
    timeout: Timeout
    current_timeout: float
    attempts: int = 0


class ShardRouter(Node, TrafficSource):
    """Routes operations to their owning replica group over the NoC."""

    #: Timer expiries after which a sub-operation fails.
    MAX_ATTEMPTS = 8

    def __init__(
        self,
        name: str,
        directory: ShardDirectory,
        config: Optional[RouterConfig] = None,
    ) -> None:
        Node.__init__(self, name)
        TrafficSource.__init__(self)
        self.directory = directory
        self.config = config or RouterConfig()
        self._sessions: Dict[str, _ShardSession] = {}
        self.stats: Dict[str, ShardStats] = {}
        self._rid = 0
        self._ticket_seq = 0
        self._subops: Dict[int, _SubOp] = {}
        self._tickets: Dict[int, _Ticket] = {}
        self.failed = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Shard bindings
    # ------------------------------------------------------------------
    def bind(
        self,
        shard_id: str,
        members: List[str],
        reply_quorum: int,
        read_quorum: Optional[int] = None,
        lease_reads: bool = False,
    ) -> ClientSession:
        """Attach (or re-point) this router to one shard's replica group.

        Returns the shard's session: appended to the group's ``clients``
        list, it lets adaptation in that shard re-point this router like
        any other client.
        """
        if not members:
            raise ValueError(f"shard {shard_id!r} bound with no members")
        session = self._sessions.get(shard_id)
        if session is None:
            session = _ShardSession(self)
        session.configure(members, reply_quorum, read_quorum, lease_reads)
        self._sessions[shard_id] = session
        self.stats.setdefault(shard_id, ShardStats(shard_id))
        return session

    def shard_stats(self, shard_id: str) -> ShardStats:
        """Per-shard liveness counters (a detector pseudo-client)."""
        return self.stats[shard_id]

    def shards_of(self, op: Any) -> List[str]:
        """The shards owning ``op``'s keys, sorted, each once."""
        keys = default_key_of(op)
        if isinstance(keys, list):
            return sorted({self.directory.shard_for(k) for k in keys})
        return [self.directory.shard_for(keys)]

    def serves_leased_reads(self, op: Any) -> bool:
        """True when every shard owning ``op``'s keys runs read leases.

        Admission layers use this to classify an operation *before*
        submitting it: a read the lease path can serve never enters the
        ordered log, so it may bypass ordered-inflight caps.
        """
        if keys_of(op) is None:
            return False  # underivable keys are never served from a lease
        for shard_id in self.shards_of(op):
            session = self._sessions.get(shard_id)
            if session is None or not session.lease_reads:
                return False
        return True

    # ------------------------------------------------------------------
    # Submitting operations
    # ------------------------------------------------------------------
    def submit(
        self,
        op: Any,
        on_complete: Optional[Callable[[TicketResult], None]] = None,
        read_only: bool = False,
    ) -> int:
        """Route one operation; ``on_complete`` fires with its outcome.

        ``read_only`` is the submitter's classification: a read takes the
        unordered read path (a leased read where the shard runs leases),
        anything else is ordered.  Multi-key operations fan out one
        ``get`` per key to each owning shard, each carrying the whole
        operation's ``read_only``; the ticket completes when every
        fragment does.  May complete synchronously (degraded-shard fast
        failure).
        """
        keys = default_key_of(op)
        ticket = _Ticket(
            ticket_id=self._ticket_seq,
            op=op,
            started_at=self.sim.now,
            on_complete=on_complete,
            multi=isinstance(keys, list),
        )
        self._ticket_seq += 1
        self._tickets[ticket.ticket_id] = ticket
        if ticket.multi:
            plan = [(self.directory.shard_for(k), ("get", k), k) for k in keys]
        else:
            plan = [(self.directory.shard_for(keys), op, None)]
        ticket.remaining = len(plan)
        for shard_id, sub_op, key in plan:
            self._issue(ticket, shard_id, sub_op, key, read_only)
        return ticket.ticket_id

    @property
    def inflight(self) -> int:
        """Sub-operations currently awaiting a quorum."""
        return len(self._subops)

    def _issue(
        self, ticket: _Ticket, shard_id: str, op: Any, key: Any, read_only: bool
    ) -> None:
        session = self._sessions.get(shard_id)
        if session is None:
            ticket.errors.append(f"shard {shard_id} not bound")
            self._sub_done(ticket)
            return
        if self.directory.is_degraded(shard_id) and not (
            read_only and session.lease_target(op) is not None
        ):
            # Lease-aware degraded handling: a leased replica can still
            # answer reads from local committed state while the group is
            # below its liveness quorum, so only lease-less operations
            # fail fast here.
            self.stats[shard_id].rejected_degraded += 1
            self._counter(shard_id, "rejected_degraded").inc()
            ticket.errors.append(f"shard {shard_id} degraded")
            self._sub_done(ticket)
            return
        rid = self._rid
        self._rid += 1
        session.inflight += 1
        self._set_inflight_gauge(shard_id, session)
        # A leased read is one NoC hop to the key's leaseholder; a ReadNack
        # (no covering lease) falls back to the quorum path.
        sub = self._subops[rid] = _SubOp(
            rid=rid,
            ticket=ticket,
            shard_id=shard_id,
            key=key,
            exchange=session.open(rid, op, read_only),
            timeout=Timeout(self.sim, self.config.timeout, lambda: self._on_timeout(rid)),
            current_timeout=self.config.timeout,
        )
        sub.timeout.start()

    # ------------------------------------------------------------------
    # Reply and timeout handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        kind = type(message)
        if kind is ReadNack:
            self._handle_read_nack(sender, message)
            return
        if kind is not ClientReply:
            return  # corrupted in transit, or not addressed to a router
        sub = self._subops.get(message.rid)
        if sub is not None and self._sessions[sub.shard_id].accept(
            sub.exchange, sender, message
        ):
            self._complete_sub(sub, message)

    def _handle_read_nack(self, sender: str, nack: ReadNack) -> None:
        """No covering lease at the target: fall back to the quorum path."""
        sub = self._subops.get(nack.rid)
        if sub is None:
            return
        session = self._sessions[sub.shard_id]
        if not session.nacked(sub.exchange, sender, nack):
            return
        self._counter(sub.shard_id, "lease_fallbacks").inc()
        if self.directory.is_degraded(sub.shard_id):
            # The lease attempt was the only path past a degraded shard.
            self.stats[sub.shard_id].rejected_degraded += 1
            self._counter(sub.shard_id, "rejected_degraded").inc()
            self._fail_sub(sub, f"shard {sub.shard_id} degraded")
            return
        session.rebroadcast(sub.exchange)

    def _on_timeout(self, rid: int) -> None:
        sub = self._subops.get(rid)
        if sub is None:
            return
        sub.attempts += 1
        self.timeouts += 1
        self.stats[sub.shard_id].timeouts += 1
        if self.directory.is_degraded(sub.shard_id) or sub.attempts >= self.MAX_ATTEMPTS:
            self._fail_sub(sub, f"shard {sub.shard_id} unresponsive after "
                                f"{sub.attempts} attempt(s)")
            return
        # One timer per sub-operation, so every expired sub-operation
        # suspects the primary: k of them expiring together towards one
        # shard rotate its hint k times (known, kept; ROADMAP item 1 (b)).
        session = self._sessions[sub.shard_id]
        session.escalate(sub.exchange)
        sub.current_timeout = session.suspect_primary(sub.current_timeout)
        sub.timeout.duration = sub.current_timeout
        sub.timeout.start()

    def _complete_sub(self, sub: _SubOp, reply: ClientReply) -> None:
        del self._subops[sub.rid]
        sub.timeout.cancel()
        shard_id = sub.shard_id
        session = self._sessions[shard_id]
        session.inflight -= 1
        self.stats[shard_id].completed += 1
        if session.ops is None:
            session.ops = self._counter(shard_id, "ops")
            session.latency = self.chip.metrics.histogram(f"shard.{shard_id}.latency")
        session.ops.inc()
        session.latency.observe(self.sim.now - sub.exchange.sent_at)
        self._set_inflight_gauge(shard_id, session)
        ticket = sub.ticket
        if ticket.multi:
            ticket.results[sub.key] = reply.result
        else:
            ticket.results[None] = reply.result
        self._sub_done(ticket)

    def _fail_sub(self, sub: _SubOp, reason: str) -> None:
        del self._subops[sub.rid]
        sub.timeout.cancel()
        session = self._sessions[sub.shard_id]
        session.inflight -= 1
        self.stats[sub.shard_id].failed += 1
        self._counter(sub.shard_id, "failed_ops").inc()
        self._set_inflight_gauge(sub.shard_id, session)
        sub.ticket.errors.append(reason)
        self._sub_done(sub.ticket)

    def _sub_done(self, ticket: _Ticket) -> None:
        ticket.remaining -= 1
        if ticket.remaining > 0:
            return
        del self._tickets[ticket.ticket_id]
        latency = self.sim.now - ticket.started_at
        ok = not ticket.errors
        if ok:
            self.record_completion(self.sim.now, latency)
            if ticket.multi:
                value: Any = dict(ticket.results)
            else:
                value = ticket.results.get(None)
        else:
            self.failed += 1
            value = None
        result = TicketResult(
            ok=ok,
            value=value,
            latency=latency,
            error="; ".join(ticket.errors) if ticket.errors else None,
        )
        if ticket.on_complete is not None:
            ticket.on_complete(result)

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _counter(self, shard_id: str, suffix: str):
        return self.chip.metrics.counter(f"shard.{shard_id}.{suffix}")

    def _set_inflight_gauge(self, shard_id: str, session: _ShardSession) -> None:
        if session.inflight_gauge is None:
            session.inflight_gauge = self.chip.metrics.gauge(f"shard.{shard_id}.inflight")
        session.inflight_gauge.set(session.inflight)
