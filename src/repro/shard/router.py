"""The shard router: a client-facing front end over many replica groups.

A :class:`ShardRouter` is a placed NoC node (replicas only reply to names
the chip can route to) that accepts whole-service operations, consults
the :class:`~repro.shard.directory.ShardDirectory` for ownership, and
speaks the BFT client protocol to the owning group through one
:class:`~repro.bft.client.ClientSession` per shard — the exchange rules a
:class:`~repro.bft.client.ClientNode` follows too.

The router's own part: a multi-key ``("mget", k1, k2, …)`` fans out one
sub-operation per key to each owning shard and completes when every
fragment has its quorum; a sub-operation is one exchange of its shard's
session, numbered and timed there, and the router gives up on it after
:attr:`ShardRouter.MAX_ATTEMPTS` expiries; operations against a shard the
directory has marked degraded fail fast instead of burning retransmit
timeouts (a leased read still tries its key's leaseholder).

Per-shard service metrics (ops, latency histogram, in-flight depth) are
published through the chip's :class:`~repro.metrics.registry.MetricsRegistry`
under ``shard.<id>.*`` names, and per-shard liveness counters
(:class:`ShardStats`) expose the ``completed``/``timeouts`` attributes
the severity detector samples — the router stands in for a population of
clients, one pseudo-client per shard.  Completions themselves are
recorded by whoever submitted the operation, not here.

Traffic reaches a router through :meth:`ShardRouter.submit`, whose
caller says per operation whether it is a read (the router holds no
classifier of its own); the callers are
:class:`~repro.mesoscale.population.ClientPopulation` objects
(conceptually tenant applications co-located on the router's tile — not
NoC nodes themselves, so the only on-chip traffic is the router's).
Where an operation goes is worked out once, by :meth:`ShardRouter.route`:
a population asks for the :class:`Route` before it admits the operation
and hands the same route to ``submit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bft.client import ClientSession, Exchange
from repro.bft.leases import keys_of
from repro.bft.messages import ClientReply, ReadNack
from repro.shard.directory import ShardDirectory
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
    """Routing behaviour parameters: ``timeout`` is a sub-operation's
    first retransmit deadline, armed and backed off by its shard's
    :class:`~repro.bft.client.ClientSession`; the sub-operation fails
    after :attr:`ShardRouter.MAX_ATTEMPTS` expiries, or once a ledger
    window of newer ones to its shard has been opened."""

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
    """Outcome of one submitted operation (``error`` is None when ok)."""

    __slots__ = ("ok", "value", "latency", "error")  # one per operation
    ok: bool
    value: Any
    latency: float
    error: Optional[str]


class _ShardSession(ClientSession):
    """The router's session with one shard's group: its open exchanges
    are the sub-operations in flight there, each filed under its
    ``(ticket, result slot)``.  Adds the router's give-up policy and the
    per-shard bookkeeping only a router keeps."""

    node: "ShardRouter"

    def __init__(self, router: "ShardRouter", shard_id: str, stats: ShardStats) -> None:
        super().__init__(router, router.config.timeout)
        self.shard_id = shard_id
        self.stats = stats
        # Metric handles, bound on first use: a zero-valued metric created
        # ahead of use would change byte-stable summaries.
        self.ops: Any = None
        self.latency: Any = None
        self.inflight_gauge: Any = None

    def configure(
        self, replicas: List[str], reply_quorum: int, lease_reads: bool = False
    ) -> None:
        super().configure(replicas, reply_quorum, lease_reads)
        for member in self.members:  # a reply finds its exchange through its sender
            self.node._session_of[member] = self

    def gives_up(self, exchange: Exchange) -> bool:
        """Every expiry counts; the sub-operation fails on a degraded
        shard or at the :attr:`ShardRouter.MAX_ATTEMPTS`-th expiry."""
        router = self.node
        router.timeouts += 1
        self.stats.timeouts += 1
        attempts = exchange.attempts
        if router.directory.is_degraded(self.shard_id) or attempts >= router.MAX_ATTEMPTS:
            router._fail_sub(self, exchange, f"shard {self.shard_id} unresponsive after "
                                             f"{attempts} attempt(s)")
            return True
        return False


#: One sub-operation of a route: owning shard, that shard's session (None
#: when unbound), the op it sends, its result slot in a fan-out (None for
#: a single op) and the replica a leased read goes to (None: no lease).
_Leg = Tuple[str, Optional[_ShardSession], Any, Any, Optional[str]]


@dataclass
class Route:
    """Where one operation goes, worked out once (:meth:`ShardRouter.route`).

    ``plan`` holds one leg per sub-operation: a single-key op is one leg
    carrying the op itself; an ``mget`` is one ``("get", k)`` leg per key.
    ``local`` is True for a read every owning shard serves from a lease —
    it never enters the ordered log.
    """

    __slots__ = ("multi", "plan", "local")
    multi: bool
    plan: List[_Leg]
    local: bool

    @property
    def shards(self) -> Sequence[str]:
        """The shards owning the op's keys, sorted, each once."""
        if self.multi:
            return sorted({leg[0] for leg in self.plan})
        return (self.plan[0][0],)


@dataclass
class _Ticket:
    """One submitted operation, possibly fanned out into sub-operations:
    ``value`` is the result (a fan-out's, by key), ``errors`` None until a
    fragment fails."""

    __slots__ = ("started_at", "on_complete", "multi", "remaining", "value", "errors")
    started_at: float
    on_complete: Optional[Callable[[TicketResult], None]]
    multi: bool
    remaining: int
    value: Any
    errors: Optional[List[str]]


class ShardRouter(Node):
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
        self.directory = directory
        self.config = config or RouterConfig()
        self._sessions: Dict[str, _ShardSession] = {}
        self._session_of: Dict[str, _ShardSession] = {}  # by member
        self.stats: Dict[str, ShardStats] = {}
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Shard bindings
    # ------------------------------------------------------------------
    def bind(
        self, shard_id: str, members: List[str], reply_quorum: int, lease_reads: bool = False
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
            stats = self.stats.setdefault(shard_id, ShardStats(shard_id))
            session = self._sessions[shard_id] = _ShardSession(self, shard_id, stats)
        session.configure(members, reply_quorum, lease_reads)
        return session

    def shard_stats(self, shard_id: str) -> ShardStats:
        """Per-shard liveness counters (a detector pseudo-client)."""
        return self.stats[shard_id]

    def route(self, op: Any, read_only: bool = False) -> Route:
        """Where ``op`` goes: its owning shards, its sub-operations and,
        for a read, each one's lease target — worked out once per op.

        Two rules meet here and stay distinct: the router routes any
        ``(kind, key, …)`` (:func:`default_key_of`), but a read is served
        from a lease only for the KV kinds with ``str`` keys
        (:func:`~repro.bft.leases.keys_of`).  The route is ``local`` when
        ``op`` is such a read and every owning shard runs leases.
        """
        keys = default_key_of(op)
        multi = isinstance(keys, list)
        leasable = read_only and keys_of(op) is not None
        local = leasable
        shard_for = self.directory.shard_for
        sessions = self._sessions
        plan: List[_Leg] = []
        for key in keys if multi else (keys,):
            shard_id = shard_for(key)
            session = sessions.get(shard_id)
            sub_op = ("get", key) if multi else op
            target = None
            if session is None or not session.lease_reads:
                local = False
            elif multi:
                # Each fragment is a get, leased by its own key's rule.
                target = session.lease_target(sub_op) if read_only else None
            elif leasable:
                target = session.holder_target(key)
            plan.append((shard_id, session, sub_op, key if multi else None, target))
        return Route(multi, plan, local)

    # ------------------------------------------------------------------
    # Submitting operations
    # ------------------------------------------------------------------
    def submit(
        self,
        op: Any,
        on_complete: Optional[Callable[[TicketResult], None]] = None,
        read_only: bool = False,
        route: Optional[Route] = None,
    ) -> None:
        """Route one operation; ``on_complete`` fires with its outcome.

        ``read_only`` is the submitter's classification: a read takes the
        unordered read path (a leased read where the shard runs leases),
        anything else is ordered.  Multi-key operations fan out one
        ``get`` per key to each owning shard, each carrying the whole
        operation's ``read_only``; the ticket completes when every
        fragment does.  ``route`` is :meth:`route`'s answer for the same
        ``op`` and ``read_only`` when the caller already asked for it.
        May complete synchronously (degraded-shard fast failure).
        """
        if route is None:
            route = self.route(op, read_only)
        plan = route.plan
        multi = route.multi
        ticket = _Ticket(self.sim.now, on_complete, multi, len(plan), {} if multi else None, None)
        for shard_id, session, sub_op, key, target in plan:
            self._issue(ticket, shard_id, session, sub_op, key, read_only, target)

    @property
    def inflight(self) -> int:
        """Sub-operations currently awaiting a quorum."""
        return sum(len(session.exchanges) for session in self._sessions.values())

    def _issue(
        self,
        ticket: _Ticket,
        shard_id: str,
        session: Optional[_ShardSession],
        op: Any,
        key: Any,
        read_only: bool,
        target: Optional[str],
    ) -> None:
        if session is None:
            self._reject(ticket, f"shard {shard_id} not bound")
            return
        if target is None and self.directory.is_degraded(shard_id):
            # Lease-aware degraded handling: a leased replica can still
            # answer reads from local committed state while the group is
            # below its liveness quorum, so only lease-less operations
            # fail fast here.
            session.stats.rejected_degraded += 1
            self._counter(shard_id, "rejected_degraded").inc()
            self._reject(ticket, f"shard {shard_id} degraded")
            return
        # A leased read is one NoC hop to the key's leaseholder; a ReadNack
        # (no covering lease) falls back to the quorum path.
        context = (ticket, key)
        if session.open(op, read_only, target, context) is None:
            # The oldest sub-operation trails a ledger window: it gives way.
            oldest = next(iter(session.exchanges.values()))
            self._fail_sub(session, oldest, f"shard {shard_id} left it a ledger window behind")
            session.open(op, read_only, target, context)
        self._set_inflight_gauge(session)

    # ------------------------------------------------------------------
    # Reply handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        kind = type(message)
        if kind is not ClientReply and kind is not ReadNack:
            return  # corrupted in transit, or not addressed to a router
        session = self._session_of.get(sender)
        exchange = None if session is None else session.exchanges.get(message.rid)
        if exchange is None:
            return
        if kind is ClientReply:
            if session.accept(exchange, sender, message):
                self._complete_sub(session, exchange, message)
            return
        # No covering lease at the target: fall back to the quorum path.
        if not session.nacked(exchange, sender, message):
            return
        shard_id = session.shard_id
        self._counter(shard_id, "lease_fallbacks").inc()
        if self.directory.is_degraded(shard_id):
            # The lease attempt was the only path past a degraded shard.
            session.stats.rejected_degraded += 1
            self._counter(shard_id, "rejected_degraded").inc()
            self._fail_sub(session, exchange, f"shard {shard_id} degraded")
            return
        session.rebroadcast(exchange)

    def _complete_sub(self, session: _ShardSession, exchange: Exchange, reply: ClientReply) -> None:
        session.stats.completed += 1
        if session.ops is None:
            session.ops = self._counter(session.shard_id, "ops")
            session.latency = self.chip.metrics.histogram(f"shard.{session.shard_id}.latency")
        session.ops.inc()
        session.latency.observe(self.sim.now - exchange.sent_at)
        self._set_inflight_gauge(session)
        ticket, key = exchange.context
        if ticket.multi:
            ticket.value[key] = reply.result
        else:
            ticket.value = reply.result
        self._sub_done(ticket)

    def _fail_sub(self, session: _ShardSession, exchange: Exchange, reason: str) -> None:
        session.close(exchange)
        session.stats.failed += 1
        self._counter(session.shard_id, "failed_ops").inc()
        self._set_inflight_gauge(session)
        self._reject(exchange.context[0], reason)

    def _reject(self, ticket: _Ticket, reason: str) -> None:
        if ticket.errors is None:
            ticket.errors = []
        ticket.errors.append(reason)
        self._sub_done(ticket)

    def _sub_done(self, ticket: _Ticket) -> None:
        ticket.remaining -= 1
        if ticket.remaining > 0 or ticket.on_complete is None:
            return
        latency = self.sim.now - ticket.started_at
        errors = ticket.errors
        if errors is None:
            result = TicketResult(True, ticket.value, latency, None)
        else:
            result = TicketResult(False, None, latency, "; ".join(errors))
        ticket.on_complete(result)

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _counter(self, shard_id: str, suffix: str):
        return self.chip.metrics.counter(f"shard.{shard_id}.{suffix}")

    def _set_inflight_gauge(self, session: _ShardSession) -> None:
        gauge = session.inflight_gauge
        if gauge is None:
            gauge = session.inflight_gauge = self.chip.metrics.gauge(
                f"shard.{session.shard_id}.inflight"
            )
        gauge.set(len(session.exchanges))
