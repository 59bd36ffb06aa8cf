"""The shard router: a client-facing front end over many replica groups.

A :class:`ShardRouter` is a placed NoC node (replicas only reply to names
the chip can route to) that accepts whole-service operations, consults
the :class:`~repro.shard.directory.ShardDirectory` for ownership, and
speaks the normal BFT client protocol to the owning group: primary-first
sends, quorum vote counting over matching replies, broadcast retransmit
with exponential backoff, primary-hint adoption from reply views.

Unlike :class:`~repro.bft.client.ClientNode` it can keep several sub-
operations in flight at once — a multi-key ``("mget", k1, k2, …)`` fans
out one sub-operation per key to each owning shard and completes when
every fragment has its quorum.  Operations against a shard the directory
has marked degraded fail fast instead of burning retransmit timeouts.

Per-shard service metrics (ops, latency histogram, in-flight depth) are
published through the chip's :class:`~repro.metrics.registry.MetricsRegistry`
under ``shard.<id>.*`` names, and per-shard liveness counters
(:class:`ShardStats`) expose the ``completed``/``timeouts`` attributes
the severity detector samples — the router stands in for a population of
clients, one pseudo-client per shard.

Traffic reaches a router through :meth:`ShardRouter.submit`; the drivers
are :class:`~repro.mesoscale.population.ClientPopulation` objects
(conceptually tenant applications co-located on the router's tile — not
NoC nodes themselves, so the only on-chip traffic is the router's).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.bft.leases import keys_of, stable_key_hash
from repro.bft.messages import ClientReply, ClientRequest, ReadNack
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
    """Routing behaviour parameters (mirrors :class:`ClientConfig` where
    the semantics carry over)."""

    timeout: float = 30_000.0
    backoff_factor: float = 2.0
    max_timeout: float = 480_000.0
    max_attempts: int = 8
    key_of: Callable[[Any], Union[str, List[str]]] = default_key_of
    read_only_predicate: Optional[Callable[[Any], bool]] = None


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


@dataclass
class _ShardView:
    """The router's current picture of one replica group."""

    members: List[str]
    reply_quorum: int
    read_quorum: int
    primary_hint: int = 0
    lease_reads: bool = False
    inflight: int = 0  # sub-operations awaiting a quorum from this shard
    # (placement epoch, placed members nearest-first); None = recompute.
    lease_order: Optional[Tuple[int, List[str]]] = None
    # Metric handles, bound on first use: a zero-valued metric created
    # ahead of use would change byte-stable summaries.
    ops: Any = None
    latency: Any = None
    inflight_gauge: Any = None

    def primary(self) -> str:
        return self.members[self.primary_hint % len(self.members)]


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
    """One routed fragment: a BFT client exchange with a single shard."""

    rid: int
    ticket: _Ticket
    shard_id: str
    key: Any  # result slot for multi-key tickets (None for single ops)
    request: ClientRequest
    timeout: Timeout
    sent_at: float
    current_timeout: float
    attempts: int = 0
    votes: Dict[Any, Set[str]] = field(default_factory=dict)


class _RouterBinding:
    """Adapter registered in a group's client list.

    :meth:`ReplicaGroup.switch_protocol` reconfigures every attached
    client with the new membership and quorums; this shim forwards that
    call to the router's per-shard view so adaptation in one shard
    transparently re-points every router.
    """

    def __init__(self, router: "ShardRouter", shard_id: str) -> None:
        self.router = router
        self.shard_id = shard_id
        self.name = f"{router.name}:{shard_id}"

    def configure(
        self,
        replicas: List[str],
        reply_quorum: int,
        read_quorum: Optional[int] = None,
        lease_reads: bool = False,
    ) -> None:
        self.router.bind(
            self.shard_id, replicas, reply_quorum, read_quorum,
            lease_reads=lease_reads,
        )


class ShardRouter(Node, TrafficSource):
    """Routes operations to their owning replica group over the NoC."""

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
        self._views: Dict[str, _ShardView] = {}
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
    ) -> None:
        """Attach (or re-point) this router to one shard's replica group."""
        if not members:
            raise ValueError(f"shard {shard_id!r} bound with no members")
        if reply_quorum < 1:
            raise ValueError("reply quorum must be >= 1")
        read_q = read_quorum if read_quorum is not None else reply_quorum
        view = self._views.get(shard_id)
        if view is None:
            self._views[shard_id] = _ShardView(
                list(members), reply_quorum, read_q, lease_reads=lease_reads
            )
        else:
            view.members = list(members)
            view.reply_quorum = reply_quorum
            view.read_quorum = read_q
            view.primary_hint %= len(view.members)
            view.lease_reads = lease_reads
            view.lease_order = None
        self.stats.setdefault(shard_id, ShardStats(shard_id))

    def binding_for(self, shard_id: str) -> _RouterBinding:
        """The adapter to append to the shard group's ``clients`` list."""
        if shard_id not in self._views:
            raise KeyError(f"router {self.name} has no binding for {shard_id!r}")
        return _RouterBinding(self, shard_id)

    def shard_stats(self, shard_id: str) -> ShardStats:
        """Per-shard liveness counters (a detector pseudo-client)."""
        return self.stats[shard_id]

    @property
    def bound_shards(self) -> List[str]:
        """Shard ids this router can reach."""
        return sorted(self._views)

    def serves_leased_reads(self, op: Any) -> bool:
        """True when every shard owning ``op``'s keys runs read leases.

        Admission layers use this to classify an operation *before*
        submitting it: a read the lease path can serve never enters the
        ordered log, so it may bypass ordered-inflight caps.
        """
        if keys_of(op) is None:
            return False
        try:
            keys = self.config.key_of(op)
        except ValueError:
            return False
        key_list = keys if isinstance(keys, list) else [keys]
        for k in key_list:
            view = self._views.get(self.directory.shard_for(k))
            if view is None or not view.lease_reads:
                return False
        return True

    # ------------------------------------------------------------------
    # Submitting operations
    # ------------------------------------------------------------------
    def submit(
        self, op: Any, on_complete: Optional[Callable[[TicketResult], None]] = None
    ) -> int:
        """Route one operation; ``on_complete`` fires with its outcome.

        Multi-key operations fan out one ordered sub-operation per key to
        each owning shard; the ticket completes when every fragment does.
        May complete synchronously (degraded-shard fast failure).
        """
        keys = self.config.key_of(op)
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
            self._issue(ticket, shard_id, sub_op, key)
        return ticket.ticket_id

    @property
    def inflight(self) -> int:
        """Sub-operations currently awaiting a quorum."""
        return len(self._subops)

    def _issue(self, ticket: _Ticket, shard_id: str, op: Any, key: Any) -> None:
        stats = self.stats.get(shard_id)
        view = self._views.get(shard_id)
        if view is None:
            ticket.errors.append(f"shard {shard_id} not bound")
            self._sub_done(ticket)
            return
        assert stats is not None
        predicate = self.config.read_only_predicate
        read_only = bool(predicate is not None and predicate(op))
        lease_target = self._lease_target(view, op) if read_only else None
        if self.directory.is_degraded(shard_id) and lease_target is None:
            # Lease-aware degraded handling: a leased replica can still
            # answer reads from local committed state while the group is
            # below its liveness quorum, so only lease-less operations
            # fail fast here.
            stats.rejected_degraded += 1
            self._counter(shard_id, "rejected_degraded").inc()
            ticket.errors.append(f"shard {shard_id} degraded")
            self._sub_done(ticket)
            return
        request = ClientRequest(
            self.name, self._rid, op,
            read_only=read_only,
            lease_read=lease_target is not None,
        )
        self._rid += 1
        sub = _SubOp(
            rid=request.rid,
            ticket=ticket,
            shard_id=shard_id,
            key=key,
            request=request,
            timeout=Timeout(
                self.sim, self.config.timeout, lambda r=request.rid: self._on_timeout(r)
            ),
            sent_at=self.sim.now,
            current_timeout=self.config.timeout,
        )
        self._subops[sub.rid] = sub
        view.inflight += 1
        self._set_inflight_gauge(shard_id, view)
        if lease_target is not None:
            # One NoC hop to the leaseholder nearest this router's tile;
            # a ReadNack (no covering lease) falls back to the quorum path.
            self.send(lease_target, request, request.wire_size())
        elif read_only:
            self.broadcast(view.members, request, request.wire_size())
        else:
            self.send(view.primary(), request, request.wire_size())
        sub.timeout.duration = sub.current_timeout
        sub.timeout.start()

    def _lease_target(self, view: _ShardView, op: Any) -> Optional[str]:
        """Pick the lease-read target: a per-key leaseholder, chosen from
        the live members ordered by NoC distance from this tile.

        Every member holds leases for every range (the primary grants
        uniformly), so the router keys the choice on the routing key's
        stable hash over the distance-sorted candidate list.  Sending all
        leased reads to the single nearest member measures *worse* than
        the quorum fast path at saturation — one serialized replica core
        becomes the group's read bottleneck — so the hash spread, not
        pure proximity, is what the P4 speedup rides on.  The router does
        not track grant state (it is primary-local soft state); a target
        whose lease lapsed answers with a ReadNack and the read falls
        back to the quorum path.
        """
        if not view.lease_reads:
            return None
        keys = keys_of(op)
        if keys is None:
            return None
        if self.chip is None:
            return None
        chip = self.chip
        order = view.lease_order
        if order is None or order[0] != chip.placement_epoch:
            here = self.coord
            candidates = [m for m in view.members if chip.has_node(m)]
            candidates.sort(key=lambda m: (chip.coord_of(m).manhattan(here), m))
            order = view.lease_order = (chip.placement_epoch, candidates)
        candidates = order[1]
        if not candidates:
            return None
        return candidates[stable_key_hash(keys[0]) % len(candidates)]

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
        if sub is None:
            return
        view = self._views[sub.shard_id]
        if sender != message.replica or sender not in view.members:
            return
        if sub.request.lease_read and not message.leased:
            return
        votes = sub.votes.setdefault(message.match_key(), set())
        votes.add(sender)
        if sub.request.lease_read:
            needed = 1
        elif sub.request.read_only:
            needed = view.read_quorum
        else:
            needed = view.reply_quorum
        if len(votes) >= needed:
            self._complete_sub(sub, message)

    def _handle_read_nack(self, sender: str, nack: ReadNack) -> None:
        """No covering lease at the target: fall back to the quorum path."""
        sub = self._subops.get(nack.rid)
        if sub is None or not sub.request.lease_read:
            return
        view = self._views[sub.shard_id]
        if sender != nack.replica or sender not in view.members:
            return
        self._counter(sub.shard_id, "lease_fallbacks").inc()
        sub.request = dataclasses.replace(sub.request, lease_read=False)
        sub.votes = {}
        if self.directory.is_degraded(sub.shard_id):
            # The lease attempt was the only path past a degraded shard.
            self.stats[sub.shard_id].rejected_degraded += 1
            self._counter(sub.shard_id, "rejected_degraded").inc()
            self._fail_sub(sub, f"shard {sub.shard_id} degraded")
            return
        self.broadcast(view.members, sub.request, sub.request.wire_size())

    def _on_timeout(self, rid: int) -> None:
        sub = self._subops.get(rid)
        if sub is None:
            return
        sub.attempts += 1
        self.timeouts += 1
        self.stats[sub.shard_id].timeouts += 1
        view = self._views[sub.shard_id]
        if self.directory.is_degraded(sub.shard_id) or sub.attempts >= self.config.max_attempts:
            self._fail_sub(sub, f"shard {sub.shard_id} unresponsive after "
                                f"{sub.attempts} attempt(s)")
            return
        if sub.request.read_only:
            # Fast-path stall: fall back to the ordered path, same rid.
            sub.request = dataclasses.replace(
                sub.request, read_only=False, lease_read=False
            )
            sub.votes = {}
        # Suspect the primary; broadcast so backups arm view-change timers.
        self.broadcast(view.members, sub.request, sub.request.wire_size())
        view.primary_hint += 1
        sub.current_timeout = min(
            sub.current_timeout * self.config.backoff_factor, self.config.max_timeout
        )
        sub.timeout.duration = sub.current_timeout
        sub.timeout.start()

    def _complete_sub(self, sub: _SubOp, reply: ClientReply) -> None:
        del self._subops[sub.rid]
        sub.timeout.cancel()
        shard_id = sub.shard_id
        view = self._views[shard_id]
        view.inflight -= 1
        view.primary_hint = reply.view % len(view.members)
        self.stats[shard_id].completed += 1
        if view.ops is None:
            view.ops = self._counter(shard_id, "ops")
            view.latency = self.chip.metrics.histogram(f"shard.{shard_id}.latency")
        view.ops.inc()
        view.latency.observe(self.sim.now - sub.sent_at)
        self._set_inflight_gauge(shard_id, view)
        ticket = sub.ticket
        if ticket.multi:
            ticket.results[sub.key] = reply.result
        else:
            ticket.results[None] = reply.result
        self._sub_done(ticket)

    def _fail_sub(self, sub: _SubOp, reason: str) -> None:
        del self._subops[sub.rid]
        sub.timeout.cancel()
        view = self._views[sub.shard_id]
        view.inflight -= 1
        self.stats[sub.shard_id].failed += 1
        self._counter(sub.shard_id, "failed_ops").inc()
        self._set_inflight_gauge(sub.shard_id, view)
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

    def _set_inflight_gauge(self, shard_id: str, view: _ShardView) -> None:
        if view.inflight_gauge is None:
            view.inflight_gauge = self.chip.metrics.gauge(f"shard.{shard_id}.inflight")
        view.inflight_gauge.set(view.inflight)
