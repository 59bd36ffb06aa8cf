"""The ordering core shared by all protocol families.

:class:`BaseReplica` owns everything about ordering client requests that
is *not* agreement: primary admission (dedup, lease intercept, batch or
order), the pending-request map, its progress timer and the stall rule,
the batcher and lease install, re-proposal after an era change, in-order
execution, replies and state transfer.  A protocol module supplies only
the hooks the core calls —

* ``_order_proposal(proposal) -> bool``: start agreement on one proposal;
* ``_already_ordering(request) -> bool``: is it in an uncommitted slot;
* ``_suspect(target)``: pending requests stalled — ask the group to move
  to view ``target`` (VIEW-CHANGE, REQ-VIEW-CHANGE, ELECT);

— plus what genuinely differs between families: slots, phases, quorum
sizes, USIG sequencing, checkpoints and the view-change/election votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bft.app import StateMachine
from repro.bft.batching import BatchAccumulator, BatchConfig
from repro.bft.leases import LeaseConfig, LeaseManager, LeaseTable
from repro.bft.messages import (
    ClientReply,
    ClientRequest,
    LeaseGrant,
    LeaseRevoke,
    LeaseRevokeAck,
    Proposal,
    ReadNack,
    StateRequest,
    StateResponse,
    proposal_keys,
    requests_of,
)
from repro.bft.safety import SafetyRecorder
# Unused here, but benchmarks/perf/trace.py patches it by this module attribute.
from repro.crypto.mac import digest as payload_digest  # noqa: F401
from repro.crypto.keys import KeyStore
from repro.metrics import MetricsRegistry
from repro.sim.timers import Timeout
from repro.soc.node import Node, NodeState


def _ignore(sender: str, message: Any) -> None:
    """Handler for a message type this replica has no use for."""


class ExecutionLedger:
    """Bounded request-dedup state: per-client high-watermark + window.

    The old unbounded ``{(client, rid): True}`` dict grew one entry per
    executed request forever.  Client rids are monotone, so a per-client
    **high-watermark** plus a small **out-of-order window** captures the
    same ``already_executed`` answers in O(clients · window) memory:

    * rid above the watermark       → not executed yet;
    * rid inside the recent window  → executed iff recorded there;
    * rid at/below watermark−window → an ancient replay, reported executed
      (a client never advances its rid past an incomplete request by more
      than its outstanding window, so nothing that old can still be live).

    The window must exceed the largest client ``max_outstanding`` plus
    re-ordering slack; the default of 256 dwarfs any configured pipeline.
    """

    DEFAULT_WINDOW = 256

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"ledger window must be >= 1, got {window}")
        self.window = window
        self._high: Dict[str, int] = {}
        self._recent: Dict[str, set] = {}

    def contains(self, client: str, rid: int) -> bool:
        """True if (client, rid) was executed (or is an ancient replay)."""
        high = self._high.get(client)
        if high is None or rid > high:
            return False
        if rid <= high - self.window:
            return True
        return rid in self._recent[client]

    def add(self, client: str, rid: int) -> None:
        """Record an execution.  Amortized O(1): pruning is deferred until
        the recent set doubles past the window."""
        recent = self._recent.setdefault(client, set())
        high = self._high.get(client)
        if high is None or rid > high:
            self._high[client] = rid
            high = rid
        recent.add(rid)
        if len(recent) > 2 * self.window:
            floor = high - self.window
            self._recent[client] = {r for r in recent if r > floor}

    def export(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot for state transfer: fully pruned, deterministic."""
        out: Dict[str, Dict[str, Any]] = {}
        for client, high in self._high.items():
            floor = high - self.window
            recent = sorted(r for r in self._recent.get(client, ()) if r > floor)
            out[client] = {"high": high, "recent": recent}
        return out

    @classmethod
    def restore(cls, data: Dict[str, Dict[str, Any]], window: int = DEFAULT_WINDOW) -> "ExecutionLedger":
        """Rebuild from :meth:`export` output."""
        ledger = cls(window)
        for client, entry in data.items():
            ledger._high[client] = entry["high"]
            ledger._recent[client] = set(entry["recent"])
        return ledger

    def __len__(self) -> int:
        """Tracked clients (state-transfer cost accounting)."""
        return len(self._high)


@dataclass
class ProtocolConfig:
    """What the ordering core reads; PBFT and CFT take it as is.

    ``view_timeout``: how long a request may stay pending before a replica
    suspects the primary (passive: how long its backup waits for a
    heartbeat).  ``batching`` / ``leases``: request batching on the
    primary (:mod:`repro.bft.batching`) and read leases
    (:mod:`repro.bft.leases`); None keeps the protocol without them,
    event for event.
    """

    view_timeout: float = 40_000.0
    batching: Optional[BatchConfig] = None
    leases: Optional[LeaseConfig] = None


@dataclass
class GroupContext:
    """Everything a replica needs to know about its group.

    Shared (by reference) among the group's replicas; protocols read the
    ordered member list, the fault bound f, and the shared observers.
    """

    group_id: str
    members: List[str]
    f: int
    app_factory: Callable[[], StateMachine]
    keystore: KeyStore
    safety: SafetyRecorder
    metrics: MetricsRegistry

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member names")

    @property
    def n(self) -> int:
        """Group size."""
        return len(self.members)

    def primary_of(self, view: int) -> str:
        """Round-robin primary for a view."""
        return self.members[view % len(self.members)]


def _group_counter(suffix: str) -> cached_property:
    """The ``<group_id>.<suffix>`` counter as a replica attribute, bound on
    first use: binding in ``__init__`` would put a zero-valued metric into
    byte-stable summaries; re-formatting the name per event is the cost
    this removes."""
    return cached_property(
        lambda self: self.group.metrics.counter(f"{self.group.group_id}.{suffix}")
    )


class BaseReplica(Node):
    """The ordering core: admission, progress timer, execution, replies.

    Subclasses implement the agreement protocol behind the hooks listed in
    the module docstring and call :meth:`commit_operation` once an
    operation is committed at a sequence number (then
    :meth:`_note_executed` for that proposal); this class handles
    everything before agreement (admission, batching, lease intercept,
    stall detection) and after it (ordered execution, deduplication,
    client replies, the safety recorder).
    """

    # Cached replies kept per client; must cover the client's outstanding
    # pipeline so retransmits of any incomplete rid can be answered.
    REPLY_CACHE_SIZE = 64

    #: Set by :meth:`shutdown`; a retired instance never comes back.
    retired = False

    _committed_ops = _group_counter("committed_ops")
    _fast_reads = _group_counter("fast_reads")
    _reads_local = _group_counter("reads.local")
    _reads_quorum_fallback = _group_counter("reads.quorum_fallback")

    def __init__(self, name: str, group: GroupContext, config: ProtocolConfig) -> None:
        super().__init__(name)
        self.group = group
        self.config = config
        self.app: StateMachine = group.app_factory()
        self.view = 0
        self.last_executed = 0
        self._pending_execution: Dict[int, Tuple[bytes, Proposal]] = {}
        self._last_reply: Dict[str, Dict[int, ClientReply]] = {}
        self._executed = ExecutionLedger()
        self._state_offers: Dict[Tuple[int, bytes], Dict[str, Any]] = {}
        self._sync_current_votes: set = set()
        self.syncing = False
        self.commits = 0
        self.state_syncs = 0
        # Requests seen but not yet executed: what the progress timer
        # watches, and what a new primary re-proposes.
        self._pending_requests: Dict[Tuple[str, int], ClientRequest] = {}
        self._in_view_change = False
        # The highest view this replica voted to move to (VIEW-CHANGE, ELECT):
        # both a stalled change and an f+1 join go past it.
        self._asked_view = 0
        self._progress_timer: Optional[Timeout] = None  # lazy: needs sim, i.e. placement
        # Primary-side batching; None keeps one proposal per request
        # (exactness contract).
        self.batcher = None
        if config.batching is not None:
            self.batcher = BatchAccumulator(self, config.batching, self._order_proposal)
        # Read leases (repro.bft.leases): every replica gets both — any
        # member can hold leases or become primary.  None when leases are
        # off (exactness contract).
        self.lease_table = None
        self.lease_manager = None
        leases = config.leases
        if leases is not None:
            self.lease_table = LeaseTable(self, leases)
            self.lease_manager = LeaseManager(self, leases)
        # Messages every family handles the same way, by exact type (read
        # requests aside, see handle_common).  Lease traffic reaching a
        # replica without leases is consumed and ignored.
        self._common_handlers: Dict[type, Callable[[str, Any], None]] = {
            StateRequest: self._handle_state_request,
            StateResponse: self._handle_state_response,
            LeaseGrant: _ignore if leases is None else self.lease_table.on_grant,
            LeaseRevoke: _ignore if leases is None else self.lease_table.on_revoke,
            LeaseRevokeAck: _ignore if leases is None else self.lease_manager.on_revoke_ack,
        }

    # ------------------------------------------------------------------
    @property
    def primary(self) -> str:
        """The current view's primary."""
        return self.group.primary_of(self.view)

    @property
    def is_primary(self) -> bool:
        """True if this replica leads the current view."""
        return self.primary == self.name

    def other_members(self) -> List[str]:
        """All group members except self."""
        return [m for m in self.group.members if m != self.name]

    def start(self) -> None:
        """Begin background activity once placed on the chip.

        Subclasses with their own timers call ``super().start()`` so the
        lease renewal cadence (when leases are enabled) runs everywhere.
        """
        if self.lease_manager is not None:
            self.lease_manager.start()

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _order_proposal(self, proposal: Proposal) -> bool:
        """Start agreement on one proposal (a bare request, or a
        RequestBatch).  False = refused (demoted, window full): the
        batcher frees the slot and clients retransmit."""
        raise NotImplementedError

    def _already_ordering(self, request: ClientRequest) -> bool:
        """True if the request sits in a proposed, uncommitted slot."""
        raise NotImplementedError

    def _suspect(self, target: int) -> None:
        """Pending requests stalled: ask the group to move to view ``target``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Progress timer and the stall rule
    # ------------------------------------------------------------------
    def _ensure_timer(self) -> Timeout:
        if self._progress_timer is None:
            self._progress_timer = Timeout(
                self.sim, self.config.view_timeout, self._on_progress_timeout
            )
        return self._progress_timer

    def _on_progress_timeout(self) -> None:
        """The one stall rule (DESIGN §4, *When a replica suspects the
        primary*).  It also runs during a pending change, so a change that
        stalls too is escalated past every view already asked for.  A new
        primary's lease quiesce is not a stall: the window restarts where
        it ends (every member set that end on entering the view)."""
        if not self._pending_requests:
            return
        timer = self._progress_timer
        quiesce_end = 0.0 if self.lease_manager is None else self.lease_manager.quiesce_until
        if self.sim.now < quiesce_end:
            timer.start(quiesce_end - self.sim.now + timer.duration)
            return
        self._suspect(max(self.view, self._asked_view) + 1)
        timer.start()

    def _rearm_timer(self) -> None:
        """Give the remaining pending requests a fresh window, or stand
        down when nothing is pending."""
        if self._pending_requests:
            self._ensure_timer().start()
        elif self._progress_timer is not None:
            self._progress_timer.cancel()

    def _note_pending(self, proposal: Proposal) -> None:
        """Watch every not-yet-executed request of ``proposal``."""
        pending = self._pending_requests
        for request in requests_of(proposal):
            key = request.key()
            if key in pending or self._executed.contains(*key):
                continue
            pending[key] = request
            timer = self._ensure_timer()
            if not timer.armed:
                timer.start()

    def _note_executed(self, proposal: Proposal) -> None:
        """``proposal`` executed: that is progress, so what is still
        pending gets one fresh window (not one re-arm per request of a
        batch — each would only cancel the one before it)."""
        for key in proposal_keys(proposal):
            self._pending_requests.pop(key, None)
        self._rearm_timer()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _handle_request(self, sender: str, request: ClientRequest) -> None:
        if self.already_executed(request):
            self.resend_cached_reply(request)
            return
        if self._in_view_change:
            self._note_pending(request)
            return
        if self.is_primary:
            if self.lease_manager is not None:
                self._note_pending(request)  # parked writes survive view changes
                if self.lease_manager.intercept(request):
                    return
            self._admit_ordered(request)
        else:
            # Forward to the primary and start watching for progress.
            self.send(self.primary, request, request.wire_size())
            self._note_pending(request)

    def _admit_ordered(self, request: ClientRequest) -> None:
        """Primary admission funnel: dedup, then batch-or-order one request.

        Every primary-side path ends here — client requests, re-proposal
        after an era change, and the lease manager re-admitting a parked
        write once its revocation completes.
        """
        if self._already_ordering(request):
            return
        if self.batcher is None:
            self._order_proposal(request)
        elif request.key() not in self.batcher.pending_keys:
            self.batcher.add(request)

    def _repropose_pending(self) -> None:
        """New era: the primary re-admits every still-pending request, a
        backup hands each one to the new primary."""
        if not self.is_primary:
            for request in list(self._pending_requests.values()):
                self.send(self.primary, request, request.wire_size())
            return
        for request in list(self._pending_requests.values()):
            if self.already_executed(request):
                continue
            if self.lease_manager is not None and self.lease_manager.intercept(request):
                continue  # held by the new-era quiesce; released later
            self._admit_ordered(request)
        if self.batcher is not None:
            self.batcher.flush()

    # ------------------------------------------------------------------
    # Era change (view, term, promotion, adopted state)
    # ------------------------------------------------------------------
    def _void_era_state(self) -> None:
        """Drop what the previous era's primary accounted or granted."""
        if self.batcher is not None:
            # Window accounting restarts; pending requests re-enter via
            # _repropose_pending / client retransmission.
            self.batcher.reset()
        if self.lease_manager is not None:
            # Old-era grants and revocations are void; quiesce writes for
            # one lease duration so leftover holders drain safely.
            self.lease_manager.on_view_entered(self.view)
        if self.lease_table is not None:
            self.lease_table.clear()  # grants are view-tagged anyway; hygiene

    def _enter_era(self, view: int) -> None:
        """Adopt ``view`` (a PBFT/MinBFT view, a CFT term, a passive
        promotion): the one place batching, leases and the progress timer
        learn that the primary changed — in this order, which is
        observable (the lease quiesce reads the clock, the timer
        schedules).  Protocols purge their own votes and slots around it.
        """
        self.view = view
        self._in_view_change = False
        self._void_era_state()
        self._rearm_timer()

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------
    def commit_operation(self, seq: int, digest: bytes, proposal: Proposal) -> None:
        """Protocol callback: ``proposal`` is committed at ``seq``.

        ``proposal`` is a bare request or a :class:`RequestBatch`; a
        committed batch executes its k requests in order under the one
        sequence number.  Executes in seq order; out-of-order commits are
        buffered until the gap closes.  Duplicate commits for an executed
        seq are ignored.
        """
        if seq <= self.last_executed:
            return
        self._pending_execution[seq] = (digest, proposal)
        while self.last_executed + 1 in self._pending_execution:
            next_seq = self.last_executed + 1
            pending_digest, pending_proposal = self._pending_execution.pop(next_seq)
            self._execute(next_seq, pending_digest, pending_proposal)
        if not self.syncing and len(self._pending_execution) >= 4:
            # A real execution gap (not mere reordering): an operation we
            # never saw committed below us.  Catch up by state transfer.
            self.request_state_sync()

    def _execute(self, seq: int, digest: bytes, proposal: Proposal) -> None:
        """Apply a committed proposal, then pay for it — the next round first.

        State is applied at once, before anything else runs, so it stays
        in sequence order even where a proposal commits synchronously
        (passive, PBFT with f = 0).  Then, before the k execution charges
        are reserved on the core, the batcher frees the window slot and
        may cut and propose the next batch: its MAC vector or UI queues
        ahead of work whose only product is this replica's reply — one of
        n, where f+1 suffice (DESIGN §4, *What the primary does first*).
        """
        self.group.safety.record_commit(self.name, seq, digest, self.is_correct)
        self.commits += 1
        self.last_executed = seq
        requests = requests_of(proposal)
        self._committed_ops.inc(len(requests))
        replies = [reply for reply in map(self._apply_request, requests) if reply is not None]
        if self.batcher is not None:
            self.batcher.on_committed()
        for reply in replies:
            self.after(self.costs.execute_request, self._send_reply, reply)
        if self.lease_manager is not None:
            self.lease_manager.on_committed()

    def _apply_request(self, request: ClientRequest) -> Optional[ClientReply]:
        """Execute one request against the app state now, so snapshots
        taken at any instant are consistent with ``last_executed``; the
        caller charges the execution cost before the reply goes out.
        None for a replayed request re-ordered at a later seq."""
        client, rid = request.client, request.rid
        if self._executed.contains(client, rid):
            return None
        self._executed.add(client, rid)
        result = self.app.execute(request.op)
        reply = ClientReply(self.name, client, rid, result, self.view)
        self._cache_reply(reply)
        return reply

    def _cache_reply(self, reply: ClientReply) -> None:
        # Kept in rid order, so the smallest rid is the first key.
        cache = self._last_reply.setdefault(reply.client, {})
        rid = reply.rid
        out_of_order = bool(cache) and rid < next(reversed(cache))
        cache[rid] = reply
        if out_of_order:  # rare: a retransmit ordered behind its successors
            replies = sorted(cache.items())
            cache.clear()
            cache.update(replies)
        while len(cache) > self.REPLY_CACHE_SIZE:
            del cache[next(iter(cache))]

    def _reaches(self, client: str) -> bool:
        """True when a message to ``client`` can leave this replica: the
        client is on this chip, or on another one behind the chip's
        off-chip handler (repro.sos tunnelling)."""
        chip = self.chip
        return chip is not None and (chip.has_node(client) or chip.off_chip_handler is not None)

    def _send_reply(self, reply: ClientReply) -> None:
        if self.state is not NodeState.CRASHED and self._reaches(reply.client):
            self.send(reply.client, reply, reply.wire_size())

    def resend_cached_reply(self, request: ClientRequest) -> bool:
        """Resend the cached reply for a retransmitted, executed request."""
        cached = self._last_reply.get(request.client, {}).get(request.rid)
        if cached is not None:
            self.send(request.client, cached, cached.wire_size())
            return True
        return False

    def already_executed(self, request: ClientRequest) -> bool:
        """True if the request was executed (dedup check)."""
        return self._executed.contains(*request.key())

    # ------------------------------------------------------------------
    # State transfer (rejuvenation / protocol switch)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot for state transfer to a recovering/switching replica."""
        return {
            "snapshot": self.app.snapshot(),
            "last_executed": self.last_executed,
            "executed_requests": self._executed.export(),
            "last_reply": {c: dict(replies) for c, replies in self._last_reply.items()},
            "view": self.view,
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Adopt a transferred snapshot (the inverse of export_state).

        Protocol-internal queues are *kept* (messages that raced the
        transfer stay valid); subclasses re-align their counters in
        :meth:`on_state_imported`.
        """
        self.app.restore(state["snapshot"])
        self.last_executed = state["last_executed"]
        self._executed = ExecutionLedger.restore(
            state["executed_requests"], window=self._executed.window
        )
        self._last_reply = {c: dict(replies) for c, replies in state["last_reply"].items()}
        self.view = max(self.view, state["view"])
        self._pending_execution = {
            s: v for s, v in self._pending_execution.items() if s > self.last_executed
        }
        self.group.safety.reset_replica(self.name, self.last_executed)
        # The adopted state may carry a newer view, and in-flight
        # accounting is stale relative to it: treat it as an era change —
        # grants from before the transfer are untrustworthy.  (Not
        # _enter_era: the progress timer keeps watching what is pending.)
        self._void_era_state()
        self.on_state_imported()

    def on_state_imported(self) -> None:
        """Subclass hook: re-align internal counters with last_executed."""

    def shutdown(self) -> None:
        """Permanently deactivate this replica *instance*.

        Called when the group rebuilds its replicas (protocol switch,
        scale-in): the old object must stop acting — a live "zombie"
        holding the same name would keep firing timers and committing
        stale operations attributed to its successor.  A retired
        instance ignores :meth:`recover`: a rejuvenation pass begun
        before the rebuild must not revive it when its write commits.
        """
        self.retired = True
        self.state = NodeState.CRASHED
        self.syncing = False
        self._drop_pending()
        self.reset_protocol_state()
        if self.batcher is not None:
            self.batcher.reset()
        if self.lease_manager is not None:
            self.lease_manager.stop()
        if self.lease_table is not None:
            self.lease_table.clear()

    def recover(self) -> None:
        """Restart the node, unless :meth:`shutdown` retired it."""
        if not self.retired:
            super().recover()

    def on_recover(self) -> None:
        """After rejuvenation the replica rejoins with its durable state.

        We model reliable local persistence of executed state (NVM or
        state transfer from peers); protocol-internal message state is
        subclass responsibility via :meth:`reset_protocol_state`.  The
        replica also asks peers for anything it missed while down.
        """
        self._pending_execution.clear()
        self.group.safety.reset_replica(self.name, self.last_executed)
        self._drop_pending()
        self.reset_protocol_state()
        if self.batcher is not None:
            self.batcher.reset()
        if self.lease_manager is not None:
            self.lease_manager.reset()
        if self.lease_table is not None:
            # A rejuvenated replica must not serve on pre-crash leases: it
            # waits for a fresh grant from the current primary.
            self.lease_table.clear()
        if self.chip is not None:
            self.sim.call_soon(self.request_state_sync)

    def _drop_pending(self) -> None:
        """Forget pending requests and any view change, and stand the
        progress timer down (clients retransmit whatever still matters)."""
        self._pending_requests.clear()
        self._in_view_change = False
        self._asked_view = 0
        if self._progress_timer is not None:
            self._progress_timer.cancel()

    def reset_protocol_state(self) -> None:
        """Subclass hook: drop in-flight agreement bookkeeping."""

    # ------------------------------------------------------------------
    # State synchronisation (catch-up after downtime / view change)
    # ------------------------------------------------------------------
    @property
    def state_sync_quorum(self) -> int:
        """Matching state offers needed before adopting one: f+1 (BFT);
        crash-only protocols override to 1."""
        return self.group.f + 1

    def request_state_sync(self, retry_after: float = 20_000.0) -> None:
        """Ask all peers for state newer than what we executed.

        While ``syncing`` is True, subclasses must not assign new global
        sequence numbers (MinBFT gates its execution drain on it).  The
        flag clears when either a newer state is adopted or a quorum of
        peers confirms we are current; unresolved syncs retry.
        """
        if self.state is NodeState.CRASHED:
            return
        self.syncing = True
        self._state_offers.clear()
        self._sync_current_votes.clear()
        message = StateRequest(self.name, self.last_executed)
        self.broadcast(self.other_members(), message, message.wire_size())
        if retry_after > 0:
            self.sim.schedule(retry_after, self._retry_sync, retry_after)

    def _retry_sync(self, retry_after: float) -> None:
        if self.syncing and self.state is not NodeState.CRASHED:
            self.request_state_sync(retry_after)

    def handle_common(self, sender: str, message: Any) -> bool:
        """Protocols call this first in ``on_message``; True = consumed."""
        kind = type(message)
        if kind is ClientRequest:
            if not message.read_only:
                return False  # an ordered request: the protocol admits it
            if message.lease_read:
                self._serve_lease_read(sender, message)
            else:
                self._serve_read(sender, message)
            return True
        handler = self._common_handlers.get(kind)
        if handler is None:
            return False
        handler(sender, message)
        return True

    def _serve_read(self, sender: str, request: ClientRequest) -> None:
        """Read-only fast path: answer from current state, no ordering.

        Any replica (primary or backup) serves reads.  The client needs
        f+1 *matching* replies, so a lone stale or Byzantine replica
        cannot make up a value — at worst mismatching replies push the
        client onto the ordered path.
        """
        if self.syncing:
            return  # our state may be behind; let up-to-date peers answer
        try:
            result = self.app.read(request.op)
        except ValueError:
            return  # not actually read-only: only the ordered path may run it
        self._fast_reads.inc()
        reply = ClientReply(self.name, request.client, request.rid, result, self.view)
        if self._reaches(request.client):
            self.send(request.client, reply, reply.wire_size())

    def _serve_lease_read(self, sender: str, request: ClientRequest) -> None:
        """Leased read: answer alone from local committed state, one hop.

        Serveable iff a valid lease covers every key of the op — either a
        grant from the current view's primary (backup side), or the
        primary's own commit-evidence-backed self lease.  Anything else
        gets a :class:`ReadNack`, pushing the client onto the f+1 quorum
        path (same rid, no ordering traffic either way).
        """
        result: Any = None
        serveable = not self.syncing and (
            (self.lease_table is not None and self.lease_table.covers(request.op))
            or (
                self.is_primary
                and self.lease_manager is not None
                and self.lease_manager.holds_self_lease
            )
        )
        if serveable:
            try:
                result = self.app.read(request.op)
            except ValueError:
                serveable = False  # not actually read-only: refuse
        answer: Any
        if serveable:
            self._reads_local.inc()
            answer = ClientReply(
                self.name, request.client, request.rid, result, self.view, leased=True
            )
        else:
            self._reads_quorum_fallback.inc()
            answer = ReadNack(self.name, request.client, request.rid)
        if self._reaches(request.client):
            self.send(request.client, answer, answer.wire_size())

    def _handle_state_request(self, sender: str, message: StateRequest) -> None:
        if sender != message.replica or sender not in self.group.members:
            return
        if self.last_executed <= message.have_seq:
            # "You are current": lets the requester resolve its sync even
            # when nothing was missed.
            response = StateResponse(self.name, self.last_executed, b"", None)
            self.send(sender, response, response.wire_size())
            return
        state = self.export_state()
        response = StateResponse(
            self.name, self.last_executed, self.app.state_digest(), state
        )
        self.send(sender, response, response.wire_size())

    def _handle_state_response(self, sender: str, message: StateResponse) -> None:
        if sender != message.replica or sender not in self.group.members:
            return
        if message.last_executed <= self.last_executed:
            self._sync_current_votes.add(sender)
            if self.syncing and len(self._sync_current_votes) >= self.state_sync_quorum:
                self.syncing = False
                self.on_state_synced()
            return
        key = (message.last_executed, message.state_digest)
        offers = self._state_offers.setdefault(key, {})
        offers[sender] = message.state
        if len(offers) >= self.state_sync_quorum:
            # Adopt the first copy whose snapshot actually matches the
            # agreed digest — a Byzantine responder can echo the agreed
            # key but cannot craft a poisoned snapshot with that digest.
            state = self._first_valid_offer(offers, message.state_digest)
            if state is None:
                return
            self._state_offers.clear()
            self.state_syncs += 1
            self.import_state(state)
            self.syncing = False
            self.on_state_synced()

    def _first_valid_offer(self, offers: Dict[str, Any], digest: bytes) -> Optional[Any]:
        probe = self.group.app_factory()
        for sender in sorted(offers):
            state = offers[sender]
            try:
                probe.restore(state["snapshot"])
            except (KeyError, TypeError, ValueError):
                continue
            if probe.state_digest() == digest:
                return state
        return None

    def on_state_synced(self) -> None:
        """Subclass hook: called after adopting a transferred state."""

    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:  # pragma: no cover
        raise NotImplementedError
