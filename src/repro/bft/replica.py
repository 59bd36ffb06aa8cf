"""The ordering core shared by all protocol families.

:class:`BaseReplica` owns everything about ordering client requests that
is *not* agreement: primary admission (dedup, batch or order), the
pending-request map, its progress timer and the stall rule,
the batcher and lease install, re-proposal after an era change, in-order
execution, replies, checkpoints and state transfer.  A protocol module
supplies only the hooks the core calls —

* ``_order_proposal(proposal) -> bool``: start agreement on one proposal;
* ``_already_ordering(request) -> bool``: is it in an uncommitted slot;
* ``_suspect(target)``: pending requests stalled — ask the group to move
  to view ``target`` (VIEW-CHANGE, REQ-VIEW-CHANGE, ELECT);
* ``_on_checkpoint(seq)``: this member just took a checkpoint (PBFT
  votes on it; the others send nothing);

— plus what genuinely differs between families: slots, phases, quorum
sizes, USIG sequencing, stable checkpoints and the view-change/election
votes.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import is_
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bft.app import StateMachine
from repro.bft.batching import BatchAccumulator, BatchConfig
from repro.bft.leases import LeaseConfig, LeaseManager, LeaseTable, holder_of_all, keys_of
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
    proposal_digest,
    proposal_keys,
    requests_of,
)
from repro.bft.safety import SafetyRecorder
# Called by this module-level name: benchmarks/perf/trace.py patches it here.
from repro.crypto.mac import canonical_bytes, digest as payload_digest
from repro.crypto.keys import KeyStore
from repro.metrics import MetricsRegistry
from repro.sim.timers import Timeout
from repro.soc.node import Node, NodeState


def _ignore(sender: str, message: Any) -> None:
    """Handler for a message type this replica has no use for."""


class ExecutionLedger:
    """Bounded record of executed requests and their results: a
    per-client high-watermark + a window of recent rids.

    Client rids are monotone, so a per-client **high-watermark** plus a
    small **out-of-order window** answers ``already_executed`` in
    O(clients · window) memory:

    * rid above the watermark       → not executed yet;
    * rid inside the recent window  → executed iff recorded there;
    * rid at/below watermark−window → an ancient replay, reported executed.

    The last rule's premise is the requester's to keep, and it checks it:
    rids count up per requester node and group
    (:class:`~repro.bft.client.ClientSession`), and a session never opens
    a rid :attr:`DEFAULT_WINDOW` or more past its oldest open one — a
    client waits for that one, a router gives it up — so nothing that old
    is still live.  A rid in the window keeps its result, which answers a
    retransmit; every correct member at one ``last_executed`` holds the
    same window, so a state offer can vouch for it.
    """

    DEFAULT_WINDOW = 256

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"ledger window must be >= 1, got {window}")
        self.window = window
        self._high: Dict[str, int] = {}
        self._recent: Dict[str, Dict[int, Any]] = {}

    def contains(self, client: str, rid: int) -> bool:
        """True if (client, rid) was executed (or is an ancient replay)."""
        high = self._high.get(client)
        if high is None or rid > high:
            return False
        if rid <= high - self.window:
            return True
        return rid in self._recent[client]

    def lookup(self, client: str, rid: int) -> Tuple[bool, Any]:
        """``(recorded, result)`` for (client, rid) in the window; a
        ``None`` result is still recorded."""
        high = self._high.get(client)
        recent = {} if high is None or rid <= high - self.window else self._recent[client]
        return rid in recent, recent.get(rid)

    def add(self, client: str, rid: int, result: Any) -> None:
        """Record an execution and its result.  Amortized O(1): pruning is
        deferred until the recent window doubles."""
        recent = self._recent.setdefault(client, {})
        high = self._high.get(client)
        if high is None or rid > high:
            self._high[client] = rid
            high = rid
        recent[rid] = result
        if len(recent) > 2 * self.window:
            floor = high - self.window
            self._recent[client] = {r: v for r, v in recent.items() if r > floor}

    def export(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot for state transfer: fully pruned, deterministic;
        ``recent`` is ``[(rid, result)]`` in rid order."""
        out: Dict[str, Dict[str, Any]] = {}
        for client in sorted(self._high):
            high, recent = self._high[client], self._recent[client]
            kept = [(r, recent[r]) for r in sorted(recent) if r > high - self.window]
            out[client] = {"high": high, "recent": kept}
        return out

    @classmethod
    def restore(cls, data: Dict[str, Dict[str, Any]], window: int = DEFAULT_WINDOW) -> "ExecutionLedger":
        """Rebuild from :meth:`export` output."""
        ledger = cls(window)
        for client, entry in data.items():
            ledger._high[client] = entry["high"]
            ledger._recent[client] = dict(entry["recent"])
        return ledger

    def __len__(self) -> int:
        """Tracked clients (state-transfer cost accounting)."""
        return len(self._high)


def offer_digest(snapshot_digest: bytes, executed: Dict[str, Dict[str, Any]]) -> bytes:
    """What a state offer vouches for: the app state and the execution
    ledger with its results, which every correct member shares at one
    ``last_executed`` (the view is left out)."""
    return payload_digest((snapshot_digest, executed))


class CheckpointDigests:
    """:func:`offer_digest` of one member's successive checkpoints, bit
    for bit, without serializing the whole ledger each time.

    It writes out ``canonical_bytes((snapshot_digest, executed))`` for an
    :meth:`ExecutionLedger.export` (clients sorted, each ``{"high",
    "recent"}`` with ``recent`` in rid order) and keeps, per client, the
    rids, results and serialized ``(rid, result)`` entries of the last
    checkpoint.  The next one's entries start with the last one's tail
    (the window slid past its oldest rids) and add the rids executed
    since: where the rids and the very result objects match, the tail's
    bytes are reused and only the rest is serialized.
    """

    def __init__(self) -> None:
        self._runs: Dict[str, Tuple[List[int], List[Any], List[bytes]]] = {}

    def digest(self, snapshot_digest: bytes, executed: Dict[str, Dict[str, Any]]) -> bytes:
        known, kept = self._runs, {}
        parts = [b"l2:", canonical_bytes(snapshot_digest), b"d%d:" % len(executed)]
        for client in sorted(executed):
            entry = executed[client]
            recent = entry["recent"]
            rids = [item[0] for item in recent]
            results = [item[1] for item in recent]
            old_rids, old_results, old_bytes = known.get(client, ([], [], []))
            first = bisect_left(old_rids, rids[0]) if rids else len(old_rids)
            same = len(old_rids) - first
            if rids[:same] == old_rids[first:] and all(map(is_, results, old_results[first:])):
                encoded = old_bytes[first:] + [_entry_bytes(item) for item in recent[same:]]
            else:
                encoded = [_entry_bytes(item) for item in recent]
            kept[client] = (rids, results, encoded)
            parts.append(canonical_bytes(client))
            parts.append(b"d2:s4:high%ss6:recentl%d:" % (canonical_bytes(entry["high"]), len(recent)))
            parts += encoded
        self._runs = kept
        return hashlib.sha256(b"".join(parts)).digest()


def _entry_bytes(item: Tuple[int, Any]) -> bytes:
    """``canonical_bytes(item)`` of one ``(rid, result)`` ledger entry,
    written out for the usual shape (an int rid, a str result)."""
    rid, result = item
    if type(rid) is int and type(result) is str:
        digits = b"%d" % rid
        text = result.encode("utf-8")
        return b"l2:i%d:%ss%d:%s" % (len(digits), digits, len(text), text)
    return canonical_bytes(item)


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
    everything before agreement (admission, batching, stall detection)
    and after it (ordered execution, deduplication, client replies and
    their lease licence, the safety recorder).
    """

    # The family, stated once per subclass (DESIGN §4, *What a protocol
    # family declares*): REPLICAS_PER_F·f + 1 members tolerate f faults.
    REPLICAS_PER_F: int
    byzantine_safe: bool
    config_cls: type = ProtocolConfig

    #: Set by :meth:`shutdown`; a retired instance never comes back.
    retired = False
    #: Every this many executions a member records its checkpoint; it
    #: keeps the log it executes above it (DESIGN §4, *What a replica
    #: retains*).
    CHECKPOINT_INTERVAL = 64
    #: A sync round still short of answers this long after it began is
    #: sent again, and a round that moved nothing starts no other sooner.
    SYNC_RETRY_AFTER = 20_000.0

    _committed_ops = _group_counter("committed_ops")
    _fast_reads = _group_counter("fast_reads")
    _reads_local = _group_counter("reads.local")
    _reads_quorum_fallback = _group_counter("reads.quorum_fallback")

    def __init__(
        self, name: str, group: GroupContext, config: Optional[ProtocolConfig] = None
    ) -> None:
        expected = self.replicas_for(group.f)
        if group.n < expected:
            raise ValueError(
                f"{type(self).__name__} with f={group.f} needs n>={expected}, got {group.n}"
            )
        super().__init__(name)
        self.group = group
        self.config = config = config or self.config_cls()
        self.app: StateMachine = group.app_factory()
        self.view = 0
        self.last_executed = 0
        self._pending_execution: Dict[int, Tuple[bytes, Proposal]] = {}
        self._executed = ExecutionLedger()
        # The latest checkpoint (seq, offer digest — None until first
        # asked for —, export_state()) and (digest, proposal) per seq
        # executed above it: what a state response ships.  Seq 0, the
        # initial state, is shipped to nobody.
        self._checkpoint: Tuple[int, Optional[bytes], Any] = (0, b"", None)
        self._checkpoint_digests = CheckpointDigests()
        self._executed_log: Dict[int, Tuple[bytes, Proposal]] = {}
        # The open sync round: answers by responder and when it began
        # (-inf once a round moved something: no retry window is open),
        # and whether a round was asked for inside that window.
        self._sync_answers: Dict[str, StateResponse] = {}
        self._sync_began = -math.inf
        self._sync_wanted = False
        self.syncing = False
        self.state_syncs = 0
        # The last sequence number a primary assigned (CFT: seen assigned);
        # its next proposal takes the one after (see _anchor_next_seq).
        self._next_seq = 0
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

    @classmethod
    def replicas_for(cls, f: int) -> int:
        """Members the family needs to tolerate ``f`` faults."""
        return cls.REPLICAS_PER_F * f + 1

    @classmethod
    def vouch_quorum(cls, f: int) -> int:
        """Matching answers that vouch for a value (client replies, state
        offers): f+1 when members may lie, 1 when they only crash."""
        return f + 1 if cls.byzantine_safe else 1

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

        Subclasses with their own timers call ``super().start()`` so a
        leased primary starts its renewal cadence.
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

    def _on_checkpoint(self, seq: int) -> None:
        """This member took its checkpoint at ``seq`` (runs last in
        :meth:`_execute`)."""

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
        primary's lease quiesce holds no write back (it only withholds the
        primary's licence), so it needs no exemption here."""
        if not self._pending_requests:
            return
        self._suspect(max(self.view, self._asked_view) + 1)
        self._progress_timer.start()

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
            self._admit_ordered(request)
        else:
            # Forward to the primary and start watching for progress.
            self.send(self.primary, request, request.wire_size())
            self._note_pending(request)

    def _admit_ordered(self, request: ClientRequest) -> None:
        """Primary admission funnel: dedup, then batch-or-order one request.

        Every primary-side path ends here — client requests and
        re-proposal after an era change.
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
            if not self.already_executed(request):
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
            # Old-era grants and revocations are void; license nothing for
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
        self._anchor_next_seq()
        self._void_era_state()
        self._rearm_timer()

    def _anchor_next_seq(self) -> None:
        """Number nothing at or below what this replica executed.  The
        one re-anchor of ``_next_seq``, run where a replica may start
        numbering after executing what others numbered: on state import,
        on era entry and on reset."""
        self._next_seq = max(self._next_seq, self.last_executed)

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
        (passive, PBFT with f = 0); the log entry or checkpoint is taken
        on that state.  Then, before the k execution charges
        are reserved on the core, the batcher frees the window slot and
        may cut and propose the next batch: its MAC vector or UI queues
        ahead of work whose only product is this replica's reply — one of
        n, where f+1 suffice (DESIGN §4, *What the primary does first*).
        """
        self.group.safety.record_commit(self.name, seq, digest, self.is_correct)
        self.last_executed = seq
        requests = requests_of(proposal)
        self._committed_ops.inc(len(requests))
        replies = [reply for reply in map(self._apply_request, requests) if reply is not None]
        checkpoint = seq % self.CHECKPOINT_INTERVAL == 0
        if checkpoint:
            self._record_checkpoint()
            self.group.safety.checkpoint(self.group.members)
        else:
            self._executed_log[seq] = (digest, proposal)
        if self.batcher is not None:
            self.batcher.on_committed()
        for reply in replies:
            self.after(self.costs.execute_request, self._send_reply, reply)
        if self.lease_manager is not None:
            self.lease_manager.on_committed()
        if checkpoint:
            self._on_checkpoint(seq)

    def _record_checkpoint(self) -> None:
        """Make the state right after ``last_executed`` this member's
        checkpoint; the log below it goes."""
        self._checkpoint = (self.last_executed, None, self.export_state())
        self._executed_log.clear()

    def _checkpoint_digest(self) -> bytes:
        """The checkpoint's offer digest, computed on first use: a run
        that ships no state and votes on no checkpoint never pays for it.
        The same bytes as :meth:`_offer_digest_of`, with each ledger
        entry serialized once across this member's checkpoints."""
        seq, digest, state = self._checkpoint
        if digest is None:
            digest = self._checkpoint_digests.digest(
                self._snapshot_digest_of(state), state["executed_requests"]
            )
            self._checkpoint = (seq, digest, state)
        return digest

    def _offer_digest_of(self, state: Dict[str, Any]) -> bytes:
        """:func:`offer_digest` of an ``export_state()`` dict."""
        return offer_digest(self._snapshot_digest_of(state), state["executed_requests"])

    def _snapshot_digest_of(self, state: Dict[str, Any]) -> bytes:
        """The app-state half of an offer digest."""
        probe = self.group.app_factory()
        probe.restore(state["snapshot"])
        return probe.state_digest()

    def _apply_request(self, request: ClientRequest) -> Optional[ClientReply]:
        """Execute one request against the app state now, so snapshots
        taken at any instant are consistent with ``last_executed``; the
        caller charges the execution cost before the reply goes out.
        None for a replayed request re-ordered at a later seq."""
        client, rid = request.client, request.rid
        if self._executed.contains(client, rid):
            return None
        result = self.app.execute(request.op)
        self._executed.add(client, rid, result)
        manager = self.lease_manager
        licensed = manager is not None and manager.licenses(request.op)
        return ClientReply(self.name, client, rid, result, self.view, False, licensed)

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
        """Answer a retransmitted, executed request from the ledger — the
        one place a re-sent reply is built, under this replica's name and
        view.  A leased primary that cannot license it takes the slow path
        (:meth:`~repro.bft.leases.LeaseManager.withhold`).  False when the
        ledger keeps no result (an ancient replay)."""
        recorded, result = self._executed.lookup(*request.key())
        if recorded:
            manager = self.lease_manager
            licensed = manager is not None and manager.licenses(request.op)
            reply = ClientReply(
                self.name, request.client, request.rid, result, self.view, False, licensed
            )
            self.send(request.client, reply, reply.wire_size())
            if manager is not None and not licensed and self.is_primary:
                manager.withhold(request)
        return recorded

    def already_executed(self, request: ClientRequest) -> bool:
        """True if the request was executed (dedup check)."""
        return self._executed.contains(*request.key())

    # ------------------------------------------------------------------
    # State transfer (rejuvenation / protocol switch)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot for state transfer: the app state and the execution
        ledger as of ``last_executed`` (what :func:`offer_digest` covers) and the view."""
        return {
            "snapshot": self.app.snapshot(),
            "last_executed": self.last_executed,
            "executed_requests": self._executed.export(),
            "view": self.view,
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Adopt a transferred snapshot (the inverse of export_state); it
        becomes this member's checkpoint.

        Protocol-internal queues are *kept* (messages that raced the
        transfer stay valid); :meth:`on_state_imported` prunes or
        re-aligns what a family keeps beside them.
        """
        self.app.restore(state["snapshot"])
        self.last_executed = state["last_executed"]
        self._executed = ExecutionLedger.restore(
            state["executed_requests"], window=self._executed.window
        )
        self.view = max(self.view, state["view"])
        self._pending_execution = {
            s: v for s, v in self._pending_execution.items() if s > self.last_executed
        }
        self.group.safety.reset_replica(self.name, self.last_executed)
        self._record_checkpoint()
        self._anchor_next_seq()
        # The adopted state may carry a newer view, and in-flight
        # accounting is stale relative to it: treat it as an era change —
        # grants from before the transfer are untrustworthy.  (Not
        # _enter_era: the progress timer keeps watching what is pending.)
        self._void_era_state()
        self.on_state_imported()

    def on_state_imported(self) -> None:
        """Subclass hook: what the snapshot now covers (state up to
        last_executed) is dropped or re-anchored on."""

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
        self.withdraw_undeparted()
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
        replica also asks peers for anything it missed while down (a
        round open at the crash is void).
        """
        self._pending_execution.clear()
        self.group.safety.reset_replica(self.name, self.last_executed)
        self._drop_pending()
        self.reset_protocol_state()
        self._anchor_next_seq()
        if self.batcher is not None:
            self.batcher.reset()
        if self.lease_manager is not None:
            # reset forgets grants that may still be live: license none.
            self.lease_manager.reset()
            self.lease_manager.quiesce()
        if self.lease_table is not None:
            # A rejuvenated replica must not serve on pre-crash leases: it
            # waits for a fresh grant from the current primary.
            self.lease_table.clear()
        self.syncing = False
        self._sync_began = -math.inf
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
    # State synchronisation (catch-up after downtime / view change): the
    # checkpoint a quorum shares, then the log above it
    # ------------------------------------------------------------------
    @property
    def state_sync_quorum(self) -> int:
        """Answers that close a sync round, and that must match on each
        checkpoint, seq and view the round takes."""
        return self.vouch_quorum(self.group.f)

    def request_state_sync(self) -> None:
        """Start a sync round: ask every peer for its latest checkpoint and
        the log above what this member executed.

        While ``syncing`` is True (a round is open), subclasses must not
        assign new global sequence numbers (MinBFT gates its execution
        drain on it).  The round stays open until it takes something, or
        until the peers yet to answer could vouch for nothing more
        (:meth:`_step_sync_round`); one still open after
        :attr:`SYNC_RETRY_AFTER` is sent again.  After a round that moved
        nothing, the next begins no sooner than that long after it began,
        so a member cannot flood its peers: a request before then waits.
        """
        if self.state is NodeState.CRASHED or self.syncing:
            return
        if self.sim.now < self._sync_began + self.SYNC_RETRY_AFTER:
            self._sync_wanted = True
        else:
            self._begin_sync_round()

    def _begin_sync_round(self) -> None:
        self.syncing = True
        self._sync_wanted = False
        self._sync_began = self.sim.now
        self._sync_answers.clear()
        message = StateRequest(self.name, self.last_executed)
        self.broadcast(self.other_members(), message, message.wire_size())
        self.sim.schedule(self.SYNC_RETRY_AFTER, self._sync_timer, self._sync_began)

    def _sync_timer(self, began: float) -> None:
        """The retry window of the round that began at ``began`` closed:
        send it again if it is still open, or begin the one asked for."""
        if (
            began == self._sync_began
            and (self.syncing or self._sync_wanted)
            and self.state is not NodeState.CRASHED
        ):
            self._begin_sync_round()

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

        Serveable iff this replica holds every key of the op under a valid
        lease — either a grant from the current view's primary (backup
        side), or the primary's own commit-evidence-backed self lease.
        Anything else gets a :class:`ReadNack`, pushing the client onto
        the f+1 quorum path (same rid, no ordering traffic either way).
        """
        result: Any = None
        table = self.lease_table
        serveable = not self.syncing and table is not None and (
            table.covers(request.op)
            or (
                self.is_primary
                and self.lease_manager.holds_self_lease
                and holder_of_all(self.group.members, keys_of(request.op)) == self.name
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
        """Answer with this member's checkpoint — its state only if the
        requester is behind it — and the log above ``have_seq``."""
        if sender != message.replica or sender not in self.group.members:
            return
        digest = self._checkpoint_digest()
        seq, _, state = self._checkpoint
        have = message.have_seq
        log = tuple((s, d, p) for s, (d, p) in self._executed_log.items() if s > have)
        response = StateResponse(
            self.name, self.view, seq, digest, state if have < seq else None, log
        )
        self.send(sender, response, response.wire_size())

    def _handle_state_response(self, sender: str, message: StateResponse) -> None:
        if not self.syncing or sender != message.replica or sender not in self.group.members:
            return
        self._sync_answers[sender] = message
        if len(self._sync_answers) >= self.state_sync_quorum:
            self._step_sync_round()

    def _step_sync_round(self) -> None:
        """Take what ``state_sync_quorum`` of the round's answers vouch
        for and close the round — or, while nothing is vouched for and the
        peers yet to answer could still vouch for something, wait for them.

        In order: the highest view that many answers report at least; the
        highest checkpoint above ``last_executed`` that many name, from the
        first copy whose contents match its digest; then each next seq
        for which that many shipped one digest, with a body that matches
        it.  One liar can name neither a state, nor a seq, nor a view, nor
        close a round on an answer that disagrees with the rest.
        """
        answers, quorum = self._sync_answers, self.state_sync_quorum
        began_at = self.last_executed
        offers: Dict[Tuple[int, bytes], Dict[str, Any]] = {}
        shipped: Dict[int, Dict[bytes, Dict[str, Proposal]]] = {}
        for sender, answer in answers.items():
            if answer.checkpoint_seq > began_at:
                key = (answer.checkpoint_seq, answer.checkpoint_digest)
                offers.setdefault(key, {})[sender] = answer.state
            for seq, digest, proposal in answer.log:
                shipped.setdefault(seq, {}).setdefault(digest, {})[sender] = proposal
        view = sorted((answer.view for answer in answers.values()), reverse=True)[quorum - 1]
        adopted = None
        for (seq, digest), states in sorted(offers.items(), reverse=True):
            if len(states) >= quorum:
                adopted = self._first_valid_offer(states, seq, digest)
                if adopted is not None:
                    break
        following = shipped.get(began_at + 1, {})
        if adopted is None and self._vouched_entry(following, quorum) is None:
            unanswered = len(self.other_members()) - len(answers)
            votes = [len(states) for states in offers.values()]
            votes += [len(bodies) for bodies in following.values()]
            if unanswered and max(votes, default=0) + unanswered >= quorum:
                return
        self._sync_answers = {}
        if adopted is not None:
            self.import_state(dict(adopted, view=view))
        elif view > self.view:
            self.view = view
            self._void_era_state()
            self.on_state_imported()
        while True:
            entry = self._vouched_entry(shipped.get(self.last_executed + 1, {}), quorum)
            if entry is None:
                break
            self.commit_operation(self.last_executed + 1, *entry)
            self._note_executed(entry[1])
        self.syncing = False
        if self.last_executed > began_at:
            self.state_syncs += 1
            self._sync_began = -math.inf
        self.on_state_synced()

    @staticmethod
    def _vouched_entry(
        by_digest: Dict[bytes, Dict[str, Proposal]], quorum: int
    ) -> Optional[Tuple[bytes, Proposal]]:
        """The (digest, body) ``quorum`` responders shipped for one seq,
        with a body that matches the digest; None if there is none."""
        for digest, bodies in by_digest.items():
            if len(bodies) >= quorum:
                for body in bodies.values():
                    if proposal_digest(body) == digest:
                        return digest, body
        return None

    def _first_valid_offer(self, offers: Dict[str, Any], seq: int, digest: bytes) -> Optional[Any]:
        """The first copy, by sender, whose contents match the agreed
        checkpoint: a liar can echo the agreed (seq, digest) but cannot
        craft a poisoned state with that digest."""
        for _, state in sorted(offers.items()):
            try:
                if state["last_executed"] == seq and self._offer_digest_of(state) == digest:
                    return state
            except (KeyError, TypeError, ValueError):
                continue
        return None

    def on_state_synced(self) -> None:
        """Subclass hook: called after adopting a transferred state."""

    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:  # pragma: no cover
        raise NotImplementedError
