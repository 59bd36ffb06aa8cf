"""PBFT (Castro & Liskov, OSDI'99): 3f+1 replicas, three phases.

The baseline active-replication protocol the paper cites (§II.A).  Normal
case: the primary orders a request with PRE-PREPARE; backups agree on the
(view, seq, digest) binding with PREPARE (quorum: 2f, plus the
pre-prepare); everyone confirms with COMMIT (quorum: 2f+1); execution is
in sequence order; the client accepts f+1 matching replies.

Implemented here with:

* real request digests (SHA-256 over the canonical serialization) — a
  tampering primary is caught by the digest check;
* transport-authenticated channels standing in for pairwise MACs, with
  MAC compute/verify *time* charged per the cost model (one MAC per
  recipient on multicasts — the message-cost asymmetry E2 measures —
  each copy carrying its own and leaving as soon as it is done); a
  PREPARE or COMMIT whose quorum is already met by verified and queued
  votes is dropped on its header, before its MAC is paid for;
* a CHECKPOINT vote on each checkpoint the ordering core takes (its
  ``offer_digest``), with log truncation at 2f+1 matching votes;
* a view-change subprotocol: backups time-out on pending requests and
  broadcast VIEW-CHANGE with the PRE-PREPARE of every prepared slot in
  their log; the next primary installs NEW-VIEW re-proposing, per seq it
  has not executed, the highest-view binding reported (no prepared
  certificates, so not against a lying reporter: DESIGN §4);
* optional request batching + pipelined agreement
  (``ProtocolConfig.batching``, a :class:`~repro.bft.batching.BatchConfig`):
  the primary orders a whole batch under one digest and one MAC vector
  per phase, with a bounded in-flight window.  ``batch_size=1``
  reproduces the unbatched protocol event-for-event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.bft.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    NewView,
    OrderingIndex,
    PrePrepare,
    Prepare,
    Proposal,
    ViewChange,
    proposal_digest,
)
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.crypto.mac import MAC_LENGTH
from repro.soc.chip import is_corrupted
from repro.soc.node import NodeState


@dataclass
class _SlotState:
    """Per-(view, seq) agreement state.

    ``prepares`` / ``commits`` hold verified votes; ``*_queued`` hold the
    senders of votes matching the bound pre-prepare that are waiting on
    this core for their MAC check (see :meth:`PbftReplica._vote_is_moot`).
    """

    pre_prepare: Optional[PrePrepare] = None
    prepares: Set[str] = field(default_factory=set)
    commits: Set[str] = field(default_factory=set)
    prepares_queued: Set[str] = field(default_factory=set)
    commits_queued: Set[str] = field(default_factory=set)
    prepare_sent: bool = False
    commit_sent: bool = False
    committed: bool = False


class PbftReplica(BaseReplica):
    """One PBFT replica."""

    REPLICAS_PER_F = 3
    byzantine_safe = True
    #: The primary assigns no sequence number this far past the last
    #: stable checkpoint, and backups accept none.
    WATERMARK_WINDOW = 256

    def __init__(
        self, name: str, group: GroupContext, config: Optional[ProtocolConfig] = None
    ) -> None:
        super().__init__(name, group, config)
        self._slots: Dict[Tuple[int, int], _SlotState] = {}
        self._ordering = OrderingIndex()  # keys in pre-prepared, uncommitted slots
        self._stable_seq = 0
        self._checkpoint_votes: Dict[Tuple[int, bytes], Set[str]] = {}
        self._view_change_votes: Dict[int, Dict[str, ViewChange]] = {}
        # Inter-replica traffic by exact type; all of it pays MAC
        # verification before its handler runs (a moot vote never runs).
        self._verified_handlers = {
            PrePrepare: self._handle_pre_prepare,
            Prepare: self._handle_prepare,
            Commit: self._handle_commit,
            Checkpoint: self._handle_checkpoint,
            ViewChange: self._handle_view_change,
            NewView: self._handle_new_view,
        }

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    @property
    def prepare_quorum(self) -> int:
        """Prepares needed (besides the pre-prepare): 2f."""
        return 2 * self.group.f

    @property
    def commit_quorum(self) -> int:
        """Commits needed: 2f+1."""
        return 2 * self.group.f + 1

    # ------------------------------------------------------------------
    # Cost-charged authenticated send
    # ------------------------------------------------------------------
    def _auth_multicast(self, message: Any) -> None:
        """Multicast with one MAC per recipient, computed back to back on
        this core: each copy carries the MAC its recipient checks and
        leaves when that MAC is done (DESIGN §4 *When a copy leaves*)."""
        recipients = self.other_members()
        done = self.charge_each(self.costs.mac_compute, len(recipients))
        self.broadcast(recipients, message, message.wire_size() + MAC_LENGTH, done)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        kind = type(message)
        if kind not in self._verified_handlers:
            if is_corrupted(message):
                self.group.metrics.counter(f"{self.group.group_id}.corrupt_dropped").inc()
                return
            if self.handle_common(sender, message):
                return
            if kind is ClientRequest:
                self._handle_request(sender, message)
                return
        # All inter-replica traffic (and anything unrecognised) pays MAC
        # verification first — except a vote whose quorum is already met.
        if sender not in self.group.members:
            return
        if (kind is Prepare or kind is Commit) and self._vote_is_moot(sender, message):
            return
        self.after(self.costs.mac_verify, self._dispatch_verified, sender, message)

    def _vote_is_moot(self, sender: str, vote: Any) -> bool:
        """Read a PREPARE / COMMIT's header before paying for its MAC.

        True when the quorum the vote would count toward is already met
        by the slot's verified votes plus the matching votes queued for
        verification on this core: it is dropped unverified and its
        content never used.  Otherwise a vote that matches the slot's
        pre-prepare is recorded as queued and takes the verify path.

        Counting queued votes is exact: channels are transport-
        authenticated and a corrupted packet never gets this far, so a
        queued member vote for the current view with the bound digest is
        counted when its check completes — before this one's would, since
        charges on the core are served in the order they were reserved —
        unless the view changes first, and then the slot no longer matters.
        """
        if vote.view != self.view or self._in_view_change or sender != vote.replica:
            return False
        slot = self._slots.get((vote.view, vote.seq))
        if slot is None or slot.pre_prepare is None or slot.pre_prepare.digest != vote.digest:
            return False
        if type(vote) is Prepare:
            if slot.commit_sent:
                return True
            if self._prepared(vote.view, slot.prepares | slot.prepares_queued):
                return True
            slot.prepares_queued.add(sender)
            return False
        if slot.committed or (
            slot.commit_sent
            and len(slot.commits | slot.commits_queued) >= self.commit_quorum
        ):
            return True
        slot.commits_queued.add(sender)
        return False

    def _dispatch_verified(self, sender: str, message: Any) -> None:
        if self.state is NodeState.CRASHED:
            return
        handler = self._verified_handlers.get(type(message))
        if handler is not None:
            handler(sender, message)

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------
    def _already_ordering(self, request: ClientRequest) -> bool:
        return request.key() in self._ordering

    def _bind(self, slot: _SlotState, message: PrePrepare) -> None:
        """Set a slot's pre-prepare — the one place that does, so
        ``_ordering`` stays exact."""
        if not slot.committed:
            if slot.pre_prepare is not None:
                self._ordering.discard(slot.pre_prepare.request)
            self._ordering.add(message.request)
        slot.pre_prepare = message

    def _order_proposal(self, proposal: Proposal) -> bool:
        """PRE-PREPARE one proposal (a bare request, or a RequestBatch)."""
        if self._in_view_change or not self.is_primary or self._lost_own_slots():
            return False  # demoted while the batch was queued, or restarted
        if self._next_seq - self._stable_seq >= self.WATERMARK_WINDOW:
            return False  # window full; clients will retry
        self._next_seq += 1
        seq = self._next_seq
        dig = proposal_digest(proposal)
        message = PrePrepare(self.view, seq, dig, proposal)
        slot = self._slot(self.view, seq)
        self._bind(slot, message)
        self._note_pending(proposal)
        self._auth_multicast(message)
        # The primary prepares implicitly via its pre-prepare.
        self._maybe_prepared(self.view, seq, slot)
        return True

    def _lost_own_slots(self) -> bool:
        """True when this replica numbered past what it executed but holds
        no pre-prepare for the last seq it numbered: a restart cleared
        the log those slots were in, so it cannot fill them itself."""
        if self._next_seq <= self.last_executed:
            return False
        slot = self._slots.get((self.view, self._next_seq))
        return slot is None or slot.pre_prepare is None

    def _slot(self, view: int, seq: int) -> _SlotState:
        """Get or create: a lookup leaves the empty slot in the log, where
        checkpoint truncation and the view-change scan see it."""
        key = (view, seq)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _SlotState()
        return slot

    def _handle_pre_prepare(self, sender: str, message: PrePrepare) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if sender != self.primary:
            return  # only the view's primary may order
        if message.seq <= self._stable_seq:
            return
        if message.seq > self._stable_seq + self.WATERMARK_WINDOW:
            return
        if proposal_digest(message.request) != message.digest:
            self.group.metrics.counter(f"{self.group.group_id}.bad_digest").inc()
            return
        slot = self._slot(message.view, message.seq)
        if slot.pre_prepare is not None and slot.pre_prepare.digest != message.digest:
            return  # equivocation: keep the first binding
        self._bind(slot, message)
        self._note_pending(message.request)
        if not slot.prepare_sent:
            slot.prepare_sent = True
            prepare = Prepare(message.view, message.seq, message.digest, self.name)
            slot.prepares.add(self.name)
            self._auth_multicast(prepare)
        self._maybe_prepared(message.view, message.seq, slot)

    def _handle_prepare(self, sender: str, message: Prepare) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if sender != message.replica:
            return
        slot = self._slot(message.view, message.seq)
        if slot.pre_prepare is not None and slot.pre_prepare.digest != message.digest:
            return
        slot.prepares.add(sender)
        self._maybe_prepared(message.view, message.seq, slot)

    def _prepared(self, view: int, voters: Set[str]) -> bool:
        """2f distinct prepares besides the primary's: its pre-prepare
        stands in for its prepare."""
        return len(voters) + (self.group.primary_of(view) not in voters) > self.prepare_quorum

    def _maybe_prepared(self, view: int, seq: int, slot: _SlotState) -> None:
        if slot.pre_prepare is None or slot.commit_sent:
            return
        if self._prepared(view, slot.prepares):
            slot.commit_sent = True
            commit = Commit(view, seq, slot.pre_prepare.digest, self.name)
            slot.commits.add(self.name)
            self._auth_multicast(commit)
            self._maybe_committed(view, seq, slot)

    def _handle_commit(self, sender: str, message: Commit) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if sender != message.replica:
            return
        slot = self._slot(message.view, message.seq)
        if slot.pre_prepare is not None and slot.pre_prepare.digest != message.digest:
            return
        slot.commits.add(sender)
        self._maybe_committed(message.view, message.seq, slot)

    def _maybe_committed(self, view: int, seq: int, slot: _SlotState) -> None:
        if slot.committed or slot.pre_prepare is None or not slot.commit_sent:
            return
        if len(slot.commits) >= self.commit_quorum:
            slot.committed = True
            proposal = slot.pre_prepare.request
            self._ordering.discard(proposal)
            self.commit_operation(seq, slot.pre_prepare.digest, proposal)
            self._note_executed(proposal)

    # ------------------------------------------------------------------
    # Checkpoints: 2f+1 matching votes make one stable
    # ------------------------------------------------------------------
    def _on_checkpoint(self, seq: int) -> None:
        """Vote on the checkpoint the ordering core just took: the state
        right after ``seq``, whether that seq committed in order or waited
        for a gap to close."""
        message = Checkpoint(seq, self._checkpoint_digest(), self.name)
        self._record_checkpoint_vote(self.name, message)
        self._auth_multicast(message)

    def _handle_checkpoint(self, sender: str, message: Checkpoint) -> None:
        if sender != message.replica:
            return
        self._record_checkpoint_vote(sender, message)

    def _record_checkpoint_vote(self, sender: str, message: Checkpoint) -> None:
        key = (message.seq, message.state_digest)
        votes = self._checkpoint_votes.setdefault(key, set())
        votes.add(sender)
        if len(votes) >= self.commit_quorum and message.seq > self._stable_seq:
            self._stable_seq = message.seq
            self._truncate_log(message.seq)

    def _truncate_log(self, stable_seq: int) -> None:
        for key in [k for k in self._slots if k[1] <= stable_seq]:
            slot = self._slots.pop(key)
            if key[0] == self.view and slot.pre_prepare is not None and not slot.committed:
                self._ordering.discard(slot.pre_prepare.request)
        for key in [k for k in self._checkpoint_votes if k[0] < stable_seq]:
            del self._checkpoint_votes[key]

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------
    def _suspect(self, new_view: int) -> None:
        """Send VIEW-CHANGE for ``new_view`` (on a stall, or joining f+1)."""
        self._in_view_change = True
        self._asked_view = new_view
        # Every prepared slot still in the log, executed ones too: the new
        # primary may be behind us, and it re-proposes from these bodies alone.
        prepared = tuple(
            slot.pre_prepare
            for _, slot in sorted(self._slots.items())
            if slot.pre_prepare is not None and slot.commit_sent
        )
        message = ViewChange(new_view, prepared, self.name)
        self._record_view_change_vote(self.name, message)
        self._auth_multicast(message)
        self.group.metrics.counter(f"{self.group.group_id}.view_changes").inc()

    def _handle_view_change(self, sender: str, message: ViewChange) -> None:
        if sender != message.replica or message.new_view <= self.view:
            return
        self._record_view_change_vote(sender, message)

    def _record_view_change_vote(self, sender: str, message: ViewChange) -> None:
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[sender] = message
        # A backup that sees f+1 view changes joins (Castro-Liskov rule).
        if len(votes) >= self.group.f + 1 and message.new_view > max(self.view, self._asked_view):
            self._suspect(message.new_view)
        if (
            len(votes) >= self.commit_quorum
            and self.group.primary_of(message.new_view) == self.name
            and message.new_view > self.view
        ):
            self._install_view(message.new_view, votes)

    def _install_view(self, new_view: int, votes: Dict[str, ViewChange]) -> None:
        # Re-propose every reported seq not yet executed here, with the
        # binding prepared in the highest view; a body that does not match
        # its digest is no report.
        chosen: Dict[int, PrePrepare] = {}
        for vc in votes.values():
            for reported in vc.prepared:
                seq = reported.seq
                if seq <= self.last_executed or proposal_digest(reported.request) != reported.digest:
                    continue
                if seq not in chosen or reported.view > chosen[seq].view:
                    chosen[seq] = reported
        reproposals = tuple(
            PrePrepare(new_view, seq, p.digest, p.request) for seq, p in sorted(chosen.items())
        )
        message = NewView(new_view, reproposals, self.name)
        self._enter_view(new_view)
        if chosen:
            self._next_seq = max(self._next_seq, max(chosen))
        self._auth_multicast(message)
        for reproposal in message.reproposals:
            slot = self._slot(new_view, reproposal.seq)
            self._bind(slot, reproposal)
            self._maybe_prepared(new_view, reproposal.seq, slot)
        self._repropose_pending()

    def _handle_new_view(self, sender: str, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.group.primary_of(message.view):
            return
        self._enter_view(message.view)
        for reproposal in message.reproposals:
            self._handle_pre_prepare(sender, reproposal)
        self._repropose_pending()

    def _enter_view(self, new_view: int) -> None:
        # Old-view slots stay for the next report, but nothing orders in them.
        self._ordering.clear()
        for stale in [v for v in self._view_change_votes if v <= new_view]:
            del self._view_change_votes[stale]
        self._enter_era(new_view)

    # ------------------------------------------------------------------
    def on_state_imported(self) -> None:
        # Imported state is as good as a stable checkpoint: anchor the
        # watermark window there or the window check rejects every seq.
        self._stable_seq = max(self._stable_seq, self.last_executed)

    def on_state_synced(self) -> None:
        # A primary back from a crash proposes nothing until its recovery
        # sync settles (_order_proposal refuses).  If it numbered past
        # what the group executed, nothing can fill those slots (there is
        # no null-request gap fill), so it asks the group to move past it
        # (Castro-Liskov proactive recovery) rather than number beyond them.
        if self.is_primary and not self._in_view_change and self._lost_own_slots():
            self._suspect(self.view + 1)

    def reset_protocol_state(self) -> None:
        self._slots.clear()
        self._ordering.clear()
        self._checkpoint_votes.clear()
        self._view_change_votes.clear()
