"""MinBFT (Veronese et al., IEEE ToC 2011): 2f+1 replicas with USIG.

The flagship hybrid protocol of the paper's §III: a USIG per replica
makes equivocation impossible (each message gets a unique, monotonically
increasing counter certified inside a trusted perimeter), which

* cuts the replica bound from 3f+1 to **2f+1**, and
* removes one protocol phase: PREPARE (primary, UI-certified) followed by
  COMMIT (backups, UI-certified); the primary's PREPARE doubles as its
  commit vote, and an operation commits once f+1 matching votes exist.

As in the original protocol, receivers verify **every** UI-carrying
message from a given sender in counter order: out-of-order messages are
held back until the gap closes, duplicates are dropped, and a message
whose counter can never become current (suppressed predecessor) simply
never executes — the hybrid turns equivocation and suppression into
liveness problems that the view change resolves, never into safety
problems.  The sequence number of an operation *is* the primary's USIG
counter for its PREPARE.

The view change carries no log: f+1 UI-certified VIEW-CHANGEs, each
reporting its sender's ``last_executed``, install a view, and the new
primary starts it at the highest of those reports.  Whoever executed
less, the new primary included, catches up by state transfer before it
executes the view's PREPAREs (DESIGN §4, *Simplified view changes*).

Experiment E6 injects bitflips into the USIG counter register to show why
the hybrid's storage must be ECC-protected: a plain register lets the
counter jump, which the sequential check converts into a stall (and the
halted-USIG case kills the replica outright).

Optional request batching + pipelined agreement
(``MinBftConfig.batching``, a :class:`~repro.bft.batching.BatchConfig`):
one UI-signed PREPARE — one ``usig_create`` — orders a whole batch under
a single batch digest, with a bounded in-flight window of concurrent
counters.  ``batch_size=1`` reproduces the unbatched protocol
event-for-event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.bft.messages import (
    ClientRequest,
    MbCommit,
    MbNewView,
    MbPrepare,
    MbReqViewChange,
    MbViewChange,
    OrderingIndex,
    Proposal,
    proposal_digest,
)
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.hybrids.usig import UI, Usig, UsigError, UsigVerifier
from repro.soc.chip import is_corrupted
from repro.soc.node import NodeState


@dataclass
class MinBftConfig(ProtocolConfig):
    """The ordering core's config plus the USIG counter's storage:
    ``register_kind`` is "plain", "ecc" or "tmr", the E6 axis (see
    :class:`~repro.hybrids.usig.Usig`).  Batching is where the USIG pays
    off most: one usig_create certifies a whole batch."""

    register_kind: str = "ecc"


@dataclass
class _MbSlot:
    """Per-sequence agreement state."""

    prepare: Optional[MbPrepare] = None
    commit_votes: Dict[str, bytes] = field(default_factory=dict)  # sender -> digest
    committed: bool = False
    commit_sent: bool = False


def _ui_payload(message: Any) -> bytes:
    """The byte string a message's UI must certify."""
    kind = type(message)
    if kind is MbPrepare:
        return (
            b"prep|"
            + message.view.to_bytes(8, "big")
            + message.exec_seq.to_bytes(8, "big")
            + message.digest
        )
    if kind is MbCommit:
        return (
            b"comm|"
            + message.view.to_bytes(8, "big")
            + message.prepare_ui.counter.to_bytes(8, "big")
            + message.digest
        )
    if kind is MbViewChange:
        return b"vc|" + message.new_view.to_bytes(8, "big")
    if kind is MbNewView:
        return b"nv|" + message.view.to_bytes(8, "big")
    raise TypeError(f"{kind.__name__} carries no UI")


class MinBftReplica(BaseReplica):
    """One MinBFT replica with its USIG hybrid."""

    REPLICAS_PER_F = 2
    byzantine_safe = True
    config_cls = MinBftConfig

    def __init__(
        self, name: str, group: GroupContext, config: Optional[MinBftConfig] = None
    ) -> None:
        super().__init__(name, group, config)
        self.usig = Usig(name, group.keystore, self.config.register_kind)
        self.verifier = UsigVerifier(group.keystore)
        self._slots: Dict[int, _MbSlot] = {}
        self._ordering = OrderingIndex()  # keys in prepared, uncommitted slots
        self._holdback: Dict[str, Dict[int, Any]] = {}
        self._expected_counter: Dict[str, Optional[int]] = {}
        # Execution follows prepare-counter order within a view: committed
        # slots park in _ready until the cursor (next counter to execute)
        # reaches them; the global execution sequence is last_executed + 1.
        self._exec_cursor: Optional[int] = None
        self._ready: Dict[int, MbPrepare] = {}
        # Slots committed while this member was syncing, up to this
        # execution seq, run only once a sync round vouches for their seq
        # (in a group grown past 2f + 1 only; see _drain_ready).
        self._unvouched_to = 0
        self._req_view_change_votes: Dict[int, set] = {}
        self._view_change_votes: Dict[int, Dict[str, MbViewChange]] = {}
        # UI-carrying traffic by exact type: verified and sequenced per
        # sender before its handler runs.
        self._ui_handlers = {
            MbPrepare: self._handle_prepare,
            MbCommit: self._handle_commit,
            MbViewChange: self._handle_view_change,
            MbNewView: self._handle_new_view,
        }

    # ------------------------------------------------------------------
    @property
    def commit_quorum(self) -> int:
        """Matching commit votes needed (prepare counts as the primary's): f+1."""
        return self.group.f + 1

    def _create_ui(self, payload: bytes) -> Optional[UI]:
        """Ask the local USIG for a certificate; None if the hybrid halted."""
        try:
            return self.usig.create_ui(payload)
        except UsigError:
            self.group.metrics.counter(f"{self.group.group_id}.usig_halted").inc()
            return None

    # ------------------------------------------------------------------
    # Dispatch with per-sender sequential UI processing
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        kind = type(message)
        if kind not in self._ui_handlers:
            if is_corrupted(message):
                self.group.metrics.counter(f"{self.group.group_id}.corrupt_dropped").inc()
                return
            if self.handle_common(sender, message):
                return
            if kind is ClientRequest:
                self._handle_request(sender, message)
            elif kind is MbReqViewChange and sender in self.group.members:
                # No UI on this message type; handle directly.
                self._handle_req_view_change(sender, message)
            # Anything else is stale traffic from a previous protocol era
            # (the group may have just switched families); ignore.
            return
        if sender not in self.group.members:
            return
        self.after(self.costs.usig_verify, self._sequence_ui_message, sender, message)

    def _sequence_ui_message(self, sender: str, message: Any) -> None:
        """Verify the UI and enforce per-sender counter order with hold-back."""
        if self.state is NodeState.CRASHED:
            return
        ui: UI = message.ui
        if ui.replica_id != sender:
            return
        if not self.verifier.verify_ui(ui, _ui_payload(message)):
            self.group.metrics.counter(f"{self.group.group_id}.ui_rejected").inc()
            return
        expected = self._expected_counter.get(sender)
        if expected is None:
            # First contact (or post-recovery resync): adopt the sender's
            # current counter as the stream head.
            expected = ui.counter
        if ui.counter < expected:
            return  # duplicate / replay
        if ui.counter > expected:
            queue = self._holdback.setdefault(sender, {})
            queue[ui.counter] = message
            return
        self._expected_counter[sender] = expected + 1
        self._process_ui_message(sender, message)
        self._drain_holdback(sender)

    def _drain_holdback(self, sender: str) -> None:
        queue = self._holdback.get(sender)
        if not queue:
            return
        while True:
            expected = self._expected_counter.get(sender)
            if expected is None or expected not in queue:
                break
            message = queue.pop(expected)
            self._expected_counter[sender] = expected + 1
            self._process_ui_message(sender, message)

    def _process_ui_message(self, sender: str, message: Any) -> None:
        self._ui_handlers[type(message)](sender, message)

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------
    def _already_ordering(self, request: ClientRequest) -> bool:
        return request.key() in self._ordering

    def _live_slot(self, seq: int) -> Optional[_MbSlot]:
        """The slot late traffic for ``seq`` lands in — None once the
        cursor passed it: the slot was dropped when it executed (nothing
        reads it again; see ``_drain_ready``), and re-creating it per
        late COMMIT is what used to make memory grow with the horizon."""
        cursor = self._exec_cursor
        if cursor is not None and seq < cursor:
            return None
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = _MbSlot()
        return slot

    def _bind(self, slot: _MbSlot, message: MbPrepare) -> None:
        """Set a slot's prepare — the one place that does, so
        ``_ordering`` stays exact."""
        if not slot.committed:
            if slot.prepare is not None:
                self._ordering.discard(slot.prepare.request)
            self._ordering.add(message.request)
        slot.prepare = message

    def _order_proposal(self, proposal: Proposal) -> bool:
        """PREPARE one proposal (a bare request, or a RequestBatch): a
        single usig_create charge covers the whole batch."""
        if self._in_view_change or not self.is_primary:
            return False  # demoted while the batch was queued
        dig = proposal_digest(proposal)
        self.after(self.costs.usig_create, self._send_prepare, proposal, dig)
        return True

    def _send_prepare(self, proposal: Proposal, dig: bytes) -> None:
        if self.state is NodeState.CRASHED or not self.is_primary or self._in_view_change:
            return
        self._next_seq += 1
        exec_seq = self._next_seq
        ui = self._create_ui(
            b"prep|"
            + self.view.to_bytes(8, "big")
            + exec_seq.to_bytes(8, "big")
            + dig
        )
        if ui is None:
            return
        message = MbPrepare(self.view, proposal, dig, ui, exec_seq)
        slot = self._slots.setdefault(message.seq, _MbSlot())
        self._bind(slot, message)
        slot.commit_votes[self.name] = dig  # prepare doubles as primary's vote
        if self._exec_cursor is None:
            self._exec_cursor = message.seq
        self._note_pending(proposal)
        self.broadcast(self.other_members(), message, message.wire_size())
        self._maybe_committed(message.seq)

    def _handle_prepare(self, sender: str, message: MbPrepare) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if sender != self.primary:
            return
        if proposal_digest(message.request) != message.digest:
            self.group.metrics.counter(f"{self.group.group_id}.bad_digest").inc()
            return
        slot = self._live_slot(message.seq)
        if slot is None:
            return  # below the cursor: cannot execute in this view
        if slot.prepare is None:
            self._bind(slot, message)
        slot.commit_votes[sender] = message.digest
        if self._exec_cursor is None:
            # Prepares from the primary arrive in counter order (the
            # hold-back queue guarantees it), so the first one seen in a
            # view is the view's lowest sequence.
            self._exec_cursor = message.seq
        self._note_pending(message.request)
        self._send_commit(slot, message)
        self._maybe_committed(message.seq)

    def _send_commit(self, slot: _MbSlot, prepare: MbPrepare) -> None:
        if slot.commit_sent:
            return
        slot.commit_sent = True
        self.after(self.costs.usig_create, self._emit_commit, prepare)

    def _emit_commit(self, prepare: MbPrepare) -> None:
        if self.state is NodeState.CRASHED:
            return
        ui = self._create_ui(
            b"comm|"
            + prepare.view.to_bytes(8, "big")
            + prepare.ui.counter.to_bytes(8, "big")
            + prepare.digest
        )
        if ui is None:
            return
        message = MbCommit(prepare.view, self.name, prepare.ui, prepare.digest, ui)
        slot = self._live_slot(prepare.seq)
        if slot is not None:  # else f+1 others committed it first: vote moot
            slot.commit_votes[self.name] = prepare.digest
        self.broadcast(self.other_members(), message, message.wire_size())
        self._maybe_committed(prepare.seq)

    def _handle_commit(self, sender: str, message: MbCommit) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if sender != message.replica:
            return
        slot = self._live_slot(message.seq)
        if slot is None:
            return  # late vote for an executed slot
        slot.commit_votes[sender] = message.digest
        self._maybe_committed(message.seq)

    def _maybe_committed(self, seq: int) -> None:
        slot = self._slots.get(seq)
        if slot is None or slot.committed or slot.prepare is None:
            return
        matching = list(slot.commit_votes.values()).count(slot.prepare.digest)
        if matching >= self.commit_quorum:
            slot.committed = True
            self._ordering.discard(slot.prepare.request)
            self._ready[seq] = slot.prepare
            self._drain_ready()

    def _drain_ready(self) -> None:
        """Execute committed slots in prepare-counter order, dropping each
        as the cursor passes it: nothing reads an executed slot (a view
        change carries ``last_executed``, catch-up ships the ordering
        core's checkpoint and executed log, replays stop at the USIG
        hold-back), so a replica retains only its in-flight window however
        long it runs.

        Gated on ``syncing``: after recovery the replica must not assign
        global sequence numbers until it knows whether peers executed
        further while it was down (its ``last_executed`` would be stale).
        Where the group outgrew 2f + 1, nor does it execute, once the
        round closes, a slot it committed meanwhile that the round did not
        vouch for: another round must (or a view change drops it).  There
        the f + 1 votes that committed it need not intersect the next
        view's; at 2f + 1 they do, and holding the slot would only stall.
        """
        if self.syncing:
            return
        while self._exec_cursor is not None and self._exec_cursor in self._ready:
            prepare = self._ready[self._exec_cursor]
            if prepare.exec_seq > self.last_executed + 1 or (
                self.last_executed < prepare.exec_seq <= self._unvouched_to
            ):
                # We missed operations (joined/recovered mid-stream), or
                # only our own commit vouches for this one: catch up by
                # state transfer before executing further.
                self.request_state_sync()
                return
            del self._ready[self._exec_cursor]
            del self._slots[self._exec_cursor]
            self._exec_cursor += 1
            if prepare.exec_seq > self.last_executed:
                self.commit_operation(prepare.exec_seq, prepare.digest, prepare.request)
            # else: covered by an adopted checkpoint or replayed log /
            # executed in an earlier view; consuming it again would shift
            # later numbering.
            self._note_executed(prepare.request)

    def on_state_synced(self) -> None:
        if self.group.n > self.replicas_for(self.group.f):
            self._unvouched_to = max((p.exec_seq for p in self._ready.values()), default=0)
        self._drain_ready()

    def on_state_imported(self) -> None:
        """A state that carries a newer view ends this member's older one,
        as entering the view does: a slot it prepared there can no longer
        execute (its request is still pending and gets re-proposed)."""
        view = self.view
        if any(slot.prepare is not None and slot.prepare.view < view
               for slot in self._slots.values()):
            self._drop_slots()

    def _drop_slots(self) -> None:
        self._slots.clear()
        self._ordering.clear()
        self._exec_cursor = None  # next accepted prepare re-anchors it
        self._ready.clear()
        self._unvouched_to = 0

    # ------------------------------------------------------------------
    # View change (REQ-VIEW-CHANGE → VIEW-CHANGE → NEW-VIEW)
    # ------------------------------------------------------------------
    def _suspect(self, target: int) -> None:
        """Send REQ-VIEW-CHANGE for ``target``; f+1 of them start it."""
        message = MbReqViewChange(target, self.name)
        self._record_req_vote(self.name, target)
        self.broadcast(self.other_members(), message, message.wire_size())

    def _handle_req_view_change(self, sender: str, message: MbReqViewChange) -> None:
        if sender != message.replica or message.new_view <= self.view:
            return
        self._record_req_vote(sender, message.new_view)

    def _record_req_vote(self, sender: str, new_view: int) -> None:
        votes = self._req_view_change_votes.setdefault(new_view, set())
        votes.add(sender)
        if len(votes) >= self.group.f + 1 and new_view > max(self.view, self._asked_view):
            self._send_view_change(new_view)

    def _send_view_change(self, new_view: int) -> None:
        self._in_view_change = True
        self._asked_view = new_view
        ui = self._create_ui(b"vc|" + new_view.to_bytes(8, "big"))
        if ui is None:
            return
        message = MbViewChange(new_view, self.last_executed, self.name, ui)
        self._record_view_change_vote(self.name, message)
        self.broadcast(self.other_members(), message, message.wire_size())
        self.group.metrics.counter(f"{self.group.group_id}.view_changes").inc()

    def _handle_view_change(self, sender: str, message: MbViewChange) -> None:
        if message.new_view <= self.view:
            return
        self._record_view_change_vote(sender, message)

    def _record_view_change_vote(self, sender: str, message: MbViewChange) -> None:
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[sender] = message
        if (
            len(votes) >= self.group.f + 1
            and self.group.primary_of(message.new_view) == self.name
            and message.new_view > self.view
        ):
            self._install_view(message.new_view)

    def _install_view(self, new_view: int) -> None:
        ui = self._create_ui(b"nv|" + new_view.to_bytes(8, "big"))
        if ui is None:
            return
        # The view starts where the furthest reporter executed: of the f+1,
        # one is correct, and numbering below its point would re-assign
        # sequence numbers it executed.
        votes = self._view_change_votes[new_view].values()
        start = max([self.last_executed] + [vote.last_executed for vote in votes])
        message = MbNewView(new_view, start, self.name, ui)
        self._enter_view(new_view, start)
        self.broadcast(self.other_members(), message, message.wire_size())
        self._repropose_pending()

    def _handle_new_view(self, sender: str, message: MbNewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.group.primary_of(message.view):
            return
        self._enter_view(message.view, message.start_seq)
        self._repropose_pending()

    def _enter_view(self, new_view: int, start: int) -> None:
        """Enter ``new_view``, whose fresh sequence numbers follow ``start``.

        Every slot goes, committed-but-unexecuted ones too: with _ready
        cleared and the cursor re-anchored they could never execute or be
        dropped; their requests are still pending and get re-proposed.
        """
        self._drop_slots()
        self._next_seq = max(self._next_seq, start)
        for stale in [v for v in self._req_view_change_votes if v <= new_view]:
            del self._req_view_change_votes[stale]
        for stale in [v for v in self._view_change_votes if v <= new_view]:
            del self._view_change_votes[stale]
        self._enter_era(new_view)
        if start > self.last_executed:
            # The view starts past what we executed: catch up by state
            # transfer before executing its prepares.
            self.request_state_sync()

    # ------------------------------------------------------------------
    def reset_protocol_state(self) -> None:
        self._slots.clear()
        self._ordering.clear()
        self._holdback.clear()
        self._expected_counter.clear()  # resync on first contact per sender
        self._exec_cursor = None
        self._ready.clear()
        self._unvouched_to = 0
        self._req_view_change_votes.clear()
        self._view_change_votes.clear()
