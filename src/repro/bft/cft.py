"""A leader/majority crash-fault-tolerant SMR protocol (Raft normal case).

The cheap end of the adaptation spectrum (§II.D): 2f+1 replicas, one
round trip (APPEND → majority ACK → COMMIT-NOTICE), no MACs charged, no
Byzantine defences.  Under crash faults it is safe and fast; under a
*compromised* leader it equivocates freely — exactly the failure mode the
threat-adaptive controller (E5) must detect and escape by switching to a
BFT protocol.

Leader failover: followers time out on pending requests (the stall rule
in :mod:`repro.bft.replica`), broadcast ELECT for the next term and
forward their log tails; the new term's leader (round-robin) merges
tails from a majority of voters — majority intersection under crash
faults guarantees every committed entry reaches the new leader — and
re-replicates before serving new requests.

A committed entry executes at once, in order: the commit point is
``last_executed``, and the log holds only the uncommitted tail above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.bft.messages import (
    Append,
    AppendAck,
    ClientRequest,
    CommitNotice,
    LeaderElect,
    LeaderElectAck,
    Proposal,
    proposal_digest,
    proposal_keys,
)
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.soc.chip import is_corrupted


@dataclass(frozen=True)
class _LogEntry:
    """One appended (not necessarily committed) operation.

    ``request`` is a proposal: a bare ClientRequest, or a RequestBatch
    when the leader batches.
    """

    term: int
    seq: int
    digest: bytes
    request: Proposal


class CftReplica(BaseReplica):
    """One CFT replica.  ``term`` plays the role PBFT's view does."""

    REPLICAS_PER_F = 2
    byzantine_safe = False

    def __init__(
        self, name: str, group: GroupContext, config: Optional[ProtocolConfig] = None
    ) -> None:
        super().__init__(name, group, config)
        self._log: Dict[int, _LogEntry] = {}
        self._acks: Dict[int, set] = {}
        self._elect_votes: Dict[int, Dict[str, LeaderElectAck]] = {}
        self._peer_handlers = {  # inter-replica traffic by exact type
            Append: self._handle_append,
            AppendAck: self._handle_ack,
            CommitNotice: self._handle_commit_notice,
            LeaderElect: self._handle_elect,
            LeaderElectAck: self._handle_elect_ack,
        }

    # ``view`` (BaseReplica) is used as the term so primary_of() works.

    @property
    def majority(self) -> int:
        """A majority of the members: f+1 at n = 2f+1, more once a scale-out
        grows the group (two f+1 sets of four need not intersect)."""
        return self.group.n // 2 + 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        handler = self._peer_handlers.get(type(message))
        if handler is not None:
            if sender in self.group.members:
                handler(sender, message)
            return
        if is_corrupted(message) or self.handle_common(sender, message):
            return
        if type(message) is ClientRequest:
            self._handle_request(sender, message)

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------
    def _already_ordering(self, request: ClientRequest) -> bool:
        # Only the uncommitted tail can match (executed entries are
        # dropped, see _commit_up_to), and no entry lies above _next_seq.
        key, log = request.key(), self._log
        return any(
            seq in log and key in proposal_keys(log[seq].request)
            for seq in range(self.last_executed + 1, self._next_seq + 1)
        )

    def _order_proposal(self, proposal: Proposal) -> bool:
        """APPEND one proposal (a bare request, or a RequestBatch)."""
        if not self.is_primary:
            return False  # demoted while the batch was queued
        self._next_seq += 1
        seq = self._next_seq
        dig = proposal_digest(proposal)
        entry = _LogEntry(self.view, seq, dig, proposal)
        self._log[seq] = entry
        self._acks[seq] = {self.name}
        self._note_pending(proposal)
        message = Append(self.view, seq, proposal, self.name)
        self.broadcast(self.other_members(), message, message.wire_size())
        return True

    def _handle_append(self, sender: str, message: Append) -> None:
        if message.term < self.view:
            return
        if message.term > self.view:
            self._adopt_term(message.term)
        if sender != self.primary:
            return
        if message.seq > self.last_executed:
            # Else a new leader re-replicates what we already executed:
            # acked below, but there is nothing left to keep it for.
            dig = proposal_digest(message.request)
            self._log[message.seq] = _LogEntry(message.term, message.seq, dig, message.request)
        self._next_seq = max(self._next_seq, message.seq)
        self._note_pending(message.request)
        ack = AppendAck(message.term, message.seq, self.name)
        self.send(sender, ack, ack.wire_size())

    def _handle_ack(self, sender: str, message: AppendAck) -> None:
        if message.term != self.view or not self.is_primary:
            return
        seq = message.seq
        if seq > self.last_executed:
            acks = self._acks.setdefault(seq, {self.name})
            acks.add(sender)
            if len(acks) < self.majority or seq not in self._log:
                return
            self._commit_up_to(seq)
        # else a late ack for a committed seq: its ack set went with the
        # log entry, and (as ever) it re-announces the commit point.
        notice = CommitNotice(self.view, self.last_executed, self.name)
        self.broadcast(self.other_members(), notice, notice.wire_size())

    def _handle_commit_notice(self, sender: str, message: CommitNotice) -> None:
        if message.term != self.view or sender != self.primary:
            return
        self._commit_up_to(message.seq)

    def _commit_up_to(self, seq: int) -> None:
        """Commit, and so execute, every entry up to ``seq``: the commit
        point is last_executed.  An executed entry has no reader left here
        — elections forward and re-replicate only above it, and catch-up
        ships the ordering core's checkpoint and executed log — so it goes
        from this log."""
        while self.last_executed < seq:
            entry = self._log.pop(self.last_executed + 1, None)
            if entry is None:
                # A hole under the commit point: an append this member
                # missed (it was down, or a new leader re-replicated only
                # above its own commit point).  Fetch it from the group.
                self.request_state_sync()
                break
            self._acks.pop(entry.seq, None)
            self.commit_operation(entry.seq, entry.digest, entry.request)
            self._note_executed(entry.request)

    # ------------------------------------------------------------------
    # Leader failover
    # ------------------------------------------------------------------
    def _suspect(self, target: int) -> None:
        """Send ELECT for term ``target`` and vote for its candidate."""
        self._asked_view = target
        message = LeaderElect(target, self.group.primary_of(target))
        self.broadcast(self.other_members(), message, message.wire_size())
        self._record_elect_ack(
            self.name, LeaderElectAck(target, self.group.primary_of(target), self.name)
        )
        self.group.metrics.counter(f"{self.group.group_id}.elections").inc()

    def _handle_elect(self, sender: str, message: LeaderElect) -> None:
        if message.term <= self.view:
            return
        ack = LeaderElectAck(message.term, message.candidate, self.name)
        candidate = message.candidate
        if candidate == self.name:
            self._record_elect_ack(sender, ack)
        else:
            self.send(candidate, ack, ack.wire_size())
        # Also push our uncommitted tail to the candidate so committed
        # entries survive the failover (majority intersection).
        for seq in sorted(self._log):
            if seq > self.last_executed:
                entry = self._log[seq]
                fwd = Append(message.term, entry.seq, entry.request, candidate)
                if candidate != self.name:
                    self.send(candidate, fwd, fwd.wire_size())

    def _handle_elect_ack(self, sender: str, message: LeaderElectAck) -> None:
        if message.term <= self.view or message.candidate != self.name:
            return
        self._record_elect_ack(sender, message)

    def _record_elect_ack(self, sender: str, message: LeaderElectAck) -> None:
        if message.candidate != self.group.primary_of(message.term):
            return
        votes = self._elect_votes.setdefault(message.term, {})
        votes[sender] = message
        if (
            len(votes) >= self.majority
            and message.candidate == self.name
            and message.term > self.view
        ):
            self._become_leader(message.term)

    def _become_leader(self, term: int) -> None:
        self._adopt_term(term)
        # Re-replicate everything above the committed point, then pending.
        for seq in sorted(self._log):
            if seq > self.last_executed:
                entry = self._log[seq]
                self._acks[seq] = {self.name}
                message = Append(term, seq, entry.request, self.name)
                self.broadcast(self.other_members(), message, message.wire_size())
        self._repropose_pending()

    def _adopt_term(self, term: int) -> None:
        for stale in [t for t in self._elect_votes if t <= term]:
            del self._elect_votes[stale]
        self._enter_era(term)

    # ------------------------------------------------------------------
    def on_state_imported(self) -> None:
        # The snapshot covers everything up to last_executed.
        self._log = {s: e for s, e in self._log.items() if s > self.last_executed}
        self._acks = {s: a for s, a in self._acks.items() if s > self.last_executed}

    def on_state_synced(self) -> None:
        # A replayed log executes past entries held above a hole, which
        # _commit_up_to (popping only the next seq) would never reach.
        self.on_state_imported()

    def reset_protocol_state(self) -> None:
        # Every entry left in the log is uncommitted (see _commit_up_to).
        self._log.clear()
        self._acks.clear()
        self._elect_votes.clear()
        # The uncommitted tail is gone: a leader that kept numbering past it
        # would leave a hole no follower can commit across.
        self._next_seq = self.last_executed
