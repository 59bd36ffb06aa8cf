"""Passive (primary-backup) replication with a heartbeat failure detector.

Paper §II.A: "Passive replication allows a failing system to failover
into a backup replica.  This is a cheap solution that typically requires
one passive backup replica.  However, recovery is slow, requires reliable
detection and is not seamless to the user."  E8 measures exactly that:
the steady-state cost is one backup and one state-update message per
operation, but a primary crash opens a service gap of roughly the
detection timeout plus promotion, during which client requests stall.

Crash-only fault model: a Byzantine primary trivially corrupts the backup
(it ships state updates unchecked) — another reason the adaptation layer
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.bft.messages import (
    ClientRequest,
    Heartbeat,
    Proposal,
    StateAck,
    StateUpdate,
    proposal_digest,
    proposal_keys,
)
from repro.bft.replica import BaseReplica, GroupContext, ProtocolConfig
from repro.sim.timers import PeriodicTimer, Timeout
from repro.soc.chip import is_corrupted
from repro.soc.node import NodeState


@dataclass
class PassiveConfig(ProtocolConfig):
    """The ordering core's config plus the primary's heartbeat cadence.

    The backup's failure detector promotes it after ``view_timeout``
    without a heartbeat — the failover timeout every family has, shorter
    here by default; detection accuracy vs speed is the E8 sweep axis.
    ``batching`` amortizes one StateUpdate over a batch of executed
    requests.
    """

    view_timeout: float = 10_000.0
    heartbeat_period: float = 2_000.0


class PassiveReplica(BaseReplica):
    """Primary or backup of a passive pair (role decided by member order)."""

    REPLICAS_PER_F = 1
    byzantine_safe = False
    config_cls = PassiveConfig

    def __init__(
        self, name: str, group: GroupContext, config: Optional[PassiveConfig] = None
    ) -> None:
        super().__init__(name, group, config)
        self.role = "primary" if group.members[0] == name else "backup"
        self._next_seq = 0
        self._applied_seq = 0
        self._buffered: Dict[Tuple[str, int], ClientRequest] = {}
        self._heartbeat_timer: Optional[PeriodicTimer] = None
        self._detector: Optional[Timeout] = None
        self.promotions = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating (primary) or monitoring (backup).

        Must be called once the replica is placed on the chip.
        """
        super().start()  # lease renewal cadence, when enabled
        if self.role == "primary":
            self._heartbeat_timer = PeriodicTimer(
                self.sim, self.config.heartbeat_period, self._send_heartbeat
            )
        else:
            self._detector = Timeout(self.sim, self.config.view_timeout, self._on_suspect)
            self._detector.start()

    def _send_heartbeat(self) -> None:
        if self.state is NodeState.CRASHED or self.role != "primary":
            return
        message = Heartbeat(self.name, self._next_seq)
        self.broadcast(self.other_members(), message, message.wire_size())

    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        kind = type(message)
        if kind is StateUpdate:
            self._handle_state_update(sender, message)
        elif kind is Heartbeat:
            self._handle_heartbeat(sender, message)
        elif kind is StateAck or is_corrupted(message):
            return  # acks are informational in this model
        elif self.handle_common(sender, message):
            return
        elif kind is ClientRequest:
            self._handle_request(sender, message)

    # ------------------------------------------------------------------
    # Primary path
    # ------------------------------------------------------------------
    def _handle_request(self, sender: str, request: ClientRequest) -> None:
        if self.already_executed(request):
            self.resend_cached_reply(request)
            return
        if self.role != "primary":
            # Buffer: if we are promoted later, these get served.
            self._buffered[request.key()] = request
            return
        if self.lease_manager is not None and self.lease_manager.intercept(request):
            return
        self._admit_ordered(request)

    def _already_ordering(self, request: ClientRequest) -> bool:
        return False  # ordering is execution: nothing is ever in between

    def _order_proposal(self, proposal: Proposal) -> bool:
        """Execute one proposal and ship one StateUpdate covering it."""
        if self.role != "primary":
            return False  # demoted/never promoted while the batch waited
        self._next_seq += 1
        seq = self._next_seq
        self.commit_operation(seq, proposal_digest(proposal), proposal)
        # Ship the executed operation(s) to the backups.
        update = StateUpdate(seq, proposal, None, self.app.state_digest())
        self.broadcast(self.other_members(), update, update.wire_size())
        return True

    # ------------------------------------------------------------------
    # Backup path
    # ------------------------------------------------------------------
    def _handle_state_update(self, sender: str, message: StateUpdate) -> None:
        if self.role != "backup":
            return
        if sender != self.group.members[0] and sender not in self.group.members:
            return
        if self._detector is not None:
            self._detector.start()  # any primary traffic proves liveness
        if message.seq <= self._applied_seq:
            return
        dig = proposal_digest(message.request)
        self._applied_seq = message.seq
        self._next_seq = max(self._next_seq, message.seq)
        self.commit_operation(message.seq, dig, message.request)
        for key in proposal_keys(message.request):
            self._buffered.pop(key, None)
        ack = StateAck(message.seq, self.name)
        self.send(sender, ack, ack.wire_size())

    def _handle_heartbeat(self, sender: str, message: Heartbeat) -> None:
        if self.role == "backup" and self._detector is not None:
            self._detector.start()

    def _on_suspect(self) -> None:
        """Failure detector fired: promote to primary."""
        if self.role != "backup" or self.state is NodeState.CRASHED:
            return
        self.role = "primary"
        self.promotions += 1
        self.group.metrics.counter(f"{self.group.group_id}.promotions").inc()
        # Advance the view so replies steer clients to us: view % n must
        # select this replica's member index (otherwise every request
        # keeps timing out against the dead primary first).  Promotion is
        # an era change: the core drops our held grants and quiesces
        # writes until any lease the old primary issued has expired.
        self._enter_era(self.group.members.index(self.name))
        self._heartbeat_timer = PeriodicTimer(
            self.sim, self.config.heartbeat_period, self._send_heartbeat
        )
        # Serve everything clients retried at us while we were backup.
        for request in list(self._buffered.values()):
            self._handle_request(request.client, request)
        self._buffered.clear()

    # ------------------------------------------------------------------
    def on_state_imported(self) -> None:
        self._applied_seq = max(self._applied_seq, self.last_executed)
        self._next_seq = max(self._next_seq, self._applied_seq)

    def shutdown(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.stop()
            self._heartbeat_timer = None
        if self._detector is not None:
            self._detector.cancel()
            self._detector = None
        super().shutdown()

    def reset_protocol_state(self) -> None:
        self._buffered.clear()
        self._next_seq = max(self._next_seq, self._applied_seq, self.last_executed)
        if self.role == "backup" and self._detector is not None:
            self._detector.start()
