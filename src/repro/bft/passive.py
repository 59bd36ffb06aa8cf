"""Passive (primary-backup) replication with a heartbeat failure detector.

Paper §II.A: "Passive replication allows a failing system to failover
into a backup replica.  This is a cheap solution that typically requires
one passive backup replica.  However, recovery is slow, requires reliable
detection and is not seamless to the user."  E8 measures exactly that:
the steady-state cost is one backup and one state-update message per
operation, but a primary crash opens a service gap of roughly the
detection timeout plus promotion, during which client requests stall.

The role is the view, as in every family: the view's primary
(``view % n``) executes, ships one StateUpdate per proposal and
heartbeats; every other member is a backup that applies StateUpdates
from that primary alone and runs the failure detector on it.  A detector
timeout moves a backup to ``view + 1``, and it promotes only if it leads
that view — one promotion per primary crash, whatever f is.  A heartbeat
carries its sender's view, and a member that hears the primary of a
newer view enters it: a primary that returns after its backup took over
follows the new primary within one heartbeat period, with no state
transfer, and is a backup from then on.

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

    A backup's failure detector fires after ``view_timeout`` without a
    heartbeat — the failover timeout every family has, shorter here by
    default; detection accuracy vs speed is the E8 sweep axis.
    ``batching`` amortizes one StateUpdate over a batch of executed
    requests.
    """

    view_timeout: float = 10_000.0
    heartbeat_period: float = 2_000.0


class PassiveReplica(BaseReplica):
    """One member of a passive group: its view's primary, or a backup."""

    REPLICAS_PER_F = 1
    byzantine_safe = False
    config_cls = PassiveConfig

    def __init__(
        self, name: str, group: GroupContext, config: Optional[PassiveConfig] = None
    ) -> None:
        super().__init__(name, group, config)
        # Requests retried at this member while a backup: served if promoted.
        self._buffered: Dict[Tuple[str, int], ClientRequest] = {}
        self._heartbeat_timer: Optional[PeriodicTimer] = None
        self._detector: Optional[Timeout] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating (primary) or monitoring (backup).

        Must be called once the replica is placed on the chip.
        """
        super().start()  # a leased primary's renewal cadence
        if self.is_primary:
            self._start_heartbeats()
        else:
            self._watch_primary()

    def _start_heartbeats(self) -> None:
        """Beat while this member leads its view (the timer outlives a demotion)."""
        if self._heartbeat_timer is None:
            self._heartbeat_timer = PeriodicTimer(
                self.sim, self.config.heartbeat_period, self._send_heartbeat
            )

    def _watch_primary(self) -> None:
        """(Re)start the failure detector on the current view's primary."""
        if self._detector is None:
            self._detector = Timeout(self.sim, self.config.view_timeout, self._on_suspect)
        self._detector.start()

    def _send_heartbeat(self) -> None:
        if self.state is NodeState.CRASHED or not self.is_primary:
            return
        message = Heartbeat(self.name, self.last_executed, self.view)
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
        if not self.is_primary:
            # Buffer: if we are promoted later, these get served.
            self._buffered[request.key()] = request
            return
        self._admit_ordered(request)

    def _already_ordering(self, request: ClientRequest) -> bool:
        return False  # ordering is execution: nothing is ever in between

    def _order_proposal(self, proposal: Proposal) -> bool:
        """Execute one proposal and ship one StateUpdate covering it."""
        if not self.is_primary:
            return False  # demoted/never promoted while the batch waited
        seq = self.last_executed + 1
        self.commit_operation(seq, proposal_digest(proposal), proposal)
        # Ship the executed operation(s) to the backups.
        update = StateUpdate(seq, proposal, None, self.app.state_digest())
        self.broadcast(self.other_members(), update, update.wire_size())
        return True

    # ------------------------------------------------------------------
    # Backup path
    # ------------------------------------------------------------------
    def _handle_state_update(self, sender: str, message: StateUpdate) -> None:
        if self.is_primary or sender != self.primary:
            return
        self._watch_primary()  # any primary traffic proves liveness
        if message.seq <= self.last_executed:
            return
        self.commit_operation(message.seq, proposal_digest(message.request), message.request)
        for key in proposal_keys(message.request):
            self._buffered.pop(key, None)
        ack = StateAck(message.seq, self.name)
        self.send(sender, ack, ack.wire_size())

    def _handle_heartbeat(self, sender: str, message: Heartbeat) -> None:
        if message.view > self.view and sender == self.group.primary_of(message.view):
            self._enter_era(message.view)  # e.g. a returning primary: follow the new one
        if sender == self.primary and not self.is_primary:
            self._watch_primary()

    def _on_suspect(self) -> None:
        """Failure detector fired: move to the next view and promote if
        this member leads it (one promotion per primary crash, whatever f
        is).  The view steers replies, and so clients, to its primary; the
        era change drops held grants and licenses no write until any lease
        the old primary issued has expired."""
        if self.is_primary or self.state is NodeState.CRASHED:
            return
        self._enter_era(self.view + 1)
        if not self.is_primary:
            self._watch_primary()
            return
        self.group.metrics.counter(f"{self.group.group_id}.promotions").inc()
        self._start_heartbeats()
        # Serve everything clients retried at us while we were backup.
        for request in list(self._buffered.values()):
            self._handle_request(request.client, request)
        self._buffered.clear()

    # ------------------------------------------------------------------
    def on_state_synced(self) -> None:
        """A member that adopted a newer view from a transferred state is
        a backup from then on, and watches the new primary."""
        if not self.is_primary and (self._detector is None or not self._detector.armed):
            self._watch_primary()

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
        if not self.is_primary and self._detector is not None:
            self._detector.start()
