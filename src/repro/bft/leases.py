"""Primary-granted read leases: single-replica reads with bounded staleness.

Production traffic is read-dominated, and even the E12 fast path pays an
f+1 unordered quorum round per read.  This module lets the primary grant
**per-key-range read leases** to its replicas: a leased replica answers
``get`` ops from local committed state in **one NoC hop**, with zero
ordered-log traffic.

**Who holds what.**  Grants travel per range and to every backup, but
every *key* has exactly one leaseholder, :func:`lease_holder` — the one
place the mapping is written, and the rule every party follows.  The
requester (:meth:`~repro.bft.client.ClientSession.lease_target`) sends a
key's leased reads to its holder and to nobody else.  The holder
(:meth:`LeaseTable.covers`) serves a leased read only for keys it is the
holder of, whatever ranges it has grants on, and the primary's
self-lease obeys the same rule: a misrouted or stale-membership read gets
a ``ReadNack``.

**When a write completes.**  A write is ordered the moment the primary
admits it.  It *completes* at its requester only once its matching
replies include a :attr:`~repro.bft.messages.ClientReply.licensed` one
(:meth:`LeaseManager.licenses`): from the holder of its keys, which has
then executed it, or from the view's primary, when no other member holds
a live grant on those keys (and f+1 matching replies report that view).  So when a write completes, the one member
that may serve its key has executed it or has no lease to serve it under;
a later grant carries the primary's execution point, and the holder
serves nothing under it before it has executed that far.

**The slow path.**  A crashed, cut-off or reply-withholding holder cannot
license.  When a write the primary executed but cannot license is
retransmitted, the primary revokes the live grants in its way
(:class:`~repro.bft.messages.LeaseRevoke`) and sends its licensed reply
once they are acknowledged or have expired.  A holder that has answered
no revocation by the next renewal is renewed nothing and asked again
each renewal until it answers, so a dead holder's grants lapse one
``duration`` after its last renewal and later writes to its keys
complete at once.

The rest of the rules:

* holders tag grants with the granting view — a view change invalidates
  every outstanding lease without any extra message;
* a primary *quiesces*: it licenses nothing for one full ``duration``
  after a view/term change, covering leases a partitioned old-view holder
  may still honor, and after a restart or a state hand-over, covering
  grants it has forgotten;
* the primary's own authority to grant (and to answer leased reads
  itself) is backed by **commit evidence**: it expires ``duration`` after
  the last committed operation, so a partitioned primary stops serving
  and stops renewing within the bound;
* the fault detector / rejuvenation machinery revokes a suspect's leases
  (:meth:`LeaseManager.revoke_holder`) before the replica is healed and
  re-granted (:meth:`LeaseManager.readmit_holder`).

Exactness contract (the repo discipline): ``leases=None`` on the
protocol config — the one switch — creates **no** manager, table, timer,
or message; the replica's lease-message handlers are no-ops.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.bft.messages import (
    ClientRequest,
    LeaseGrant,
    LeaseRevoke,
    LeaseRevokeAck,
)
from repro.sim.timers import PeriodicTimer
from repro.soc.node import NodeState

if TYPE_CHECKING:  # pragma: no cover
    from repro.bft.replica import BaseReplica

DEFAULT_N_RANGES = 16
DEFAULT_DURATION = 15_000.0
DEFAULT_RENEW_PERIOD = 5_000.0


def stable_key_hash(key: str) -> int:
    """A process-independent key hash (PYTHONHASHSEED must not matter)."""
    return zlib.crc32(key.encode("utf-8"))


def range_of(key: str, n_ranges: int) -> int:
    """The lease range a key belongs to."""
    return stable_key_hash(key) % n_ranges


def lease_holder(members: Sequence[str], key: str) -> str:
    """The one member that may serve leased reads of ``key``."""
    return members[stable_key_hash(key) % len(members)]


def holder_of_all(members: Sequence[str], keys: Optional[Sequence[str]]) -> Optional[str]:
    """The one member that holds every key in ``keys``; None when they
    have different holders, or when there are none (underivable keys)."""
    if not keys:
        return None
    holders = {lease_holder(members, k) for k in keys}
    return holders.pop() if len(holders) == 1 else None


def keys_of(op: Any) -> Optional[Tuple[str, ...]]:
    """The keys a KV operation touches; None when underivable.

    An underivable write is licensed only by a primary that no member
    holds any live grant from, and an underivable read is never served
    from a lease.
    """
    if isinstance(op, (tuple, list)) and len(op) >= 2:
        kind = op[0]
        if kind in ("put", "get", "del", "cas") and isinstance(op[1], str):
            return (op[1],)
        if kind == "mget" and all(isinstance(k, str) for k in op[1:]):
            return tuple(op[1:])
    return None


@dataclass
class LeaseConfig:
    """Lease knobs shared by every protocol family.

    ``duration`` is both the lease lifetime and the *staleness bound*: a
    leased read never returns a value older than ``duration`` behind the
    committed state.  ``renew_period`` is the primary's grant cadence
    (must not exceed the duration or leases flap).  ``n_ranges`` trades
    revocation precision against grant-message size.
    """

    n_ranges: int = DEFAULT_N_RANGES
    duration: float = DEFAULT_DURATION
    renew_period: float = DEFAULT_RENEW_PERIOD

    def __post_init__(self) -> None:
        if self.n_ranges < 1:
            raise ValueError(f"n_ranges must be >= 1, got {self.n_ranges}")
        if self.duration <= 0:
            raise ValueError(f"lease duration must be positive, got {self.duration}")
        if not 0 < self.renew_period <= self.duration:
            raise ValueError(
                f"renew_period must be in (0, duration], got {self.renew_period}"
            )


class LeaseTable:
    """Holder-side lease state: which ranges this replica may serve.

    Grants are stored tagged with the view they were issued in and are
    valid only while the holder is still *in that view* — advancing the
    view (view change, term adoption, promotion) invalidates everything
    without bookkeeping.  Expiry, and the grant's execution point, are
    checked lazily at read time.
    """

    def __init__(self, replica: "BaseReplica", config: LeaseConfig) -> None:
        self.replica = replica
        self.config = config
        # range -> (view, epoch, expiry, the primary's last_executed at grant)
        self._grants: Dict[int, Tuple[int, int, float, int]] = {}

    def on_grant(self, sender: str, grant: LeaseGrant) -> None:
        """Accept a grant from the current view's primary."""
        replica = self.replica
        if sender != grant.primary or sender == replica.name:
            return
        if sender not in replica.group.members:
            return
        if grant.view != replica.view or replica.group.primary_of(grant.view) != sender:
            return  # stale era: the grant's view is not ours
        entry = (grant.view, grant.epoch, grant.expiry, grant.executed)
        self._grants.update(dict.fromkeys(grant.ranges, entry))

    def on_revoke(self, sender: str, revoke: LeaseRevoke) -> None:
        """Drop the revoked ranges and confirm; always honored."""
        replica = self.replica
        if sender != revoke.primary or sender not in replica.group.members:
            return
        for r in revoke.ranges:
            self._grants.pop(r, None)
        ack = LeaseRevokeAck(replica.name, revoke.view, revoke.epoch, revoke.ranges)
        replica.send(sender, ack, ack.wire_size())

    def covers(self, op: Any) -> bool:
        """True if this replica is the leaseholder of every key of ``op``,
        each sits in a currently valid lease, and the replica has executed
        as far as the primary had when it granted that lease.

        The holder check is not an optimisation: a write completes once
        the key's holder executed it or holds no live grant on it, so a
        grant on the range in anybody else's table promises nothing about
        the key.  The execution point is what makes a re-grant safe: the
        primary licenses a write only after executing it, so a grant it
        sends afterwards is not served from before the write.
        """
        keys = keys_of(op)
        if not keys:
            return False
        replica = self.replica
        now = replica.sim.now
        view = replica.view
        executed = replica.last_executed
        members = replica.group.members
        n_members = len(members)
        n_ranges = self.config.n_ranges
        for key in keys:
            # lease_holder and range_of, from one hash of the key.
            h = stable_key_hash(key)
            if members[h % n_members] != replica.name:
                return False
            entry = self._grants.get(h % n_ranges)
            if entry is None or entry[0] != view or now >= entry[2] or executed < entry[3]:
                return False
        return True

    def clear(self) -> None:
        """Forget every grant (recovery, shutdown, protocol reset)."""
        self._grants.clear()

    def __len__(self) -> int:
        return len(self._grants)


class LeaseManager:
    """Primary-side lease state: grants, licences, slow-path revocations.

    Lives on every replica (any member can become primary); its renewal
    timer runs only while the replica leads its view.  :meth:`licenses`
    is asked for every reply the replica builds; :meth:`withhold` is the
    slow path, taken when a write the primary executed is retransmitted
    and still cannot be licensed.
    """

    def __init__(self, replica: "BaseReplica", config: LeaseConfig) -> None:
        self.replica = replica
        self.config = config
        self.epoch = 0
        # holder -> range -> expiry (grants we issued and still believe live)
        self._granted: Dict[str, Dict[int, float]] = {}
        # holder -> range -> expiry: revoked, not yet acknowledged
        self._revoking: Dict[str, Dict[int, float]] = {}
        # Holders whose revocation was already outstanding at the last renewal.
        self._unanswered: Set[str] = set()
        # Executed writes whose licensed reply waits on a revocation.
        self._withheld: Dict[Tuple[str, int], ClientRequest] = {}
        self._suspended: Set[str] = set()
        self._self_expiry: Optional[float] = None
        self._quiesce_until = 0.0
        self._timer: Optional[PeriodicTimer] = None
        gid = replica.group.group_id
        metrics = replica.group.metrics
        self._c_granted = metrics.counter(f"{gid}.lease.granted")
        self._c_renewed = metrics.counter(f"{gid}.lease.renewed")
        self._c_revoked = metrics.counter(f"{gid}.lease.revoked")
        self._c_expired = metrics.counter(f"{gid}.lease.expired")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Placed on the chip: a primary begins renewing (group formation
        is commit-grade evidence of its primacy)."""
        if self.replica.is_primary:
            self._self_expiry = self.replica.sim.now + self.config.duration
        self._arm()

    def _arm(self) -> None:
        """Run the renewal timer exactly while the replica leads its view."""
        if self.replica.is_primary:
            if self._timer is None:
                self._timer = PeriodicTimer(
                    self.replica.sim, self.config.renew_period, self._on_renew
                )
        elif self._timer is not None:
            self._timer.stop()
            self._timer = None

    def stop(self) -> None:
        """Tear down (replica shutdown): no further timers or replies."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self.reset()

    def reset(self) -> None:
        """Drop all lease state; a withheld write's requester retransmits."""
        self.epoch += 1
        self._granted.clear()
        self._revoking.clear()
        self._unanswered.clear()
        self._withheld.clear()
        self._self_expiry = None

    def on_view_entered(self, view: int) -> None:
        """View/term change or promotion: invalidate our grant era, license
        nothing for one duration (partitioned holders of old-view leases
        may serve until those expire), and renew only if we now lead."""
        now = self.replica.sim.now
        had_grants = any(self._granted.values()) or bool(self._revoking)
        self.reset()
        if view > 0 or had_grants:
            self.quiesce()
        if self.replica.is_primary:
            # Installing a view required a vote quorum: fresh evidence.
            self._self_expiry = now + self.config.duration
        self._arm()

    def quiesce(self) -> None:
        """License nothing for one lease duration from now: a grant this
        manager never issued may still be live that long."""
        self._quiesce_until = max(self._quiesce_until, self.replica.sim.now + self.config.duration)

    # ------------------------------------------------------------------
    # Grant authority
    # ------------------------------------------------------------------
    @property
    def holds_self_lease(self) -> bool:
        """True while commit evidence backs this primary's authority."""
        return (
            self._self_expiry is not None
            and self.replica.sim.now < self._self_expiry
        )

    def on_committed(self) -> None:
        """A commit reached quorum: refresh the primary's grant authority
        (the lease renewal anchor — 'renewed on commit')."""
        if self.replica.is_primary:
            self._self_expiry = self.replica.sim.now + self.config.duration

    # ------------------------------------------------------------------
    # Renewal
    # ------------------------------------------------------------------
    def _on_renew(self) -> None:
        replica = self.replica
        if replica.state is NodeState.CRASHED:
            return
        if self._withheld:
            self._release_withheld()  # grants in the way may have lapsed
        if not self.holds_self_lease:
            return  # no commit evidence: a partitioned primary must not renew
        now = replica.sim.now
        expiry = now + self.config.duration
        ranges = tuple(range(self.config.n_ranges))
        renewal = dict.fromkeys(ranges, expiry)
        for holder in replica.other_members():
            if holder in self._suspended:
                continue
            revoking = self._revoking.get(holder)
            if revoking:
                # Nothing renewed until it answers; heard nothing since the
                # last renewal: ask again.
                if holder in self._unanswered:
                    self._send_revoke(holder, revoking)
                continue
            held = self._granted.setdefault(holder, {})
            fresh = renewed = expired = 0
            for r in ranges:
                previous = held.get(r)
                if previous is None:
                    fresh += 1
                elif previous <= now:
                    expired += 1
                    fresh += 1
                else:
                    renewed += 1
            held.update(renewal)
            self._c_granted.inc(fresh)
            self._c_renewed.inc(renewed)
            self._c_expired.inc(expired)
            grant = LeaseGrant(
                replica.name, replica.view, self.epoch, ranges, expiry, replica.last_executed
            )
            replica.send(holder, grant, grant.wire_size())
        self._unanswered = set(self._revoking)

    # ------------------------------------------------------------------
    # Licences and the slow path
    # ------------------------------------------------------------------
    def licenses(self, op: Any) -> bool:
        """True when this replica's reply to an executed ``op`` licenses
        its completion: the replica holds every key of ``op`` (it has just
        executed it), or it leads its view, its quiesce is over and no
        other member holds a live grant on the op's keys."""
        replica = self.replica
        keys = keys_of(op)
        if holder_of_all(replica.group.members, keys) == replica.name:
            return True
        if not replica.is_primary or replica.sim.now < self._quiesce_until:
            return False
        return not self._live_grants(keys)

    def _live_grants(self, keys: Optional[Sequence[str]]) -> Dict[str, List[int]]:
        """holder -> the ranges of ``keys`` (all, when underivable) on
        which another member holds a grant, issued or under revocation,
        that has not expired."""
        replica = self.replica
        now = replica.sim.now
        n_ranges = self.config.n_ranges
        wanted: Iterable[Tuple[str, int]]
        if keys is None:
            wanted = [(h, r) for h in replica.other_members() for r in range(n_ranges)]
        else:
            members = replica.group.members
            wanted = [(lease_holder(members, k), range_of(k, n_ranges)) for k in keys]
        live: Dict[str, List[int]] = {}
        for holder, r in wanted:
            if holder == replica.name:
                continue
            expiry = self._granted.get(holder, {}).get(r)
            if expiry is None or expiry <= now:
                expiry = self._revoking.get(holder, {}).get(r)
            if expiry is not None and expiry > now:
                live.setdefault(holder, []).append(r)
        return live

    def withhold(self, request: ClientRequest) -> None:
        """The slow path: ``request`` was executed here and retransmitted,
        yet cannot be licensed.  Revoke the live grants in its way; its
        licensed reply goes out once they are answered or lapse."""
        self._withheld[request.key()] = request
        for holder, ranges in sorted(self._live_grants(keys_of(request.op)).items()):
            held = self._granted.get(holder, {})
            moved = {r: held.pop(r) for r in ranges if r in held}
            if moved:
                self._revoking.setdefault(holder, {}).update(moved)
                self._send_revoke(holder, moved)

    def _send_revoke(self, holder: str, ranges: Iterable[int]) -> None:
        replica = self.replica
        revoke = LeaseRevoke(replica.name, replica.view, self.epoch, tuple(sorted(ranges)))
        self._c_revoked.inc(len(revoke.ranges))
        replica.send(holder, revoke, revoke.wire_size())

    def on_revoke_ack(self, sender: str, ack: LeaseRevokeAck) -> None:
        """A holder confirmed it stopped serving: it is heard from, and a
        withheld write may now be licensed."""
        if ack.epoch != self.epoch or sender != ack.replica:
            return
        if sender not in self.replica.group.members:
            return
        self._unanswered.discard(sender)
        revoking = self._revoking.get(sender)
        if revoking is not None:
            for r in ack.ranges:
                revoking.pop(r, None)
            if not revoking:
                del self._revoking[sender]
        if self._withheld:
            self._release_withheld()

    def _release_withheld(self) -> None:
        """Send the licensed reply of every withheld write that now has one."""
        replica = self.replica
        for key, request in list(self._withheld.items()):
            if self.licenses(request.op):
                del self._withheld[key]
                replica.resend_cached_reply(request)

    # ------------------------------------------------------------------
    # Detector / rejuvenation integration
    # ------------------------------------------------------------------
    def revoke_holder(self, name: str) -> None:
        """Revoke every lease of one holder (suspicion, rejuvenation) and
        suspend re-granting until :meth:`readmit_holder`."""
        self._suspended.add(name)
        held = self._granted.pop(name, None)
        if held:
            self._revoking.setdefault(name, {}).update(held)
            self._send_revoke(name, held)

    def readmit_holder(self, name: str) -> None:
        """Allow re-granting to a healed holder: at the next renewal tick,
        or once it answers the revocation it may have missed while down."""
        self._suspended.discard(name)
