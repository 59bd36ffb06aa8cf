"""Primary-granted read leases: single-replica reads with bounded staleness.

Production traffic is read-dominated, and even the E12 fast path pays an
f+1 unordered quorum round per read.  This module lets the primary grant
**per-key-range read leases** to its replicas: a leased replica answers
``get`` ops from local committed state in **one NoC hop**, with zero
ordered-log traffic.

**Who holds what.**  Grants travel per range and to every backup, but
every *key* has exactly one leaseholder, :func:`lease_holder` — the one
place the mapping is written, and the rule all three parties follow.  The
requester (:meth:`~repro.bft.client.ClientSession.lease_target`) sends a
key's leased reads to its holder and to nobody else.  The holder
(:meth:`LeaseTable.covers`) serves a leased read only for keys it is the
holder of, whatever ranges it has grants on: a misrouted or
stale-membership read gets a ``ReadNack``.  The primary
(:meth:`LeaseManager.intercept`) therefore revokes a write's range from
the holders of the write's keys only — at most one per key, and none when
that holder is the primary itself, whose reads come from the state the
write is about to change.  The holder-side check is the safety half: a
grant on a range says "nobody has revoked this range *from you*", and
only the key's holder is ever asked to give it up, so a grant on the
range in any other member's table promises nothing about the key.

Safety comes from *write-through invalidation*:

* the primary holds any write until the holder of each of its keys
  acknowledged a :class:`~repro.bft.messages.LeaseRevoke` **or** the lease
  expired (a crashed holder cannot ack, so the lease ``duration`` is the
  hard staleness bound — for the keys that holder serves, not for the
  others);
* holders tag grants with the granting view — a view change invalidates
  every outstanding lease without any extra message;
* a new primary *quiesces*: conflicting writes are held for one full
  ``duration`` after a view/term change, covering leases a partitioned
  old-view holder may still honor;
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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.bft.messages import (
    ClientRequest,
    LeaseGrant,
    LeaseRevoke,
    LeaseRevokeAck,
)
from repro.sim.events import ScheduledEvent
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


def keys_of(op: Any) -> Optional[Tuple[str, ...]]:
    """The keys a KV operation touches; None when underivable.

    Underivable operations conservatively conflict with *all* ranges on
    the write path and are never served from a lease on the read path.
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
    without bookkeeping.  Expiry is checked lazily at read time.
    """

    def __init__(self, replica: "BaseReplica", config: LeaseConfig) -> None:
        self.replica = replica
        self.config = config
        # range -> (view, epoch, expiry)
        self._grants: Dict[int, Tuple[int, int, float]] = {}

    def on_grant(self, sender: str, grant: LeaseGrant) -> None:
        """Accept a grant from the current view's primary."""
        replica = self.replica
        if sender != grant.primary or sender == replica.name:
            return
        if sender not in replica.group.members:
            return
        if grant.view != replica.view or replica.group.primary_of(grant.view) != sender:
            return  # stale era: the grant's view is not ours
        self._grants.update(dict.fromkeys(grant.ranges, (grant.view, grant.epoch, grant.expiry)))

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
        """True if this replica is the leaseholder of every key of ``op``
        and each sits in a currently valid lease.

        The holder check is not an optimisation: the primary revokes a
        write's range from the key's holder alone, so a grant on the range
        in anybody else's table was never going to be revoked for it.
        """
        keys = keys_of(op)
        if not keys:
            return False
        replica = self.replica
        now = replica.sim.now
        view = replica.view
        members = replica.group.members
        n_members = len(members)
        n_ranges = self.config.n_ranges
        for key in keys:
            # lease_holder and range_of, from one hash of the key.
            h = stable_key_hash(key)
            if members[h % n_members] != replica.name:
                return False
            entry = self._grants.get(h % n_ranges)
            if entry is None or entry[0] != view or now >= entry[2]:
                return False
        return True

    def clear(self) -> None:
        """Forget every grant (recovery, shutdown, protocol reset)."""
        self._grants.clear()

    def __len__(self) -> int:
        return len(self._grants)


class LeaseManager:
    """Primary-side lease state: grants, revocations, held writes.

    Lives on every replica (any member can become primary), but acts only
    while ``replica.is_primary``.  The ordering gate is
    :meth:`intercept`: protocols call it from their primary admission
    funnel before ordering a mutation; a parked request re-enters through
    the protocol's ``_admit_ordered`` once its conflicting ranges clear.
    """

    def __init__(self, replica: "BaseReplica", config: LeaseConfig) -> None:
        self.replica = replica
        self.config = config
        self.epoch = 0
        # holder -> range -> expiry (grants we issued and still believe live)
        self._granted: Dict[str, Dict[int, float]] = {}
        # range -> holder -> expiry (revocations awaiting ack or expiry)
        self._revoking: Dict[int, Dict[str, float]] = {}
        # parked writes: (request, ranges still blocked)
        self._parked: List[Tuple[ClientRequest, Set[int]]] = []
        self._suspended: Set[str] = set()
        self._self_expiry: Optional[float] = None
        self._quiesce_until = 0.0
        # The one armed expiry backstop (see _arm_backstop).
        self._backstop: Optional[ScheduledEvent] = None
        self._timer: Optional[PeriodicTimer] = None
        gid = replica.group.group_id
        metrics = replica.group.metrics
        self._c_granted = metrics.counter(f"{gid}.lease.granted")
        self._c_renewed = metrics.counter(f"{gid}.lease.renewed")
        self._c_revoked = metrics.counter(f"{gid}.lease.revoked")
        self._c_expired = metrics.counter(f"{gid}.lease.expired")
        self._c_held = metrics.counter(f"{gid}.lease.writes_held")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the renewal cadence (requires placement on the chip)."""
        if self._timer is None:
            self._timer = PeriodicTimer(
                self.replica.sim, self.config.renew_period, self._on_renew
            )
        if self.replica.is_primary:
            # Group formation is commit-grade evidence of primacy.
            self._self_expiry = self.replica.sim.now + self.config.duration

    def stop(self) -> None:
        """Tear down (replica shutdown): no further timers or releases."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self.reset()

    def reset(self) -> None:
        """Drop all lease state; parked writes survive in the protocol's
        pending map and re-enter via re-proposal or client retransmit."""
        self.epoch += 1
        self._granted.clear()
        self._revoking.clear()
        self._parked.clear()
        self._self_expiry = None
        if self._backstop is not None:
            self._backstop.cancel()
            self._backstop = None

    def on_view_entered(self, view: int) -> None:
        """View/term change or promotion: invalidate our grant era and
        quiesce conflicting writes for one duration (partitioned holders
        of old-view leases may serve until those expire)."""
        now = self.replica.sim.now
        had_grants = any(self._granted.values()) or bool(self._revoking)
        self.reset()
        if view > 0 or had_grants:
            self.quiesce()
        if self.replica.is_primary:
            # Installing a view required a vote quorum: fresh evidence.
            self._self_expiry = now + self.config.duration

    def quiesce(self) -> None:
        """Hold conflicting writes for one lease duration from now: a
        grant this manager never issued may still be live that long."""
        self._quiesce_until = max(self._quiesce_until, self.replica.sim.now + self.config.duration)

    @property
    def quiesce_until(self) -> float:
        """When the last era's write quiesce ends (0.0 before any)."""
        return self._quiesce_until

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
        if replica.state is NodeState.CRASHED or not replica.is_primary:
            return
        if not self.holds_self_lease:
            return  # no commit evidence: a partitioned primary must not renew
        now = replica.sim.now
        expiry = now + self.config.duration
        grantable = tuple(
            r for r in range(self.config.n_ranges) if r not in self._revoking
        )
        if not grantable:
            return
        renewal = dict.fromkeys(grantable, expiry)
        for holder in replica.other_members():
            if holder in self._suspended:
                continue
            held = self._granted.setdefault(holder, {})
            fresh = renewed = expired = 0
            for r in grantable:
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
            grant = LeaseGrant(replica.name, replica.view, self.epoch, grantable, expiry)
            replica.send(holder, grant, grant.wire_size())

    # ------------------------------------------------------------------
    # Write-through invalidation
    # ------------------------------------------------------------------
    def intercept(self, request: ClientRequest) -> bool:
        """Gate one to-be-ordered request; True = parked (do not order).

        Mutation-free requests (the app can answer them as reads) pass
        straight through — an ordered ``get`` cannot violate staleness.
        """
        try:
            self.replica.app.read(request.op)
        except ValueError:
            pass  # a genuine mutation: check lease conflicts
        else:
            return False
        key = request.key()
        if any(parked.key() == key for parked, _ in self._parked):
            return True  # a retransmit of an already-parked write
        replica = self.replica
        now = replica.sim.now
        n_ranges = self.config.n_ranges
        # range -> the members whose lease on it this write conflicts with:
        # the holders of its keys (None = everybody, for an op whose keys
        # cannot be derived).  A key this primary holds itself contributes
        # nobody — its leased reads are answered from the state the write
        # is about to change.
        needed: Dict[int, Optional[Set[str]]]
        keys = keys_of(request.op)
        if keys is None:
            needed = dict.fromkeys(range(n_ranges))
        else:
            needed = {}
            members = replica.group.members
            for k in keys:
                needed.setdefault(range_of(k, n_ranges), set()).add(lease_holder(members, k))
        blocked: Set[int] = set()
        if now < self._quiesce_until:
            # Old-era holders (the old primary's self-lease among them) may
            # serve any key until their leases run out: no exemption here.
            for r in needed:
                self._begin_revocation(r, {}, self._quiesce_until)
                blocked.add(r)
        for r, wanted in needed.items():
            holders = self._conflicting_holders(r, now, wanted)
            if holders:
                self._begin_revocation(r, holders, max(holders.values()))
                self._send_revokes({r: holders})
            waiting = self._revoking.get(r)
            if waiting and (wanted is None or not wanted.isdisjoint(waiting)):
                blocked.add(r)
        if not blocked:
            return False
        self._c_held.inc()
        self._parked.append((request, blocked))
        return True

    def _conflicting_holders(
        self, r: int, now: float, wanted: Optional[Set[str]]
    ) -> Dict[str, float]:
        """Those of ``wanted`` (None = anybody) with an unexpired grant on
        range ``r``; prunes expired."""
        out: Dict[str, float] = {}
        for holder, held in self._granted.items():
            if wanted is not None and holder not in wanted:
                continue
            expiry = held.get(r)
            if expiry is None:
                continue
            if expiry <= now:
                del held[r]
                self._c_expired.inc()
                continue
            out[holder] = expiry
        return out

    def _begin_revocation(
        self, r: int, holders: Dict[str, float], release_at: float
    ) -> None:
        waiting = self._revoking.setdefault(r, {})
        waiting.update(holders)
        for holder in holders:
            self._granted.get(holder, {}).pop(r, None)
        self._arm_backstop(release_at)

    def _arm_backstop(self, release_at: float) -> None:
        """Keep one expiry backstop armed per manager, just past the
        earliest outstanding release — not one kernel event per revoked
        range: acks arrive a hundred sim-ms after the revoke, the event
        would sit in the heap for a lease duration to do nothing."""
        sim = self.replica.sim
        at = max(release_at, sim.now) + 1.0
        armed = self._backstop  # non-None means pending: firing and reset() clear it
        if armed is not None:
            if armed.time <= at:
                return
            armed.cancel()
        self._backstop = sim.schedule_at(at, self._expire_revocations)

    def _send_revokes(self, per_range: Dict[int, Dict[str, float]]) -> None:
        # Regroup range->holders into holder->ranges: one message each.
        by_holder: Dict[str, List[int]] = {}
        for r, holders in per_range.items():
            for holder in holders:
                by_holder.setdefault(holder, []).append(r)
        replica = self.replica
        for holder, ranges in sorted(by_holder.items()):
            self._c_revoked.inc(len(ranges))
            revoke = LeaseRevoke(
                replica.name, replica.view, self.epoch, tuple(sorted(ranges))
            )
            replica.send(holder, revoke, revoke.wire_size())

    def on_revoke_ack(self, sender: str, ack: LeaseRevokeAck) -> None:
        """A holder confirmed it stopped serving; maybe release writes."""
        if ack.epoch != self.epoch or sender != ack.replica:
            return
        if sender not in self.replica.group.members:
            return
        for r in ack.ranges:
            waiting = self._revoking.get(r)
            if waiting is not None and sender in waiting:
                del waiting[sender]
                if not waiting and self.replica.sim.now >= self._quiesce_until:
                    self._clear_range(r)

    def _expire_revocations(self) -> None:
        """The backstop fired: lapse what ran out, re-arm for the rest."""
        self._backstop = None
        if self.replica.state is NodeState.CRASHED:
            return  # recovery resets the manager
        now = self.replica.sim.now
        quiesce = self._quiesce_until
        if now >= quiesce:
            for r in list(self._revoking):
                waiting = self._revoking[r]
                for holder in [h for h, exp in waiting.items() if exp <= now]:
                    del waiting[holder]
                    self._c_expired.inc()
                if not waiting:
                    self._clear_range(r)
        # Whatever is still held (nothing lapses before the quiesce ends).
        outstanding = [
            max(expiry, quiesce)
            for waiting in self._revoking.values()
            for expiry in (waiting.values() if waiting else (quiesce,))
        ]
        if outstanding:
            self._arm_backstop(min(outstanding))

    def _clear_range(self, r: int) -> None:
        self._revoking.pop(r, None)
        released: List[ClientRequest] = []
        remaining: List[Tuple[ClientRequest, Set[int]]] = []
        for request, blocked in self._parked:
            blocked.discard(r)
            if blocked:
                remaining.append((request, blocked))
            else:
                released.append(request)
        self._parked = remaining
        for request in released:
            self.replica.sim.call_soon(self._release, request, self.epoch)

    def _release(self, request: ClientRequest, epoch: int) -> None:
        replica = self.replica
        if epoch != self.epoch or replica.state is NodeState.CRASHED:
            return
        if not replica.is_primary or replica.already_executed(request):
            return
        replica._admit_ordered(request)

    # ------------------------------------------------------------------
    # Detector / rejuvenation integration
    # ------------------------------------------------------------------
    def revoke_holder(self, name: str) -> None:
        """Revoke every lease of one holder (suspicion, rejuvenation) and
        suspend re-granting until :meth:`readmit_holder`."""
        self._suspended.add(name)
        held = self._granted.get(name)
        if not held:
            return
        ranges = dict(held)
        for r, expiry in ranges.items():
            self._begin_revocation(r, {name: expiry}, expiry)
        self._send_revokes({r: {name: exp} for r, exp in ranges.items()})

    def readmit_holder(self, name: str) -> None:
        """Allow re-granting to a healed holder (next renewal tick)."""
        self._suspended.discard(name)

    # ------------------------------------------------------------------
    @property
    def parked_writes(self) -> int:
        """Writes currently held awaiting revocation (observability)."""
        return len(self._parked)
