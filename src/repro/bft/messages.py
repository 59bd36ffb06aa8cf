"""Protocol message types for all four replication families.

Messages are frozen dataclasses (so adversarial tampering must go through
``dataclasses.replace``, producing a *new* object — no aliasing surprises)
with a ``wire_size()`` that feeds the NoC's flit accounting.  Sizes follow
the usual BFT accounting: 8-byte ids/sequence numbers, 32-byte digests,
16-byte MACs, plus the opaque operation payload.

A message is measured once: messages are immutable, so what every layer
and every receiver asks of one again — a request's payload size, a
batch's digest — is computed on first use and kept on the instance (see
:class:`_once`).  Such a fact is not a dataclass field: ``==``, ``hash``
and ``repr`` ignore it, and ``dataclasses.replace`` (tampering) starts
the copy without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.crypto.mac import digest as _digest
from repro.hybrids.usig import UI

DIGEST_BYTES = 32
MAC_BYTES = 16
HEADER_BYTES = 16  # type tag, view, flags


class _once:
    """A method whose result becomes a plain instance attribute on first use.

    ``functools.cached_property`` for frozen dataclasses kept by the
    thousand (replicas log what they order): storing the value with
    ``object.__setattr__`` instead of through ``__dict__`` keeps CPython's
    compact attribute storage (measured 16 bytes per request against 80).
    """

    def __init__(self, func: Any) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _op_size(op: Any) -> int:
    """Approximate serialized size of an opaque operation payload."""
    if isinstance(op, bytes):
        return len(op)
    if isinstance(op, str):
        return len(op.encode("utf-8"))
    if isinstance(op, (tuple, list)):
        return sum(_op_size(item) for item in op) + 4
    if isinstance(op, dict):
        return sum(_op_size(k) + _op_size(v) for k, v in op.items()) + 4
    return 8  # ints, floats, None, bools


# ----------------------------------------------------------------------
# Client interaction (shared by every family)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientRequest:
    """A client operation: (client, rid) is globally unique and dedupes
    retransmissions.

    ``read_only`` requests take the fast path: replicas answer from their
    current state without ordering; the client needs f+1 *matching*
    replies (sequentially-consistent reads — at least one reply is from a
    correct replica, so the value was genuinely committed).  Mismatching
    replies (a write raced the read) make the client fall back to the
    ordered path.

    ``lease_read`` marks the *leased* variant of the fast path: the
    client sends the read to a single replica it believes holds a valid
    lease on the key's range, and accepts that one reply (tagged
    ``leased``) as the answer.  A replica without a covering lease
    answers :class:`ReadNack`, pushing the client onto the f+1 quorum
    read, which in turn falls back to the ordered path on timeout.
    """

    client: str
    rid: int
    op: Any
    read_only: bool = False
    lease_read: bool = False

    @_once
    def _wire_size(self) -> int:
        # Sized by the router, a forwarding backup and the carrying
        # proposal; the payload is walked for the first.
        return HEADER_BYTES + 8 + _op_size(self.op) + MAC_BYTES

    def wire_size(self) -> int:
        return self._wire_size

    def key(self) -> Tuple[str, int]:
        """The dedup key."""
        return (self.client, self.rid)


@dataclass(frozen=True)
class ClientReply:
    """A replica's reply; clients wait for a quorum of matching replies.

    ``leased`` tags a reply served from a valid read lease: the client
    accepts it alone (quorum of one), because lease safety — a write
    completes only once the key's holder executed it or holds no live
    grant on it — substitutes for the vote quorum.

    ``licensed`` is that completion rule's mark on an executed request's
    reply (leased groups only): the holder of all the op's keys sets it
    because it has executed the request, the view's primary when no other
    member holds a live grant on those keys
    (:meth:`~repro.bft.leases.LeaseManager.licenses`).  A requester
    completes an ordered request on a leased group only when its matching
    replies include one.  Outside :meth:`match_key`, and carried in the
    header: the wire size does not change.
    """

    replica: str
    client: str
    rid: int
    result: Any
    view: int
    leased: bool = False
    licensed: bool = False

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + _op_size(self.result) + MAC_BYTES

    def match_key(self) -> Tuple[int, str]:
        """Two replies 'match' when rid and result agree."""
        return (self.rid, repr(self.result))


@dataclass(frozen=True)
class RequestBatch:
    """An ordered bundle of client requests agreed on as *one* unit.

    Batching amortizes the per-round protocol cost (one three-phase
    exchange, one MAC vector, one USIG certificate) over ``len(requests)``
    operations: the primary closes a batch by size, byte, or time bound
    (see :class:`repro.bft.batching.BatchConfig`) and proposes it under a
    single sequence number.  A committed batch executes its requests in
    tuple order, each producing its own client reply.

    A single-request batch is never put on the wire: the batching layer
    unwraps it to the bare :class:`ClientRequest`, so ``batch_size=1``
    produces byte-identical traffic to the unbatched protocol.
    """

    requests: Tuple[ClientRequest, ...]

    def __post_init__(self) -> None:
        if len(self.requests) < 2:
            raise ValueError("a RequestBatch carries at least two requests")

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(r.wire_size() for r in self.requests)

    @_once
    def _proposal_digest(self) -> bytes:
        # The primary and every backup that checks the proposal ask.
        return _digest(tuple(proposal_digest(r) for r in self.requests))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[ClientRequest]:
        return iter(self.requests)


Proposal = Any
"""What a primary orders at one sequence number: a bare
:class:`ClientRequest` or a :class:`RequestBatch`."""


def requests_of(proposal: Proposal) -> Tuple[ClientRequest, ...]:
    """The client requests a proposal carries, in execution order."""
    if type(proposal) is RequestBatch:
        return proposal.requests
    return (proposal,)


def proposal_keys(proposal: Proposal) -> Tuple[Tuple[str, int], ...]:
    """Dedup keys of every request in a proposal."""
    return tuple([r.key() for r in requests_of(proposal)])


class OrderingIndex:
    """Request keys under agreement: bound to a slot that has not committed.

    A multiset, because one key can sit in several slots at once (PBFT
    keeps old-view slots until a checkpoint truncates them).  Replicas
    ``add`` a proposal when a slot accepts it and ``discard`` it when that
    slot commits or is dropped, so the admission check "is this request
    already being ordered?" is one dict lookup instead of a scan of every
    slot.
    """

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count: Dict[Tuple[str, int], int] = {}

    def add(self, proposal: Proposal) -> None:
        count = self._count
        for key in proposal_keys(proposal):
            count[key] = count.get(key, 0) + 1

    def discard(self, proposal: Proposal) -> None:
        count = self._count
        for key in proposal_keys(proposal):
            if count[key] == 1:
                del count[key]
            else:
                count[key] -= 1

    def clear(self) -> None:
        self._count.clear()

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._count


def proposal_digest(proposal: Proposal) -> bytes:
    """The digest a proposal is ordered under.

    For a bare request this is exactly the classic request digest
    (``digest((client, rid, op))``), so unbatched traffic is unchanged;
    for a batch it is one digest covering all request digests, computed
    once per batch object and shared by every replica that checks it.
    """
    if type(proposal) is RequestBatch:
        return proposal._proposal_digest
    return _digest((proposal.client, proposal.rid, proposal.op))


# ----------------------------------------------------------------------
# Read leases (all families; see repro.bft.leases)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseGrant:
    """Primary grants (or renews) read leases on key ranges.

    Epoch-tagged: the granting manager bumps its epoch on every view
    change / reset, so acknowledgements from a previous lease era are
    ignored.  Holders additionally accept a grant only when its ``view``
    matches their own and ``primary`` is that view's primary — a view
    change implicitly invalidates every outstanding grant.  ``executed``
    is the primary's ``last_executed`` when it granted: the holder serves
    nothing under the grant before it has executed that far, so a write
    the primary licensed before re-granting is never read around.
    """

    primary: str
    view: int
    epoch: int
    ranges: Tuple[int, ...]
    expiry: float  # absolute sim time; also the staleness bound anchor
    executed: int = 0

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + 8 + 4 * len(self.ranges) + 8 + 8 + MAC_BYTES


@dataclass(frozen=True)
class LeaseRevoke:
    """Primary revokes leases on ranges an executed write cannot be
    licensed on (the slow path), or all of a suspect's leases."""

    primary: str
    view: int
    epoch: int
    ranges: Tuple[int, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + 8 + 4 * len(self.ranges) + MAC_BYTES


@dataclass(frozen=True)
class LeaseRevokeAck:
    """Holder confirms it stopped serving the revoked ranges."""

    replica: str
    view: int
    epoch: int
    ranges: Tuple[int, ...]

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + 8 + 4 * len(self.ranges) + MAC_BYTES


@dataclass(frozen=True)
class ReadNack:
    """A replica refuses a leased read (no valid covering lease).

    The client re-issues the same rid as a quorum fast-path read; that
    path's own timeout fallback then covers the ordered case.
    """

    replica: str
    client: str
    rid: int

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + MAC_BYTES


# ----------------------------------------------------------------------
# State synchronisation (all families: rejuvenation catch-up, view-change
# catch-up, protocol switching)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StateRequest:
    """Ask peers for application state newer than ``have_seq``."""

    replica: str
    have_seq: int

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + MAC_BYTES


@dataclass(frozen=True)
class StateResponse:
    """A peer's answer to a :class:`StateRequest`: its latest checkpoint
    and the log it executed above the requester's ``have_seq``.

    The checkpoint is named by ``(checkpoint_seq, checkpoint_digest)``
    (the digest is ``replica.offer_digest`` of the state right after that
    seq); ``state`` is its ``export_state()``, shipped only when the
    requester is behind it, else None.  ``log`` holds ``(seq, digest,
    proposal)`` per executed seq above both.  ``view`` is the responder's
    current view.  What the requester adopts or executes, a quorum of
    responders must have shipped (``BaseReplica._step_sync_round``).
    """

    replica: str
    view: int
    checkpoint_seq: int
    checkpoint_digest: bytes
    state: Any  # the checkpoint's export_state() dict, or None
    log: Tuple[Tuple[int, bytes, Proposal], ...]

    def wire_size(self) -> int:
        size = HEADER_BYTES + 16 + DIGEST_BYTES + MAC_BYTES
        if isinstance(self.state, dict):
            size += _op_size(self.state.get("snapshot")) + _op_size(
                self.state.get("executed_requests")
            )
        return size + sum(8 + DIGEST_BYTES + proposal.wire_size() for _, _, proposal in self.log)


# ----------------------------------------------------------------------
# PBFT (3f+1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrePrepare:
    """Primary's ordering proposal; carries the full request (or batch).

    ``request`` is a :data:`Proposal`: a bare :class:`ClientRequest` or a
    :class:`RequestBatch`; ``digest`` is :func:`proposal_digest` of it.
    """

    view: int
    seq: int
    digest: bytes
    request: Proposal

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + DIGEST_BYTES + self.request.wire_size()


@dataclass(frozen=True)
class Prepare:
    """Backup's agreement to the (view, seq, digest) binding."""

    view: int
    seq: int
    digest: bytes
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + DIGEST_BYTES


@dataclass(frozen=True)
class Commit:
    """Second-phase vote; 2f+1 of these commit the operation."""

    view: int
    seq: int
    digest: bytes
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + DIGEST_BYTES


@dataclass(frozen=True)
class Checkpoint:
    """PBFT's vote on a member's checkpoint (``offer_digest`` of the state
    right after ``seq``); 2f+1 matching votes make it stable."""

    seq: int
    state_digest: bytes
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + DIGEST_BYTES + MAC_BYTES


@dataclass(frozen=True)
class ViewChange:
    """Vote to move to ``new_view``; carries the reporter's PRE-PREPARE,
    body included, for every prepared slot still in its log."""

    new_view: int
    prepared: Tuple[PrePrepare, ...]
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + sum(p.wire_size() for p in self.prepared) + MAC_BYTES


@dataclass(frozen=True)
class NewView:
    """New primary's installation message with re-proposals."""

    view: int
    reproposals: Tuple[PrePrepare, ...]
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + sum(p.wire_size() for p in self.reproposals) + MAC_BYTES


# ----------------------------------------------------------------------
# MinBFT (2f+1, USIG)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MbPrepare:
    """Primary's proposal.

    The UI's counter orders the primary's message stream (``seq``); the
    primary additionally assigns the *global execution sequence*
    (``exec_seq``) so replicas that join or recover mid-stream agree on
    operation numbering.  A primary lying about ``exec_seq`` produces a
    detectable stall (replicas execute only at last_executed + 1), never
    divergence.
    """

    view: int
    request: Proposal  # bare ClientRequest or RequestBatch
    digest: bytes
    ui: UI
    exec_seq: int = 0

    @property
    def seq(self) -> int:
        """Stream sequence assigned by the primary's USIG counter."""
        return self.ui.counter

    def wire_size(self) -> int:
        return (
            HEADER_BYTES + 8 + DIGEST_BYTES + self.request.wire_size() + self.ui.size_bytes
        )


@dataclass(frozen=True)
class MbCommit:
    """Backup's commit; binds its own UI to the primary's prepare UI."""

    view: int
    replica: str
    prepare_ui: UI
    digest: bytes
    ui: UI

    @property
    def seq(self) -> int:
        """Sequence number inherited from the prepare's UI counter."""
        return self.prepare_ui.counter

    def wire_size(self) -> int:
        return HEADER_BYTES + DIGEST_BYTES + 2 * self.ui.size_bytes


@dataclass(frozen=True)
class MbReqViewChange:
    """Request to move off a suspected-faulty primary."""

    new_view: int
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + MAC_BYTES


@dataclass(frozen=True)
class MbViewChange:
    """UI-certified view-change vote."""

    new_view: int
    last_executed: int
    replica: str
    ui: UI

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + self.ui.size_bytes


@dataclass(frozen=True)
class MbNewView:
    """New primary installs the view, certified by its UI."""

    view: int
    start_seq: int
    replica: str
    ui: UI

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + self.ui.size_bytes


# ----------------------------------------------------------------------
# CFT (leader/majority, crash-only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Append:
    """Leader replicates an operation (or batch) at (term, seq)."""

    term: int
    seq: int
    request: Proposal  # bare ClientRequest or RequestBatch
    leader: str

    def wire_size(self) -> int:
        # No MACs: the CFT deployment trusts its enclosure.
        return HEADER_BYTES + 8 + self.request.wire_size()


@dataclass(frozen=True)
class AppendAck:
    """Follower acknowledgement."""

    term: int
    seq: int
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True)
class CommitNotice:
    """Leader announces commit of everything up to ``seq``."""

    term: int
    seq: int
    leader: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True)
class LeaderElect:
    """Crash-failover election message (simplified single-round)."""

    term: int
    candidate: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True)
class LeaderElectAck:
    """Vote for a candidate in ``term``."""

    term: int
    candidate: str
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


# ----------------------------------------------------------------------
# Passive replication (primary/backup)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StateUpdate:
    """Primary ships the executed operation(s) + resulting state digest."""

    seq: int
    request: Proposal  # bare ClientRequest or RequestBatch
    result: Any
    state_digest: bytes

    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + self.request.wire_size() + DIGEST_BYTES + _op_size(self.result)


@dataclass(frozen=True)
class StateAck:
    """Backup acknowledges a state update."""

    seq: int
    replica: str

    def wire_size(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True)
class Heartbeat:
    """Primary liveness beacon for the backup's failure detector, with the
    view its sender leads (the header already counts a view)."""

    primary: str
    seq: int
    view: int

    def wire_size(self) -> int:
        return HEADER_BYTES + 8
