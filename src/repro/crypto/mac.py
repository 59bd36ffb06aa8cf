"""HMAC computation, verification, and MAC-vector authenticators."""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Callable, Dict, Iterable, Mapping

PairKeyFn = Callable[[str, str], bytes]
"""A function ``(a, b) -> key``; both ``KeyStore.pair_key`` and the
restricted ``NodeKeys.pair_key`` satisfy this signature."""

MAC_LENGTH = 16
"""We truncate HMAC-SHA256 to 16 bytes, as BFT implementations commonly do;
the simulation only needs unforgeability, not 256-bit margins."""


class MacError(ValueError):
    """Raised when a MAC fails verification in a context that must not proceed."""


def canonical_bytes(payload: Any) -> bytes:
    """Serialize a payload deterministically for MAC computation.

    Supports the JSON-ish types protocol messages are built from: None,
    bool, int, float, str, bytes, and (nested) tuples/lists/dicts.  Dicts
    are serialized in sorted key order so logically equal messages always
    produce equal MACs.
    """
    out = bytearray()
    _encode(payload, out)
    return bytes(out)


def _encode(value: Any, out: bytearray) -> None:
    # Exact-type dispatch for what messages are made of, most frequent
    # first; everything else (bool, float, dicts, subclasses) takes the
    # isinstance ladder below.  Both produce the same bytes.
    kind = type(value)
    if kind is str:
        encoded = value.encode("utf-8")
        out += b"s%d:" % len(encoded) + encoded
    elif kind is bytes:
        out += b"b%d:" % len(value) + value
    elif kind is int:
        encoded = b"%d" % value
        out += b"i%d:" % len(encoded) + encoded
    elif kind is tuple:
        out += b"l%d:" % len(value)
        for item in value:
            _encode(item, out)
    elif value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        out += b"i" + str(len(encoded)).encode("ascii") + b":" + encoded
    elif isinstance(value, float):
        encoded = repr(value).encode("ascii")
        out += b"f" + str(len(encoded)).encode("ascii") + b":" + encoded
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += b"s" + str(len(encoded)).encode("ascii") + b":" + encoded
    elif isinstance(value, bytes):
        out += b"b" + str(len(value)).encode("ascii") + b":" + value
    elif isinstance(value, (tuple, list)):
        out += b"l" + str(len(value)).encode("ascii") + b":"
        for item in value:
            _encode(item, out)
    elif isinstance(value, Mapping):
        keys = sorted(value)
        out += b"d" + str(len(keys)).encode("ascii") + b":"
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"MAC payload dict keys must be str, got {type(key).__name__}")
            _encode(key, out)
            _encode(value[key], out)
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__} for MAC")


def compute_mac(key: bytes, payload: Any) -> bytes:
    """HMAC-SHA256 (truncated) over the canonical serialization of payload."""
    return hmac.digest(key, canonical_bytes(payload), "sha256")[:MAC_LENGTH]


def compute_mac_bytes(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 (truncated) over already-canonicalized bytes.

    The one-pass primitive behind MAC vectors: serialize the payload
    once with :func:`canonical_bytes`, then HMAC per key.
    """
    return hmac.digest(key, data, "sha256")[:MAC_LENGTH]


def verify_mac(key: bytes, payload: Any, mac: bytes) -> bool:
    """Constant-time comparison of the expected MAC against ``mac``."""
    return hmac.compare_digest(compute_mac(key, payload), mac)


def verify_mac_bytes(key: bytes, data: bytes, mac: bytes) -> bool:
    """Constant-time verification against already-canonicalized bytes."""
    return hmac.compare_digest(compute_mac_bytes(key, data), mac)


_DIGEST_MEMO: Dict[Any, bytes] = {}
_DIGEST_MEMO_CAP = 4096
"""Bounded memo for :func:`digest`.  Request digests are recomputed many
times for the same payload (proposal, per-replica verification, commit)
— memoizing the SHA256 turns those into one dict hit."""


def _memo_safe(payload: Any) -> bool:
    """True when ``payload`` can key the digest memo without ambiguity.

    Only types whose Python equality implies identical canonical bytes
    are admitted: ``1 == True == 1.0`` as dict keys but their canonical
    serializations differ, so bool/float (and anything mutable) are
    excluded.  ``type() is`` checks keep subclasses out too.
    """
    t = type(payload)
    if t is str or t is bytes or t is int or payload is None:
        return True
    if t is tuple:
        return all(_memo_safe(item) for item in payload)
    return False


def digest(payload: Any) -> bytes:
    """Plain SHA256 digest of the canonical serialization (request digests).

    Memoized (bounded) for hashable primitive payloads — the hot path is
    the repeated ``(client, rid, op)`` request-digest computation.
    """
    if _memo_safe(payload):
        cached = _DIGEST_MEMO.get(payload)
        if cached is None:
            cached = hashlib.sha256(canonical_bytes(payload)).digest()
            if len(_DIGEST_MEMO) >= _DIGEST_MEMO_CAP:
                _DIGEST_MEMO.clear()
            _DIGEST_MEMO[payload] = cached
        return cached
    return hashlib.sha256(canonical_bytes(payload)).digest()


class Authenticator:
    """A MAC vector: one MAC per intended recipient, as in PBFT.

    The sender computes ``{recipient: HMAC(k_sr, payload)}`` over all
    recipients; each recipient verifies only its own entry.  A Byzantine
    sender *can* produce an inconsistent authenticator (valid for some
    recipients, garbage for others) — exactly the attack PBFT's view
    change must cope with, and one of our fault strategies exercises it.
    """

    def __init__(self, sender: str, macs: Dict[str, bytes]) -> None:
        self.sender = sender
        self.macs = macs

    @classmethod
    def create(
        cls,
        sender: str,
        recipients: Iterable[str],
        payload: Any,
        pair_key: "PairKeyFn",
    ) -> "Authenticator":
        """Compute the full MAC vector for ``payload``.

        ``pair_key(a, b)`` returns the symmetric key for the pair; senders
        use their restricted :class:`~repro.crypto.keys.NodeKeys` view.
        One-pass: the payload is serialized once and HMACed per key
        (PBFT's MAC-vector optimization), not re-serialized per recipient.
        """
        data = canonical_bytes(payload)
        macs = {
            recipient: compute_mac_bytes(pair_key(sender, recipient), data)
            for recipient in recipients
            if recipient != sender
        }
        return cls(sender, macs)

    def verify(self, recipient: str, payload: Any, pair_key: "PairKeyFn") -> bool:
        """Check the entry addressed to ``recipient``; absent entries fail."""
        mac = self.macs.get(recipient)
        if mac is None:
            return False
        return verify_mac(pair_key(self.sender, recipient), payload, mac)

    @property
    def size_bytes(self) -> int:
        """Wire size of the MAC vector (for message-cost accounting)."""
        return sum(len(m) for m in self.macs.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Authenticator from={self.sender} n={len(self.macs)}>"
