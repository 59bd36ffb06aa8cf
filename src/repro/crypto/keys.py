"""Symmetric key management for pairwise MACs and hybrid secrets."""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple


class KeyStore:
    """Deterministically derived pairwise symmetric keys.

    A deployment-wide ``domain_secret`` (set once per simulation) stands in
    for the key-distribution infrastructure the paper assumes exists.  The
    key between principals ``a`` and ``b`` is derived as
    ``SHA256(domain_secret || min(a,b) || max(a,b))`` so both sides derive
    the same key without message exchange.

    Byzantine behaviour is modelled by *withholding* the store: a
    compromised replica gets access only to the pairwise keys it
    legitimately owns (its own :class:`NodeKeys` view), so it can lie in
    message *fields* but cannot forge another replica's MACs.
    """

    def __init__(self, domain_secret: bytes = b"repro-domain-secret") -> None:
        self._domain_secret = domain_secret
        self._cache: Dict[Tuple[str, str], bytes] = {}

    def pair_key(self, a: str, b: str) -> bytes:
        """The 32-byte symmetric key shared by principals ``a`` and ``b``."""
        lo, hi = (a, b) if a <= b else (b, a)
        cached = self._cache.get((lo, hi))
        if cached is not None:
            return cached
        key = hashlib.sha256(
            self._domain_secret + b"|" + lo.encode("utf-8") + b"|" + hi.encode("utf-8")
        ).digest()
        self._cache[(lo, hi)] = key
        return key

    def secret_for(self, principal: str) -> bytes:
        """A private secret for one principal (used to key its USIG hybrid)."""
        return hashlib.sha256(
            self._domain_secret + b"|usig|" + principal.encode("utf-8")
        ).digest()

    def view_for(self, principal: str) -> "NodeKeys":
        """The restricted key view handed to one node."""
        return NodeKeys(self, principal)


class NodeKeys:
    """One node's view of the key store: only keys this node may hold.

    Requests for a pair key not involving ``owner`` raise ``PermissionError``
    — this is what stops a simulated Byzantine node from forging MACs.
    """

    def __init__(self, store: KeyStore, owner: str) -> None:
        self._store = store
        self.owner = owner

    def key_with(self, other: str) -> bytes:
        """The pairwise key between the owner and ``other``."""
        return self._store.pair_key(self.owner, other)

    def pair_key(self, a: str, b: str) -> bytes:
        """Pair key lookup restricted to pairs involving the owner."""
        if self.owner not in (a, b):
            raise PermissionError(
                f"node {self.owner!r} requested key for foreign pair ({a!r}, {b!r})"
            )
        return self._store.pair_key(a, b)
