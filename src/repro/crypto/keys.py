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

    No node is handed the store.  The replicas compute no pairwise MACs:
    the chip stamps the true sender on every NoC envelope and only the
    MAC's compute time is charged, so a compromised replica can lie in
    the fields of its own messages but cannot speak as another.  The
    per-principal secrets (:meth:`secret_for`) key the USIG hybrids and
    the reconfiguration votes, inside the trusted perimeter;
    :meth:`pair_key` keys :class:`~repro.crypto.mac.Authenticator`.
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
