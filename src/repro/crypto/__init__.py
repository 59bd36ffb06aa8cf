"""Message authentication for the BFT protocol suite.

The paper's protocols (PBFT, MinBFT) authenticate messages with MACs or
MAC vectors ("authenticators").  We implement real HMAC-SHA256 over
canonically serialized message payloads, with a per-pair symmetric
:class:`~repro.crypto.keys.KeyStore`.  This gives the only property the
protocols rely on: a Byzantine replica cannot forge a MAC under a key it
does not hold.

Nothing here is hardened against timing side channels — it is a protocol
correctness substrate, not production cryptography.
"""

from repro.crypto.keys import KeyStore
from repro.crypto.mac import (
    Authenticator,
    canonical_bytes,
    compute_mac,
    compute_mac_bytes,
    verify_mac,
    verify_mac_bytes,
)

__all__ = [
    "Authenticator",
    "KeyStore",
    "canonical_bytes",
    "compute_mac",
    "compute_mac_bytes",
    "verify_mac",
    "verify_mac_bytes",
]
