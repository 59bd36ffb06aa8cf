"""USIG: Unique Sequential Identifier Generator (MinBFT, Veronese et al.).

The USIG is the canonical hardware hybrid: a tamper-proof monotonic
counter bound to message digests by an HMAC under a secret that never
leaves the trusted perimeter.  Its two-call interface provides

* ``create_ui(digest)`` — assign the *next* counter value to this digest
  and return a certificate ``UI = (id, counter, HMAC(secret, id||counter||digest))``;
* ``verify_ui(ui, digest)`` — check a certificate issued by any replica's
  USIG (verifiers share the per-replica secrets *inside* their own
  trusted perimeter, as in the original design).

The guarantee consumed by MinBFT: a compromised replica can still *ask*
its USIG to certify arbitrary messages, but it can never obtain two
different messages bound to the same counter value, nor a counter that
goes backwards — equivocation becomes detectable, which is what reduces
the replica bound from 3f+1 to 2f+1.

The counter is stored in a pluggable :class:`~repro.hybrids.registers.Register`
so experiment E6 can inject bitflips into plain vs ECC vs TMR storage and
measure the effect on consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.crypto.mac import compute_mac, verify_mac
from repro.hybrids.registers import Register, RegisterError, make_register

COUNTER_WIDTH = 64
"""Width of the USIG counter register in bits."""


@dataclass(frozen=True)
class UI:
    """A USIG certificate: (issuer id, counter value, HMAC)."""

    replica_id: str
    counter: int
    mac: bytes

    @property
    def size_bytes(self) -> int:
        """Wire size (id is accounted at 4 bytes, counter 8, MAC 16)."""
        return 4 + 8 + len(self.mac)


class UsigError(Exception):
    """Raised when the USIG's internal state is detectably broken."""


class Usig:
    """One replica's USIG instance.

    Parameters
    ----------
    replica_id:
        The identity this USIG certifies for.
    keystore:
        The domain :class:`KeyStore`; the per-replica secret lives inside
        the trusted perimeter and is never handed to the replica software.
    register_kind:
        Storage family for the counter: "plain", "ecc", or "tmr" (E6).
    """

    def __init__(
        self,
        replica_id: str,
        keystore: KeyStore,
        register_kind: str = "ecc",
    ) -> None:
        self.replica_id = replica_id
        self._keystore = keystore
        self._secret = keystore.secret_for(replica_id)
        self.register_kind = register_kind
        self.counter_register: Register = make_register(register_kind, COUNTER_WIDTH, 0)
        self.halted = False

    def create_ui(self, digest: bytes) -> UI:
        """Certify ``digest`` with the next counter value.

        Raises :class:`UsigError` if the counter register reports an
        uncorrectable error (the hybrid fails *safe*: it halts rather than
        emit a certificate from corrupt state).
        """
        if self.halted:
            raise UsigError(f"USIG {self.replica_id} is halted")
        try:
            current = self.counter_register.read()
        except RegisterError as exc:
            self.halted = True
            raise UsigError(f"USIG {self.replica_id} counter uncorrectable: {exc}") from exc
        next_counter = current + 1
        self.counter_register.write(next_counter)
        mac = compute_mac(self._secret, (self.replica_id, next_counter, digest))
        return UI(self.replica_id, next_counter, mac)

    def peek_counter(self) -> int:
        """Current counter value (diagnostics; may raise on DED)."""
        return self.counter_register.read()

    def inject_bitflip(self, bit_index: int) -> None:
        """Fault-injector entry point: flip one physical counter bit."""
        self.counter_register.inject_bitflip(bit_index)

    @property
    def physical_bits(self) -> int:
        """Physical storage bits of the counter (injection surface)."""
        return self.counter_register.physical_bits


class UsigVerifier:
    """The verification half of the USIG, inside each node's perimeter.

    It checks a certificate's HMAC binding only.  The order a receiver
    accepts one sender's counters in is the protocol's rule:
    ``MinBftReplica._sequence_ui_message`` holds a gap back until it
    closes, drops a replay, and adopts the sender's counter on first
    contact.
    """

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore

    def verify_ui(self, ui: UI, digest: bytes) -> bool:
        """Check the HMAC binding of (issuer, counter, digest)."""
        secret = self._keystore.secret_for(ui.replica_id)
        return verify_mac(secret, (ui.replica_id, ui.counter, digest), ui.mac)
