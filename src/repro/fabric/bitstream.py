"""Bitstreams and the validated golden-image store."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Bitstream:
    """A configuration image for one reconfigurable region.

    ``variant`` names the implementation (diversity: different vendors /
    IP-compiler outputs of the same functionality), ``functionality``
    names what it implements (replicas of one service share it), and
    ``payload_digest`` stands in for the actual configuration data —
    validation compares it against the store's golden digest.
    """

    variant: str
    functionality: str
    vendor: str
    size_bytes: int
    payload_digest: bytes

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"bitstream size must be positive, got {self.size_bytes}")

    @staticmethod
    def forge(variant: str, functionality: str, vendor: str, size_bytes: int) -> "Bitstream":
        """Create a *tampered* image: right metadata, wrong payload digest.

        This is the attacker's tool in E7: a compromised kernel replica
        tries to write logic whose digest does not match any golden image.
        """
        digest = hashlib.sha256(f"forged:{variant}:{vendor}".encode()).digest()
        return Bitstream(variant, functionality, vendor, size_bytes, digest)


def golden_digest(variant: str, functionality: str, vendor: str) -> bytes:
    """The digest a legitimately compiled image of this variant has."""
    return hashlib.sha256(f"golden:{variant}:{functionality}:{vendor}".encode()).digest()


def make_bitstream(
    variant: str, functionality: str, vendor: str = "v0", size_bytes: int = 262_144
) -> Bitstream:
    """Compile (model) a legitimate bitstream for a variant."""
    return Bitstream(
        variant, functionality, vendor, size_bytes, golden_digest(variant, functionality, vendor)
    )


@dataclass
class BitstreamStore:
    """The library of golden images, keyed by variant name.

    Mirrors an on-chip signed-bitstream store: ``validate`` checks that a
    presented image's digest matches the registered golden digest for its
    variant.  Unknown variants never validate.
    """

    _golden: Dict[str, Bitstream] = field(default_factory=dict)

    def register(self, bitstream: Bitstream) -> None:
        """Register a golden image (build/signing time)."""
        if bitstream.variant in self._golden:
            raise ValueError(f"variant {bitstream.variant!r} already registered")
        self._golden[bitstream.variant] = bitstream

    def get(self, variant: str) -> Optional[Bitstream]:
        """The golden image for a variant, or None."""
        return self._golden.get(variant)

    def validate(self, bitstream: Bitstream) -> bool:
        """True iff the image matches its variant's golden digest."""
        golden = self._golden.get(bitstream.variant)
        return golden is not None and golden.payload_digest == bitstream.payload_digest

    def variants(self) -> List[str]:
        """All registered variant names, sorted."""
        return sorted(self._golden)

