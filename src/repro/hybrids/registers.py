"""Register storage options for hybrid state: plain, Hamming SEC-DED, TMR.

The paper's §III example: a USIG built on *plain* registers is minimal,
but "any bitflip in the counter will have catastrophic effects on the
consensus problem"; ECC registers "add extra bits and the logic required
for correction, which both increase the complexity of the circuit at the
benefit of tolerating a certain number of bitflips".  These classes make
that trade-off executable: a fault injector flips physical storage bits,
and each register family responds per its design.

The ECC implementation is a genuine extended Hamming (SEC-DED) code, not
an abstraction: values are encoded into a codeword with parity bits at
power-of-two positions plus an overall parity bit, and decode corrects
single errors and detects double errors from the actual syndrome.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple


class RegisterError(Exception):
    """Raised when a register detects an uncorrectable error (DED case)."""


class Register:
    """Interface: a fixed-width storage element with bitflip injection.

    ``physical_bits`` is the number of *storage* bits an injector can
    target — data bits for a plain register, data+parity for ECC, 3x data
    for TMR.  Injectors flip uniformly across physical bits, so bigger
    codewords absorb proportionally more raw flips (as real silicon does).
    """

    def __init__(self, width: int, initial: int = 0) -> None:
        if width < 1:
            raise ValueError(f"register width must be >= 1, got {width}")
        self.width = width
        self._mask = (1 << width) - 1
        if initial & ~self._mask:
            raise ValueError(f"initial value {initial} does not fit in {width} bits")

    @property
    def physical_bits(self) -> int:
        """Number of physical storage bits (injection targets)."""
        raise NotImplementedError

    def read(self) -> int:
        """Read the stored value, applying the family's protection."""
        raise NotImplementedError

    def write(self, value: int) -> None:
        """Store a new value (re-encodes; clears accumulated flips)."""
        raise NotImplementedError

    def inject_bitflip(self, bit_index: int) -> None:
        """Flip one physical storage bit (fault injector entry point)."""
        raise NotImplementedError


class PlainRegister(Register):
    """Unprotected flip-flops: flips silently corrupt the value."""

    def __init__(self, width: int, initial: int = 0) -> None:
        super().__init__(width, initial)
        self._value = initial

    @property
    def physical_bits(self) -> int:
        return self.width

    def read(self) -> int:
        return self._value

    def write(self, value: int) -> None:
        self._value = value & self._mask

    def inject_bitflip(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.width:
            raise ValueError(f"bit index {bit_index} outside width {self.width}")
        self._value ^= 1 << bit_index


def _parity_bit_count(data_bits: int) -> int:
    """Hamming parity bits r such that 2^r >= data_bits + r + 1."""
    r = 0
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


def _parity_portable(bits: int) -> int:
    """XOR of all bits of a non-negative int."""
    return bin(bits).count("1") & 1


if hasattr(int, "bit_count"):  # Python >= 3.10

    def _parity(bits: int) -> int:
        """XOR of all bits of a non-negative int."""
        return bits.bit_count() & 1

else:
    _parity = _parity_portable


@lru_cache(maxsize=None)
def _hamming_layout(width: int) -> Tuple[Tuple[Tuple[int, int, int], ...], Tuple[int, ...]]:
    """The code's geometry for one data width, computed once.

    Returns ``(runs, checks)``.  Data positions (those that are not powers
    of two) are contiguous between parity positions, so the data bits move
    in and out of the codeword as a few shifted fields: ``runs`` holds
    ``(data_shift, position, field_mask)`` per field.  ``checks[r]`` masks
    every codeword position with bit ``r`` set (the parity position
    included), the group whose XOR is syndrome bit ``r``.
    """
    parity_bits = _parity_bit_count(width)
    n = width + parity_bits
    runs: List[Tuple[int, int, int]] = []
    taken = 0
    pos = 3
    while taken < width:
        length = min((1 << pos.bit_length()) - pos, width - taken)
        runs.append((taken, pos, (1 << length) - 1))
        taken += length
        pos += length + 1  # skip the parity position that ends the run
    checks = tuple(
        sum(1 << p for p in range(1, n + 1) if p & (1 << r)) for r in range(parity_bits)
    )
    return tuple(runs), checks


class EccRegister(Register):
    """Extended Hamming SEC-DED protected register.

    Layout: codeword positions are 1-indexed; positions that are powers of
    two hold parity bits; the rest hold data bits (LSB-first); position 0
    holds the overall parity bit.  The codeword is stored as one integer
    whose bit ``p`` is position ``p``, so encode and decode are a handful
    of mask-and-parity operations.  ``read`` decodes:

    * syndrome == 0, overall parity ok   → clean, return data
    * syndrome != 0, overall parity bad  → single-bit error, corrected
    * syndrome != 0, overall parity ok   → double error: raise RegisterError
    * syndrome == 0, overall parity bad  → error in the parity bit itself,
      data is fine
    """

    def __init__(self, width: int, initial: int = 0) -> None:
        super().__init__(width, initial)
        self.parity_bits = _parity_bit_count(width)
        self.codeword_bits = width + self.parity_bits  # 1-indexed positions 1..n
        self._runs, self._checks = _hamming_layout(width)
        self._codeword = 0
        self._overall = 0
        self.corrected_count = 0
        self.detected_count = 0
        self.write(initial)

    @property
    def physical_bits(self) -> int:
        return self.codeword_bits + 1  # + overall parity bit

    def write(self, value: int) -> None:
        value &= self._mask
        codeword = 0
        for shift, pos, field in self._runs:
            codeword |= ((value >> shift) & field) << pos
        for r, check in enumerate(self._checks):
            # The parity position itself is still 0 here.
            codeword |= _parity(codeword & check) << (1 << r)
        self._codeword = codeword
        self._overall = _parity(codeword)

    def read(self) -> int:
        codeword = self._codeword
        syndrome = 0
        for r, check in enumerate(self._checks):
            syndrome |= _parity(codeword & check) << r
        parity_ok = _parity(codeword) == self._overall

        if syndrome == 0 and parity_ok:
            return self._extract()
        if syndrome != 0 and not parity_ok:
            # Single-bit error at codeword position `syndrome`: correct it.
            if syndrome <= self.codeword_bits:
                self._codeword ^= 1 << syndrome
                self.corrected_count += 1
                return self._extract()
            # Syndrome points outside the codeword: treat as detected.
            self.detected_count += 1
            raise RegisterError("uncorrectable error (invalid syndrome)")
        if syndrome != 0 and parity_ok:
            self.detected_count += 1
            raise RegisterError("double-bit error detected")
        # syndrome == 0, parity mismatch: the overall parity bit flipped.
        self._overall ^= 1
        self.corrected_count += 1
        return self._extract()

    def _extract(self) -> int:
        codeword = self._codeword
        value = 0
        for shift, pos, field in self._runs:
            value |= ((codeword >> pos) & field) << shift
        return value

    def inject_bitflip(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.physical_bits:
            raise ValueError(f"bit index {bit_index} outside {self.physical_bits} physical bits")
        if bit_index == self.codeword_bits:  # the overall parity bit
            self._overall ^= 1
        else:
            self._codeword ^= 1 << (bit_index + 1)


class TmrRegister(Register):
    """Triple modular redundancy: three plain copies, bitwise majority vote.

    Tolerates any number of flips as long as no *bit position* is hit in
    two copies.  Majority voting also self-identifies disagreeing copies,
    surfaced via ``mismatch_count`` for scrubbing policies.
    """

    def __init__(self, width: int, initial: int = 0) -> None:
        super().__init__(width, initial)
        self._copies = [initial, initial, initial]
        self.mismatch_count = 0

    @property
    def physical_bits(self) -> int:
        return self.width * 3

    def read(self) -> int:
        a, b, c = self._copies
        voted = (a & b) | (a & c) | (b & c)
        if not (a == b == c):
            self.mismatch_count += 1
            # Scrub: majority value is written back to all copies, as TMR
            # implementations with voter feedback do.
            self._copies = [voted, voted, voted]
        return voted

    def write(self, value: int) -> None:
        value &= self._mask
        self._copies = [value, value, value]

    def inject_bitflip(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.physical_bits:
            raise ValueError(f"bit index {bit_index} outside {self.physical_bits} physical bits")
        copy_index, bit = divmod(bit_index, self.width)
        self._copies[copy_index] ^= 1 << bit


def make_register(kind: str, width: int, initial: int = 0) -> Register:
    """Factory: ``kind`` in {"plain", "ecc", "tmr"}."""
    families = {"plain": PlainRegister, "ecc": EccRegister, "tmr": TmrRegister}
    if kind not in families:
        raise ValueError(f"unknown register kind {kind!r}; expected one of {sorted(families)}")
    return families[kind](width, initial)
