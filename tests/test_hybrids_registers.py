"""Unit tests for plain / ECC (Hamming SEC-DED) / TMR registers."""

import pytest

from repro.hybrids import (
    EccRegister,
    PlainRegister,
    RegisterError,
    TmrRegister,
    make_register,
)


# ----------------------------------------------------------------------
# Plain
# ----------------------------------------------------------------------
def test_plain_read_write():
    reg = PlainRegister(16, 0xABCD)
    assert reg.read() == 0xABCD
    reg.write(0x1234)
    assert reg.read() == 0x1234


def test_plain_write_masks_to_width():
    reg = PlainRegister(8)
    reg.write(0x1FF)
    assert reg.read() == 0xFF


def test_plain_bitflip_silently_corrupts():
    reg = PlainRegister(16, 0)
    reg.inject_bitflip(3)
    assert reg.read() == 8  # silent corruption — the paper's failure mode


def test_plain_bitflip_out_of_range():
    with pytest.raises(ValueError):
        PlainRegister(8).inject_bitflip(8)


def test_register_width_validation():
    with pytest.raises(ValueError):
        PlainRegister(0)
    with pytest.raises(ValueError):
        PlainRegister(4, initial=16)


# ----------------------------------------------------------------------
# ECC (SEC-DED)
# ----------------------------------------------------------------------
def test_ecc_roundtrip_various_values():
    for width, value in [(8, 0xA5), (16, 0xBEEF), (64, (1 << 64) - 1), (64, 0)]:
        reg = EccRegister(width, value)
        assert reg.read() == value


def test_ecc_corrects_every_single_bit_flip():
    """Exhaustive: every physical bit position must be correctable."""
    width, value = 16, 0xC3A5
    probe = EccRegister(width, value)
    for bit in range(probe.physical_bits):
        reg = EccRegister(width, value)
        reg.inject_bitflip(bit)
        assert reg.read() == value, f"flip at physical bit {bit} not corrected"
        assert reg.corrected_count == 1


def test_ecc_8bit_exhaustive_write_flip_read():
    """Every value x every physical bit: one flip is corrected (and
    scrubbed), a second distinct flip is detected, a rewrite recovers."""
    reg = EccRegister(8)
    assert reg.physical_bits == 13  # 8 data + 4 Hamming parity + 1 overall
    for value in range(256):
        for first in range(reg.physical_bits):
            reg.write(value)
            assert reg.read() == value
            reg.inject_bitflip(first)
            assert reg.read() == value
            assert reg.read() == value  # the correction persisted
            second = (first + 1 + value) % reg.physical_bits
            if second != first:
                reg.inject_bitflip(first)
                reg.inject_bitflip(second)
                with pytest.raises(RegisterError):
                    reg.read()
    assert reg.corrected_count == 256 * 13


def test_ecc_8bit_codewords_do_not_depend_on_the_parity_kernel(monkeypatch):
    """``_parity`` uses ``int.bit_count`` where it exists (3.10+) and
    ``bin().count`` elsewhere; both must store the same bits."""
    import repro.hybrids.registers as registers

    def codewords():
        reg = EccRegister(8)
        stored = []
        for value in range(256):
            reg.write(value)
            stored.append((reg._codeword, reg._overall))
            assert reg.read() == value
        return stored

    for bits in list(range(1 << 13)) + [2**64 - 1, 2**64 + 1, 0xDEADBEEFCAFEF00D]:
        assert registers._parity(bits) == registers._parity_portable(bits)
    native = codewords()
    monkeypatch.setattr(registers, "_parity", registers._parity_portable)
    assert codewords() == native


def test_ecc_detects_double_flips():
    reg = EccRegister(16, 0x1234)
    reg.inject_bitflip(2)
    reg.inject_bitflip(7)
    with pytest.raises(RegisterError):
        reg.read()
    assert reg.detected_count == 1


def test_ecc_correction_is_persistent():
    """After a corrected read, the codeword is scrubbed."""
    reg = EccRegister(16, 0x5555)
    reg.inject_bitflip(4)
    assert reg.read() == 0x5555
    # A second, different flip must again be a SINGLE-flip case.
    reg.inject_bitflip(9)
    assert reg.read() == 0x5555


def test_ecc_write_clears_accumulated_damage():
    reg = EccRegister(16, 0)
    reg.inject_bitflip(1)
    reg.inject_bitflip(2)
    reg.write(0x7777)  # re-encode
    assert reg.read() == 0x7777


def test_ecc_overall_parity_bit_flip_corrected():
    reg = EccRegister(16, 0xFFFF)
    reg.inject_bitflip(reg.physical_bits - 1)  # the overall parity bit
    assert reg.read() == 0xFFFF


def test_ecc_physical_bits_layout():
    reg = EccRegister(64)
    # 64 data + 7 Hamming parity + 1 overall = 72
    assert reg.physical_bits == 72
    assert reg.parity_bits == 7


# ----------------------------------------------------------------------
# TMR
# ----------------------------------------------------------------------
def test_tmr_roundtrip():
    reg = TmrRegister(32, 0xDEADBEEF)
    assert reg.read() == 0xDEADBEEF


def test_tmr_tolerates_flips_in_distinct_copies():
    reg = TmrRegister(16, 0x0F0F)
    reg.inject_bitflip(0)           # copy 0, bit 0
    reg.inject_bitflip(16 + 5)      # copy 1, bit 5
    reg.inject_bitflip(32 + 11)     # copy 2, bit 11
    assert reg.read() == 0x0F0F
    assert reg.mismatch_count == 1


def test_tmr_scrubs_on_read():
    reg = TmrRegister(16, 0xAAAA)
    reg.inject_bitflip(3)
    reg.read()
    # After scrubbing, another flip in a different copy of the SAME bit is fine.
    reg.inject_bitflip(16 + 3)
    assert reg.read() == 0xAAAA


def test_tmr_same_position_two_copies_fails_silently():
    reg = TmrRegister(16, 0)
    reg.inject_bitflip(3)        # copy 0, bit 3
    reg.inject_bitflip(16 + 3)   # copy 1, bit 3 — majority now wrong
    assert reg.read() == 8  # voted wrong: TMR's known weakness


def test_tmr_physical_bits():
    assert TmrRegister(64).physical_bits == 192


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def test_make_register_kinds():
    assert isinstance(make_register("plain", 8), PlainRegister)
    assert isinstance(make_register("ecc", 8), EccRegister)
    assert isinstance(make_register("tmr", 8), TmrRegister)
    with pytest.raises(ValueError):
        make_register("raid", 8)
