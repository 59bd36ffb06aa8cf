"""Unit tests for the USIG hybrid: monotonicity, non-forgery, halting."""

import pytest

from repro.crypto import KeyStore
from repro.hybrids import Usig, UsigVerifier
from repro.hybrids.usig import UsigError


@pytest.fixture
def keystore():
    return KeyStore()


def test_counter_monotonic(keystore):
    usig = Usig("r0", keystore)
    uis = [usig.create_ui(b"m%d" % i) for i in range(10)]
    counters = [ui.counter for ui in uis]
    assert counters == list(range(1, 11))


def test_ui_verifies(keystore):
    usig = Usig("r0", keystore)
    verifier = UsigVerifier(keystore)
    ui = usig.create_ui(b"digest")
    assert verifier.verify_ui(ui, b"digest")


def test_ui_bound_to_digest(keystore):
    usig = Usig("r0", keystore)
    verifier = UsigVerifier(keystore)
    ui = usig.create_ui(b"digest-a")
    assert not verifier.verify_ui(ui, b"digest-b")


def test_ui_bound_to_issuer(keystore):
    usig0 = Usig("r0", keystore)
    verifier = UsigVerifier(keystore)
    ui = usig0.create_ui(b"d")
    import dataclasses

    forged = dataclasses.replace(ui, replica_id="r1")
    assert not verifier.verify_ui(forged, b"d")


def test_forged_counter_fails_verification(keystore):
    import dataclasses

    usig = Usig("r0", keystore)
    verifier = UsigVerifier(keystore)
    ui = usig.create_ui(b"d")
    forged = dataclasses.replace(ui, counter=ui.counter + 5)
    assert not verifier.verify_ui(forged, b"d")


def test_no_equivocation_possible(keystore):
    """Two creates never share a counter — the non-equivocation core."""
    usig = Usig("r0", keystore)
    ui_a = usig.create_ui(b"message-a")
    ui_b = usig.create_ui(b"message-b")
    assert ui_a.counter != ui_b.counter


def test_plain_register_bitflip_breaks_sequence(keystore):
    usig = Usig("r0", keystore, register_kind="plain")
    verifier = UsigVerifier(keystore)
    previous = usig.create_ui(b"a")
    usig.inject_bitflip(5)  # counter jumps by 32
    ui = usig.create_ui(b"b")
    assert verifier.verify_ui(ui, b"b")  # MAC is fine...
    assert ui.counter != previous.counter + 1  # ...but the sequence is broken


def test_ecc_register_bitflip_transparent(keystore):
    usig = Usig("r0", keystore, register_kind="ecc")
    verifier = UsigVerifier(keystore)
    previous = usig.create_ui(b"a")
    usig.inject_bitflip(5)
    ui = usig.create_ui(b"b")
    assert verifier.verify_ui(ui, b"b")
    assert ui.counter == previous.counter + 1


def test_ecc_double_flip_halts_usig(keystore):
    usig = Usig("r0", keystore, register_kind="ecc")
    usig.create_ui(b"a")
    usig.inject_bitflip(1)
    usig.inject_bitflip(6)
    with pytest.raises(UsigError):
        usig.create_ui(b"b")
    assert usig.halted
    with pytest.raises(UsigError):
        usig.create_ui(b"c")  # stays halted (fail-safe)


def test_ui_size_bytes(keystore):
    ui = Usig("r0", keystore).create_ui(b"x")
    assert ui.size_bytes == 4 + 8 + 16
