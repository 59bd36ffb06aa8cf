"""Unit tests for MACs, canonical serialization, and key management."""

import pytest

from repro.crypto import Authenticator, KeyStore, compute_mac, verify_mac
from repro.crypto.mac import MAC_LENGTH, canonical_bytes, digest


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def test_canonical_bytes_deterministic_across_dict_order():
    a = {"x": 1, "y": [2, 3], "z": "s"}
    b = {"z": "s", "y": [2, 3], "x": 1}
    assert canonical_bytes(a) == canonical_bytes(b)


def test_canonical_bytes_type_sensitivity():
    assert canonical_bytes(1) != canonical_bytes("1")
    assert canonical_bytes(True) != canonical_bytes(1)
    assert canonical_bytes(b"ab") != canonical_bytes("ab")
    assert canonical_bytes(None) not in (canonical_bytes(0), canonical_bytes(False))


def test_canonical_bytes_no_length_extension_ambiguity():
    # ("ab", "c") must differ from ("a", "bc")
    assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))


def test_canonical_bytes_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_bytes(object())


def test_canonical_bytes_rejects_non_str_dict_keys():
    with pytest.raises(TypeError):
        canonical_bytes({1: "x"})


# ----------------------------------------------------------------------
# MAC
# ----------------------------------------------------------------------
def test_mac_roundtrip():
    key = b"k" * 32
    mac = compute_mac(key, {"op": "put", "seq": 4})
    assert len(mac) == MAC_LENGTH
    assert verify_mac(key, {"seq": 4, "op": "put"}, mac)


def test_mac_fails_with_wrong_key_or_payload():
    mac = compute_mac(b"key-a", "payload")
    assert not verify_mac(b"key-b", "payload", mac)
    assert not verify_mac(b"key-a", "payload2", mac)


def test_digest_stable_and_distinct():
    assert digest(("a", 1)) == digest(("a", 1))
    assert digest(("a", 1)) != digest(("a", 2))


# ----------------------------------------------------------------------
# KeyStore
# ----------------------------------------------------------------------
def test_pair_key_symmetric():
    store = KeyStore()
    assert store.pair_key("a", "b") == store.pair_key("b", "a")


def test_pair_key_distinct_per_pair():
    store = KeyStore()
    assert store.pair_key("a", "b") != store.pair_key("a", "c")


def test_secret_for_distinct_per_principal():
    store = KeyStore()
    assert store.secret_for("r0") != store.secret_for("r1")


def test_different_domain_secrets_give_different_keys():
    a = KeyStore(b"domain-a")
    b = KeyStore(b"domain-b")
    assert a.pair_key("x", "y") != b.pair_key("x", "y")


# ----------------------------------------------------------------------
# Authenticator
# ----------------------------------------------------------------------
def test_authenticator_per_recipient_verification():
    store = KeyStore()
    auth = Authenticator.create("s", ["r1", "r2", "r3"], "msg", store.pair_key)
    for recipient in ["r1", "r2", "r3"]:
        assert auth.verify(recipient, "msg", store.pair_key)
    assert not auth.verify("r1", "other", store.pair_key)


def test_authenticator_absent_recipient_fails():
    store = KeyStore()
    auth = Authenticator.create("s", ["r1"], "msg", store.pair_key)
    assert not auth.verify("r9", "msg", store.pair_key)


def test_authenticator_skips_self():
    store = KeyStore()
    auth = Authenticator.create("s", ["s", "r1"], "msg", store.pair_key)
    assert "s" not in auth.macs
    assert auth.size_bytes == MAC_LENGTH


def test_forged_authenticator_rejected():
    store = KeyStore()
    # The attacker "e" only holds keys involving itself: an authenticator
    # it builds in the name of "s" does not verify between "s" and "r1".
    forged = Authenticator.create("s", ["r1"], "msg", lambda _, b: store.pair_key("e", b))
    assert not forged.verify("r1", "msg", store.pair_key)


# ----------------------------------------------------------------------
# The serializer's exact-type fast path and the one-shot HMAC
# ----------------------------------------------------------------------
def _reference_encode(value, out):
    """``_encode`` as it was before the exact-type dispatch: the ladder."""
    from collections.abc import Mapping

    if value is None:
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
            _reference_encode(item, out)
    elif isinstance(value, Mapping):
        keys = sorted(value)
        out += b"d" + str(len(keys)).encode("ascii") + b":"
        for key in keys:
            _reference_encode(key, out)
            _reference_encode(value[key], out)
    else:
        raise TypeError(type(value).__name__)


def test_canonical_bytes_equal_the_reference_ladder():
    from collections import OrderedDict, namedtuple

    class Name(str):
        pass

    class Big(int):
        pass

    Pair = namedtuple("Pair", "a b")
    corpus = [
        None, True, False, 0, 1, -1, 255, 10**40, -(10**40), Big(7), 0.0, -0.0, 1.5, 1e300,
        float("inf"), "", "a", "é€😀", Name("sub"), b"", b"\x00\xff", (), [], {},
        ("c0", 7, ("put", "k", 1)), ["get", ("a", b"b")], Pair("x", (1, 2.0)),
        {"b": 1, "a": [True, None, {"z": b"y"}]}, OrderedDict(z=1, a=(2,)),
        ("r0", 42, b"prep|" + bytes(48)), (b"\x01" * 32, b"\x02" * 32),
        ("nest", ("deep", ("deeper", [1, (2, {"k": ("v", 1.25, False)})]))),
    ]
    for payload in corpus:
        expected = bytearray()
        _reference_encode(payload, expected)
        assert canonical_bytes(payload) == bytes(expected), payload


def test_compute_mac_is_truncated_hmac_sha256():
    import hashlib
    import hmac as std_hmac

    from repro.crypto.mac import compute_mac_bytes

    key, payload = b"k" * 32, ("r0", 3, b"digest")
    expected = std_hmac.new(key, canonical_bytes(payload), hashlib.sha256).digest()[:MAC_LENGTH]
    assert compute_mac(key, payload) == expected
    assert compute_mac_bytes(key, canonical_bytes(payload)) == expected
