"""Tests for protocol message types: wire sizes, keys, immutability."""

import dataclasses

import pytest

from repro.bft.messages import (
    Append,
    AppendAck,
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    CommitNotice,
    Heartbeat,
    MbCommit,
    MbNewView,
    MbPrepare,
    MbReqViewChange,
    MbViewChange,
    NewView,
    PrePrepare,
    Prepare,
    StateAck,
    StateRequest,
    StateResponse,
    StateUpdate,
    ViewChange,
    _op_size,
)
from repro.crypto import KeyStore
from repro.hybrids import Usig


def make_ui():
    return Usig("r0", KeyStore()).create_ui(b"digest")


def sample_request():
    return ClientRequest("c0", 7, ("put", "key", 123))


# ----------------------------------------------------------------------
# Op size estimation
# ----------------------------------------------------------------------
def test_op_size_scales_with_content():
    assert _op_size(b"x" * 100) == 100
    assert _op_size("abc") == 3
    assert _op_size(("put", "k", 1)) > _op_size(("get",))
    assert _op_size({"a": 1}) > _op_size({})
    assert _op_size(None) == 8


# ----------------------------------------------------------------------
# Wire sizes: every message type reports a positive, plausible size
# ----------------------------------------------------------------------
def all_messages():
    request = sample_request()
    ui = make_ui()
    return [
        request,
        ClientReply("r0", "c0", 7, "OK", 0),
        PrePrepare(0, 1, b"\x00" * 32, request),
        Prepare(0, 1, b"\x00" * 32, "r1"),
        Commit(0, 1, b"\x00" * 32, "r1"),
        Checkpoint(64, b"\x00" * 32, "r1"),
        ViewChange(1, (PrePrepare(0, 11, b"\x00" * 32, request),), "r1"),
        NewView(1, (PrePrepare(1, 11, b"\x00" * 32, request),), "r1"),
        MbPrepare(0, request, b"\x00" * 32, ui, 1),
        MbCommit(0, "r1", ui, b"\x00" * 32, ui),
        MbReqViewChange(1, "r1"),
        MbViewChange(1, 10, "r1", ui),
        MbNewView(1, 10, "r1", ui),
        Append(0, 1, request, "r0"),
        AppendAck(0, 1, "r1"),
        CommitNotice(0, 1, "r0"),
        StateUpdate(1, request, "OK", b"\x00" * 32),
        StateAck(1, "r1"),
        Heartbeat("r0", 5, 0),
        StateRequest("r1", 10),
        StateResponse(
            "r0", 0, 64, b"\x00" * 32, {"snapshot": {}, "executed_requests": {}},
            ((65, b"\x00" * 32, request),),
        ),
    ]


@pytest.mark.parametrize("message", all_messages(), ids=lambda m: type(m).__name__)
def test_wire_size_positive(message):
    assert message.wire_size() > 0


def test_wire_size_grows_with_payload():
    small = ClientRequest("c0", 1, ("put", "k", "v"))
    large = ClientRequest("c0", 1, ("put", "k", "v" * 1000))
    assert large.wire_size() > small.wire_size() + 900


def test_preprepare_includes_request_size():
    request = sample_request()
    pp = PrePrepare(0, 1, b"\x00" * 32, request)
    assert pp.wire_size() > request.wire_size()


def test_newview_size_sums_reproposals():
    request = sample_request()
    one = NewView(1, (PrePrepare(1, 1, b"\x00" * 32, request),), "r0")
    two = NewView(
        1,
        (
            PrePrepare(1, 1, b"\x00" * 32, request),
            PrePrepare(1, 2, b"\x00" * 32, request),
        ),
        "r0",
    )
    assert two.wire_size() > one.wire_size()


def test_viewchange_size_carries_the_reported_bodies():
    request = sample_request()
    reported = PrePrepare(0, 1, b"\x00" * 32, request)
    empty, one = ViewChange(1, (), "r1"), ViewChange(1, (reported,), "r1")
    assert one.wire_size() == empty.wire_size() + reported.wire_size()


# ----------------------------------------------------------------------
# Keys and identities
# ----------------------------------------------------------------------
def test_request_key_and_dedup_identity():
    a = ClientRequest("c0", 1, ("get", "k"))
    b = ClientRequest("c0", 1, ("get", "other"))  # same key, different op
    assert a.key() == b.key() == ("c0", 1)


def test_reply_match_key_includes_result():
    a = ClientReply("r0", "c0", 1, "X", 0)
    b = ClientReply("r1", "c0", 1, "X", 0)
    c = ClientReply("r2", "c0", 1, "Y", 0)
    assert a.match_key() == b.match_key()
    assert a.match_key() != c.match_key()


def test_mb_prepare_seq_is_ui_counter():
    ui = make_ui()
    prepare = MbPrepare(0, sample_request(), b"\x00" * 32, ui, 1)
    assert prepare.seq == ui.counter


def test_messages_are_frozen():
    request = sample_request()
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.rid = 99
    prepare = Prepare(0, 1, b"\x00" * 32, "r1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        prepare.digest = b"evil"


def test_read_only_flag_survives_replace():
    request = ClientRequest("c0", 1, ("get", "k"), read_only=True)
    escalated = dataclasses.replace(request, read_only=False)
    assert request.read_only and not escalated.read_only
    assert escalated.key() == request.key()
