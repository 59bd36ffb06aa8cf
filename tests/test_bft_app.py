"""Unit tests for replicated state machines and the safety recorder."""

import pytest

from repro.bft import KeyValueStore, SafetyRecorder
from repro.bft.app import ControlLoopApp


# ----------------------------------------------------------------------
# KeyValueStore
# ----------------------------------------------------------------------
def test_kv_put_get_del():
    kv = KeyValueStore()
    assert kv.execute(("put", "k", 1)) == "OK"
    assert kv.execute(("get", "k")) == 1
    assert kv.execute(("del", "k")) == "OK"
    assert kv.execute(("get", "k")) is None
    assert kv.execute(("del", "k")) == "MISSING"


def test_kv_cas():
    kv = KeyValueStore()
    kv.execute(("put", "k", 1))
    assert kv.execute(("cas", "k", 1, 2)) is True
    assert kv.execute(("cas", "k", 1, 3)) is False
    assert kv.execute(("get", "k")) == 2


def test_kv_rejects_malformed():
    with pytest.raises(ValueError):
        KeyValueStore().execute("not-a-tuple")
    with pytest.raises(ValueError):
        KeyValueStore().execute(("explode",))


def test_kv_digest_reflects_state():
    a, b = KeyValueStore(), KeyValueStore()
    assert a.state_digest() == b.state_digest()
    a.execute(("put", "k", 1))
    assert a.state_digest() != b.state_digest()
    b.execute(("put", "k", 1))
    assert a.state_digest() == b.state_digest()


def test_kv_digest_insensitive_to_op_order_for_same_state():
    a, b = KeyValueStore(), KeyValueStore()
    a.execute(("put", "x", 1))
    a.execute(("put", "y", 2))
    b.execute(("put", "y", 2))
    b.execute(("put", "x", 1))
    assert a.state_digest() == b.state_digest()


def test_kv_snapshot_restore():
    a = KeyValueStore()
    a.execute(("put", "k", "v"))
    snapshot = a.snapshot()
    b = KeyValueStore()
    b.restore(snapshot)
    assert b.get_local("k") == "v"
    assert a.state_digest() == b.state_digest()
    # Snapshot is a copy, not an alias:
    a.execute(("put", "k", "changed"))
    assert b.get_local("k") == "v"


def test_kv_determinism_across_instances():
    ops = [("put", f"k{i % 5}", i) for i in range(50)] + [("get", "k3")]
    a, b = KeyValueStore(), KeyValueStore()
    results_a = [a.execute(op) for op in ops]
    results_b = [b.execute(op) for op in ops]
    assert results_a == results_b
    assert a.state_digest() == b.state_digest()


# ----------------------------------------------------------------------
# ControlLoopApp
# ----------------------------------------------------------------------
def test_control_loop_deterministic():
    a = ControlLoopApp(window=4, gain=0.5, setpoint=10.0)
    b = ControlLoopApp(window=4, gain=0.5, setpoint=10.0)
    readings = [1.0, 2.0, 3.0, 4.0, 5.0]
    out_a = [a.execute(("sense", r)) for r in readings]
    out_b = [b.execute(("sense", r)) for r in readings]
    assert out_a == out_b
    assert a.state_digest() == b.state_digest()


def test_control_loop_window_bounds_history():
    app = ControlLoopApp(window=2, gain=1.0, setpoint=0.0)
    app.execute(("sense", 100.0))
    app.execute(("sense", 0.0))
    app.execute(("sense", 0.0))
    # Window of 2: the 100 reading fell out, average is 0.
    assert app.execute(("command",)) == 0.0


def test_control_loop_drives_toward_setpoint():
    app = ControlLoopApp(window=1, gain=0.5, setpoint=10.0)
    command = app.execute(("sense", 0.0))
    assert command == 5.0  # 0.5 * (10 - 0)


def test_control_loop_snapshot_restore():
    app = ControlLoopApp()
    for r in [1.0, 2.0, 3.0]:
        app.execute(("sense", r))
    other = ControlLoopApp()
    other.restore(app.snapshot())
    assert other.state_digest() == app.state_digest()


def test_control_loop_validation():
    with pytest.raises(ValueError):
        ControlLoopApp(window=0)
    with pytest.raises(ValueError):
        ControlLoopApp().execute(("jump",))


# ----------------------------------------------------------------------
# SafetyRecorder
# ----------------------------------------------------------------------
def test_safety_agreement_violation_detected():
    recorder = SafetyRecorder()
    recorder.record_commit("r0", 1, b"digest-a")
    recorder.record_commit("r1", 1, b"digest-b")
    assert not recorder.is_safe
    assert recorder.violations[0].kind == "agreement"


def test_safety_matching_commits_are_safe():
    recorder = SafetyRecorder()
    for replica in ["r0", "r1", "r2"]:
        for seq in [1, 2, 3]:
            recorder.record_commit(replica, seq, b"d%d" % seq)
    assert recorder.is_safe
    assert recorder.highest_committed == 3


def test_safety_order_violation_on_gap():
    recorder = SafetyRecorder()
    recorder.record_commit("r0", 1, b"a")
    recorder.record_commit("r0", 3, b"c")
    assert any(v.kind == "order" for v in recorder.violations)


def test_safety_ignores_faulty_replicas():
    recorder = SafetyRecorder()
    recorder.record_commit("r0", 1, b"a")
    recorder.record_commit("evil", 1, b"b", replica_correct=False)
    assert recorder.is_safe
    assert recorder.total_commits == 2


def test_safety_reset_replica_allows_catchup():
    recorder = SafetyRecorder()
    recorder.record_commit("r0", 1, b"a")
    recorder.record_commit("r0", 2, b"b")
    recorder.reset_replica("r1", 2)  # r1 state-transferred to seq 2
    recorder.record_commit("r1", 3, b"c")
    assert recorder.is_safe


def test_safety_digest_at():
    recorder = SafetyRecorder()
    recorder.record_commit("r0", 1, b"a")
    assert recorder.digest_at(1) == b"a"
    assert recorder.digest_at(9) is None
