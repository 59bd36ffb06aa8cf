"""Tests for the consistent-hash shard directory."""

from collections import Counter

import pytest

from repro.shard import ShardDirectory
from repro.sim.rng import RngStream


def test_lookup_is_deterministic_across_instances():
    a = ShardDirectory(["s0", "s1", "s2"], salt=99)
    b = ShardDirectory(["s0", "s1", "s2"], salt=99)
    keys = [f"k{i}" for i in range(500)]
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]


def test_salt_changes_the_partition():
    keys = [f"k{i}" for i in range(500)]
    a = ShardDirectory(["s0", "s1", "s2"], salt=1)
    b = ShardDirectory(["s0", "s1", "s2"], salt=2)
    assert [a.shard_for(k) for k in keys] != [b.shard_for(k) for k in keys]


def test_from_rng_is_seed_stable():
    keys = [f"k{i}" for i in range(200)]
    a = ShardDirectory.from_rng(["s0", "s1"], RngStream(7, "shard.directory"))
    b = ShardDirectory.from_rng(["s0", "s1"], RngStream(7, "shard.directory"))
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]


def test_every_shard_owns_a_reasonable_keyspace_share():
    directory = ShardDirectory(["s0", "s1", "s2", "s3"], salt=5, vnodes=64)
    counts = Counter(directory.shard_for(f"k{i}") for i in range(4000))
    assert sorted(counts) == ["s0", "s1", "s2", "s3"]
    for shard_id, count in counts.items():
        # Perfect split is 1000; vnode smoothing keeps skew bounded.
        assert 400 < count < 1800, (shard_id, counts)


def test_degraded_bookkeeping():
    directory = ShardDirectory(["s0", "s1", "s2"], salt=1)
    assert directory.degraded_shards() == []
    assert directory.live_shards() == ["s0", "s1", "s2"]
    directory.mark_degraded("s1")
    assert directory.is_degraded("s1")
    assert not directory.is_degraded("s0")
    assert directory.degraded_shards() == ["s1"]
    assert directory.live_shards() == ["s0", "s2"]
    assert directory.status() == {"s0": "live", "s1": "degraded", "s2": "live"}
    # Ownership is unaffected by degradation.
    owner = directory.shard_for("k1")
    directory.mark_degraded(owner)
    assert directory.shard_for("k1") == owner
    directory.restore("s1")
    assert not directory.is_degraded("s1")


def test_unknown_shard_is_rejected():
    directory = ShardDirectory(["s0"], salt=0)
    with pytest.raises(KeyError):
        directory.mark_degraded("nope")
    with pytest.raises(KeyError):
        directory.is_degraded("nope")


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardDirectory([])
    with pytest.raises(ValueError):
        ShardDirectory(["s0", "s0"])
    with pytest.raises(ValueError):
        ShardDirectory(["s0"], vnodes=0)


def test_single_shard_owns_everything():
    directory = ShardDirectory(["only"], salt=11)
    assert all(directory.shard_for(f"k{i}") == "only" for i in range(100))


# Every salt a test or the benchmark pins, plus one seeded draw.
SALTS = (0, 1, 2, 3, 5, 11, 99, 0xBEEF, RngStream(7, "shard.directory").getrandbits(64))


@pytest.mark.parametrize("salt", SALTS)
def test_owner_memo_equals_the_ring_walk(salt):
    """``shard_for`` memoizes str keys; ``_locate`` is the un-memoised
    hash + bisect.  10 000 random keys, each asked twice (miss, then hit)."""
    directory = ShardDirectory(["s0", "s1", "s2", "s3"], salt=salt)
    draw = RngStream(salt & 0xFFFF, "test.directory.keys")
    keys = [f"k{draw.getrandbits(40)}" for _ in range(10_000)]
    expected = [directory._locate(k) for k in keys]
    assert [directory.shard_for(k) for k in keys] == expected
    assert [directory.shard_for(k) for k in keys] == expected


def test_owner_memo_keeps_equal_keys_of_different_types_apart():
    """1 == True == 1.0 as dict keys, but they format (and hash onto the
    ring) differently; unhashable keys must still route."""
    directory = ShardDirectory([f"s{i}" for i in range(16)], salt=2, vnodes=8)
    for key in ("1", 1, True, 1.0, "True", b"1", ("a", 1), ["a", 1], None):
        for _ in range(2):
            assert directory.shard_for(key) == directory._locate(key), key
    owners = {directory._locate(k) for k in ("1", "True", "1.0")}
    assert len(owners) > 1  # the collision the type check guards against is real


def test_owner_memo_is_bounded(monkeypatch):
    import repro.shard.directory as module

    monkeypatch.setattr(module, "_OWNER_MEMO_CAP", 64)
    directory = ShardDirectory(["s0", "s1", "s2"], salt=5)
    for i in range(1000):
        assert directory.shard_for(f"k{i}") == directory._locate(f"k{i}")
        assert len(directory._owners) <= 64
