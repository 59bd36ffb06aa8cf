"""Tests for workloads and threat scenarios."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, KeyValueStore, build_group
from repro.workloads import (
    AlternatingKV,
    AttackPhase,
    FactoryWorkload,
    KVWorkload,
    ThreatScenario,
    UniformKeys,
    ZipfKeys,
    kv_workload,
)
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


# ----------------------------------------------------------------------
# Op streams
# ----------------------------------------------------------------------
def test_kv_uniform_valid_ops():
    workload = kv_workload(keys=8, write_ratio=0.5)
    kv = KeyValueStore()
    for i in range(100):
        kv.execute(workload.op(i))  # raises on malformed ops


def test_kv_uniform_write_ratio_respected():
    workload = kv_workload(keys=8, write_ratio=0.25)
    ops = [workload.op(i) for i in range(1000)]
    writes = sum(1 for op in ops if op[0] == "put")
    assert 200 <= writes <= 300


def test_kv_uniform_deterministic():
    a = kv_workload(keys=8)
    b = kv_workload(keys=8)
    assert [a.op(i) for i in range(50)] == [b.op(i) for i in range(50)]


def test_kv_uniform_validation():
    with pytest.raises(ValueError):
        kv_workload(keys=0)
    with pytest.raises(ValueError):
        kv_workload(write_ratio=2.0)


def test_kv_skewed_prefers_hot_keys():
    workload = AlternatingKV(ZipfKeys(keys=64, s=1.5, seed=3))
    from collections import Counter

    keys = Counter(workload.op(i)[1] for i in range(5000))
    hottest = keys.most_common(1)[0][1]
    assert hottest > 5000 / 64 * 3  # far above uniform share


def test_kv_skewed_deterministic_per_seed():
    a = AlternatingKV(ZipfKeys(seed=7))
    b = AlternatingKV(ZipfKeys(seed=7))
    assert [a.op(i) for i in range(50)] == [b.op(i) for i in range(50)]


def test_the_alternating_stream_is_the_default_client_stream():
    """Put on even indices, get on odd ones, round-robin over 64 keys by
    default — the stream every closed-loop result was captured on."""
    expected = [
        ("put", f"k{i % 64}", i) if i % 2 == 0 else ("get", f"k{i % 64}")
        for i in range(300)
    ]
    assert [AlternatingKV().op(i) for i in range(300)] == expected
    assert [ClientConfig().workload.op(i) for i in range(300)] == expected
    small = AlternatingKV(UniformKeys(8))
    assert {small.op(i)[1] for i in range(100)} == {f"k{i}" for i in range(8)}


def test_each_workload_classifies_its_own_reads():
    get, mget, put = ("get", "k1"), ("mget", "k1", "k2"), ("put", "k1", 1)
    kv = kv_workload()
    assert kv.is_read(get) and kv.is_read(mget) and not kv.is_read(put)
    assert not any(AlternatingKV().is_read(op) for op in (get, mget, put))
    opaque = FactoryWorkload(lambda i: get)
    assert not opaque.is_read(get)
    classified = FactoryWorkload(lambda i: get, reads=lambda op: op[0] == "get")
    assert classified.is_read(get) and not classified.is_read(put)


# ----------------------------------------------------------------------
# Threat scenarios
# ----------------------------------------------------------------------
def test_attack_phase_validation():
    with pytest.raises(ValueError):
        AttackPhase(start=10, end=10)
    with pytest.raises(ValueError):
        AttackPhase(start=-1, end=10)


def test_scenario_applies_and_ends_attack():
    sim = Simulator(seed=4)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="minbft", f=1, group_id="g"))
    scenario = ThreatScenario(
        phases=[AttackPhase(10_000, 50_000, "silent", target_index=0, label="mute")]
    )
    scenario.apply(sim, group)
    victim = group.members[0]
    sim.run(until=20_000)
    assert not group.replicas[victim].is_correct
    sim.run(until=60_000)
    assert group.replicas[victim].is_correct  # phase ended, foothold lost
    assert scenario.applied and "mute" in scenario.applied[0]


def test_scenario_crash_phase():
    sim = Simulator(seed=4)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="cft", f=1, group_id="g"))
    scenario = ThreatScenario(phases=[AttackPhase(5_000, 30_000, "crash", 1)])
    scenario.apply(sim, group)
    sim.run(until=10_000)
    assert group.replicas[group.members[1]].state.value == "crashed"
    sim.run(until=40_000)
    assert group.replicas[group.members[1]].is_correct


def test_scenario_service_survives_attack_window():
    sim = Simulator(seed=4)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="minbft", f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=15_000))
    group.attach_client(client)
    client.start()
    scenario = ThreatScenario(phases=[AttackPhase(50_000, 150_000, "equivocate", label="attack")])
    scenario.apply(sim, group)
    sim.run(until=400_000)
    assert group.safety.is_safe
    assert client.completed > 200


# ----------------------------------------------------------------------
# The unified Workload API (mesoscale traffic redesign)
# ----------------------------------------------------------------------
def add_one(i):
    return ("add", 1)


def test_workload_protocol_satisfied():
    from repro.workloads import Workload

    assert isinstance(kv_workload(), Workload)
    assert isinstance(AlternatingKV(), Workload)
    assert isinstance(FactoryWorkload(add_one), Workload)


def test_zipf_keys_skewed_and_deterministic():
    from collections import Counter

    from repro.workloads import ZipfKeys

    a = ZipfKeys(keys=64, s=1.5, seed=3)
    b = ZipfKeys(keys=64, s=1.5, seed=3)
    assert [a.key(i) for i in range(100)] == [b.key(i) for i in range(100)]
    keys = Counter(a.key(i) for i in range(5000))
    assert keys.most_common(1)[0][1] > 5000 / 64 * 3


def test_kv_workload_rate_sugar_and_exclusivity():
    import pytest as _pytest

    from repro.workloads import PoissonArrivals, kv_workload

    wl = kv_workload(rate_per_client=1e-5)
    assert isinstance(wl.arrivals, PoissonArrivals)
    assert wl.arrivals.rate_per_client == 1e-5
    with _pytest.raises(ValueError):
        kv_workload(arrivals=PoissonArrivals(1e-5), rate_per_client=1e-5)


def _population(workload):
    from repro.mesoscale import PopulationConfig
    from repro.shard import ShardConfig, ShardedSystem

    system = ShardedSystem(ShardConfig(seed=1, n_shards=1, enable_rejuvenation=False))
    return system.attach_population(
        "p", PopulationConfig(n_clients=1, mode="closed", workload=workload)
    )


def test_population_takes_a_workload_or_the_default():
    """A population takes a Workload as it is and the standard KV mix for
    None (the contract the deleted coercion shim had, where it is now
    enforced: ``ClientPopulation.__init__``)."""
    wl = FactoryWorkload(add_one)
    assert _population(wl).workload is wl
    assert isinstance(_population(None).workload, KVWorkload)


def test_population_rejects_what_is_not_a_workload():
    """Neither a number, a bare op-factory callable nor an op stream that
    does not classify its reads is a Workload."""
    from types import SimpleNamespace

    with pytest.raises(TypeError, match="FactoryWorkload"):
        _population(42)
    with pytest.raises(TypeError, match="FactoryWorkload"):
        _population(add_one)
    unclassified = SimpleNamespace(name="n", arrivals=None, op=add_one)
    with pytest.raises(TypeError, match="is_read"):
        _population(unclassified)
