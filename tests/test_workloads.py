"""Tests for workload generators and threat scenarios."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, KeyValueStore, build_group
from repro.bft.app import ControlLoopApp
from repro.workloads import (
    AttackPhase,
    ThreatScenario,
    control_sensor_ops,
    counter_ops,
    kv_skewed_ops,
    kv_uniform_ops,
)
from repro.workloads.scenarios import calm_attack_calm
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_kv_uniform_valid_ops():
    factory = kv_uniform_ops(keys=8, write_ratio=0.5)
    kv = KeyValueStore()
    for i in range(100):
        kv.execute(factory(i))  # raises on malformed ops


def test_kv_uniform_write_ratio_respected():
    factory = kv_uniform_ops(keys=8, write_ratio=0.25)
    ops = [factory(i) for i in range(1000)]
    writes = sum(1 for op in ops if op[0] == "put")
    assert 200 <= writes <= 300


def test_kv_uniform_deterministic():
    a = kv_uniform_ops(keys=8)
    b = kv_uniform_ops(keys=8)
    assert [a(i) for i in range(50)] == [b(i) for i in range(50)]


def test_kv_uniform_validation():
    with pytest.raises(ValueError):
        kv_uniform_ops(keys=0)
    with pytest.raises(ValueError):
        kv_uniform_ops(write_ratio=2.0)


def test_kv_skewed_prefers_hot_keys():
    factory = kv_skewed_ops(keys=64, zipf_s=1.5, seed=3)
    from collections import Counter

    keys = Counter(factory(i)[1] for i in range(5000))
    hottest = keys.most_common(1)[0][1]
    assert hottest > 5000 / 64 * 3  # far above uniform share


def test_kv_skewed_deterministic_per_seed():
    a = kv_skewed_ops(seed=7)
    b = kv_skewed_ops(seed=7)
    assert [a(i) for i in range(50)] == [b(i) for i in range(50)]


def test_counter_ops():
    factory = counter_ops(step=3)
    assert factory(0) == ("add", 3)


def test_control_sensor_ops_drive_control_app():
    factory = control_sensor_ops(period_ops=20, seed=1)
    app = ControlLoopApp()
    for i in range(100):
        app.execute(factory(i))
    assert app.ops_executed == 100


def test_control_sensor_deterministic():
    a = control_sensor_ops(seed=5)
    b = control_sensor_ops(seed=5)
    assert [a(i) for i in range(40)] == [b(i) for i in range(40)]


def test_control_sensor_validation():
    with pytest.raises(ValueError):
        control_sensor_ops(period_ops=0)


# ----------------------------------------------------------------------
# Threat scenarios
# ----------------------------------------------------------------------
def test_attack_phase_validation():
    with pytest.raises(ValueError):
        AttackPhase(start=10, end=10)
    with pytest.raises(ValueError):
        AttackPhase(start=-1, end=10)


def test_calm_attack_calm_shape():
    scenario = calm_attack_calm(100, 200, 300)
    assert scenario.horizon() == 200
    assert len(scenario.phases) == 1
    with pytest.raises(ValueError):
        calm_attack_calm(200, 100, 300)


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
    scenario = calm_attack_calm(50_000, 150_000, 400_000, strategy="equivocate")
    scenario.apply(sim, group)
    sim.run(until=400_000)
    assert group.safety.is_safe
    assert client.completed > 200


# ----------------------------------------------------------------------
# The unified Workload API (mesoscale traffic redesign)
# ----------------------------------------------------------------------
def test_kv_workload_matches_legacy_generator():
    """KVWorkload reproduces kv_uniform_ops op-for-op — migrated callers
    see the identical operation stream."""
    from repro.workloads import kv_workload

    legacy = kv_uniform_ops(keys=8, write_ratio=0.25)
    unified = kv_workload(keys=8, write_ratio=0.25)
    assert [legacy(i) for i in range(500)] == [unified.op(i) for i in range(500)]


def test_workload_protocol_satisfied():
    from repro.workloads import FactoryWorkload, Workload, kv_workload

    assert isinstance(kv_workload(), Workload)
    assert isinstance(FactoryWorkload(counter_ops()), Workload)


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
    from repro.workloads import FactoryWorkload, KVWorkload

    wl = FactoryWorkload(counter_ops())
    assert _population(wl).workload is wl
    assert isinstance(_population(None).workload, KVWorkload)


def test_population_rejects_what_is_not_a_workload():
    """Neither a number nor a bare op-factory callable is a Workload."""
    with pytest.raises(TypeError, match="FactoryWorkload"):
        _population(42)
    with pytest.raises(TypeError, match="FactoryWorkload"):
        _population(counter_ops())
