"""Unit tests for the fault and attacker models."""

import pytest

from repro.faults import (
    AgingModel,
    AptAttacker,
    AptConfig,
    DormantTrojan,
    Exploit,
    FaultInjector,
    WeibullParams,
    compromise_set,
    make_strategy,
)
from repro.faults.aging import weibull_hazard, weibull_reliability
from repro.faults.exploits import worst_case_exploit
from repro.noc import Coord
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig, Node, NodeState


class Dummy(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append(message)


# ----------------------------------------------------------------------
# Byzantine strategies
# ----------------------------------------------------------------------
def test_silent_strategy_mutes_node(chip):
    a, b = Dummy("a"), Dummy("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    strategy = make_strategy("silent", chip.sim.rng.stream("atk"))
    strategy.activate(a)
    assert a.state == NodeState.COMPROMISED
    a.send("b", "x")
    chip.sim.run()
    assert b.received == []
    assert strategy.actions == 1


def test_drop_strategy_probabilistic(chip):
    a, b = Dummy("a"), Dummy("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    strategy = make_strategy("drop", chip.sim.rng.stream("atk"), drop_probability=0.5)
    strategy.activate(a)
    for i in range(100):
        a.send("b", i)
    chip.sim.run()
    assert 20 < len(b.received) < 80


def test_corrupt_strategy_tampering_dataclasses(chip):
    from repro.bft.messages import Prepare

    a, b = Dummy("a"), Dummy("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    strategy = make_strategy("corrupt", chip.sim.rng.stream("atk"))
    strategy.activate(a)
    original = Prepare(view=0, seq=1, digest=b"\x00" * 32, replica="a")
    a.send("b", original)
    chip.sim.run()
    assert len(b.received) == 1
    assert b.received[0].digest != original.digest


def test_equivocate_sends_different_lies(chip):
    from repro.bft.messages import Prepare

    a, b, c = Dummy("a"), Dummy("b"), Dummy("c")
    for node, coord in [(a, Coord(0, 0)), (b, Coord(1, 0)), (c, Coord(2, 0))]:
        chip.place_node(node, coord)
    strategy = make_strategy("equivocate", chip.sim.rng.stream("atk"))
    strategy.activate(a)
    message = Prepare(view=0, seq=1, digest=b"\x11" * 32, replica="a")
    a.send("b", message)
    a.send("c", message)
    chip.sim.run()
    assert b.received[0].digest != c.received[0].digest


def test_delay_strategy_postpones(chip):
    a, b = Dummy("a"), Dummy("b")
    chip.place_node(a, Coord(0, 0))
    chip.place_node(b, Coord(1, 0))
    strategy = make_strategy("delay", chip.sim.rng.stream("atk"), delay=500)
    strategy.activate(a)
    a.send("b", "late")
    chip.sim.run(until=100)
    assert b.received == []
    chip.sim.run(until=1000)
    assert b.received == ["late"]


def test_unknown_strategy_rejected(chip):
    with pytest.raises(ValueError):
        make_strategy("teleport", chip.sim.rng.stream("atk"))


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
def test_injector_scheduled_crash(chip):
    node = Dummy("n")
    chip.place_node(node, Coord(0, 0))
    injector = FaultInjector(chip.sim, chip)
    injector.crash_node_at("n", 100)
    chip.sim.run(until=50)
    assert node.state == NodeState.OK
    chip.sim.run(until=150)
    assert node.state == NodeState.CRASHED
    assert injector.injected_crashes == 1


def test_injector_tile_crash_and_link_fail(chip):
    injector = FaultInjector(chip.sim, chip)
    injector.crash_tile_at(Coord(1, 1), 10)
    injector.fail_link_at(Coord(0, 0), Coord(1, 0), 10)
    injector.repair_link_at(Coord(0, 0), Coord(1, 0), 20)
    chip.sim.run(until=15)
    assert chip.tiles[Coord(1, 1)].state.value == "crashed"
    assert chip.noc.links[(Coord(0, 0), Coord(1, 0))].state.value == "down"
    chip.sim.run(until=25)
    assert chip.noc.links[(Coord(0, 0), Coord(1, 0))].state.value == "up"


def test_bitflip_campaign_hits_usig(chip):
    from repro.crypto import KeyStore
    from repro.hybrids import Usig

    usig = Usig("r0", KeyStore(), "plain")
    injector = FaultInjector(chip.sim, chip)
    injector.bitflip_campaign(usig, rate_per_bit=1e-4, check_period=100, until=100_000)
    chip.sim.run(until=100_000)
    assert injector.injected_bitflips > 0


def test_bitflip_campaign_rejects_negative_rate(chip):
    from repro.crypto import KeyStore
    from repro.hybrids import Usig

    injector = FaultInjector(chip.sim, chip)
    with pytest.raises(ValueError):
        injector.bitflip_campaign(Usig("r", KeyStore()), rate_per_bit=-1)


# ----------------------------------------------------------------------
# Aging
# ----------------------------------------------------------------------
def test_aging_model_crashes_tiles_eventually(chip):
    crashed = []
    model = AgingModel(
        chip.sim,
        chip,
        WeibullParams(scale=10_000, shape=2.0),
        on_crash=crashed.append,
    )
    model.start()
    chip.sim.run(until=100_000)
    assert model.crashes == chip.topology.size
    assert len(crashed) == chip.topology.size


def test_aging_refresh_postpones_crash(chip):
    model = AgingModel(chip.sim, chip, WeibullParams(scale=10_000, shape=3.0))
    model.start()
    # Keep refreshing one tile; it should outlive un-refreshed ones.
    target = Coord(0, 0)
    for t in range(1, 40):
        chip.sim.schedule_at(t * 1000, model.refresh, target)
    chip.sim.run(until=40_000)
    assert chip.tiles[target].state.value != "crashed"


def test_weibull_math():
    assert weibull_reliability(0, 100, 2) == 1.0
    assert weibull_hazard(0, 100, 2) == 0.0
    # Increasing hazard for shape > 1:
    assert weibull_hazard(200, 100, 2) > weibull_hazard(50, 100, 2)
    with pytest.raises(ValueError):
        weibull_hazard(-1, 100, 2)


def test_weibull_params_validation():
    with pytest.raises(ValueError):
        WeibullParams(scale=0)
    with pytest.raises(ValueError):
        WeibullParams(degrade_fraction=0)


# ----------------------------------------------------------------------
# Trojans and kill switches
# ----------------------------------------------------------------------
def test_trojan_compromises_occupant_after_trigger(chip):
    node = Dummy("victim")
    chip.place_node(node, Coord(2, 2))
    DormantTrojan(chip.sim, chip, Coord(2, 2), trigger_time=1000)
    chip.sim.run(until=500)
    assert node.state == NodeState.OK
    chip.sim.run(until=1500)
    assert node.state == NodeState.COMPROMISED


def test_trojan_strikes_new_occupants(chip):
    trojan = DormantTrojan(chip.sim, chip, Coord(2, 2), trigger_time=100, recheck_period=100)
    chip.sim.run(until=200)
    late = Dummy("late")
    chip.place_node(late, Coord(2, 2))
    chip.sim.run(until=1000)
    assert late.state == NodeState.COMPROMISED
    assert trojan.victims == ["late"]


def test_relocation_escapes_trojan(chip):
    node = Dummy("mobile")
    chip.place_node(node, Coord(2, 2))
    DormantTrojan(chip.sim, chip, Coord(2, 2), trigger_time=1000)
    chip.relocate_node("mobile", Coord(0, 0))  # move before it arms
    chip.sim.run(until=5000)
    assert node.state == NodeState.OK


# ----------------------------------------------------------------------
# APT
# ----------------------------------------------------------------------
def make_apt(sim, variants, mean_effort=1000.0, reuse=0.1, parallelism=1):
    compromised = []
    attacker = AptAttacker(
        sim,
        targets=lambda: sorted(variants),
        variant_of=lambda name: variants[name],
        compromise=compromised.append,
        config=AptConfig(mean_effort=mean_effort, reuse_factor=reuse, parallelism=parallelism),
    )
    return attacker, compromised


def test_apt_compromises_over_time():
    sim = Simulator(seed=2)
    variants = {"r0": "vA", "r1": "vB", "r2": "vC"}
    attacker, compromised = make_apt(sim, variants)
    attacker.start()
    sim.run(until=100_000)
    assert set(compromised) == {"r0", "r1", "r2"}


def test_apt_monoculture_falls_faster_than_diverse():
    def time_to_all(variants, seed):
        sim = Simulator(seed=seed)
        attacker, compromised = make_apt(sim, variants, mean_effort=10_000, reuse=0.01)
        times = []
        attacker.compromise = lambda name: times.append(sim.now)
        attacker.start()
        sim.run(until=10_000_000)
        return times[-1] if len(times) == len(variants) else float("inf")

    mono = [time_to_all({"r0": "v", "r1": "v", "r2": "v"}, seed) for seed in range(8)]
    diverse = [
        time_to_all({"r0": "vA", "r1": "vB", "r2": "vC"}, seed) for seed in range(8)
    ]
    assert sum(mono) < sum(diverse)


def test_apt_rejuvenation_resets_progress():
    sim = Simulator(seed=3)
    variants = {"r0": "vA"}
    attacker, compromised = make_apt(sim, variants, mean_effort=10_000)
    attacker.start()
    # Rejuvenate r0 frequently enough that progress keeps resetting.
    stopped = [False]

    def rejuvenate():
        attacker.notify_rejuvenated("r0")

    from repro.sim import PeriodicTimer

    PeriodicTimer(sim, 500, rejuvenate)
    sim.run(until=60_000)
    # Progress was repeatedly reset; compromise may have happened but the
    # replica must not be counted compromised after its last rejuvenation.
    assert attacker.compromised_count == 0


def test_apt_config_validation():
    with pytest.raises(ValueError):
        AptConfig(mean_effort=0)
    with pytest.raises(ValueError):
        AptConfig(reuse_factor=0)
    with pytest.raises(ValueError):
        AptConfig(parallelism=0)


# ----------------------------------------------------------------------
# Exploits / common mode
# ----------------------------------------------------------------------
def test_exploit_compromise_set():
    assignment = {
        "r0": frozenset({"libX", "specY"}),
        "r1": frozenset({"libZ", "specY"}),
        "r2": frozenset({"libX"}),
    }
    assert compromise_set(Exploit("libX"), assignment) == {"r0", "r2"}
    assert compromise_set(Exploit("specY"), assignment) == {"r0", "r1"}


def test_worst_case_exploit_picks_max_coverage():
    assignment = {
        "r0": frozenset({"a", "shared"}),
        "r1": frozenset({"b", "shared"}),
        "r2": frozenset({"c"}),
    }
    assert worst_case_exploit(assignment).vuln_class == "shared"


def test_common_mode_probability_validation():
    # The worst common-mode exploit is undefined when no replica carries a
    # vulnerability class.
    with pytest.raises(ValueError):
        worst_case_exploit({"r0": frozenset()})
    with pytest.raises(ValueError):
        worst_case_exploit({})

def test_injector_counters_export(chip):
    node = Dummy("n")
    chip.place_node(node, Coord(0, 0))
    injector = FaultInjector(chip.sim, chip)
    injector.crash_node_at("n", 10)
    injector.fail_link_at(Coord(0, 0), Coord(1, 0), 10)
    injector.degrade_tile_at(Coord(2, 2), 10)
    chip.sim.run(until=20)
    counters = injector.counters()
    assert counters == {
        "injected_crashes": 1,
        "injected_bitflips": 0,
        "injected_link_faults": 1,
        "injected_degrades": 1,
        "injected_total": 3,
    }


def test_injector_stop_cancels_pending_events(chip):
    node = Dummy("n")
    chip.place_node(node, Coord(0, 0))
    injector = FaultInjector(chip.sim, chip)
    injector.crash_node_at("n", 100)
    injector.fail_link_at(Coord(0, 0), Coord(1, 0), 100)
    chip.sim.run(until=50)
    injector.stop()
    chip.sim.run(until=200)
    assert node.state == NodeState.OK
    assert chip.noc.links[(Coord(0, 0), Coord(1, 0))].state.value == "up"
    assert injector.counters()["injected_total"] == 0


def test_injector_stop_preserves_applied_counters(chip):
    injector = FaultInjector(chip.sim, chip)
    injector.crash_tile_at(Coord(1, 1), 10)
    chip.sim.run(until=20)
    injector.stop()
    assert injector.counters()["injected_crashes"] == 1


def test_injector_degrade_tile(chip):
    injector = FaultInjector(chip.sim, chip)
    injector.degrade_tile_at(Coord(1, 1), 10)
    chip.sim.run(until=20)
    assert chip.tiles[Coord(1, 1)].state.value == "degraded"
    # Degrading a non-ok tile is a no-op, not a double count.
    assert injector.degrade_tile_now(Coord(1, 1)) is False
    assert injector.counters()["injected_degrades"] == 1


def test_injector_bitflip_register_at(chip):
    from repro.crypto import KeyStore
    from repro.hybrids import Usig

    usig = Usig("r0", KeyStore(), "plain")
    injector = FaultInjector(chip.sim, chip)
    injector.bitflip_register_at(usig, 3, 10)
    chip.sim.run(until=20)
    assert injector.counters()["injected_bitflips"] == 1


def test_injector_now_primitives_guard_invalid_targets(chip):
    injector = FaultInjector(chip.sim, chip)
    assert injector.crash_node_now("ghost") is False
    assert injector.crash_tile_now(Coord(0, 0)) is True
    assert injector.crash_tile_now(Coord(0, 0)) is False  # already crashed
    assert injector.counters()["injected_crashes"] == 1
