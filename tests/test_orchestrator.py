"""End-to-end tests for the ResilientSystem facade."""

import pytest

from repro.core import OrchestratorConfig, ResilientSystem
from repro.core.rejuvenation import RejuvenationPolicy
from repro.soc.node import NodeState


def test_system_boots_and_serves():
    system = ResilientSystem(OrchestratorConfig(seed=1))
    client = system.add_client("c0")
    system.start()
    system.run(300_000)
    assert system.is_safe
    assert system.completed_operations() > 50
    assert "SAFE" in system.summary()


def test_system_deterministic_per_seed():
    def run(seed):
        system = ResilientSystem(OrchestratorConfig(seed=seed))
        system.add_client("c0")
        system.start()
        system.run(200_000)
        return system.completed_operations()

    assert run(5) == run(5)


def test_rejuvenation_enabled_by_default():
    system = ResilientSystem(OrchestratorConfig(seed=2))
    system.add_client("c0")
    system.start()
    system.run(400_000)
    assert system.rejuvenation is not None
    assert system.rejuvenation.passes > 0
    assert system.is_safe


def test_rejuvenation_can_be_disabled():
    system = ResilientSystem(OrchestratorConfig(seed=2, enable_rejuvenation=False))
    assert system.rejuvenation is None


def test_adaptation_integration():
    system = ResilientSystem(
        OrchestratorConfig(seed=3, protocol="cft", enable_adaptation=True,
                           enable_rejuvenation=False)
    )
    client = system.add_client("c0")
    system.start()
    # Crash the CFT leader: the controller should move off CFT.
    system.sim.schedule_at(system.sim.now + 50_000, system.group.crash, system.group.members[0])
    system.run(900_000)
    assert system.adaptation is not None
    assert system.adaptation.switches
    assert system.is_safe


def test_multiple_clients():
    system = ResilientSystem(OrchestratorConfig(seed=4))
    for i in range(3):
        system.add_client(f"c{i}")
    system.start()
    system.run(300_000)
    assert all(c.completed > 20 for c in system.clients)
    assert system.is_safe


def test_pbft_orchestrated():
    system = ResilientSystem(
        OrchestratorConfig(seed=5, protocol="pbft", width=7, height=7,
                           rejuvenation=RejuvenationPolicy(period=50_000))
    )
    system.add_client("c0")
    system.start()
    system.run(400_000)
    assert system.is_safe
    assert len(system.group.members) == 4
    assert system.completed_operations() > 30


def test_quickstart_detector_not_fooled_by_maintenance():
    """With the default wiring, proactive rejuvenation must not drive the
    severity detector off LOW (the maintenance-masking regression test)."""
    from repro.core.rejuvenation import RejuvenationPolicy

    system = ResilientSystem(
        OrchestratorConfig(seed=42, rejuvenation=RejuvenationPolicy(period=40_000))
    )
    system.add_client("c0")
    system.start()
    system.run(600_000)
    assert system.rejuvenation.passes > 8
    assert system.detector.level.name == "LOW"
    assert system.detector.suppressed_assessments > 0
    assert system.is_safe


def test_adaptation_summary_reflects_protocol_switch():
    """The enable_adaptation=True path end to end: after the controller
    switches protocols, summary() reports the group's *current* protocol
    and threat level, and the switch record is coherent."""
    system = ResilientSystem(
        OrchestratorConfig(seed=6, protocol="cft", enable_adaptation=True,
                           enable_rejuvenation=False)
    )
    client = system.add_client("c0")
    system.start()
    before = system.summary()
    assert "protocol=cft" in before
    system.sim.schedule_at(
        system.sim.now + 50_000, system.group.crash, system.group.members[0]
    )
    system.run(900_000)
    assert system.adaptation is not None and system.adaptation.switches
    switched_to = system.adaptation.switches[-1][2]
    after = system.summary()
    assert f"protocol={switched_to}" in after
    assert f"protocol={system.group.protocol}" in after
    assert f"threat={system.detector.level.name}" in after
    assert "SAFE" in after
    # Switch records are (time, source, target, level) and chain up.
    for (t0, src0, dst0, _), (t1, src1, dst1, _) in zip(
        system.adaptation.switches, system.adaptation.switches[1:]
    ):
        assert t1 >= t0
        assert src1 == dst0
    assert system.is_safe


def test_adaptation_disabled_by_default():
    system = ResilientSystem(OrchestratorConfig(seed=6))
    assert system.adaptation is None


def test_adaptation_respects_cooldown_end_to_end():
    """Every pair of consecutive switches honours the policy cooldown."""
    from repro.core import AdaptationPolicy

    system = ResilientSystem(
        OrchestratorConfig(seed=8, protocol="cft", enable_adaptation=True,
                           enable_rejuvenation=False,
                           adaptation=AdaptationPolicy(cooldown=60_000))
    )
    system.add_client("c0")
    system.start()
    system.sim.schedule_at(
        system.sim.now + 40_000, system.group.crash, system.group.members[0]
    )
    system.run(900_000)
    times = [t for t, _, _, _ in (system.adaptation.switches or [])]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= 60_000
    assert system.is_safe


def test_member_added_by_a_switch_is_spawned_and_can_be_healed():
    """A minbft -> pbft switch adds ``sys-r3``: it is spawned through the
    ICAP on the variant diversity admits it to, so heal-first
    rejuvenation can restart it when it crashes (a region the switch
    left empty failed every pass, and heal-first starved the rest)."""
    system = ResilientSystem(OrchestratorConfig(
        seed=1,
        rejuvenation=RejuvenationPolicy(diversify=False, relocate=False, heal_first=True),
    ))
    system.add_client("c0")
    system.start()
    system.group.switch_protocol("pbft")
    system.run(30_000)
    coord = system.group.placement["sys-r3"]
    assert system.fabric.variant_at(coord) == system.diversity.variant_of("sys-r3")
    system.group.crash("sys-r3")
    passes = system.rejuvenation.passes
    system.run(3 * system.rejuvenation.policy.period)
    assert system.group.replicas["sys-r3"].is_correct
    assert system.rejuvenation.passes > passes and system.rejuvenation.failures == 0
    assert system.is_safe


def test_switch_during_a_rejuvenation_pass_does_not_revive_the_old_replica():
    """The pass's commit calls ``recover()`` on the replica object it
    began with; the switch has retired that object, so it stays crashed
    and silent while its rebuilt successor serves under the same name."""
    system = ResilientSystem(OrchestratorConfig(seed=2))
    system.add_client("c0")
    system.start()
    system.run(60_000)
    system.rejuvenation.stop()
    system.run(10_000)  # let any pass in flight land
    old = system.group.replicas["sys-r1"]
    assert system.rejuvenation.rejuvenate_now("sys-r1")
    system.group.switch_protocol("pbft")
    sent = old.messages_sent
    done = system.completed_operations()
    system.run(200_000)
    assert old.state is NodeState.CRASHED and old.messages_sent == sent
    assert system.group.replicas["sys-r1"].is_correct
    assert system.completed_operations() > done
    assert system.is_safe
