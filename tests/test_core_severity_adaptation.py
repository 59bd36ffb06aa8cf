"""Tests for severity detection and threat-adaptive protocol control."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.core import AdaptationController, AdaptationPolicy, SeverityDetector, ThreatLevel
from repro.core.severity import SeverityConfig
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def make_system(protocol="cft", seed=1, severity_cfg=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=10_000))
    group.attach_client(client)
    detector = SeverityDetector(group, [client], severity_cfg or SeverityConfig())
    return sim, chip, group, client, detector


# ----------------------------------------------------------------------
# SeverityDetector
# ----------------------------------------------------------------------
def test_detector_stays_low_under_calm_load():
    sim, chip, group, client, detector = make_system()
    client.start()
    detector.start()
    sim.run(until=300_000)
    assert detector.level == ThreatLevel.LOW
    assert detector.assessments > 5
    assert detector.escalations == 0


def test_detector_escalates_on_primary_crash():
    sim, chip, group, client, detector = make_system()
    client.start()
    detector.start()
    sim.schedule_at(50_000, group.crash, group.members[0])
    sim.run(until=200_000)
    assert detector.escalations >= 1
    assert any(level > ThreatLevel.LOW for _, level in detector.history)


def test_detector_deescalates_with_hysteresis():
    sim, chip, group, client, detector = make_system(
        severity_cfg=SeverityConfig(window=20_000, hysteresis_windows=2)
    )
    client.start()
    detector.start()
    sim.schedule_at(50_000, group.crash, group.members[0])
    sim.run(until=800_000)
    # After the failover settles, calm windows bring the level back down.
    assert detector.level == ThreatLevel.LOW
    ups = [level for _, level in detector.history if level > ThreatLevel.LOW]
    assert ups  # it did go up in between


def test_detector_flags_cryptographic_evidence():
    sim, chip, group, client, detector = make_system(protocol="minbft")
    client.start()
    detector.start()
    strategy = make_strategy("corrupt", sim.rng.stream("atk"))
    sim.schedule_at(50_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=300_000)
    assert detector.escalations >= 1


def test_threat_level_ordering():
    assert ThreatLevel.LOW < ThreatLevel.ELEVATED < ThreatLevel.CRITICAL


# ----------------------------------------------------------------------
# AdaptationController
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        AdaptationPolicy(cooldown=-1)
    with pytest.raises(ValueError):
        AdaptationPolicy(protocol_for={ThreatLevel.LOW: "cft"})


def test_adaptation_switches_under_attack_and_back():
    sim, chip, group, client, detector = make_system(
        severity_cfg=SeverityConfig(window=20_000, hysteresis_windows=2)
    )
    controller = AdaptationController(
        group, detector, AdaptationPolicy(cooldown=10_000)
    )
    client.start()
    detector.start()
    # Crash the CFT leader: timeouts spike, detector escalates, the
    # controller must move off CFT; when calm returns, back to CFT.
    sim.schedule_at(60_000, group.crash, group.members[0])
    sim.run(until=1_500_000)
    assert controller.switches  # at least one switch happened
    first = controller.switches[0]
    assert first[1] == "cft" and first[2] in ("minbft", "pbft")
    assert controller.current_protocol == "cft"  # de-escalated eventually
    assert group.safety.is_safe


def test_adaptation_respects_cooldown():
    sim, chip, group, client, detector = make_system()
    controller = AdaptationController(
        group, detector, AdaptationPolicy(cooldown=1_000_000)
    )
    client.start()
    detector.start()
    sim.schedule_at(60_000, group.crash, group.members[0])
    sim.run(until=900_000)
    assert len(controller.switches) <= 1  # the huge cooldown blocks flapping


def test_adaptation_no_switch_when_target_matches():
    sim, chip, group, client, detector = make_system(protocol="cft")
    controller = AdaptationController(group, detector)
    client.start()
    detector.start()
    sim.run(until=300_000)
    assert controller.switches == []


# ----------------------------------------------------------------------
# Maintenance-aware suppression
# ----------------------------------------------------------------------
def test_suppression_masks_planned_disruption():
    sim, chip, group, client, detector = make_system(protocol="minbft")
    client.start()
    detector.start()
    # Planned maintenance: crash + recover a replica, with the detector
    # suppressed over the whole disruption.
    detector.suppress(120_000)
    sim.schedule_at(50_000, group.crash, group.members[0])
    sim.schedule_at(90_000, group.replicas[group.members[0]].recover)
    sim.run(until=300_000)
    assert detector.level.name == "LOW"
    assert detector.suppressed_assessments > 0
    assert detector.escalations == 0


def test_unsuppressed_same_disruption_escalates():
    sim, chip, group, client, detector = make_system(protocol="minbft")
    client.start()
    detector.start()
    sim.schedule_at(50_000, group.crash, group.members[0])
    sim.schedule_at(90_000, group.replicas[group.members[0]].recover)
    sim.run(until=300_000)
    assert detector.escalations >= 1


def test_suppression_expires():
    sim, chip, group, client, detector = make_system(protocol="minbft")
    client.start()
    detector.start()
    detector.suppress(30_000)  # expires long before the real attack
    sim.schedule_at(150_000, group.crash, group.members[0])
    sim.run(until=400_000)
    assert detector.escalations >= 1  # the attack was still caught


def test_suppress_rejects_negative():
    sim, chip, group, client, detector = make_system()
    with pytest.raises(ValueError):
        detector.suppress(-1)


def test_rejuvenation_with_detector_mask_stays_low(monkeypatch):
    from repro.core import (
        DiversityManager,
        RejuvenationPolicy,
        RejuvenationScheduler,
        VariantLibrary,
    )
    from repro.core.replication import ReplicationManager
    from repro.fabric import FpgaFabric

    sim = Simulator(seed=31)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", 5, 3)
    fabric.register_variants("svc", library.names())
    diversity = DiversityManager(library)
    manager = ReplicationManager(chip, fabric, diversity)
    from repro.bft import GroupConfig

    group = manager.deploy_group(GroupConfig(protocol="minbft", f=1, group_id="g"))
    sim.run(until=30_000)
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=10_000))
    group.attach_client(client)
    detector = SeverityDetector(group, [client], SeverityConfig(window=20_000))
    monkeypatch.setattr(RejuvenationScheduler, "DETECTOR_MASK", 60_000)
    scheduler = RejuvenationScheduler(
        group, fabric, diversity,
        RejuvenationPolicy(period=30_000),
        detector=detector,
    )
    client.start()
    detector.start()
    scheduler.start()
    sim.run(until=600_000)
    assert scheduler.passes > 10
    assert detector.escalations == 0  # maintenance never read as attack
    assert group.safety.is_safe


# ----------------------------------------------------------------------
# Cooldown re-check on deferred switches (regression)
# ----------------------------------------------------------------------
class _ScriptedDetector:
    """A detector stand-in whose level the test drives explicitly.

    The controller only needs ``.level`` and an assignable ``.on_change``;
    scripting transitions lets the test line events up at exact instants,
    which a periodic detector cannot do.
    """

    def __init__(self):
        self.level = ThreatLevel.LOW
        self.on_change = None

    def fire(self, level):
        self.level = level
        if self.on_change is not None:
            self.on_change(level)


def test_deferred_switch_rechecks_cooldown():
    """Regression: a deferral draining right after a same-instant switch
    must not produce back-to-back switches inside one cooldown window.

    Same-time events fire in insertion order, so a threat change queued
    before the deferrals drains first at t=35k, switches immediately
    (its cooldown has exactly expired), and leaves the stale deferral to
    fire at the same instant — which used to switch again with zero gap.
    """
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol="cft", f=1, group_id="g"))
    detector = _ScriptedDetector()
    controller = AdaptationController(
        group, detector, AdaptationPolicy(cooldown=30_000)
    )
    cooldown = controller.policy.cooldown

    sim.run(until=5_000)
    detector.fire(ThreatLevel.ELEVATED)  # immediate: cft -> minbft at t=5k
    assert [s[2] for s in controller.switches] == ["minbft"]
    # Two transitions landing at the exact instant the cooldown expires,
    # queued *before* the deferrals below so they drain first at t=35k.
    sim.schedule_at(35_000, detector.fire, ThreatLevel.LOW)
    sim.schedule_at(35_000, detector.fire, ThreatLevel.CRITICAL)
    sim.run(until=15_000)
    detector.fire(ThreatLevel.CRITICAL)  # inside cooldown: deferred
    sim.run(until=20_000)
    detector.fire(ThreatLevel.LOW)       # still inside cooldown: deferred
    sim.run(until=400_000)

    times = [t for t, _, _, _ in controller.switches]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap >= cooldown for gap in gaps), (controller.switches, gaps)
    # The escalation is still honoured — one full cooldown later.
    assert controller.current_protocol == "pbft"
    assert group.safety.is_safe
