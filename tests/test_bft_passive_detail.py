"""Detailed passive-replication behaviour: detectors, promotion, state."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import StateRequest
from repro.bft.passive import PassiveConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def build(view_timeout=10_000.0, heartbeat=2_000.0, seed=29):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=4, height=4))
    group = build_group(
        chip,
        GroupConfig(
            protocol="passive",
            f=1,
            group_id="p",
            protocol_config=PassiveConfig(
                heartbeat_period=heartbeat, view_timeout=view_timeout
            ),
        ),
    )
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=5_000))
    group.attach_client(client)
    return sim, chip, group, client


def promotions(group):
    return group.chip.metrics.counter("p.promotions").value


def test_roles_assigned_by_member_order():
    sim, chip, group, client = build()
    assert group.replicas[group.members[0]].is_primary
    assert not group.replicas[group.members[1]].is_primary


def test_heartbeats_keep_backup_from_promoting():
    sim, chip, group, client = build()
    client.start()
    sim.run(until=500_000)
    backup = group.replicas[group.members[1]]
    assert not backup.is_primary
    assert promotions(group) == 0


def test_idle_primary_still_heartbeats():
    """Even with no client traffic the backup must not false-promote."""
    sim, chip, group, client = build()
    sim.run(until=300_000)  # client never started
    assert not group.replicas[group.members[1]].is_primary


def test_backup_applies_state_updates_in_order():
    sim, chip, group, client = build()
    client.config.max_requests = 30
    client.start()
    sim.run(until=300_000)
    primary = group.replicas[group.members[0]]
    backup = group.replicas[group.members[1]]
    assert backup.last_executed == primary.last_executed == 30
    assert backup.app.state_digest() == primary.app.state_digest()


def test_promotion_happens_after_detect_timeout():
    sim, chip, group, client = build(view_timeout=10_000)
    client.start()
    sim.run(until=100_000)
    group.crash(group.members[0])
    crash_time = sim.now
    backup = group.replicas[group.members[1]]
    sim.run(until=crash_time + 9_000)
    assert not backup.is_primary  # not yet: inside the detection window
    sim.run(until=crash_time + 30_000)
    assert backup.is_primary
    assert promotions(group) == 1


def test_promoted_backup_serves_buffered_requests():
    sim, chip, group, client = build(view_timeout=8_000)
    client.start()
    sim.run(until=100_000)
    done_before = client.completed
    group.crash(group.members[0])
    sim.run(until=400_000)
    assert client.completed > done_before + 100
    assert group.safety.is_safe


def test_slow_detector_means_long_outage():
    gaps = {}
    for timeout in [5_000.0, 40_000.0]:
        sim, chip, group, client = build(view_timeout=timeout)
        client.start()
        sim.run(until=100_000)
        group.crash(group.members[0])
        sim.run(until=500_000)
        gaps[timeout] = client.max_completion_gap(90_000, 500_000)
    assert gaps[40_000.0] > gaps[5_000.0] + 30_000


def test_passive_pair_is_two_tiles():
    sim, chip, group, client = build()
    assert len(group.members) == 2
    assert group.reply_quorum == 1


def test_updates_after_promotion_continue_sequence():
    """The promoted backup's sequence numbers continue where the primary
    stopped — no gap, no replay (safety recorder validates order)."""
    sim, chip, group, client = build(view_timeout=8_000)
    client.start()
    sim.run(until=100_000)
    primary_executed = group.replicas[group.members[0]].last_executed
    group.crash(group.members[0])
    sim.run(until=400_000)
    backup = group.replicas[group.members[1]]
    assert backup.last_executed > primary_executed
    assert group.safety.is_safe


def test_a_returning_primary_follows_the_new_one_within_a_heartbeat():
    """A heartbeat carries its sender's view: a primary that returns
    after its backup took over hears the new primary's next beat, enters
    its view and watches it — with no state transfer (the new primary
    drops every StateRequest here).  Before, only a recovery sync carried the
    view, so without one it led its stale view."""
    sim, chip, group, client = build(view_timeout=8_000, heartbeat=2_000)
    client.start()
    old, new = (group.replicas[name] for name in group.members)
    sim.run(until=100_000)
    group.crash(old.name)
    sim.run(until=150_000)
    assert new.is_primary and new.view == 1 and old.view == 0
    new.add_inbound_filter(lambda sender, message: None if isinstance(message, StateRequest) else message)
    back = sim.now
    old.recover()
    sim.run(until=back + 2_000)
    assert old.view == new.view == 1 and not old.is_primary
    assert old._detector is not None and old._detector.armed  # it watches the new primary
    sim.run(until=back + 100_000)
    assert new.is_primary and not old.is_primary and group.safety.is_safe
