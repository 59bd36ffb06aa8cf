"""The one fault schedule and its one player (``campaign/scenario.py``).

A schedule is a tuple of timed entries — :class:`Crash`,
:class:`Compromise`, :class:`Step`, :class:`KillShard` — that
:class:`FaultPlayer` plays on one group or on a sharded service.  Each
entry fires at its instant; its target is resolved when it fires; a
malformed entry is refused before any event runs.  The sharded rows of
``repro.check`` (C2's kill-one-shard claim and ``fault-storm``'s
schedule) are replayed here against ``check_outcomes.json``.
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.campaign import scenario
from repro.campaign.scenario import Compromise, Crash, FaultPlayer, KillShard, Step, UnknownShard
from repro.check import Scenario, Trial, check
from repro.check import scenario as named
from repro.shard.manager import ShardedSystem
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from tests import checks


def one_group(protocol="minbft", seed=4):
    sim = Simulator(seed=seed)
    group = build_group(Chip(sim, ChipConfig(width=5, height=5)), GroupConfig(protocol=protocol, f=1, group_id="g"))
    return sim, group


def crashed(replica):
    return replica.state.value == "crashed"


# ----------------------------------------------------------------------
# Each entry kind fires at its instant
# ----------------------------------------------------------------------
def test_every_entry_kind_fires_at_its_instant_on_a_group():
    sim, group = one_group()
    player = FaultPlayer((
        Crash(10_000.0, member=1, outage=5_000.0),
        Compromise(20_000.0, "silent", 2, until=30_000.0),
        Step(40_000.0, "pbft"),
    ), sim, {None: group}).arm()
    r1, r2 = group.replicas["g-r1"], group.replicas["g-r2"]
    player.run(9_999.0)
    assert r1.is_correct
    player.run(10_000.0)
    assert crashed(r1)
    player.run(14_999.0)
    assert crashed(r1)
    player.run(15_000.0)
    assert r1.is_correct
    player.run(19_999.0)
    assert r2.is_correct
    player.run(20_000.0)
    assert not r2.is_correct
    player.run(29_999.0)
    assert not r2.is_correct
    player.run(30_000.0)
    assert r2.is_correct
    player.run(39_999.0)
    assert group.protocol == "minbft"
    player.run(40_000.0)
    assert group.protocol == "pbft" and len(group.members) == 4


def test_every_entry_kind_fires_at_its_instant_on_a_sharded_service():
    system = scenario.sharded_system(1, 3, protocol="minbft")
    window = scenario.open_window(system, [], 20_000.0, 60_000.0, (
        Crash(30_000.0, shard="s0"),
        Compromise(40_000.0, "equivocate", 1, shard="s2"),
        Step(50_000.0, "pbft", shard="s1"),
        KillShard(60_000.0, "s1"),
    ))
    faults, shards = window.faults, system.shards

    def tiles():
        return [system.chip.tiles[system.chip.coord_of(m)].state.value for m in shards["s1"].group.members]

    faults.run(29_999.0)
    assert shards["s0"].group.replicas["s0-r0"].is_correct
    faults.run(30_000.0)
    assert crashed(shards["s0"].group.replicas["s0-r0"])
    faults.run(39_999.0)
    assert shards["s2"].group.replicas["s2-r1"].is_correct
    faults.run(40_000.0)
    assert not shards["s2"].group.replicas["s2-r1"].is_correct
    faults.run(49_999.0)
    assert shards["s1"].group.protocol == "minbft"
    faults.run(50_000.0)
    assert shards["s1"].group.protocol == "pbft"
    faults.run(59_999.0)
    assert "crashed" not in tiles()
    faults.run(60_000.0)
    assert tiles() == ["crashed"] * 4
    window.run()
    assert system.sim.now == window.end == 80_000.0


def test_a_kill_is_scheduled_the_moment_the_window_opens():
    """``kill_at_half``: the mid-window kill of ``repro shard|mesoscale``."""
    system = scenario.sharded_system(1, 2, protocol="minbft")
    window = scenario.open_window(system, [], 20_000.0, 40_000.0, scenario.kill_at_half("s1", 20_000.0, 40_000.0))
    assert scenario.kill_at_half("", 20_000.0, 40_000.0) == scenario.kill_at_half(None, 1.0, 2.0) == ()
    pending = [event for _, _, _, event in system.sim._heap if event.callback == window.faults._fire]
    assert len(pending) == 1 and pending[0].time == 40_000.0
    assert pending[0].seq == system.sim._seq - 1


# ----------------------------------------------------------------------
# Targets are resolved when the entry fires
# ----------------------------------------------------------------------
def test_the_acting_primary_is_the_one_after_a_view_change():
    s = Scenario("acting", "pbft", 1, horizon=60_000.0, window=(0.0, 60_000.0), view_timeout=10_000.0,
                 faults=(Crash(20_000.0), Crash(60_000.0)))
    trial = Trial(s)
    trial.run()
    replicas = trial.group.replicas
    assert [crashed(replicas[f"g-r{i}"]) for i in range(4)] == [True, True, False, False]
    assert [r.view for r in trial.group.correct_replicas()] == [1, 1]


def test_a_member_a_switch_rebuilt_is_compromised_again_while_the_attack_is_in_force():
    sim, group = one_group()
    player = FaultPlayer((
        Compromise(10_000.0, "silent", 1),
        Compromise(10_000.0, "silent", 2, until=15_000.0),
        Step(20_000.0, "pbft"),
    ), sim, {None: group}).arm()
    player.run(19_000.0)
    before = group.replicas[group.members[1]]
    player.run(20_000.0)
    rebuilt = group.replicas[group.members[1]]
    assert rebuilt is not before and not rebuilt.is_correct
    assert group.replicas[group.members[2]].is_correct  # its attack had ended


# ----------------------------------------------------------------------
# A malformed entry is refused before any event runs
# ----------------------------------------------------------------------
MALFORMED = {
    "unknown-shard": (Crash(1_000.0, shard="s9"), UnknownShard, r"unknown shard 's9'; have s0, s1"),
    "no-shard-on-a-sharded-service": (Crash(1_000.0), UnknownShard, "unknown shard None"),
    "member-out-of-range": (Compromise(30_000.0, "silent", 3, shard="s0"), ValueError, "member"),
    "negative-time": (Step(-1.0, "pbft", shard="s0"), ValueError, "before the schedule opens"),
    "before-the-window": (KillShard(5_000.0, "s1"), ValueError, "before the schedule opens"),
    "end-before-start": (Compromise(30_000.0, "silent", 1, until=30_000.0, shard="s1"), ValueError, "ends"),
    "negative-outage": (Crash(30_000.0, outage=-1.0, shard="s1"), ValueError, "ends"),
    "unknown-strategy": (Compromise(30_000.0, "bribe", 1, shard="s1"), ValueError, "bribe"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_entry_is_refused_before_any_event_runs(monkeypatch, case):
    entry, error, message = MALFORMED[case]

    def must_not_start(self, warmup=0.0):
        raise AssertionError("the service was started before its schedule was checked")

    monkeypatch.setattr(ShardedSystem, "start", must_not_start)
    system = scenario.sharded_system(1, 2, protocol="minbft")
    with pytest.raises(error, match=message):
        scenario.open_window(system, [], 20_000.0, 40_000.0, (entry,))
    assert system.sim.events_fired == 0


@pytest.mark.parametrize("entry", [
    Compromise(10, "silent", 0, until=10), Compromise(-1, "silent", 0, until=10), Crash(5, member=4),
], ids=["end-equals-start", "negative-start", "member-out-of-range"])
def test_a_malformed_entry_is_refused_on_a_group(entry):
    sim, group = one_group("pbft")
    with pytest.raises(ValueError):
        FaultPlayer((entry,), sim, {None: group})
    assert sim.events_fired == 0


# ----------------------------------------------------------------------
# A compromise with an end, a crash with an outage
# ----------------------------------------------------------------------
def test_a_compromise_ends_with_its_member_recovered():
    sim, group = one_group()
    player = FaultPlayer((Compromise(10_000, "silent", 0, until=50_000),), sim, {None: group}).arm()
    victim = group.members[0]
    player.run(20_000)
    assert not group.replicas[victim].is_correct
    player.run(60_000)
    assert group.replicas[victim].is_correct  # the attack ended, foothold lost


def test_a_crash_with_an_outage_recovers_its_member():
    sim, group = one_group("cft")
    player = FaultPlayer((Crash(5_000, member=1, outage=25_000),), sim, {None: group}).arm()
    player.run(10_000)
    assert crashed(group.replicas[group.members[1]])
    player.run(40_000)
    assert group.replicas[group.members[1]].is_correct


def test_a_service_survives_an_equivocating_primary_window():
    sim, group = one_group()
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=15_000))
    group.attach_client(client)
    client.start()
    player = FaultPlayer((Compromise(50_000, "equivocate", 0, until=150_000),), sim, {None: group}).arm()
    player.run(400_000)
    assert group.safety.is_safe
    assert client.completed > 200


# ----------------------------------------------------------------------
# The sharded rows of repro.check
# ----------------------------------------------------------------------
def test_a_killed_shard_leaves_every_driver_served_and_the_survivors_safe():
    """C2's failover claim, on four shards and four drivers."""
    name = "sharded/minbft/kill-s1/1"
    trial, result = checks.trial(name)
    check(named(name), result)
    assert trial.system.directory.degraded_shards() == ["s1"]
    assert all(trial.system.shard_safe(s) for s in trial.system.directory.live_shards())


def test_fault_storms_schedule_on_a_sharded_service_is_safe_and_served():
    """Crash the acting primary of ``s0``, turn a backup of ``s2``
    ``equivocate``, kill ``s1``: safe, and every driver served from
    20 s after the kill."""
    name = "sharded/minbft/storm/1"
    trial, result = checks.trial(name)
    check(named(name), result)
    shards = trial.system.shards
    assert crashed(shards["s0"].group.replicas["s0-r0"]) and not shards["s2"].group.replicas["s2-r1"].is_correct
    assert trial.system.directory.degraded_shards() == ["s1"]
    assert trial.system.chip.metrics.counter("s0.view_changes").value >= 1
