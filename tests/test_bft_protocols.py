"""Integration tests: the four protocol families over the NoC.

Each test builds a chip, a replica group, and a closed-loop client, then
exercises a protocol property end-to-end (normal case, crash failover,
Byzantine behaviour, state sync, dedup, checkpoints).
"""

import dataclasses

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.pbft import PbftReplica, required_replicas as pbft_n
from repro.bft.messages import MbViewChange
from repro.bft.minbft import MinBftConfig, _ui_payload, required_replicas as minbft_n
from repro.bft.cft import required_replicas as cft_n
from repro.bft.passive import PassiveConfig, required_replicas as passive_n
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def build(protocol, f=1, seed=1, width=5, height=5, client_cfg=None, protocol_config=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=width, height=height))
    group = build_group(
        chip,
        GroupConfig(protocol=protocol, f=f, group_id="g", protocol_config=protocol_config),
    )
    client = ClientNode("c0", client_cfg or ClientConfig(think_time=50, timeout=20_000))
    group.attach_client(client)
    return sim, chip, group, client


# ----------------------------------------------------------------------
# Replica-count arithmetic (the paper's §III headline)
# ----------------------------------------------------------------------
def test_replica_requirements():
    assert [pbft_n(f) for f in (1, 2, 3)] == [4, 7, 10]
    assert [minbft_n(f) for f in (1, 2, 3)] == [3, 5, 7]
    assert [cft_n(f) for f in (1, 2, 3)] == [3, 5, 7]
    assert [passive_n(f) for f in (1, 2, 3)] == [2, 3, 4]


def test_wrong_group_size_rejected():
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    from repro.bft.replica import GroupContext
    from repro.bft import KeyValueStore, SafetyRecorder
    from repro.crypto import KeyStore

    context = GroupContext(
        "g", ["a", "b", "c"], 1, KeyValueStore, KeyStore(), SafetyRecorder(), chip.metrics
    )
    with pytest.raises(ValueError):
        PbftReplica("a", context)  # PBFT f=1 needs 4, not 3


# ----------------------------------------------------------------------
# Normal-case commits for every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_normal_case_commits_and_safety(protocol):
    sim, chip, group, client = build(protocol)
    client.config.max_requests = 50
    client.start()
    sim.run(until=1_500_000)
    assert client.completed == 50
    assert group.safety.is_safe
    # Every correct replica executed every operation (within the horizon).
    for replica in group.correct_replicas():
        assert replica.last_executed == 50


@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_app_state_converges_across_replicas(protocol):
    sim, chip, group, client = build(protocol)
    client.config.max_requests = 30
    client.start()
    sim.run(until=1_500_000)
    digests = {r.app.state_digest() for r in group.correct_replicas()}
    assert len(digests) == 1


def test_latency_ordering_between_families():
    means = {}
    for protocol in ["passive", "cft", "minbft", "pbft"]:
        sim, chip, group, client = build(protocol, seed=7)
        client.config.max_requests = 60
        client.start()
        sim.run(until=2_000_000)
        means[protocol] = sum(client.latencies) / len(client.latencies)
    assert means["passive"] < means["cft"] < means["minbft"] < means["pbft"]


# ----------------------------------------------------------------------
# Crash faults / failover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_primary_crash_liveness_restored(protocol):
    sim, chip, group, client = build(protocol)
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.run(until=3_000_000)
    assert client.completed > 100
    assert group.safety.is_safe
    assert client.timeouts >= 1  # the failover was visible, then recovered


def test_pbft_tolerates_f_backup_crashes_without_timeout():
    sim, chip, group, client = build("pbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[3])  # a backup
    sim.run(until=1_000_000)
    assert client.completed > 100
    assert client.timeouts == 0  # masked seamlessly (§II.A active replication)
    assert group.safety.is_safe


def test_minbft_tolerates_backup_crash_seamlessly():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[2])
    sim.run(until=1_000_000)
    assert client.completed > 100
    assert client.timeouts == 0
    assert group.safety.is_safe


def test_passive_failover_gap_visible():
    sim, chip, group, client = build(
        "passive",
        client_cfg=ClientConfig(think_time=50, timeout=5_000),
    )
    client.start()
    sim.schedule_at(100_000, group.crash, group.members[0])
    sim.run(until=1_000_000)
    assert client.completed > 100
    gap = client.max_completion_gap(50_000, 1_000_000)
    assert gap > 5_000  # the §II.A "not seamless" gap
    assert group.replicas[group.members[1]].role == "primary"
    assert group.safety.is_safe


def test_crash_beyond_f_stalls_bft():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.schedule_at(40_000, group.crash, group.members[1])  # 2 > f=1
    sim.run(until=500_000)
    before = client.completed
    sim.run(until=1_000_000)
    assert client.completed == before  # no quorum, no progress
    assert group.safety.is_safe  # but still safe


# ----------------------------------------------------------------------
# Byzantine faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
@pytest.mark.parametrize("attack", ["silent", "corrupt", "equivocate"])
def test_byzantine_primary_safety_and_liveness(protocol, attack):
    sim, chip, group, client = build(protocol)
    client.start()
    strategy = make_strategy(attack, sim.rng.stream("atk"))
    sim.schedule_at(40_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=3_000_000)
    assert group.safety.is_safe
    assert client.completed > 100  # view change restored liveness


def test_byzantine_backup_masked():
    sim, chip, group, client = build("pbft")
    client.start()
    strategy = make_strategy("corrupt", sim.rng.stream("atk"))
    sim.schedule_at(40_000, strategy.activate, group.replicas[group.members[2]])
    sim.run(until=1_000_000)
    assert group.safety.is_safe
    assert client.completed > 150


def test_minbft_equivocation_detected_by_usig():
    """An equivocating primary cannot get conflicting ops committed."""
    sim, chip, group, client = build("minbft")
    client.start()
    strategy = make_strategy("equivocate", sim.rng.stream("atk"))
    sim.schedule_at(30_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=2_000_000)
    assert group.safety.is_safe


def test_minbft_runs_one_senders_ui_messages_in_counter_order():
    """A backup holds a gap back until it closes, drops a replay, and
    takes the first counter it hears from a sender as that sender's
    stream head (here 3, not 1)."""
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="minbft", f=1, group_id="g"))
    _, me, sender = group.members
    backup = group.replicas[me]
    ran = []
    backup._ui_handlers[MbViewChange] = lambda s, m: ran.append((s, m.ui.counter))
    usig = group.replicas[sender].usig
    usig.create_ui(b"spent")
    usig.create_ui(b"spent")
    messages = []
    for view in (1, 2, 3):
        unsigned = MbViewChange(view, 0, sender, None)
        messages.append(dataclasses.replace(unsigned, ui=usig.create_ui(_ui_payload(unsigned))))
    c = messages[0].ui.counter
    assert c == 3
    for message in (messages[0], messages[2], messages[0], messages[1]):
        backup.deliver(sender, message)
    sim.run(until=sim.now + 1_000)
    assert ran == [(sender, c), (sender, c + 1), (sender, c + 2)]


# ----------------------------------------------------------------------
# Request deduplication and retransmission
# ----------------------------------------------------------------------
def test_retransmitted_requests_execute_once():
    sim, chip, group, client = build("minbft", client_cfg=ClientConfig(think_time=50, timeout=800))
    # Aggressive timeout: the client retransmits even when things work.
    client.config.max_requests = 20
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 20
    replica = group.replicas[group.members[1]]
    assert replica.app.ops_executed == 20  # not inflated by retries
    assert group.safety.is_safe


# ----------------------------------------------------------------------
# PBFT checkpoints
# ----------------------------------------------------------------------
def test_pbft_checkpoint_truncates_log(monkeypatch):
    monkeypatch.setattr(PbftReplica, "CHECKPOINT_INTERVAL", 10)
    sim, chip, group, client = build("pbft")
    client.config.max_requests = 40
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 40
    for replica in group.replicas.values():
        assert replica._stable_seq >= 30
        assert all(seq > replica._stable_seq for _, seq in replica._slots)


# ----------------------------------------------------------------------
# State sync
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_recovered_replica_catches_up(protocol):
    sim, chip, group, client = build(protocol)
    client.start()
    victim = group.members[1]
    sim.schedule_at(40_000, group.crash, victim)
    sim.schedule_at(240_000, group.replicas[victim].recover)
    sim.run(until=2_000_000)
    assert group.safety.is_safe
    recovered = group.replicas[victim]
    leader = max(r.last_executed for r in group.correct_replicas())
    assert recovered.last_executed >= leader - 20  # caught up (modulo in-flight)
    assert recovered.state_syncs >= 1


def test_client_view_tracking_follows_primary():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.run(until=2_000_000)
    # After failover the client should address the new primary directly.
    assert client.primary_name != group.members[0]
