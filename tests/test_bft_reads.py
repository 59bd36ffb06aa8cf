"""Tests for the read-only fast path."""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.app import KeyValueStore
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import FactoryWorkload


def is_read(op):
    return isinstance(op, tuple) and op and op[0] in ("get", "read", "command")


def mixed_ops(i):
    if i % 2 == 0:
        return ("put", f"k{i % 8}", i)
    return ("get", f"k{(i - 1) % 8}")


def build(protocol="minbft", f=1, seed=1, predicate=is_read, ops=mixed_ops):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol=protocol, f=f, group_id="g"))
    client = ClientNode(
        "c0",
        ClientConfig(
            think_time=50,
            timeout=10_000,
            workload=FactoryWorkload(ops, reads=predicate),
        ),
    )
    group.attach_client(client)
    return sim, chip, group, client


def test_state_machines_reject_non_reads():
    with pytest.raises(ValueError):
        KeyValueStore().read(("put", "k", 1))


def test_state_machine_reads_answer_without_mutation():
    kv = KeyValueStore()
    kv.execute(("put", "k", 7))
    before = kv.state_digest()
    assert kv.read(("get", "k")) == 7
    assert kv.state_digest() == before


@pytest.mark.parametrize("protocol", ["minbft", "pbft", "cft"])
def test_reads_return_committed_values(protocol):
    sim, chip, group, client = build(protocol=protocol)
    client.config.max_requests = 40
    client.start()
    sim.run(until=1_000_000)
    assert client.completed == 40
    assert client.fast_reads_completed == 20  # every get took the fast path
    assert group.safety.is_safe
    # Reads never entered the ordered log:
    leader = max(r.last_executed for r in group.correct_replicas())
    assert leader == 20  # only the 20 puts were ordered


def test_reads_are_cheaper_than_writes():
    sim, chip, group, client = build(protocol="minbft")
    client.config.max_requests = 60
    client.start()
    sim.run(until=1_000_000)
    lats = client.latencies
    write_lats = lats[0::2]
    read_lats = lats[1::2]
    assert sum(read_lats) / len(read_lats) < 0.7 * sum(write_lats) / len(write_lats)


def test_read_quorum_defeats_lying_replica():
    """One Byzantine replica answering reads with junk cannot fool the
    client: f+1 matching replies require at least one correct replica."""
    sim, chip, group, client = build(protocol="minbft")
    client.config.max_requests = 40
    liar = group.replicas[group.members[2]]

    from repro.bft.messages import ClientReply
    import dataclasses

    def lie(dst, message):
        if isinstance(message, ClientReply):
            return dataclasses.replace(message, result="FORGED")
        return message

    liar.compromise()
    liar.add_outbound_filter(lie)
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 40
    assert group.safety.is_safe
    # The forged value never completed a read: verify final state.
    kv = group.replicas[group.members[0]].app
    assert kv.get_local("k0") != "FORGED"


def test_read_falls_back_to_ordered_path_when_stalled():
    """If too few replicas can serve the fast path, the client falls back
    to ordered execution and still completes."""
    sim, chip, group, client = build(protocol="minbft")
    client.config.max_requests = 10
    # Crash one replica and make another deaf to read requests only:
    # a single read server cannot produce f+1 matching replies, so reads
    # stall and fall back to the ordered path (where the deaf replica
    # still participates normally).
    from repro.bft.messages import ClientRequest

    group.crash(group.members[2])

    def drop_reads(sender, message):
        if isinstance(message, ClientRequest) and message.read_only:
            return None
        return message

    group.replicas[group.members[1]].add_inbound_filter(drop_reads)
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 10
    assert client.read_fallbacks > 0
    assert group.safety.is_safe


def test_pure_read_workload_needs_no_ordering():
    sim, chip, group, client = build(
        protocol="minbft", ops=lambda i: ("get", "missing")
    )
    client.config.max_requests = 25
    client.start()
    sim.run(until=500_000)
    assert client.completed == 25
    assert all(r.last_executed == 0 for r in group.replicas.values())


def test_non_read_marked_read_only_is_refused():
    """A buggy/malicious client marking a write read_only gets no fast
    answer (replicas refuse) and completes via fallback without mutating
    state twice."""
    sim, chip, group, client = build(
        protocol="minbft",
        predicate=lambda op: True,  # claims EVERYTHING is a read
        ops=lambda i: ("put", "k", i),
    )
    client.config.max_requests = 5
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 5
    assert client.read_fallbacks == 5
    kv = group.replicas[group.members[0]].app
    assert kv.ops_executed == 5  # each put executed exactly once
    assert group.safety.is_safe
