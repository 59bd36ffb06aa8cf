"""One checkpoint rule for every family, and the state transfer that ships it.

Every ``CHECKPOINT_INTERVAL`` executions a member records its checkpoint
(the state right after that seq and its offer digest) and keeps the log it
executes above it.  A lagging member asks every peer and takes only what
``state_sync_quorum`` answers vouch for: the checkpoint they share, then
each next seq they shipped under one digest.  Its round stays open while
the peers yet to answer could still vouch for something.  So:

* a MinBFT member behind a group that keeps executing converges (the
  rejuvenated MinBFT service used to leave two of three members
  ``syncing`` for the last 460 000 sim-ms of its window);
* one Byzantine responder can make a member adopt neither its forged
  checkpoint nor its forged log entry, nor void the round by answering
  first;
* two first answers on either side of a checkpoint leave the round open
  for the third, which completes it;
* a round that moved nothing starts no other sooner than
  ``SYNC_RETRY_AFTER`` after it began.
"""

import copy

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import ClientRequest, StateRequest, StateResponse, proposal_digest
from repro.bft.replica import BaseReplica
from repro.campaign import scenario
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

PROTOCOLS = ["pbft", "minbft", "cft", "passive"]


def build(protocol, n_requests=0):
    """A group of ``protocol`` at f = 1 and a closed-loop client, run until
    its ``n_requests`` completed: (sim, group)."""
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=50, timeout=20_000, max_requests=n_requests))
    group.attach_client(client)
    if n_requests:
        client.start()
        sim.run(until=5_000_000)
        assert client.completed == n_requests
    return sim, group


def answer(responder, have_seq):
    """What ``responder`` answers a member at ``have_seq``."""
    sent = []
    responder.send = lambda dst, message, size_bytes: sent.append(message)
    responder._handle_state_request("g-r3", StateRequest("g-r3", have_seq))
    del responder.send
    (response,) = sent
    return response


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_member_checkpoints_every_interval_and_logs_what_it_executes_above(protocol):
    _, group = build(protocol, n_requests=100)
    interval = BaseReplica.CHECKPOINT_INTERVAL
    digests = set()
    for replica in group.replicas.values():
        assert replica.last_executed == 100
        assert replica._checkpoint[0] == interval
        assert sorted(replica._executed_log) == list(range(interval + 1, 101))
        digests.add(replica._checkpoint_digest())
    assert len(digests) == 1  # every member vouches for the same state


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_checkpoint_digest_equals_the_full_recomputation_at_every_checkpoint(
    protocol, monkeypatch
):
    """A member's checkpoint digest serializes each ledger entry once
    across its checkpoints (``CheckpointDigests``); at every checkpoint of
    every member — taken in order, or adopted from a state import — it
    is ``offer_digest`` recomputed over the whole export.  Two clients
    fill the ledger; a backup down for 30 000 sim-ms comes back behind a
    checkpoint and imports one."""
    imported, seen = [], {"taken": 0, "imported": 0}
    record, import_state = BaseReplica._record_checkpoint, BaseReplica.import_state

    def checked(self):
        record(self)
        state = self._checkpoint[2]
        assert self._checkpoint_digest() == self._offer_digest_of(state), (self.name, state["last_executed"])
        seen["imported" if self in imported else "taken"] += 1

    def importing(self, state):
        imported.append(self)
        import_state(self, state)
        imported.remove(self)

    monkeypatch.setattr(BaseReplica, "_record_checkpoint", checked)
    monkeypatch.setattr(BaseReplica, "import_state", importing)
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g"))
    for name in ("c0", "c1"):
        client = ClientNode(name, ClientConfig(think_time=50, timeout=20_000))
        group.attach_client(client)
        client.start()
    lagging = group.replicas[group.members[-1]]
    sim.schedule_at(10_000.0, lagging.crash)
    sim.schedule_at(40_000.0, lagging.recover)
    sim.run(until=120_000.0)
    ahead = max(r.last_executed for r in group.replicas.values())
    assert ahead - lagging.last_executed < BaseReplica.CHECKPOINT_INTERVAL
    assert seen["taken"] >= 2 * len(group.members) and seen["imported"] >= 1, seen


def test_a_response_ships_the_state_only_to_a_member_behind_the_checkpoint():
    _, group = build("pbft", n_requests=70)
    responder = group.replicas["g-r1"]
    behind, past = answer(responder, 10), answer(responder, 66)
    assert (behind.checkpoint_seq, past.checkpoint_seq) == (64, 64)
    assert behind.checkpoint_digest == past.checkpoint_digest == responder._checkpoint_digest()
    assert behind.state is not None and past.state is None
    assert [seq for seq, _, _ in behind.log] == list(range(65, 71))
    assert [seq for seq, _, _ in past.log] == list(range(67, 71))
    # What it ships is what it costs: the snapshot, the ledger, each proposal.
    assert behind.wire_size() > past.wire_size() + 200
    bodies = sum(proposal.wire_size() for _, _, proposal in past.log)
    assert past.wire_size() > bodies > 0


def deliver(member, *answers):
    """Hand ``answers`` to ``member`` inside one open round, in order; True
    when the round is still open after the last."""
    member.syncing = True
    for response in answers:
        assert member.syncing  # no earlier answer closed the round
        member._handle_state_response(response.replica, response)
    return member.syncing


def test_one_responder_can_plant_neither_a_checkpoint_nor_a_log_entry():
    """At f = 1 a member takes what 2 responders vouch for.  A liar ships
    a checkpoint forged to match its own digest and a log entry for seq 65
    whose body matches its own digest; it answers first, so a copy taken
    on one answer would be its, and a round closed on the first two
    answers would take nothing."""
    _, donors = build("pbft", n_requests=70)
    liar, honest, other = (donors.replicas[name] for name in ("g-r0", "g-r1", "g-r2"))
    _, group = build("pbft")
    member = group.replicas["g-r3"]

    forged_state = copy.deepcopy(honest._checkpoint[2])
    forged_state["snapshot"]["k0"] = "forged"
    forged_body = ClientRequest("c0", 65, ("put", "k0", "forged"))
    forged_entry = (65, proposal_digest(forged_body), forged_body)

    def lie(have_seq):
        true = answer(liar, have_seq)
        return StateResponse(
            liar.name, true.view, 64, member._offer_digest_of(forged_state),
            forged_state if have_seq < 64 else None, (forged_entry,) + true.log[1:],
        )

    # At 0: the forged checkpoint is named once, the true one once, so the
    # round waits; the third answer vouches for the true one and its log.
    assert deliver(member, lie(0), answer(honest, 0))
    assert member.last_executed == 0 and member.app.get_local("k0") is None
    assert not deliver(member, answer(other, 0))
    assert member.last_executed == 70
    assert member.app.get_local("k0") == honest.app.get_local("k0") != "forged"

    # At 64 (a fresh member adopts the true checkpoint): seq 65 is shipped
    # under two digests, one each, so neither runs until the third answer.
    _, group = build("pbft")
    member = group.replicas["g-r3"]
    member.import_state(honest._checkpoint[2])
    assert member.last_executed == 64
    assert deliver(member, lie(64), answer(honest, 64))
    assert member.last_executed == 64
    assert member.app.get_local("k0") != "forged"
    assert not deliver(member, answer(other, 64))
    assert member.last_executed == 70
    assert member.export_state()["snapshot"] == honest.export_state()["snapshot"]
    assert member.group.safety.is_safe


def test_first_answers_across_a_checkpoint_leave_the_round_open_for_the_third():
    """PBFT n = 4, a member at 100.  The first answer comes from a peer at
    127 (checkpoint 64, log 65–127), the second from one at 129
    (checkpoint 128, log 129): neither checkpoint 128 nor seq 101 has two
    vouchers.  The third peer, also at 129, completes the round."""
    _, behind = build("pbft", n_requests=127)
    _, ahead = build("pbft", n_requests=129)
    _, group = build("pbft", n_requests=100)
    member = group.replicas["g-r3"]
    first = answer(behind.replicas["g-r0"], 100)
    second, third = (answer(ahead.replicas[name], 100) for name in ("g-r1", "g-r2"))
    assert (first.checkpoint_seq, second.checkpoint_seq) == (64, 128)
    assert deliver(member, first, second)
    assert member.last_executed == 100
    assert not deliver(member, third)
    assert member.last_executed == 129 and member.state_syncs == 1
    assert member.export_state()["snapshot"] == ahead.replicas["g-r1"].export_state()["snapshot"]


def test_a_round_nobody_else_can_complete_closes_on_the_answers_it_has():
    """Two current peers answer a current member: nothing is named above
    it and the one peer left could vouch for nothing alone, so the round
    closes without waiting for it."""
    _, group = build("pbft", n_requests=70)
    member = group.replicas["g-r3"]
    assert not deliver(member, *(answer(group.replicas[name], 70) for name in ("g-r0", "g-r1")))
    assert member.last_executed == 70 and member.state_syncs == 0


def test_a_round_that_moved_nothing_starts_no_other_before_the_retry_time():
    sim, group = build("minbft", n_requests=10)
    member = group.replicas["g-r2"]
    requests = []
    broadcast = member.broadcast
    member.broadcast = lambda dsts, message, size_bytes=64: (
        requests.append(sim.now) if type(message) is StateRequest else None,
        broadcast(dsts, message, size_bytes),
    )
    began = sim.now
    member.request_state_sync()
    sim.run(until=began + 1_000)
    assert requests == [began] and not member.syncing  # answered: nothing to take
    for _ in range(3):
        member.request_state_sync()  # asks again at once: it waits
    sim.run(until=began + BaseReplica.SYNC_RETRY_AFTER - 1)
    assert requests == [began]
    sim.run(until=began + BaseReplica.SYNC_RETRY_AFTER + 1_000)
    assert requests == [began, began + BaseReplica.SYNC_RETRY_AFTER]
    assert not member.syncing and member.state_syncs == 0


def test_a_rejuvenated_minbft_service_ends_its_window_with_no_member_syncing():
    """The default rejuvenation policy over one MinBFT group at f = 1 and
    two closed-loop clients.  Before a lagging member could take the
    checkpoint a quorum shares, r0 stayed syncing at 286 and r2 at 218
    while r1 sat at 296: 285 ops in the window, none for its last
    460 000 sim-ms."""
    system, clients = scenario.resilient_service(
        3, 2, {"think_time": 100.0}, True, protocol="minbft"
    )
    window = scenario.open_window(system, clients, 50_000.0, 600_000.0).run()
    replicas = system.group.replicas.values()
    assert not any(replica.syncing for replica in replicas)
    assert system.is_safe
    times = sorted(
        t for client in clients for t in client._completion_times if window.start <= t < window.end
    )
    edges = [window.start] + times + [window.end]
    assert max(b - a for a, b in zip(edges, edges[1:])) < 60_000
    assert scenario.window_stats(window)["ops"] > 3 * 285


@pytest.mark.xfail(strict=True, reason=(
    "finding (ROADMAP items 14 and 5): MinBFT with the default rejuvenation policy and three "
    "closed-loop clients stops serving for good at ~210 000 sim-ms"
))
def test_a_rejuvenated_minbft_service_keeps_serving_three_clients():
    """The system above with a third client.  It serves 350 ops in the
    window (2 308 with rejuvenation off), nothing after ≈ 210 000, and
    ends safe in view 2 with ``last_executed`` [350, 350, 362]: r2 alone
    executed 351–362, and no f + 1 peers can vouch for those seqs.
    Seeds 1–6 give the same; two clients serve 1 069."""
    system, clients = scenario.resilient_service(
        3, 3, {"think_time": 100.0}, True, protocol="minbft"
    )
    scenario.open_window(system, clients, 50_000.0, 600_000.0).run()
    assert system.is_safe
    assert all(client.completions_in(550_000.0, 650_000.0) > 0 for client in clients)
