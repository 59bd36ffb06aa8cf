"""Critical path first: what the primary does first, and which votes are dropped.

Two rules (DESIGN §4, *What the primary does first, and which votes are
read and dropped*):

* **(1)** a committed batch frees its window slot — and may cut and
  propose the next batch — before its executions are charged, so the
  next PRE-PREPARE / PREPARE leaves ahead of the replies;
* **(2)** a PBFT replica reads a PREPARE / COMMIT's header before paying
  for its MAC and drops it unverified when its slot's verified votes plus
  the matching votes queued on the core already meet the quorum it would
  count toward.

The unit tests drive one backup of a 4-replica PBFT group by hand and
read the core's reservations (``Node._busy_until``): a dropped vote costs
``handle_message``, a verified one ``handle_message + mac_verify``.

The Byzantine sweeps run whole groups (``byzantine/...`` scenarios of
``repro.check``) with one strategy on the primary or a backup.  They found the view-change holes that the
last section pins: what a PBFT VIEW-CHANGE reports and what NEW-VIEW
re-proposes, and where a MinBFT NEW-VIEW starts (DESIGN §4, *Simplified
view changes*).
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.messages import (
    ClientReply,
    ClientRequest,
    Commit,
    MbNewView,
    MbPrepare,
    MbViewChange,
    PrePrepare,
    Prepare,
    ViewChange,
    proposal_digest,
    proposal_keys,
)
from repro.check.suites import STRATEGIES
from repro.faults.byzantine import _tamper
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from tests import checks


# ----------------------------------------------------------------------
# Rule (2), by hand: one backup, one slot, votes delivered at t = 0
# ----------------------------------------------------------------------
class Backup:
    """Backup ``r1`` of a fresh PBFT group (f = 1, n = 4) with slot (0, 1)
    bound to a pre-prepare and its own PREPARE sent — the state a backup
    is in right after it accepted the proposal.  The handlers of PREPARE
    and COMMIT are counted, then run as usual."""

    def __init__(self):
        self.sim = Simulator(seed=3)
        chip = Chip(self.sim, ChipConfig(width=5, height=5))
        self.group = build_group(chip, GroupConfig(protocol="pbft", f=1, group_id="g"))
        self.primary, self.me, self.r2, self.r3 = self.group.members
        self.replica = replica = self.group.replicas[self.me]
        request = ClientRequest("c0", 1, ("put", "k", 1))
        self.digest = proposal_digest(request)
        self.slot = replica._slot(0, 1)
        replica._bind(self.slot, PrePrepare(0, 1, self.digest, request))
        self.slot.prepare_sent = True
        self.slot.prepares.add(self.me)
        self.handled = []
        handlers = replica._verified_handlers
        for kind in (Prepare, Commit):
            handlers[kind] = self._counting(handlers[kind])

    def _counting(self, handler):
        def spy(sender, message):
            self.handled.append((sender, message))
            handler(sender, message)
        return spy

    def prepare(self, sender, replica=None, view=0, digest=None):
        return Prepare(view, 1, digest or self.digest, replica or sender)

    def commit(self, sender, replica=None, view=0, digest=None):
        return Commit(view, 1, digest or self.digest, replica or sender)

    def deliver(self, *votes):
        """Deliver ``(sender, vote)`` pairs now, in order, on an idle core,
        and return the core time their receive steps reserved, MAC checks
        included."""
        replica, sim = self.replica, self.sim
        assert replica._busy_until <= sim.now
        start = sim.now
        for sender, vote in votes:
            replica.deliver(sender, vote)
        # Every receive step runs at the end of its handle_message charge;
        # stop there, before any continuation it scheduled fires.
        sim.run(until=start + len(votes) * replica.costs.handle_message)
        return replica._busy_until - start

    def settle(self):
        self.sim.run(until=self.sim.now + 100_000)


@pytest.fixture
def backup():
    return Backup()


def test_a_vote_arriving_after_its_slot_is_certified_costs_only_its_receive(backup):
    costs = backup.replica.costs
    backup.slot.commit_sent = True  # prepared: every further PREPARE is moot
    assert backup.deliver((backup.r2, backup.prepare(backup.r2))) == costs.handle_message
    backup.slot.committed = True  # committed: every further COMMIT is moot
    # No mac_verify reserved for either.
    assert backup.deliver((backup.r3, backup.commit(backup.r3))) == costs.handle_message
    backup.settle()
    assert backup.handled == []  # neither handler ran
    assert backup.slot.prepares == {backup.me} and backup.slot.commits == set()


def test_a_vote_short_of_quorum_counting_queued_votes_is_verified_and_counted(backup):
    """r2's PREPARE is short of quorum (r1 + the pre-prepare) and is queued;
    r3's, delivered right behind it, is moot *because* r2's is queued —
    nothing has been verified when it is read."""
    costs, slot = backup.replica.costs, backup.slot
    busy = backup.deliver(
        (backup.r2, backup.prepare(backup.r2)), (backup.r3, backup.prepare(backup.r3))
    )
    assert busy == 2 * costs.handle_message + costs.mac_verify  # one MAC check
    assert slot.prepares == {backup.me} and slot.prepares_queued == {backup.r2}
    backup.settle()
    assert [sender for sender, _ in backup.handled] == [backup.r2]
    assert slot.prepares == {backup.me, backup.r2} and slot.commit_sent

    # Commits: r1's own, then the primary's and r2's queued, r3's moot.
    backup.handled.clear()
    backup.deliver(
        (backup.primary, backup.commit(backup.primary)),
        (backup.r2, backup.commit(backup.r2)),
        (backup.r3, backup.commit(backup.r3)),
    )
    assert slot.commits_queued == {backup.primary, backup.r2}
    backup.settle()
    assert [sender for sender, _ in backup.handled] == [backup.primary, backup.r2]
    assert slot.committed and backup.replica.last_executed == 1


def test_a_vote_with_another_digest_is_never_queued_and_never_makes_a_genuine_one_moot(backup):
    """An equivocator's PREPARE, tampered the way ``equivocate`` tampers,
    reaches the core first.  Were it counted as queued, r2's genuine vote
    would look moot, be dropped, and the slot would never prepare."""
    slot = backup.slot
    lie = _tamper(backup.prepare(backup.r3), salt=1)
    assert lie.digest != backup.digest
    backup.deliver((backup.r3, lie), (backup.r2, backup.prepare(backup.r2)))
    assert slot.prepares_queued == {backup.r2}
    backup.settle()
    assert [sender for sender, _ in backup.handled] == [backup.r3, backup.r2]
    assert slot.prepares == {backup.me, backup.r2} and slot.commit_sent


@pytest.mark.parametrize("case", ["wrong-view", "view-change", "sender-is-not-replica"])
def test_a_vote_the_triage_cannot_vouch_for_takes_the_verify_path(backup, case):
    costs, slot = backup.replica.costs, backup.slot
    slot.commit_sent = slot.committed = True  # a matching vote would be moot
    prepare, commit = backup.prepare(backup.r2), backup.commit(backup.r2)
    if case == "wrong-view":
        prepare, commit = backup.prepare(backup.r2, view=1), backup.commit(backup.r2, view=1)
    elif case == "view-change":
        backup.replica._in_view_change = True
    else:
        prepare = backup.prepare(backup.r2, replica=backup.r3)
        commit = backup.commit(backup.r2, replica=backup.r3)
    busy = backup.deliver((backup.r2, prepare), (backup.r2, commit))
    assert busy == 2 * (costs.handle_message + costs.mac_verify)
    backup.settle()
    assert [message for _, message in backup.handled] == [prepare, commit]
    assert not slot.prepares_queued and not slot.commits_queued


def test_a_non_member_vote_is_dropped_before_the_triage_as_before(backup):
    costs = backup.replica.costs
    stranger = "c0"
    busy = backup.deliver((stranger, backup.prepare(stranger)), (stranger, backup.commit(stranger)))
    assert busy == 2 * costs.handle_message
    backup.settle()
    assert backup.handled == []
    assert not backup.slot.prepares_queued and not backup.slot.commits_queued


# ----------------------------------------------------------------------
# Rule (2), whole runs: every Byzantine strategy, several seeds
# ----------------------------------------------------------------------
# ``byzantine/...`` scenarios (``repro.check``): a batched group under two
# open-loop clients, one strategy on member 0 (the primary) or 2 from
# 30 s.  On PBFT every vote the triage reads is checked as it is read:
# one it queues or drops must match its slot's pre-prepare, or the run
# counts a violation.
def test_fault_free_runs_drop_votes_and_stay_safe():
    trial, result = checks.trial("byzantine/pbft/none@2/1")
    assert result.safe
    assert all(client.completed > 200 for client in trial.clients)
    assert {kind for _, kind in trial.dropped} == {"Prepare", "Commit"}
    assert {name for name, _ in trial.dropped} == set(trial.group.members)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_byzantine_backup_keeps_pbft_safe_and_committing(strategy, seed):
    """A Byzantine voter: the triage reads its lies, drops, and delays."""
    result = checks.outcome(f"byzantine/pbft/{strategy}@2/{seed}")
    assert result.safe and not result.stalled


@pytest.mark.parametrize(
    "strategy, seed",
    [(strategy, seed) for strategy in STRATEGIES for seed in (1, 2, 3, 4, 5)]
    + [("drop", 9), ("drop", 344)],
)
@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
def test_the_group_survives_every_byzantine_primary(protocol, strategy, seed):
    """Safe and committing under a Byzantine proposer.  Under
    ``equivocate`` each backup binds another digest, so the other backups'
    votes never match it.  Under ``drop``, PBFT seeds 5 and 9 broke
    agreement while a new primary re-assigned the number of a reported
    slot whose body it lacked, and seed 344 does when a VIEW-CHANGE leaves
    out executed slots; MinBFT seeds 2 and 4 did while a new primary
    numbered from its own execution point (DESIGN §4, *Simplified view
    changes*)."""
    result = checks.outcome(f"byzantine/{protocol}/{strategy}@0/{seed}")
    assert result.safe and not result.stalled


# ----------------------------------------------------------------------
# The view change: what VIEW-CHANGE reports, what NEW-VIEW re-proposes
# ----------------------------------------------------------------------
def test_a_view_change_reports_a_slot_committed_behind_a_gap(backup):
    """Seq 1 executed, seq 2 never seen, seq 3 committed and waiting on 2,
    seq 4 prepared.  The VIEW-CHANGE carries the PRE-PREPARE of all three:
    3 as well as 4, or the new primary re-assigns 3 while correct replicas
    hold its commit, and 1 too, since the new primary may be behind."""
    replica = backup.replica
    backup.slot.commit_sent = backup.slot.committed = True
    replica.last_executed = 1
    reported = [backup.slot.pre_prepare]
    for seq, committed in ((3, True), (4, False)):
        request = ClientRequest("c0", seq, ("put", "k", seq))
        slot = replica._slot(0, seq)
        replica._bind(slot, PrePrepare(0, seq, proposal_digest(request), request))
        slot.prepare_sent = slot.commit_sent = True
        slot.committed = committed
        reported.append(slot.pre_prepare)
    replica._suspect(1)
    assert replica._view_change_votes[1][backup.me].prepared == tuple(reported)


def install_view_2(backup, reports):
    """Deliver to the view-2 primary one VIEW-CHANGE per ``(sender,
    reported PRE-PREPARE)``, in order; with the second it joins, and its
    own vote completes the 2f+1 that installs the view.  Returns what it
    re-proposed at seq 1."""
    new_primary = backup.group.replicas[backup.r2]
    for sender, reported in reports:
        new_primary._record_view_change_vote(sender, ViewChange(2, (reported,), sender))
    assert new_primary.view == 2
    return new_primary._slots[(2, 1)].pre_prepare


def test_a_new_view_re_proposes_the_binding_prepared_in_the_highest_view(backup):
    """Seq 1 was prepared for one request in view 0 and for another in
    view 1; the view-0 report arrives first.  Only the view-1 binding can
    have committed, so that is the one NEW-VIEW carries."""
    old, new = (ClientRequest("c0", rid, ("put", "k", rid)) for rid in (1, 2))
    chosen = install_view_2(
        backup,
        [
            (backup.primary, PrePrepare(0, 1, proposal_digest(old), old)),
            (backup.me, PrePrepare(1, 1, proposal_digest(new), new)),
        ],
    )
    assert chosen == PrePrepare(2, 1, proposal_digest(new), new)


def test_a_reported_body_that_does_not_match_its_digest_is_no_report(backup):
    honest, forged = (ClientRequest("c0", rid, ("put", "k", rid)) for rid in (1, 2))
    chosen = install_view_2(
        backup,
        [
            (backup.primary, PrePrepare(0, 1, proposal_digest(honest), honest)),
            (backup.me, PrePrepare(1, 1, proposal_digest(honest), forged)),
        ],
    )
    assert chosen.request is honest


def test_a_new_primary_re_proposes_a_request_it_bound_in_the_old_view(backup):
    """r1, the view-1 primary, bound c0's request in view 0, where it never
    prepared: no VIEW-CHANGE reports it.  Entering view 1, r1 must order it
    again, not skip it as already being ordered in the dead view."""
    request = backup.slot.pre_prepare.request
    backup.replica._note_pending(request)
    for name in (backup.me, backup.r2, backup.r3):
        backup.group.replicas[name]._suspect(1)
    backup.settle()
    assert backup.replica._slots[(1, 1)].pre_prepare.request is request
    assert all(replica.last_executed == 1 for replica in backup.group.replicas.values())


def test_a_new_minbft_primary_starts_the_view_where_its_quorum_executed():
    """Seed 2's view change by hand: r1, the view-1 primary, executed to
    67, and the VIEW-CHANGEs that install the view report 67 and 71.
    NEW-VIEW starts at 71, r1 catches up by state transfer, and its first
    fresh PREPARE takes 72, not 68."""
    sim = Simulator(seed=3)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol="minbft", f=1, group_id="g"))
    r0, r1, r2 = group.members
    primary = group.replicas[r1]
    primary.last_executed = 67
    sent = []
    primary.broadcast = lambda dsts, message, size_bytes=64: sent.append(message)
    for sender, executed in ((r0, 67), (r2, 71)):
        # Recorded as if received: the UI was checked on the way in.
        primary._record_view_change_vote(sender, MbViewChange(1, executed, sender, None))
    assert primary.view == 1 and primary.syncing
    assert [m.start_seq for m in sent if type(m) is MbNewView] == [71]
    primary._admit_ordered(ClientRequest("c0", 1, ("put", "k", 1)))
    sim.run(until=sim.now + 1_000)
    assert [m.exec_seq for m in sent if type(m) is MbPrepare] == [72]


# ----------------------------------------------------------------------
# Rule (1): the next proposal leaves before the committed batch's replies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol, proposal_kind", [("pbft", PrePrepare), ("minbft", MbPrepare)])
def test_the_next_proposal_leaves_before_the_replies_of_the_committed_batch(
    protocol, proposal_kind
):
    sim = Simulator(seed=5)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    config = protocol_config_for(
        protocol, batching=BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=1)
    )
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=config))
    client = ClientNode("c0", ClientConfig(think_time=50, timeout=20_000, max_outstanding=12))
    group.attach_client(client)
    primary = group.replicas[group.members[0]]
    sent = []  # (departure, message) the primary put on the wire
    cuts = []  # (executed proposal, proposal cut while executing it)
    executing = []

    def send(dst, message, size_bytes=64):
        sent.append((sim.now, message))
        return type(primary).send(primary, dst, message, size_bytes)

    def broadcast(dsts, message, size_bytes=64, depart_at=None):
        sent.append((sim.now if depart_at is None else depart_at[0], message))
        return type(primary).broadcast(primary, dsts, message, size_bytes, depart_at)

    def execute(seq, digest, proposal):
        executing.append(proposal)
        type(primary)._execute(primary, seq, digest, proposal)
        executing.pop()

    def order(proposal):
        if executing:
            cuts.append((executing[-1], proposal))
        return type(primary)._order_proposal(primary, proposal)

    # The batcher holds the propose callback it was built with.
    primary.send, primary.broadcast = send, broadcast
    primary._execute, primary.batcher._propose = execute, order
    client.start()
    sim.run(until=200_000)

    assert client.completed > 100
    assert len(cuts) > 10, "the scenario must pool requests while a batch is out"
    for committed, proposal in cuts:
        keys = set(proposal_keys(committed))
        replies = [
            t for t, m in sent if type(m) is ClientReply and (m.client, m.rid) in keys
        ]
        leaves = [t for t, m in sent if type(m) is proposal_kind and m.request is proposal]
        assert replies and leaves
        assert leaves[0] < min(replies)
