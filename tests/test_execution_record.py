"""A replica records each executed request once: its execution ledger.

The ledger answers both "was it executed?" and "what did it return?" for
the requests in its window (256 rids a client); a re-sent reply is built
from it at send, under the sender's own name and view, and a state offer's
digest covers it with the app state.  So:

* a retransmit of any request in the window is answered by every member,
  not only of the newest 64 (the size of the reply cache the ledger
  replaced);
* after a state transfer the importer answers under its own name — a
  reply under the donor's name is one the client drops from anyone else;
* a state offer whose ledger was tampered with is not adopted while an
  honest matching offer exists.
"""

import copy

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import ClientReply, ClientRequest, StateRequest, StateResponse
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

PROTOCOLS = ["pbft", "minbft", "cft", "passive"]


def build(protocol, n_requests=0, seed=1):
    """A group of ``protocol`` at f = 1 and one window-4 client, run until
    its ``n_requests`` completed: (group, client)."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=50, timeout=20_000,
                                           max_requests=n_requests, max_outstanding=4))
    group.attach_client(client)
    if n_requests:
        client.start()
        sim.run(until=5_000_000)
        assert client.completed == n_requests
    return group, client


def capture(replica):
    """Record what ``replica`` sends from now on instead of sending it."""
    sent = []
    replica.send = lambda dst, message, size_bytes: sent.append((dst, message))
    return sent


def retransmit(replica, rid):
    """Hand ``replica`` a retransmit of c0's request ``rid``; what it sends."""
    sent = capture(replica)
    replica.on_message("c0", ClientRequest("c0", rid, ("get", "k0")))
    return sent


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_retransmit_far_behind_the_newest_rid_is_answered_by_every_member(protocol):
    group, client = build(protocol, n_requests=200)
    for behind in (65, 130, 199):
        rid = 199 - behind
        answers = {name: retransmit(group.replicas[name], rid) for name in group.members}
        results = set()
        for name, sent in answers.items():
            assert len(sent) == 1, (name, rid, sent)
            dst, reply = sent[0]
            assert dst == "c0" and isinstance(reply, ClientReply)
            assert (reply.replica, reply.rid) == (name, rid)
            results.add(repr(reply.result))
        assert len(results) == 1  # every member recorded the same result


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_after_a_state_import_a_resent_reply_carries_the_importer_name_and_view(protocol):
    donor_group, _ = build(protocol, n_requests=20)
    donor = donor_group.replicas[donor_group.members[1]]
    group, _ = build(protocol)
    importer = group.replicas[group.members[-1]]
    importer.view = 3
    importer.import_state(donor.export_state())
    for rid in (0, 19):
        sent = retransmit(importer, rid)
        assert len(sent) == 1
        reply = sent[0][1]
        assert (reply.replica, reply.view) == (importer.name, importer.view)
        assert reply.result == donor._executed.lookup("c0", rid)[1]


def tamper_result(state):
    recent = state["executed_requests"]["c0"]["recent"]
    rid, _ = recent[-1]
    recent[-1] = (rid, "forged")


def tamper_entry(state):
    del state["executed_requests"]["c0"]["recent"][-2]  # "not executed": run it twice


@pytest.mark.parametrize("tamper", [tamper_result, tamper_entry])
@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
def test_an_offer_with_a_tampered_ledger_is_not_adopted(protocol, tamper):
    donor_group, _ = build(protocol, n_requests=20)
    liar, honest = (donor_group.replicas[name] for name in donor_group.members[:2])
    sent = capture(honest)
    honest._handle_state_request(liar.name, StateRequest(liar.name, 0))
    (_, offer), = sent
    forged = copy.deepcopy(offer.state)
    tamper(forged)
    group, _ = build(protocol)
    importer = group.replicas[group.members[2]]
    importer.syncing = True
    # The liar echoes the honest key and sorts first among the senders.
    assert liar.name < honest.name
    importer._handle_state_response(
        liar.name, StateResponse(liar.name, offer.last_executed, offer.state_digest, forged)
    )
    importer._handle_state_response(honest.name, offer)
    assert importer.last_executed == offer.last_executed
    assert importer.export_state()["executed_requests"] == offer.state["executed_requests"]
