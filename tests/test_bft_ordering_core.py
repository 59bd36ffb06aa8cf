"""The shared ordering core (``BaseReplica``): golden behaviour, one copy.

Two guards for ``repro.bft.replica`` owning admission, the progress
timer, the batch/lease install and the era change for every protocol:

* **Goldens** — each protocol, plain and with batching + leases, runs one
  seeded group through a primary crash; ``sim.events_fired`` and a sha256
  of the full metrics dump are pinned.  Any change to what the ordering
  path schedules, sends or counts moves them.  They must not be
  regenerated by a refactor — a PR that means to change ordering
  behaviour updates them knowingly and says so.  Captured at 07fb3a5
  (four hand-kept copies of the plumbing); **regenerated once, in PR 17**,
  which changed same-instant order on purpose (NoC events fire after the
  instant's other events, oldest packet first: DESIGN §5) — under
  ``express_routing=False``, and pinned in both NoC modes: one metrics
  hash for the two, one ``events_fired`` each (a hop-by-hop packet is one
  event per hop, an analytic one ≈ one event).  **PR 23 regenerated the
  three ``batch+lease`` entries of the leader protocols**, having changed
  when a partial batch is cut on purpose (only into an empty pipeline:
  DESIGN §4); the plain entries and ``passive`` did not move.  **PR 24
  regenerated all four ``batch+lease`` entries**, having given every key
  one leaseholder on purpose (a write revokes at most that one: DESIGN §4
  *Who holds a lease*); the four plain entries configure no leases and
  did not move.  **Three were regenerated next** — ``pbft`` plain and
  ``batch+lease``, ``minbft`` ``batch+lease`` — having put the critical
  path first on purpose (DESIGN §4 *What the primary does first*): a
  committed batch proposes the next one before its executions are
  charged, and a PBFT vote whose quorum is met is dropped unverified.
  CFT and passive charge no core time to propose and did not move.
  **The two ``pbft`` entries were regenerated again** when a VIEW-CHANGE
  came to carry the PRE-PREPARE of every prepared slot in its log, bodies
  included (DESIGN §4 *Simplified view changes*); nothing else moved.
* **No re-forking** — the plumbing names live in ``replica.py`` only,
  the stall rule (``_on_progress_timeout``) among them.
"""

import hashlib
import json

import pytest

import repro.bft.app
import repro.bft.messages
import repro.bft.replica
from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.cft import CftReplica
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.bft.minbft import MinBftReplica
from repro.bft.pbft import PbftReplica
from repro.bft.replica import BaseReplica
from repro.noc import NocConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import AlternatingKV, FactoryWorkload

CRASH_AT = 120_000.0
RUN_UNTIL = 400_000.0

# (protocol, tuned) -> (events_fired hop by hop, events_fired analytic,
# sha256 of chip.metrics.dump() in both); see the module docstring.
GOLDENS = {
    ("pbft", False): (84776, 49704, "0a58d05975c881f6175f22a6a32310e37793435580b3b39c43646193f49b36bc"),
    ("pbft", True): (60597, 34398, "13649294fb5bce79006314eb48370038900a02f92c8cdb0e97ae1b0d19d71d04"),
    ("minbft", False): (88418, 50319, "2f9f136ceba860c64b0707cba3117cc11049fa27c29e534968ce387b49386870"),
    ("minbft", True): (51070, 28392, "f406ff84136b65b2dfa5ee4f5866e691095e98e7a40a5817c7d3b95b117920ab"),
    ("cft", False): (182496, 98807, "6524073198b22399161cb832d8ffcd9f8315ef146ea5ab7055bbcfd7fa5b5b8f"),
    ("cft", True): (69882, 37640, "36009fc69831d87e84779f16e6c6c555200361b78e9934afbece76dcf8e04930"),
    ("passive", False): (108096, 62635, "9d0b71c1c3bd440bc17222979e80d1fd68fe16b328e3d2ab020a219214e531d6"),
    ("passive", True): (45478, 26785, "cbb45bf9d4cb36893b2f41999de5efc3834de2646b88d078850da51c96850a93"),
}


def run_through_primary_crash(protocol, tuned, express):
    config = None
    if tuned:
        config = protocol_config_for(
            protocol,
            batching=BatchConfig(batch_size=8, batch_delay=100.0, max_inflight=4),
            leases=LeaseConfig(),
        )
    sim = Simulator(seed=14)
    chip = Chip(sim, ChipConfig(width=5, height=5, noc=NocConfig(express_routing=express)))
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=config)
    )
    for i in range(2):
        client = ClientNode(
            f"c{i}",
            ClientConfig(
                think_time=50,
                timeout=20_000,
                max_outstanding=6,
                workload=FactoryWorkload(AlternatingKV().op, reads=lambda op: op[0] == "get"),
            ),
        )
        group.attach_client(client)
        client.start()
    sim.schedule(CRASH_AT, group.crash, group.members[0])
    sim.run(until=RUN_UNTIL)
    return sim, chip, group


@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "batch+lease"])
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_golden_run_through_primary_crash(protocol, tuned):
    hop_by_hop, analytic, metrics_hash = GOLDENS[(protocol, tuned)]
    for express, events in ((False, hop_by_hop), (True, analytic)):
        sim, chip, group = run_through_primary_crash(protocol, tuned, express)
        dump = json.dumps(chip.metrics.dump(), sort_keys=True)
        observed = (sim.events_fired, hashlib.sha256(dump.encode()).hexdigest())
        # The scenario must exercise what it pins: service before and after
        # the failover, safely.
        assert group.safety.is_safe
        assert all(client.completions_in(CRASH_AT, RUN_UNTIL) > 0 for client in group.clients)
        assert any(replica.view > 0 for replica in group.correct_replicas())
        assert observed == (events, metrics_hash), f"express_routing={express}"


PLUMBING = (
    "_ensure_timer",
    "_on_progress_timeout",
    "_note_pending",
    "_note_executed",
    "_handle_request",
    "_admit_ordered",
    "_repropose_pending",
)


@pytest.mark.parametrize("replica_cls", [PbftReplica, MinBftReplica, CftReplica])
def test_protocols_do_not_refork_the_plumbing(replica_cls):
    forked = [name for name in PLUMBING if name in vars(replica_cls)]
    assert not forked, f"{replica_cls.__name__} re-defines core plumbing: {forked}"
    assert all(name in vars(BaseReplica) for name in PLUMBING)


def test_out_of_tree_tracer_bind_points(big_chip):
    """``benchmarks/perf/trace.py`` patches these three names by module
    attribute and files event handlers under a layer by the *owner's*
    ``type(...).__module__`` — so the names must exist and a protocol's
    handlers must stay bound to protocol-module instances."""
    assert callable(repro.bft.replica.payload_digest)
    assert callable(repro.bft.app.payload_digest)
    assert callable(repro.bft.messages._digest)
    group = build_group(big_chip, GroupConfig(protocol="pbft", f=1, group_id="g"))
    replica = group.replicas[group.members[0]]
    for handler in (replica.on_message, replica._handle_request, replica._order_proposal):
        assert type(handler.__self__).__module__ == "repro.bft.pbft"
