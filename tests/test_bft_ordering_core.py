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
  **All eight metrics hashes were re-derived once** when the registry
  stopped recording what nothing read (DESIGN §4 *What a record must
  earn*): each new dump is the old one with ``noc.latency``,
  ``g.executions`` and ``g.lease.writes_held`` filtered out, and no
  ``events_fired`` moved.  ``noc.latency`` held one sample per delivered
  packet, which is what made the shared hash a cross-mode check of every
  delivery time; a test-side tap (``tests/noc_loads.py::delivery_log``)
  now records each delivery's packet id, ends and times, and its hash is
  pinned, one for both modes, beside the metrics hash.  **All eight
  were regenerated when each request got its own deadline** (DESIGN §4
  *Who numbers and times a request*): the window-6 clients here used to
  share one timer that every completion restarted; now each request
  expires on its own and a stalled read no longer rotates the primary
  hint.  Completions per client after the crash went up for every
  protocol, most with batching + leases (``pbft`` 159 → 245, ``minbft``
  125 → 219, ``cft`` 145/147 → 238/240, ``passive`` 99/117 → 191/196).
  **The four ``batch+lease`` entries were regenerated when a write came
  to complete on its key holder's licence** (DESIGN §4 *Who holds a
  lease*): the primary orders a write at once, a new primary's quiesce
  holds no write back, and only a write retransmitted past a dead
  holder revokes.  Completions per client after the crash: ``pbft``
  245/245 → 309/280, ``minbft`` 219/219 → 362/368, ``cft`` 238/240 →
  469/475, ``passive`` 191/196 → 282/281; ``g.lease.revoked`` 283 / 322 /
  361 / 215 → 114 / 117 / 308 / 156.  The four plain entries configure no
  leases and did not move.  **The two ``pbft`` entries were regenerated
  when each PBFT copy came to leave as soon as its own MAC is done**
  (DESIGN §4 *When a copy leaves*: one MAC per copy, no event of its
  own): ``events_fired`` 86 290 / 50 577 → 82 306 / 46 308 (plain) and
  74 138 / 43 232 → 67 933 / 38 464 (``batch+lease``), completions per
  client after the crash 386/387 → 387/387 and 309/280 → 266/255; the
  metrics and delivery-log hashes are still one for both modes.  MinBFT,
  CFT and passive never send with a departure ahead and did not move.
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
from tests.noc_loads import delivery_log

CRASH_AT = 120_000.0
RUN_UNTIL = 400_000.0

# (protocol, tuned) -> (events_fired hop by hop, events_fired analytic,
# sha256 of chip.metrics.dump() in both, sha256[:16] of the delivery log
# in both); see the module docstring.
GOLDENS = {
    ("pbft", False): (82306, 46308, "22e42ed637f096ca91e92a72453a11cee7b9e322be26b32913c78e0e93f69486", "35ed9acfa6122163"),
    ("pbft", True): (67933, 38464, "204f58a67b41c7d8d6af560189158273675905c9fcba9544374194970529d91f", "e3bff7f49fe8d5b1"),
    ("minbft", False): (89160, 50716, "323130f1915b0a6d11c77387417398433a633ddd05e623e6aa051ede0a9a2a49", "4bcad2ce88b01da6"),
    ("minbft", True): (59102, 33454, "3be95a3a75a60e16a1cd1fdcdc2e246bcc446240cc3fba73835ffa2be2c9c625", "4e0b95ae824e5bec"),
    ("cft", False): (182504, 98283, "5741e1182fcddbaebf27caf9c450d6ed00cd913666b924c4c48d95bd7df3c266", "8b53ea74925589a8"),
    ("cft", True): (80612, 44331, "c34a44b60d634b958639e4ef8e5312c97e6b8b5c7fe36454bb6a480f1287f7de", "a067023bafb73dd6"),
    ("passive", False): (108335, 62542, "2f3d532eb8c820ea93aeebc4ea83cf2373ddf736ba158faf4f70b980e7a3eb86", "20130e76b42dc381"),
    ("passive", True): (45776, 27350, "bc4d0ae299209bac000c5f9a0ab7590ea200dc5587ab579cbf4be8833f6431c8", "e14cfb15ce5f9e14"),
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
    deliveries = delivery_log(chip)
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
    return sim, chip, group, deliveries


@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "batch+lease"])
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_golden_run_through_primary_crash(protocol, tuned):
    hop_by_hop, analytic, metrics_hash, deliveries_hash = GOLDENS[(protocol, tuned)]
    for express, events in ((False, hop_by_hop), (True, analytic)):
        sim, chip, group, deliveries = run_through_primary_crash(protocol, tuned, express)
        dump = json.dumps(chip.metrics.dump(), sort_keys=True)
        observed = (
            sim.events_fired,
            hashlib.sha256(dump.encode()).hexdigest(),
            hashlib.sha256(repr(deliveries).encode()).hexdigest()[:16],
        )
        # The scenario must exercise what it pins: service before and after
        # the failover, safely.
        assert group.safety.is_safe
        assert all(client.completions_in(CRASH_AT, RUN_UNTIL) > 0 for client in group.clients)
        assert any(replica.view > 0 for replica in group.correct_replicas())
        assert observed == (events, metrics_hash, deliveries_hash), f"express_routing={express}"


PLUMBING = (
    "_ensure_timer",
    "_on_progress_timeout",
    "_note_pending",
    "_note_executed",
    "_handle_request",
    "_admit_ordered",
    "_repropose_pending",
    "_execute",  # where every family's checkpoint is taken
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
