"""The shared ordering core (``BaseReplica``): golden behaviour, one copy.

Two guards for ``repro.bft.replica`` owning admission, the progress
timer, the batch/lease install and the era change for every protocol:

* **Goldens** — each protocol, plain and with batching + leases, runs one
  seeded group through a primary crash; ``sim.events_fired`` and a sha256
  of the full metrics dump are pinned.  Any change to what the ordering
  path schedules, sends or counts moves them.  The constants were
  **captured at parent commit 07fb3a5** (four hand-kept copies of the
  plumbing) and must not be regenerated by a refactor — a PR that means
  to change ordering behaviour updates them knowingly and says so.
* **No re-forking** — the plumbing names live in ``replica.py`` only.
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
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

CRASH_AT = 120_000.0
RUN_UNTIL = 400_000.0

# (protocol, tuned) -> (sim.events_fired, sha256 of chip.metrics.dump()).
# Captured at parent commit 07fb3a5; see the module docstring.
GOLDENS = {
    ("pbft", False): (64219, "99595f6b957083d705211ba4a6737ad7d3c3c46992d7a59bff05563221e55547"),
    ("pbft", True): (34143, "11789730df5a8517dd2b0ad786a7160fe6d0093f92a0ab2486b22d5ebf3b2450"),
    ("minbft", False): (66035, "e73d5acdb437960c3f69f0595bb7492da66ce8a1d0d8139b19fe782f3511095e"),
    ("minbft", True): (37425, "ee2cef14bf496f0cd4cccef7f7258cddc433846325ff1075a48ebe9eec6bdf1c"),
    ("cft", False): (148654, "d5220defb1b926b3c60488e2c759dc63a20d07b4e1e806fdbf051027b2e1266d"),
    ("cft", True): (60484, "970cce5bed1c76d38a5bb0738a380e6236e3e7d1b058e532c2203f4b61aae34d"),
    ("passive", False): (80629, "249c5b08c218f6f5a0b35694d6884781ea6d86f0540f142913c8117ddbf988be"),
    ("passive", True): (35438, "32a54cb0bae6bec9be74f7cc15f8edadf4e07c92f44ec701a8d28eba8513d6bf"),
}


def run_through_primary_crash(protocol, tuned):
    config = None
    if tuned:
        config = protocol_config_for(
            protocol,
            batching=BatchConfig(batch_size=8, batch_delay=100.0, max_inflight=4),
            leases=LeaseConfig(),
        )
    sim = Simulator(seed=14)
    chip = Chip(sim, ChipConfig(width=5, height=5))
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
                read_only_predicate=lambda op: op[0] == "get",
            ),
        )
        group.attach_client(client)
        client.start()
    sim.schedule(CRASH_AT, group.crash, group.members[0])
    sim.run(until=RUN_UNTIL)
    return sim, chip, group


@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "batch+lease"])
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_golden_run_through_primary_crash(protocol, tuned, monkeypatch):
    monkeypatch.delenv("REPRO_CONSENSUS_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BFT_LEASES", raising=False)
    sim, chip, group = run_through_primary_crash(protocol, tuned)
    dump = json.dumps(chip.metrics.dump(), sort_keys=True)
    observed = (sim.events_fired, hashlib.sha256(dump.encode()).hexdigest())
    # The scenario must exercise what it pins: service before and after
    # the failover, safely.
    assert group.safety.is_safe
    assert all(client.completions_in(CRASH_AT, RUN_UNTIL) > 0 for client in group.clients)
    assert any(replica.view > 0 for replica in group.correct_replicas())
    assert observed == GOLDENS[(protocol, tuned)]


PLUMBING = (
    "_ensure_timer",
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
