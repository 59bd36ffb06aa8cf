"""A message is measured once — and what was measured never goes stale.

``repro.bft.messages`` keeps a request's payload size and a batch's digest
on the (immutable) message object after the first computation.  These tests
pin the contract around that:

* the kept value equals a fresh computation, and is invisible to ``==``,
  ``hash``, ``repr`` and the dataclass fields;
* ``dataclasses.replace`` — how Byzantine strategies tamper and how the
  router turns a read into an ordered request — yields a copy that measures
  itself again;
* one agreement round walks each payload and digests each proposal once,
  whatever the number of replicas;
* the O(1) bookkeeping that rides along (PBFT's slot lookup, lazily bound
  metric handles) keeps its observable behaviour.
"""

import dataclasses
import hashlib
import inspect

import pytest

import repro.bft.messages as messages
import repro.crypto.mac as mac
from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.messages import (
    ClientRequest,
    PrePrepare,
    RequestBatch,
    proposal_digest,
    proposal_keys,
    requests_of,
)
from repro.faults.byzantine import _tamper
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

from tests.test_bft_messages import all_messages, make_ui


def sample_batch():
    return RequestBatch(
        tuple(ClientRequest("c0", rid, ("put", f"k{rid}", "v" * rid)) for rid in range(1, 5))
    )


def every_message():
    batch = sample_batch()
    return all_messages() + [
        batch,
        PrePrepare(0, 2, proposal_digest(batch), batch),
        messages.MbPrepare(0, batch, proposal_digest(batch), make_ui(), 2),
        messages.Append(0, 2, batch, "r0"),
        messages.StateUpdate(2, batch, None, b"\x00" * 32),
        messages.LeaseGrant("r0", 0, 1, (0, 1, 2), 15_000.0),
        messages.LeaseRevoke("r0", 0, 1, (1,)),
        messages.LeaseRevokeAck("r1", 0, 1, (1,)),
        messages.ReadNack("r1", "c0", 7),
        messages.LeaderElect(1, "r1"),
        messages.LeaderElectAck(1, "r1", "r2"),
    ]


def fresh(message):
    """An equal message object on which nothing was computed yet."""
    return dataclasses.replace(message)


def _hash_or_none(obj):
    try:
        return hash(obj)
    except TypeError:  # a field holds a dict (StateResponse)
        return None


def reference_digest(proposal):
    """``proposal_digest`` as the parent commit computed it on every call."""
    if isinstance(proposal, RequestBatch):
        return mac.digest(
            tuple(mac.digest((r.client, r.rid, r.op)) for r in proposal.requests)
        )
    return mac.digest((proposal.client, proposal.rid, proposal.op))


# ----------------------------------------------------------------------
# (a) kept facts equal fresh ones and do not show
# ----------------------------------------------------------------------
def test_every_message_dataclass_has_a_sample():
    declared = {
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == messages.__name__
    }
    assert declared == {type(m) for m in every_message()}


@pytest.mark.parametrize("message", every_message(), ids=lambda m: type(m).__name__)
def test_measuring_changes_nothing_observable(message):
    untouched = fresh(message)
    before = (repr(message), _hash_or_none(message), dataclasses.fields(message))
    first = message.wire_size()
    assert message.wire_size() == first == untouched.wire_size()
    if isinstance(message, (ClientRequest, RequestBatch)):
        assert proposal_digest(message) == proposal_digest(message) == reference_digest(untouched)
        assert proposal_keys(message) == tuple(r.key() for r in requests_of(untouched))
    assert (repr(message), _hash_or_none(message), dataclasses.fields(message)) == before
    assert message == untouched and repr(message) == repr(untouched)
    assert not any(f.name.startswith("_") for f in dataclasses.fields(message))


def test_requests_of_and_keys_match_the_definition():
    bare, batch = ClientRequest("c9", 3, ("get", "k")), sample_batch()
    assert requests_of(bare) == (bare,) and requests_of(batch) == batch.requests
    assert proposal_keys(bare) == (("c9", 3),)
    assert proposal_keys(batch) == (("c0", 1), ("c0", 2), ("c0", 3), ("c0", 4))


# ----------------------------------------------------------------------
# (b) a tampered or re-flagged copy measures itself again
# ----------------------------------------------------------------------
def test_replace_does_not_inherit_the_wire_size():
    request = ClientRequest("router0", 4, ("put", "k", "v"))
    size = request.wire_size()
    assert "_wire_size" in vars(request)
    bigger = dataclasses.replace(request, op=("put", "k", "v" * 100))
    assert "_wire_size" not in vars(bigger)
    assert bigger.wire_size() == size + 99 and request.wire_size() == size
    # The router's read -> ordered fallback: same payload, a new object.
    ordered = dataclasses.replace(request, read_only=False, lease_read=False)
    assert "_wire_size" not in vars(ordered) and ordered.wire_size() == size


def test_replace_does_not_inherit_the_batch_digest():
    batch = sample_batch()
    digest = proposal_digest(batch)
    assert "_proposal_digest" in vars(batch)
    forged = dataclasses.replace(
        batch, requests=batch.requests[:-1] + (ClientRequest("c0", 4, ("put", "k4", "evil")),)
    )
    assert "_proposal_digest" not in vars(forged)
    assert proposal_digest(forged) == reference_digest(forged) != digest
    assert proposal_digest(batch) == digest


def test_tampered_pre_prepare_is_still_caught_by_the_digest_check():
    batch = sample_batch()
    honest = PrePrepare(0, 1, proposal_digest(batch), batch)
    for salt in range(8):
        forged = _tamper(honest, salt)
        assert forged is not honest and forged.digest != honest.digest
        # What a backup checks: the carried proposal against the claimed digest.
        assert proposal_digest(forged.request) != forged.digest
        assert proposal_digest(honest.request) == honest.digest


# ----------------------------------------------------------------------
# (c) one agreement round measures each message once
# ----------------------------------------------------------------------
class Calls:
    """Wrap a module-level function; remember every argument it saw."""

    def __init__(self, monkeypatch, module, name):
        self.seen = []
        original = getattr(module, name)

        def wrapper(arg):
            self.seen.append(arg)  # the reference keeps id() unique
            return original(arg)

        monkeypatch.setattr(module, name, wrapper)

    def per_object(self, keep):
        counts = {}
        for arg in self.seen:
            if keep(arg):
                counts[id(arg)] = counts.get(id(arg), 0) + 1
        return counts


def run_batched_round(protocol, monkeypatch, n_requests=4):
    sized = Calls(monkeypatch, messages, "_op_size")
    digested = Calls(monkeypatch, messages, "_digest")
    serialized = Calls(monkeypatch, mac, "canonical_bytes")
    monkeypatch.setattr(mac, "_DIGEST_MEMO", {})  # other tests digested equal payloads
    sim = Simulator(seed=5)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    config = protocol_config_for(
        protocol, batching=BatchConfig(batch_size=n_requests, batch_delay=500.0, max_inflight=2)
    )
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, protocol_config=config))
    client = ClientNode(
        "c0", ClientConfig(think_time=50, max_outstanding=n_requests, max_requests=n_requests)
    )
    group.attach_client(client)
    client.start()
    sim.run(until=30_000.0)
    assert client.completed == n_requests and group.safety.is_safe
    assert chip.metrics.histogram("g0.batch.size").values() == [float(n_requests)]
    return group, sized, digested, serialized


def is_kv_op(arg):
    return type(arg) is tuple and bool(arg) and arg[0] in ("put", "get", "del", "cas")


@pytest.mark.parametrize("protocol, replicas", [("pbft", 4), ("minbft", 3)])
def test_one_batch_round_measures_each_message_once(protocol, replicas, monkeypatch):
    group, sized, digested, serialized = run_batched_round(protocol, monkeypatch)
    assert len(group.members) == replicas
    # Payload walks: each request's op exactly once, however many layers
    # and replicas asked for its size (client, batcher, proposal, ...).
    per_op = sized.per_object(is_kv_op)
    assert len(per_op) == 4 and set(per_op.values()) == {1}
    # Digests: each request once and the batch once — not once per replica.
    payloads = digested.seen
    assert len(payloads) == 4 + 1
    assert len({repr(p) for p in payloads}) == len(payloads)
    # Serializations behind those digests: one per distinct payload.  (USIG
    # bindings are serialized by their creator and by each verifier: a
    # replica's slot log keeps certificates, so nothing is kept on them.)
    hashed = [p for p in serialized.seen if any(p is q for q in payloads)]
    assert len(hashed) == len(payloads)
    bindings = [p for p in serialized.seen if not any(p is q for q in payloads)]
    assert (protocol == "minbft") == bool(bindings)


def test_the_tracer_bind_points_still_see_every_digest(monkeypatch):
    """benchmarks/perf/trace.py patches ``repro.bft.messages._digest`` by
    name; kept digests must be computed *through* that name."""
    seen = []
    monkeypatch.setattr(messages, "_digest", lambda payload: seen.append(payload) or b"\x01" * 32)
    batch = sample_batch()
    assert proposal_digest(batch) == b"\x01" * 32 == proposal_digest(batch)
    assert len(seen) == len(batch) + 1
    assert proposal_digest(ClientRequest("c", 1, ("get", "k"))) == b"\x01" * 32


# ----------------------------------------------------------------------
# (d) PBFT's slot lookup still creates
# ----------------------------------------------------------------------
def test_pbft_slot_lookup_is_get_or_create(big_chip):
    group = build_group(big_chip, GroupConfig(protocol="pbft", f=1))
    replica = group.replicas[group.members[1]]
    assert (0, 7) not in replica._slots
    slot = replica._slot(0, 7)
    assert replica._slots[(0, 7)] is slot is replica._slot(0, 7)
    assert slot.pre_prepare is None and not slot.prepares and not slot.commits
    # The empty slot is what the view-change scan and truncation iterate.
    replica._suspect(1)
    assert replica._view_change_votes[1][replica.name].prepared == ()
    replica._truncate_log(7)
    assert (0, 7) not in replica._slots


# ----------------------------------------------------------------------
# (e) metric handles are bound on first use, not ahead of it
# ----------------------------------------------------------------------
# sha256 of "\n".join(sorted(metrics.dump())) and the name count, captured
# at parent commit a527176 with the same code below, and re-derived once
# when the names nothing read were deleted (DESIGN §4 *What a record must
# earn*): the parent's names minus ``noc.latency``, ``<gid>.executions``,
# ``<gid>.lease.writes_held`` and ``mesoscale.<pop>.*``.  An eagerly bound
# handle adds a zero-valued name and moves these (and every byte-stable
# campaign summary with them) — as would counting a batch of drops with
# ``counter(name).inc(n)`` when ``n`` may be zero, hence ``never_moved``:
# the one name that may sit at zero is the one ``NocNetwork.__init__`` binds
# and these runs never reach.
THROUGHPUT_NAMES = {
    "pbft": (4, "5522a2ee1475ba6a"),
    "minbft": (4, "5522a2ee1475ba6a"),
    "cft": (4, "5522a2ee1475ba6a"),
    "passive": (5, "13c2e3a708bdcc43"),
}
SHARDED_NAMES = (35, "a0e8b5b601c4c94d")
ZERO_BY_DESIGN = ["noc.dropped"]


def names_fingerprint(metrics):
    names = sorted(metrics.dump())
    return len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


def never_moved(metrics):
    """Names registered without anything ever being recorded under them."""
    return [
        name for name, entry in metrics.dump().items()
        if not (entry.get("value") or entry.get("peak") or entry.get("values")
                or entry.get("samples"))
    ]


@pytest.mark.parametrize("protocol", sorted(THROUGHPUT_NAMES))
def test_throughput_smoke_registers_the_same_metric_names(protocol):
    """The `throughput` campaign's trial (campaign/runners.py), shortened."""
    from repro.bft.client import ClientConfig as Cfg
    from repro.core import OrchestratorConfig, ResilientSystem

    system = ResilientSystem(OrchestratorConfig(seed=3, protocol=protocol, f=1, width=6, height=6))
    system.add_client("c0", Cfg(think_time=100.0))
    system.start(warmup=50_000.0)
    system.run(30_000.0)
    assert system.is_safe
    assert names_fingerprint(system.chip.metrics) == THROUGHPUT_NAMES[protocol], sorted(
        system.chip.metrics.dump()
    )
    assert never_moved(system.chip.metrics) == ZERO_BY_DESIGN


def test_sharded_smoke_registers_the_same_metric_names():
    """Router, population and lease handles: a two-shard leased service in
    which one shard is killed, so some handles are never reached."""
    from repro.bft.leases import LeaseConfig
    from repro.mesoscale import PopulationConfig
    from repro.shard import ShardConfig, ShardedSystem
    from repro.workloads import kv_workload

    system = ShardedSystem(ShardConfig(
        seed=3, width=8, height=8, n_shards=2, protocol="minbft", f=1,
        enable_rejuvenation=False, directory_salt=2,
        protocol_config=protocol_config_for(
            "minbft", batching=BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=4),
            leases=LeaseConfig(),
        ),
    ))
    system.attach_population("pop", PopulationConfig(
        n_clients=1000, tick=100.0, max_inflight=16, queue_limit=64,
        workload=kv_workload(keys=32, read_ratio=0.5, rate_per_client=0.00004),
    ))
    system.start(warmup=60_000.0)
    system.run(20_000.0)
    system.kill_shard("s1")
    system.run(40_000.0)
    assert names_fingerprint(system.chip.metrics) == SHARDED_NAMES, sorted(
        system.chip.metrics.dump()
    )
    # A write completes on its key holder's licence: revocations are the
    # slow path only (a retransmitted write), and this run retransmits none.
    revoked = ["s0.lease.revoked", "s1.lease.revoked"]
    assert never_moved(system.chip.metrics) == sorted(ZERO_BY_DESIGN + revoked)
