"""Crash, recover, crash again: the acting primary twice, never two down at once.

Every family at f = 1 (``view_timeout`` 10 000, two closed-loop clients,
think 100, timeout 5 000).  The acting primary crashes at ``FIRST_CRASH``
and comes back after ``OUTAGES`` — below or above the view timeout, so
the group either waits for it or fails over first.  Whoever leads
``SECOND_AFTER`` later crashes for good, and the run goes on for
``TAIL`` more.  Agreement (``group.safety.is_safe``) must hold in every
run and operations must complete after the second crash.

What this caught in passive replication: a primary that returned after
its backup took over kept a ``role`` of "primary" beside a view that said
otherwise.  It applied no StateUpdates from then on, and once the new
primary crashed it served clients from its stale state — 114 agreement
violations at seed 1 in every long-outage run.  Roles now follow the
view, and a returning primary learns the view from the state it syncs.
The same bug at f = 2 promoted both backups on one primary crash
(:func:`test_one_passive_primary_crash_promotes_one_backup_at_f2`).

One outcome is pinned, not fixed: **PBFT wedges after a short outage**
(strict xfail, ``WEDGED``).  The primary crashes at ``last_executed`` 82
holding ``_next_seq`` 84, and 83 commits without it.  Back up, it
proposes 85–89; every replica buffers them behind 84, which nobody will
propose, and because PBFT drops a request from the pending map when it
commits, nothing stays pending, no view change starts and completions
stop at 83.  Rolling ``_next_seq`` back on recovery instead would let
the recovered primary propose a second request at 83 in the same view,
which needs a fix of its own.

Tier-1 runs seed 1.  CI runs seeds 1–5 through :func:`sweep`.
"""

import functools

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.group import protocol_config_for
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

PROTOCOLS = ["cft", "minbft", "passive", "pbft"]
FIRST_CRASH = 50_000.0
OUTAGES = (5_000.0, 30_000.0)  # below / above the view timeout
SECOND_AFTER = (60_000.0, 150_000.0)  # from the first recovery
TAIL = 300_000.0
VIEW_TIMEOUT = 10_000.0
CASES = [(p, o, s) for p in PROTOCOLS for o in OUTAGES for s in SECOND_AFTER]
# (protocol, outage) that are safe but serve nothing after the recovery.
WEDGED = {("pbft", OUTAGES[0])}


def _build(protocol, seed, f=1):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(
        protocol=protocol, f=f, group_id="g",
        protocol_config=protocol_config_for(protocol, view_timeout=VIEW_TIMEOUT),
    ))
    clients = [ClientNode(f"c{i}", ClientConfig(think_time=100, timeout=5_000)) for i in range(2)]
    for client in clients:
        group.attach_client(client)
        client.start()
    return sim, group, clients


def acting_primary(group):
    """The primary of the highest view a live member holds."""
    return group.context.primary_of(max(r.view for r in group.correct_replicas()))


def run_cycle(protocol, seed, outage, second_after):
    """One crash cycle; returns the group and the completions after the
    second crash."""
    sim, group, clients = _build(protocol, seed)
    sim.run(until=FIRST_CRASH)
    first = acting_primary(group)
    group.crash(first)
    sim.run(until=FIRST_CRASH + outage)
    group.replicas[first].recover()
    second_at = FIRST_CRASH + outage + second_after
    sim.run(until=second_at)
    group.crash(acting_primary(group))
    end = second_at + TAIL
    sim.run(until=end)
    served = sum(client.completions_in(second_at, end) for client in clients)
    return group, served


def sweep(seeds):
    """Every case on ``seeds``: the failures as ``(protocol, outage,
    second_after, seed, safe, served)``.  A pinned case fails when it is
    unsafe or serves after the second crash (strict)."""
    failures = []
    for seed in seeds:
        for protocol, outage, second_after in CASES:
            group, served = run_cycle(protocol, seed, outage, second_after)
            safe = group.safety.is_safe
            if not safe or (served > 0) == ((protocol, outage) in WEDGED):
                failures.append((protocol, outage, second_after, seed, safe, served))
    return failures


@functools.lru_cache(maxsize=None)
def outcome(protocol, outage, second_after):
    """(safe, served) of one seed-1 cycle, shared by the tests below."""
    group, served = run_cycle(protocol, 1, outage, second_after)
    return group.safety.is_safe, served


@pytest.mark.parametrize("protocol,outage,second_after", CASES)
def test_a_crash_cycle_keeps_agreement(protocol, outage, second_after):
    safe, _ = outcome(protocol, outage, second_after)
    assert safe


@pytest.mark.parametrize(
    "protocol,outage,second_after",
    [case for case in CASES if case[:2] not in WEDGED],
)
def test_a_crash_cycle_serves_after_the_second_crash(protocol, outage, second_after):
    _, served = outcome(protocol, outage, second_after)
    assert served > 0


@pytest.mark.xfail(strict=True, reason="finding: a recovered PBFT primary numbers past a seq it never proposed")
@pytest.mark.parametrize("second_after", SECOND_AFTER)
def test_pbft_serves_after_a_short_outage(second_after):
    _, served = outcome("pbft", OUTAGES[0], second_after)
    assert served > 0


def test_one_passive_primary_crash_promotes_one_backup_at_f2():
    sim, group, clients = _build("passive", 1, f=2)
    sim.run(until=FIRST_CRASH)
    group.crash(group.members[0])
    sim.run(until=FIRST_CRASH + 3 * VIEW_TIMEOUT)
    primaries = [r.name for r in group.correct_replicas() if r.is_primary]
    assert primaries == [group.members[1]]
    assert group.chip.metrics.counter("g.promotions").value == 1
    assert group.safety.is_safe
