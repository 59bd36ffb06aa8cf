"""Crash, recover, crash again: the acting primary twice, never two down at once.

Every family at f = 1 (``view_timeout`` 10 000, two closed-loop clients,
think 100, timeout 5 000): the ``crash-cycles/...`` scenarios of
``repro.check``.  The acting primary crashes at 50 s and comes back after
``OUTAGES`` — below or above the view timeout, so the group either waits
for it or fails over first.  Whoever leads ``SECOND_AFTER`` later
crashes for good, and the run goes on for 300 s more.  Agreement must
hold in every run and operations must complete after the second crash.

What this caught in passive replication: a primary that returned after
its backup took over kept a ``role`` of "primary" beside a view that said
otherwise.  It applied no StateUpdates from then on, and once the new
primary crashed it served clients from its stale state — 114 agreement
violations at seed 1 in every long-outage run.  Roles now follow the
view, and a returning primary learns the view from the state it syncs.
The same bug at f = 2 promoted both backups on one primary crash
(:func:`test_one_passive_primary_crash_promotes_one_backup_at_f2`).

**PBFT wedged after a short outage** until a restarted primary learned
to step aside (ROADMAP item 14 (a)).  The primary crashed at
``last_executed`` 82 holding ``_next_seq`` 84, and 83 committed without
it.  Back up, it proposed 85–89; every replica buffered them behind 84,
which nobody would propose, and because PBFT drops a request from the
pending map when it commits, nothing stayed pending, no view change
started and completions stopped at 83.  Rolling ``_next_seq`` back would
let it propose a second request at 83 in the same view.  Instead it
proposes nothing until its recovery sync settles, and if it still holds
a ``_next_seq`` past what the group executed, it asks for the next view
(Castro–Liskov proactive recovery).

A schedule entry may fire at any sim-ms: ``.../5000+60000@49540/<seed>``
moves the first crash to 49 540, inside a PRE-PREPARE's MAC vector, and
the second crash follows it by the same outage + 60 000.

Tier-1 runs seed 1.  CI runs seeds 1–5 as the ``crash-cycles`` campaign.
"""

import dataclasses

import pytest

from repro.bft.messages import ClientRequest
from repro.check import Crash, Trial, scenario
from tests import checks

PROTOCOLS = ["cft", "minbft", "passive", "pbft"]
OUTAGES = (5_000.0, 30_000.0)  # below / above the view timeout
SECOND_AFTER = (60_000.0, 150_000.0)  # from the first recovery
CASES = [(p, o, s) for p in PROTOCOLS for o in OUTAGES for s in SECOND_AFTER]
#: The short-outage PBFT cycle with its first crash inside a PRE-PREPARE's
#: MAC vector (see the test that asks for the next view).
LOST_SLOT = "crash-cycles/pbft/5000+60000@49540/1"


def named(protocol, outage, second_after, seed=1):
    return f"crash-cycles/{protocol}/{outage:g}+{second_after:g}/{seed}"


@pytest.mark.parametrize("protocol,outage,second_after", CASES)
def test_a_crash_cycle_keeps_agreement(protocol, outage, second_after):
    assert checks.outcome(named(protocol, outage, second_after)).safe


@pytest.mark.parametrize("protocol,outage,second_after", CASES)
def test_a_crash_cycle_serves_after_the_second_crash(protocol, outage, second_after):
    assert not checks.outcome(named(protocol, outage, second_after)).stalled


@pytest.mark.parametrize("second_after", SECOND_AFTER)
def test_pbft_serves_after_a_short_outage(second_after):
    """The primary crashed holding ``_next_seq`` past what the group
    executed; back up, it asks for the next view instead of proposing."""
    assert not checks.outcome(named("pbft", OUTAGES[0], second_after)).stalled


def test_a_restarted_pbft_primary_asks_for_the_next_view_before_it_proposes():
    """The short-outage primary refuses to order while its recovery sync
    runs, asks for view 1 itself once the sync settles, well inside a view
    timeout, and sends no PRE-PREPARE between its return and that ask.

    The first crash is moved to 49 540, while the primary computes the
    MACs of the PRE-PREPARE it numbered at 49 533 (seq 85, copies due at
    49 593 / 49 633 / 49 673): all three are withdrawn, so the group never
    sees seq 85 and the restarted primary holds a slot it cannot fill."""
    crash_at = 49_540.0
    trial = Trial(scenario(LOST_SLOT))
    primary = trial.group.replicas[trial.group.members[0]]
    proposed, asked, ordered = [], [], []
    multicast, suspect = primary._auth_multicast, primary._suspect
    primary._auth_multicast = lambda m: (proposed.append((trial.sim.now, type(m).__name__)), multicast(m))
    primary._suspect = lambda view: (asked.append((trial.sim.now, view)), suspect(view))
    back = crash_at + OUTAGES[0]
    request = ClientRequest("c0", 10**6, ("put", "k", 0))
    trial.sim.schedule_at(back + 1.0, lambda: ordered.append(primary._order_proposal(request)))
    trial.run()
    assert ordered == [False]
    assert asked, "the restarted primary never asked for a view"
    at, view = asked[0]
    assert view == 1 and back <= at < back + 1_000.0
    assert [t for t, kind in proposed if kind == "PrePrepare" and back <= t <= at] == []


def test_a_primary_that_lost_a_slot_in_its_mac_vector_leaves_its_group_served():
    """The row that reaches PBFT's lost-slot rule: with neither half of it
    (``_order_proposal`` refusing while ``_lost_own_slots``, and the
    ``on_state_synced`` ask for view + 1) both clients get nothing after
    the second crash (served [0, 0]) on seeds 1–5.  The 50 000 rows do not
    reach the rule: they keep their outcomes without it."""
    assert not checks.outcome(LOST_SLOT).stalled


def test_one_passive_primary_crash_promotes_one_backup_at_f2():
    s = scenario(named("passive", OUTAGES[0], SECOND_AFTER[0]))
    trial = Trial(dataclasses.replace(s, f=2, horizon=80_000.0, faults=(Crash(50_000.0, member=0),)))
    assert trial.run().safe
    primaries = [r.name for r in trial.group.correct_replicas() if r.is_primary]
    assert primaries == [trial.group.members[1]]
    assert trial.group.chip.metrics.counter("g.promotions").value == 1
