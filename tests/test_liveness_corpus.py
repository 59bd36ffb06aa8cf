"""Liveness corpus: fault schedules after which the service must serve again.

Each entry is a small (config, fault schedule, seed) run with a *liveness*
expectation — ``SafetyRecorder`` checks agreement and order only, so
nothing else in tier-1 notices a group that is safe and serves nothing.
All but E5's are ``liveness/...`` scenarios of ``repro.check``; an entry
is pinned, as a row of its expectation table, before the fix that turns
it green.

* **One crash** — MinBFT, PBFT and CFT, f = 1 with batching and leases,
  one windowed client; the view-0 primary crashes at 20 s and stays down
  (faults = 1 <= f).  Before the stall rule was written once in
  ``BaseReplica._on_progress_timeout``, a view change that itself stalled
  was never escalated: MinBFT's survivors sat in view 2 and PBFT's in
  view 3, each asking for a view led by the dead member, serving nothing.
  The view bound was the second half while a new primary's lease quiesce
  (15 s, longer than the 8 s view timeout) held writes back: unless the
  timer counted from the quiesce's end every new primary was suspected
  before it could order a write — views climbed past 40 and nothing was
  served.  A write is now ordered at once and completes on its key
  holder's licence, so the quiesce holds nothing back.
* **Two crashes** — the same with f = 2, the primaries of views 0 and 1
  crashed together: the change to view 1 stalls from its start and must
  be escalated (MinBFT and PBFT used to sit in view 0 asking for view 1).
* **E5's recovering leader** — the E5 schedule (CFT under the adaptive
  controller, a split-brain leader from 250 s to 550 s, seed 77).  The
  leader recovers holding a ``_next_seq`` past the tail it dropped, and
  numbered its next entry across a hole nothing filled until an
  election; the detector read that stall as a second attack.
"""

import dataclasses

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import Append
from repro.core import AdaptationController, AdaptationPolicy, SeverityDetector
from repro.core.severity import SeverityConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from tests import checks

CRASH_AT = 20_000.0
PROTOCOLS = ["minbft", "pbft", "cft"]


def serves_again_in_few_views(trial, result):
    """Served in [130 s, 400 s], and no live member past view n."""
    return not result.stalled and all(
        replica.view <= len(trial.group.members) for replica in trial.group.correct_replicas()
    )


@pytest.fixture(scope="module", params=PROTOCOLS)
def one_crash(request):
    return checks.trial(f"liveness/{request.param}/f1-crash1/1")


def test_one_primary_crash_keeps_safety(one_crash):
    trial, result = one_crash
    assert trial.clients[0].completions_in(0.0, CRASH_AT) > 100
    assert result.safe


def test_one_primary_crash_recovers_liveness(one_crash):
    assert serves_again_in_few_views(*one_crash)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_view_change_onto_a_dead_primary_escalates(protocol):
    """f = 2 and the primaries of views 0 and 1 crash together, so the
    change to view 1 stalls too.  MinBFT and PBFT used to re-ask for
    view 1 forever."""
    trial, result = checks.trial(f"liveness/{protocol}/f2-crash2/1")
    assert result.safe
    assert serves_again_in_few_views(trial, result)


# ----------------------------------------------------------------------
# E5's schedule: a split-brain CFT leader, recovered when the attack ends
# ----------------------------------------------------------------------
ATTACK_START, ATTACK_END, E5_HORIZON = 250_000.0, 550_000.0, 850_000.0


def _split_brain(group):
    leader = group.replicas[group.members[0]]
    leader.compromise()

    def split(dst, message):
        if isinstance(message, Append):
            forged = dataclasses.replace(message.request, op=("put", f"evil-{dst}", dst))
            return dataclasses.replace(message, request=forged)
        return message

    leader.add_outbound_filter(split)


def calm_after_attack(adaptive):
    """Completions after the attack ends (E5's calm-2 phase)."""
    sim = Simulator(seed=77)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol="cft", f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=10_000))
    group.attach_client(client)
    if adaptive:
        detector = SeverityDetector(group, [client], SeverityConfig(window=20_000, hysteresis_windows=3))
        AdaptationController(group, detector, AdaptationPolicy(cooldown=20_000))
        detector.start()
    leader = group.members[0]
    sim.schedule_at(ATTACK_START, _split_brain, group)
    sim.schedule_at(ATTACK_END, lambda: group.replicas[leader].recover())
    client.start()
    sim.run(until=E5_HORIZON)
    return client.completions_in(ATTACK_END, E5_HORIZON)


def test_a_recovered_cft_leader_serves_as_fast_as_static_cft():
    assert calm_after_attack(adaptive=True) >= 0.9 * calm_after_attack(adaptive=False)
