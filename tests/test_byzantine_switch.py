"""A Byzantine member across §II.D's membership changes, under load.

A batched MinBFT group (f = 1, 6×6 chip) serves two clients; one of the
``faults.byzantine`` strategies (or none) takes member 0 (the primary) or
member 1 (a backup) at ``FAULT_AT``.  Then the group changes shape:

* **round trip** — ``switch_protocol("pbft")`` at t1 = ``switch_at(seed)``
  and back to ``"minbft"`` at t1 + 60 000.  A switch rebuilds every kept
  member as a new object, which clears the compromise (DESIGN §4 *How a
  replica group is stood up*), so the strategy is activated again on the
  rebuilt member of the same name right after each switch;
* **scale-out** — ``ReplicationManager.scale_out`` at t1 on a
  fabric-spawned group; nobody is rebuilt, so the compromise stays.

Agreement (``group.safety.is_safe``) is asserted in every case but the
pinned ones.  Progress (≥ ``PROGRESS`` completions in [t1 + 60 000,
t1 + 180 000]) is asserted for no strategy and for every backup strategy.
A Byzantine *primary* may stall the service, and does.  On seeds 1–40
(11 cases a variant and seed, before and after the change that added this
sweep, with identical results):

* round trip: 28 stalls in 440 runs, 16 with a ``drop`` primary and 12
  with an ``equivocate`` primary; no agreement violation;
* scale-out: 31 stalls, all with an ``equivocate`` primary; **two
  agreement violations**, both with a ``drop`` primary (seeds 28 and 35,
  ``UNSAFE``, pinned below as strict xfails).  Suspected cause, not yet
  shown: ``scale_out`` grows the group to n = 4 at f = 1, and MinBFT's
  f + 1 = 2 quorums of 4 need not intersect in a correct member;
* every run with no strategy or a backup strategy made progress in both
  variants (at least 191 completions in the window).

Tier-1 runs seed 1 and the pinned seeds.  CI runs seeds 1–40 through
:func:`sweep`.
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.core import DiversityManager, ReplicationManager, VariantLibrary
from repro.fabric import FpgaFabric
from repro.faults.byzantine import _STRATEGIES, make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

FAULT_AT = 20_000.0
ROUND_TRIP = 60_000.0  # from the switch to pbft to the switch back
WINDOW = (60_000.0, 180_000.0)  # the progress window, from t1
PROGRESS = 50
STRATEGIES = sorted(_STRATEGIES)
# (strategy, target): no strategy once, then every strategy on the
# primary (0) and on a backup (1).
CASES = [(None, 1)] + [(s, target) for s in STRATEGIES for target in (0, 1)]
# (variant, seed, strategy, target) that break agreement today: findings.
UNSAFE = {("scale-out", 28, "drop", 0), ("scale-out", 35, "drop", 0)}


def switch_at(seed):
    return 40_000.0 + (137 * seed) % 3_000


def _config():
    return protocol_config_for(
        "minbft", batching=BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=4)
    )


def _drive(sim, group, seed, strategy, target, steps):
    """Load the group, compromise member ``target`` at FAULT_AT, run each
    ``(at, step, rebuilds)`` and return the completions in the progress
    window."""
    clients = []
    for i in range(2):
        client = ClientNode(f"c{i}", ClientConfig(think_time=50, timeout=20_000, max_outstanding=6))
        group.attach_client(client)
        client.start()
        clients.append(client)
    name = group.members[target]
    attack = None if strategy is None else make_strategy(strategy, sim.rng.stream("byzantine"))

    def compromise():
        if attack is not None:
            attack.activate(group.replicas[name])

    def run_step(step, rebuilds):
        step()
        if rebuilds:
            compromise()  # the rebuilt member is a new, correct object

    sim.schedule_at(FAULT_AT, compromise)
    for at, step, rebuilds in steps:
        sim.schedule_at(at, run_step, step, rebuilds)
    t1 = switch_at(seed)
    sim.run(until=t1 + WINDOW[1])
    return sum(c.completions_in(t1 + WINDOW[0], t1 + WINDOW[1]) for c in clients)


def run_round_trip(seed, strategy=None, target=1):
    """minbft → pbft → minbft; returns (group, completions in the window)."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol="minbft", f=1, group_id="g", protocol_config=_config()))
    t1 = switch_at(seed)
    steps = [
        (t1, lambda: group.switch_protocol("pbft"), True),
        (t1 + ROUND_TRIP, lambda: group.switch_protocol("minbft"), True),
    ]
    return group, _drive(sim, group, seed, strategy, target, steps)


def run_scale_out(seed, strategy=None, target=1):
    """One scale-out of a fabric-spawned group; returns (group, completions
    in the window)."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", 4, 2)
    fabric.register_variants("svc", library.names())
    manager = ReplicationManager(chip, fabric, DiversityManager(library))
    group = manager.deploy_group(
        GroupConfig(protocol="minbft", f=1, group_id="g", protocol_config=_config())
    )
    steps = [(switch_at(seed), manager.scale_out, False)]
    return group, _drive(sim, group, seed, strategy, target, steps)


def must_progress(strategy, target):
    return strategy is None or target != 0


VARIANTS = {"round-trip": run_round_trip, "scale-out": run_scale_out}


def sweep(seeds):
    """Every case of both variants on ``seeds``: the failures as
    ``(variant, seed, strategy, target, safe, served)``.  A pinned case
    fails when it is safe (strict)."""
    failures = []
    for variant, run in VARIANTS.items():
        for seed in seeds:
            for strategy, target in CASES:
                group, served = run(seed, strategy, target)
                safe = group.safety.is_safe
                stalled = must_progress(strategy, target) and served < PROGRESS
                if safe == ((variant, seed, strategy, target) in UNSAFE) or stalled:
                    failures.append((variant, seed, strategy, target, safe, served))
    return failures


@pytest.mark.parametrize("strategy,target", CASES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_byzantine_member_across_a_membership_change(variant, strategy, target):
    group, served = VARIANTS[variant](1, strategy, target)
    assert group.safety.is_safe
    if must_progress(strategy, target):
        assert served >= PROGRESS


@pytest.mark.xfail(strict=True, reason="finding: a scale-out under a dropping primary diverges")
@pytest.mark.parametrize("variant,seed,strategy,target", sorted(UNSAFE))
def test_a_pinned_unsafe_case_still_breaks_agreement(variant, seed, strategy, target):
    group, _ = VARIANTS[variant](seed, strategy, target)
    assert group.safety.is_safe
