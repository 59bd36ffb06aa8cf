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
  ``UNSAFE``, pinned below as strict xfails).  Quorums that are too small
  for n = 4 are not the whole cause: with MinBFT's commit and NEW-VIEW
  quorums sized ⌊n/2⌋ + 1, seed 28 kept agreement but seed 35 did not.
  There a correct member reported ``last_executed`` 0 in its VIEW-CHANGE
  while it was state-syncing, then executed seq 4 in the view it had
  voted to leave; the new primary started the view at 3 and re-assigned
  seq 4.  A stale report from a correct member is ROADMAP item 5's
  MinBFT half;
* every run with no strategy or a backup strategy made progress in both
  variants (at least 191 completions in the window).

A third scenario has no Byzantine member: a **CFT** group scaled out at
t1 (n = 4 at f = 1) loses its leader at t1 + 5 000 or t1 + 20 000
(``CRASH_AFTER``).  While CFT's majority was f + 1 = 2, two disjoint
pairs of the four could each commit: 29 of those 80 runs on seeds 1–40
broke agreement, and none without the scale-out.  With a majority of n
every one keeps agreement and makes progress (at least 962 completions
in the window).

A fourth has no Byzantine member either: one **switch** at t1, minbft →
pbft or pbft → minbft, under two closed-loop (window-1) clients, each of
which must complete operations in the window.  While a member kept the
replies it had cached as ``ClientReply`` objects, a rebuilt member resent
them under the donor's name, which a client drops from anyone else: both
clients served nothing for good after minbft → pbft on seeds 1, 5, 9, 13
and 17 of 1–20, and after pbft → minbft on seed 7.  A re-sent reply is
now built at send from the execution ledger (DESIGN §4 *What a replica
holds once*), and every client is served on seeds 1–20.

Tier-1 runs seed 1, the pinned seeds, the CFT leader crash on seed 3 at
t1 + 5 000 and the switches minbft → pbft on seed 1 and pbft → minbft on
seed 7.  CI runs seeds 1–40 through :func:`sweep`.
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
CRASH_AFTER = (5_000.0, 20_000.0)  # the CFT leader crash, from t1


def switch_at(seed):
    return 40_000.0 + (137 * seed) % 3_000


def _config(protocol="minbft"):
    return protocol_config_for(
        protocol, batching=BatchConfig(batch_size=4, batch_delay=100.0, max_inflight=4)
    )


def _drive(sim, group, seed, strategy, target, steps, window=6):
    """Load the group with two clients of ``window`` outstanding requests,
    compromise member ``target`` at FAULT_AT, run each ``(at, step,
    rebuilds)`` and return each client's completions in the progress
    window."""
    clients = []
    for i in range(2):
        config = ClientConfig(think_time=50, timeout=20_000, max_outstanding=window)
        client = ClientNode(f"c{i}", config)
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
    return [c.completions_in(t1 + WINDOW[0], t1 + WINDOW[1]) for c in clients]


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
    return group, sum(_drive(sim, group, seed, strategy, target, steps))


def run_switch(seed, protocol, to, window=1):
    """One switch ``protocol`` → ``to`` at t1 under two clients of
    ``window`` outstanding requests (closed-loop by default), no Byzantine
    member; returns (group, each client's completions in the window)."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=_config(protocol))
    )
    steps = [(switch_at(seed), lambda: group.switch_protocol(to), False)]
    return group, _drive(sim, group, seed, None, 1, steps, window=window)


def _deploy(seed, protocol):
    """A fabric-spawned f = 1 group: (simulator, its manager, the group)."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    fabric = FpgaFabric(sim, chip)
    library = VariantLibrary.generate("svc", 4, 2)
    fabric.register_variants("svc", library.names())
    manager = ReplicationManager(chip, fabric, DiversityManager(library))
    group = manager.deploy_group(
        GroupConfig(protocol=protocol, f=1, group_id="g", protocol_config=_config(protocol))
    )
    return sim, manager, group


def run_scale_out(seed, strategy=None, target=1):
    """One scale-out of a fabric-spawned group; returns (group, completions
    in the window)."""
    sim, manager, group = _deploy(seed, "minbft")
    steps = [(switch_at(seed), manager.scale_out, False)]
    return group, sum(_drive(sim, group, seed, strategy, target, steps))


def crash_leader(group):
    """Crash the primary of the most advanced view a correct member is in."""
    group.crash(max(group.correct_replicas(), key=lambda r: r.view).primary)


def run_cft_scale_out(seed, crash_after):
    """A CFT group scaled out at t1 (n = 4 at f = 1) loses its leader at
    t1 + ``crash_after``; returns (group, completions in the window)."""
    sim, manager, group = _deploy(seed, "cft")
    t1 = switch_at(seed)
    steps = [(t1, manager.scale_out, False), (t1 + crash_after, lambda: crash_leader(group), False)]
    return group, sum(_drive(sim, group, seed, None, 1, steps))


def must_progress(strategy, target):
    return strategy is None or target != 0


VARIANTS = {"round-trip": run_round_trip, "scale-out": run_scale_out}
SWITCHES = [("minbft", "pbft"), ("pbft", "minbft")]


def sweep(seeds):
    """Every case of both variants, the CFT leader crash at each
    ``CRASH_AFTER`` and each of ``SWITCHES`` under closed-loop clients, on
    ``seeds``: the failures as ``(variant, seed, strategy or crash offset,
    target, safe, served)``.  A pinned case fails when it is safe
    (strict); a switch fails when a client completes nothing."""
    failures = []
    for variant, run in VARIANTS.items():
        for seed in seeds:
            for strategy, target in CASES:
                group, served = run(seed, strategy, target)
                safe = group.safety.is_safe
                stalled = must_progress(strategy, target) and served < PROGRESS
                if safe == ((variant, seed, strategy, target) in UNSAFE) or stalled:
                    failures.append((variant, seed, strategy, target, safe, served))
    for seed in seeds:
        for crash_after in CRASH_AFTER:
            group, served = run_cft_scale_out(seed, crash_after)
            if not group.safety.is_safe or served < PROGRESS:
                failures.append(("cft-scale-out", seed, crash_after, None, group.safety.is_safe, served))
    for protocol, to in SWITCHES:
        for seed in seeds:
            group, served = run_switch(seed, protocol, to)
            if not group.safety.is_safe or min(served) == 0:
                failures.append((f"{protocol}->{to}", seed, None, None, group.safety.is_safe, served))
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


def test_a_member_that_adopts_a_newer_view_by_state_transfer_drops_its_older_slots():
    """Seed 12's scale-out under a dropping primary: the joining member,
    still syncing, committed a view-0 PREPARE for seq 13 on the dropping
    primary's vote and its own; it then adopted a view-1 state at seq 12
    and executed that PREPARE at 13, against what view 1 committed there.
    A state that carries a newer view now ends the older one, as entering
    the view does (found when client timing moved under this sweep)."""
    group, _ = run_scale_out(12, "drop", 0)
    assert group.safety.is_safe


def test_a_scaled_out_cft_group_survives_a_leader_crash():
    group, served = run_cft_scale_out(3, CRASH_AFTER[0])
    assert len(group.members) == 4
    assert group.safety.is_safe
    assert served >= PROGRESS


@pytest.mark.parametrize("protocol,to,seed", [("minbft", "pbft", 1), ("pbft", "minbft", 7)])
def test_every_closed_loop_client_is_served_after_a_switch(protocol, to, seed):
    group, served = run_switch(seed, protocol, to)
    assert group.safety.is_safe
    assert min(served) > 0, served


def test_no_request_is_stranded_after_a_switch_under_windowed_clients():
    """While a client kept one timer over its window and every completion
    restarted it, a request whose replies were lost was never resent as
    long as its other slots kept completing: after one minbft → cft
    switch, two window-6 clients stranded 52 requests over seeds 1–20,
    5 of them on seed 1.  Each request now has its own deadline."""
    group, served = run_switch(1, "minbft", "cft", window=6)
    now = group.chip.sim.now
    stranded = [
        (client.name, rid) for client in group.clients
        for rid, exchange in client.session.exchanges.items()
        if now - exchange.sent_at > 2 * client.config.timeout
    ]
    assert group.safety.is_safe
    assert stranded == [] and min(served) > 0, (stranded, served)
