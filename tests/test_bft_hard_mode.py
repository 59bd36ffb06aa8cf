"""Hard-mode protocol scenarios: f=2, combined faults, determinism."""

import pytest

from repro.bft import ClientConfig, ClientNode, ClientSession, GroupConfig, build_group
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def build(protocol, f=2, seed=19, width=7, height=7):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=width, height=height))
    group = build_group(chip, GroupConfig(protocol=protocol, f=f, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=20_000))
    group.attach_client(client)
    return sim, chip, group, client


# ----------------------------------------------------------------------
# f = 2: two simultaneous faults of mixed flavours
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
def test_f2_mixed_crash_and_byzantine(protocol):
    sim, chip, group, client = build(protocol, f=2)
    client.start()
    # One crash and one equivocator, simultaneously — exactly f = 2.
    sim.schedule_at(50_000, group.crash, group.members[1])
    strategy = make_strategy("equivocate", sim.rng.stream("hard"))
    sim.schedule_at(50_000, strategy.activate, group.replicas[group.members[2]])
    sim.run(until=2_500_000)
    assert group.safety.is_safe
    assert client.completed > 200


@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
def test_f2_byzantine_primary_plus_crashed_backup(protocol):
    sim, chip, group, client = build(protocol, f=2)
    client.start()
    strategy = make_strategy("silent", sim.rng.stream("hard"))
    sim.schedule_at(50_000, strategy.activate, group.replicas[group.members[0]])
    sim.schedule_at(60_000, group.crash, group.members[3])
    sim.run(until=3_000_000)
    assert group.safety.is_safe
    assert client.completed > 150


def test_cascading_primary_failures():
    """Crash each new primary as it takes over: the view change must walk
    the ring until it finds a correct one (f=2 -> two crashes allowed)."""
    sim, chip, group, client = build("minbft", f=2)
    client.start()
    sim.schedule_at(50_000, group.crash, group.members[0])
    sim.schedule_at(150_000, group.crash, group.members[1])
    sim.run(until=3_000_000)
    assert group.safety.is_safe
    assert client.completed > 150
    # The surviving primary is one of the last three members.
    survivors = [r for r in group.correct_replicas()]
    views = {r.view for r in survivors}
    assert len(views) == 1  # all correct replicas agree on the view


def test_delay_attack_degrades_but_never_violates():
    sim, chip, group, client = build("minbft", f=1, width=5, height=5)
    client.start()
    strategy = make_strategy("delay", sim.rng.stream("hard"), delay=2_000)
    sim.schedule_at(50_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=1_000_000)
    assert group.safety.is_safe
    assert client.completed > 100  # slower, but alive


# ----------------------------------------------------------------------
# Determinism of the full stack
# ----------------------------------------------------------------------
def run_full_stack(seed):
    sim, chip, group, client = build("minbft", f=1, seed=seed, width=5, height=5)
    client.start()
    # The drop strategy is probabilistic, so the run genuinely consumes
    # seeded randomness (corrupt/crash alone would be seed-independent).
    strategy = make_strategy("drop", sim.rng.stream("hard"), drop_probability=0.3)
    sim.schedule_at(40_000, strategy.activate, group.replicas[group.members[0]])
    sim.schedule_at(200_000, group.crash, group.members[1])
    sim.schedule_at(300_000, group.replicas[group.members[1]].recover)
    sim.run(until=600_000)
    return (
        client.completed,
        client.timeouts,
        tuple(round(l, 6) for l in client.latencies[:50]),
        sim.events_fired,
        group.safety.total_commits,
    )


def test_full_stack_bit_reproducible():
    assert run_full_stack(321) == run_full_stack(321)


def test_different_seeds_diverge():
    assert run_full_stack(321) != run_full_stack(654)


# ----------------------------------------------------------------------
# Client behaviour under adversity
# ----------------------------------------------------------------------
def test_client_backoff_caps(monkeypatch):
    """With all replicas dead the client backs off exponentially but
    never beyond MAX_TIMEOUT, and resumes when replicas recover."""
    monkeypatch.setattr(ClientSession, "MAX_TIMEOUT", 8_000)
    sim, chip, group, client = build("minbft", f=1, width=5, height=5)
    client.config.timeout = 1_000
    client.start()
    sim.run(until=30_000)
    for member in group.members:
        group.crash(member)
    sim.run(until=200_000)
    dead_timeouts = client.timeouts
    assert dead_timeouts >= 10  # kept retrying, bounded by the cap
    for member in group.members:
        group.replicas[member].recover()
    sim.run(until=600_000)
    assert client.completed > 200
    assert group.safety.is_safe


def test_two_clients_interleave_safely():
    sim, chip, group, client = build("pbft", f=1, width=6, height=6)
    client2 = ClientNode("c1", ClientConfig(think_time=70, timeout=20_000))
    group.attach_client(client2)
    client.start()
    client2.start()
    sim.run(until=400_000)
    assert client.completed > 100 and client2.completed > 100
    assert group.safety.is_safe
    # Both clients' operations landed in one total order.
    leader = max(r.last_executed for r in group.correct_replicas())
    assert leader >= client.completed + client2.completed - 2  # minus in-flight


# ----------------------------------------------------------------------
# Randomized fault-schedule stress (seeded, deterministic per seed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("protocol", ["minbft", "pbft"])
def test_random_crash_recover_schedule_stays_safe(protocol, seed):
    """Random crash/recover churn (never exceeding f concurrently) must
    never violate safety, and the system must finish live."""
    sim, chip, group, client = build(protocol, f=1, seed=seed, width=6, height=6)
    rng = sim.rng.stream("stress.schedule")
    client.start()
    down = set()

    def crash_one():
        candidates = [m for m in group.members if m not in down]
        if not candidates or len(down) >= group.f:
            return
        victim = rng.choice(sorted(candidates))
        down.add(victim)
        group.crash(victim)
        sim.schedule(rng.uniform(20_000, 80_000), recover_one, victim)

    def recover_one(name):
        group.replicas[name].recover()
        down.discard(name)

    for k in range(12):
        sim.schedule_at(50_000 + k * 90_000, crash_one)
    sim.run(until=1_400_000)
    assert group.safety.is_safe
    assert client.completed > 300
    digests = {r.app.state_digest() for r in group.correct_replicas()
               if r.last_executed == max(x.last_executed for x in group.correct_replicas())}
    assert len(digests) == 1
