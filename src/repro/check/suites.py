"""Named scenarios, the three swept suites, and the expectation table.

A name is ``<family>/<variant>/<case>/<seed>`` and :func:`scenario`
builds it: ``byzantine/<pbft|minbft>/<strategy>@<member>/<seed>``,
``membership/<round-trip|scale-out>/<strategy>@<member>/<seed>``,
``membership/cft-scale-out/crash+<ms>/<seed>``,
``membership/<from>-><to>/w<window>/<seed>``,
``crash-cycles/<family>/<outage>+<after>[@<first>]/<seed>``,
``liveness/<family>/f<f>-crash<k>/<seed>`` and
``sharded/<family>/<kill-s1|storm>/<seed>`` (DESIGN §5 *How a promise is
swept*).  The suites are CI's sweeps on CI's seeds.  :data:`EXPECTED`
pins the known findings; :func:`check` holds every run to its row,
strictly in both directions, so a fix shows as rows leaving the table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.scenario import Compromise, Crash, KillShard, Schedule, Step
from repro.check.scenario import SHARD_WARMUP, Outcome, Requesters, Scenario

STRATEGIES = ["silent", "drop", "corrupt", "equivocate", "delay"]
BATCHED = (4, 100.0, 4)
OPEN_LOOP = Requesters(window=6, think_time=50.0, timeout=20_000.0)


def _attack(case: str, at: float) -> Schedule:
    strategy, _, member = case.partition("@")
    return () if strategy == "none" else (Compromise(at, strategy, int(member)),)


def _byzantine(name: str, protocol: str, case: str, seed: int) -> Scenario:
    return Scenario(
        name, protocol, seed, horizon=300_000.0, window=(30_000.0, 300_000.0),
        batching=BATCHED, requesters=OPEN_LOOP, faults=_attack(case, 30_000.0),
    )


def _membership(name: str, variant: str, case: str, seed: int) -> Scenario:
    t1 = 40_000.0 + (137 * seed) % 3_000
    common = dict(
        seed=seed, horizon=t1 + 180_000.0, window=(t1 + 60_000.0, t1 + 180_000.0),
        chip=6, batching=BATCHED, requesters=OPEN_LOOP, progress=50,
    )
    if variant == "round-trip":
        steps = (Step(t1, "pbft"), Step(t1 + 60_000.0, "minbft"))
        return Scenario(name, "minbft", faults=_attack(case, 20_000.0) + steps, **common)
    if variant == "scale-out":
        return Scenario(name, "minbft", faults=_attack(case, 20_000.0) + (Step(t1),), **common)
    if variant == "cft-scale-out":
        crash = Crash(t1 + float(case.partition("+")[2]))
        return Scenario(name, "cft", faults=(Step(t1), crash), **common)
    protocol, _, to = variant.partition("->")
    common.update(progress=1, requesters=replace(OPEN_LOOP, window=int(case[1:])))
    return Scenario(name, protocol, faults=(Step(t1, to),), **common)


def _crash_cycle(name: str, protocol: str, case: str, seed: int) -> Scenario:
    cycle, _, first = case.partition("@")
    outage, after = (float(x) for x in cycle.split("+"))
    first_at = float(first or 50_000.0)
    second = first_at + outage + after
    return Scenario(
        name, protocol, seed, horizon=second + 300_000.0, window=(second, second + 300_000.0),
        view_timeout=10_000.0, faults=(Crash(first_at, outage=outage), Crash(second)),
    )


def _liveness(name: str, protocol: str, case: str, seed: int) -> Scenario:
    f, _, crashed = case[1:].partition("-crash")
    return Scenario(
        name, protocol, seed, horizon=400_000.0, window=(130_000.0, 400_000.0), f=int(f),
        batching=(8, 100.0, 4), leases=True, view_timeout=8_000.0,
        requesters=Requesters(count=1, window=8, think_time=50.0, timeout=3_000.0, reads=True),
        faults=tuple(Crash(20_000.0, member=i) for i in range(int(crashed))),
    )


#: Sharded cases: (shards, view timeout, router timeout, schedule).  ``kill-s1``
#: is C2's failover claim; ``storm`` is ``fault-storm``'s schedule.
SHARDED: Dict[str, Tuple[int, Optional[float], float, Schedule]] = {
    "kill-s1": (4, None, 30_000.0, (KillShard(100_000.0, "s1"),)),
    "storm": (3, 8_000.0, 3_000.0, (
        Crash(80_000.0, shard="s0"), Compromise(100_000.0, "equivocate", 1, shard="s2"),
        KillShard(120_000.0, "s1"),
    )),
}


def _sharded(name: str, protocol: str, case: str, seed: int) -> Scenario:
    """One driver per shard, served from 20 s after the last fault to the
    end of a 100 s window opened after the warm-up."""
    shards, view_timeout, timeout, faults = SHARDED[case]
    end = SHARD_WARMUP + 100_000.0
    return Scenario(
        name, protocol, seed, horizon=end, window=(faults[-1].at + 20_000.0, end), chip=8,
        shards=shards, view_timeout=view_timeout, faults=faults,
        requesters=Requesters(count=shards, think_time=50.0, timeout=timeout),
    )


_FAMILIES: Dict[str, Callable[[str, str, str, int], Scenario]] = {
    "byzantine": _byzantine,
    "membership": _membership,
    "crash-cycles": _crash_cycle,
    "liveness": _liveness,
    "sharded": _sharded,
}


def scenario(name: str) -> Scenario:
    """The scenario ``name`` denotes (see the module docstring)."""
    family, variant, case, seed = name.split("/")
    return _FAMILIES[family](name, variant, case, int(seed))


def _byzantine_suite() -> List[str]:
    return [
        f"byzantine/{protocol}/{strategy}@{member}/{seed}"
        for protocol in ("pbft", "minbft") for strategy in STRATEGIES
        for member in (0, 2) for seed in range(1, 121)
    ]


def _membership_suite() -> List[str]:
    cases = ["none@1"] + [f"{s}@{member}" for s in sorted(STRATEGIES) for member in (0, 1)]
    return (
        [f"membership/{variant}/{case}/{seed}" for variant in ("round-trip", "scale-out")
         for seed in range(1, 41) for case in cases]
        + [f"membership/cft-scale-out/crash+{after}/{seed}" for seed in range(1, 41) for after in (5000, 20000)]
        + [f"membership/{switch}/w1/{seed}" for switch in ("minbft->pbft", "pbft->minbft") for seed in range(1, 41)]
    )


def _crash_cycles_suite() -> List[str]:
    return [
        f"crash-cycles/{protocol}/{outage}+{after}/{seed}" for seed in range(1, 6)
        for protocol in ("cft", "minbft", "passive", "pbft")
        for outage in (5000, 30000) for after in (60000, 150000)
    ] + [f"crash-cycles/pbft/5000+60000@49540/{seed}" for seed in range(1, 6)]


#: The swept suites by campaign name, each as its list of scenario names.
SUITES: Dict[str, Callable[[], List[str]]] = {
    "byzantine": _byzantine_suite,
    "membership": _membership_suite,
    "crash-cycles": _crash_cycles_suite,
}

# (safe, served): served None accepts either.
UNSAFE = (False, None)
WEDGED = (True, False)
SERVED = (True, True)
SAFE = (True, None)

#: Pinned outcomes, by scenario name.  Tier-1 replays every row.
EXPECTED: Dict[str, Tuple[bool, Optional[bool]]] = {
    # ROADMAP items 5 and 9: a scale-out under a dropping primary diverges.
    # Seed 28 does: a MinBFT VIEW-CHANGE reports the sender's last_executed,
    # not the slots it prepared above it.  Seed 35 did until a lagging
    # member came to take the checkpoint and log its peers share (DESIGN §4,
    # *What a replica holds once*); seed 5 is the run where a member fresh
    # out of a sync round would execute a slot only it and the dropping
    # primary committed (MinBFT's f+1 quorums need not intersect at n = 4).
    "membership/scale-out/drop@0/28": UNSAFE,
    **{f"membership/scale-out/drop@0/{seed}": SAFE for seed in (5, 35)},
    # The dropping primaries that found the view-change agreement holes
    # (DESIGN §4, *Simplified view changes*).
    **{f"byzantine/pbft/drop@0/{seed}": SERVED for seed in (2, 4, 5, 9, 344)},
    **{f"byzantine/minbft/drop@0/{seed}": SAFE for seed in (2, 4, 5, 9, 344)},
}


class Departure(AssertionError):
    """A run's outcome is not the one its row expects."""


def check(s: Scenario, outcome: Outcome) -> None:
    """Raise :class:`Departure`, naming the row, unless ``outcome`` is
    what ``s`` expects: its row, or without one, safe, and served unless
    a Byzantine member leads view 0."""
    view0 = any(isinstance(e, Compromise) and e.member == 0 for e in s.faults)
    default = SAFE if view0 else SERVED
    safe, served = EXPECTED.get(s.name, default)
    if outcome.safe != safe or (served is not None and outcome.stalled == served):
        pinned = "pinned" if s.name in EXPECTED else "unpinned"
        raise Departure(
            f"{s.name} ({pinned}): expected {'safe' if safe else 'unsafe'}"
            f"{'' if served is None else ', served' if served else ', stalled'}; got {outcome.to_json()}"
        )
