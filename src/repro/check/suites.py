"""Named scenarios, the three swept suites, and the expectation table.

A name is ``<family>/<variant>/<case>/<seed>`` and :func:`scenario`
builds it: ``byzantine/<pbft|minbft>/<strategy>@<member>/<seed>``,
``membership/<round-trip|scale-out>/<strategy>@<member>/<seed>``,
``membership/cft-scale-out/crash+<ms>/<seed>``,
``membership/<from>-><to>/w<window>/<seed>``,
``crash-cycles/<family>/<outage>+<after>/<seed>`` and
``liveness/<family>/f<f>-crash<k>/<seed>`` (DESIGN §5 *How a promise is
swept*).  The suites are CI's sweeps on CI's seeds.  :data:`EXPECTED`
pins the known findings; :func:`check` holds every run to its row,
strictly in both directions, so a fix shows as rows leaving the table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.scenario import Crash, Outcome, Requesters, Scenario, Step

STRATEGIES = ["silent", "drop", "corrupt", "equivocate", "delay"]
BATCHED = (4, 100.0, 4)
OPEN_LOOP = Requesters(window=6, think_time=50.0, timeout=20_000.0)


def _attack(case: str, at: float) -> Optional[Tuple[str, int, float]]:
    strategy, _, member = case.partition("@")
    return None if strategy == "none" else (strategy, int(member), at)


def _byzantine(name: str, protocol: str, case: str, seed: int) -> Scenario:
    return Scenario(
        name, protocol, seed, horizon=300_000.0, window=(30_000.0, 300_000.0),
        batching=BATCHED, requesters=OPEN_LOOP, byzantine=_attack(case, 30_000.0),
    )


def _membership(name: str, variant: str, case: str, seed: int) -> Scenario:
    t1 = 40_000.0 + (137 * seed) % 3_000
    common = dict(
        seed=seed, horizon=t1 + 180_000.0, window=(t1 + 60_000.0, t1 + 180_000.0),
        chip=6, batching=BATCHED, requesters=OPEN_LOOP, progress=50,
    )
    if variant == "round-trip":
        steps = (Step(t1, "pbft"), Step(t1 + 60_000.0, "minbft"))
        return Scenario(name, "minbft", steps=steps, byzantine=_attack(case, 20_000.0), **common)
    if variant == "scale-out":
        return Scenario(name, "minbft", steps=(Step(t1),), byzantine=_attack(case, 20_000.0), **common)
    if variant == "cft-scale-out":
        crash = Crash(t1 + float(case.partition("+")[2]))
        return Scenario(name, "cft", steps=(Step(t1),), crashes=(crash,), **common)
    protocol, _, to = variant.partition("->")
    common.update(progress=1, requesters=replace(OPEN_LOOP, window=int(case[1:])))
    return Scenario(name, protocol, steps=(Step(t1, to),), **common)


def _crash_cycle(name: str, protocol: str, case: str, seed: int) -> Scenario:
    outage, after = (float(x) for x in case.split("+"))
    second = 50_000.0 + outage + after
    return Scenario(
        name, protocol, seed, horizon=second + 300_000.0, window=(second, second + 300_000.0),
        view_timeout=10_000.0, crashes=(Crash(50_000.0, outage=outage), Crash(second)),
    )


def _liveness(name: str, protocol: str, case: str, seed: int) -> Scenario:
    f, _, crashed = case[1:].partition("-crash")
    return Scenario(
        name, protocol, seed, horizon=400_000.0, window=(130_000.0, 400_000.0), f=int(f),
        batching=(8, 100.0, 4), leases=True, view_timeout=8_000.0,
        requesters=Requesters(count=1, window=8, think_time=50.0, timeout=3_000.0, reads=True),
        crashes=tuple(Crash(20_000.0, member=i) for i in range(int(crashed))),
    )


_FAMILIES: Dict[str, Callable[[str, str, str, int], Scenario]] = {
    "byzantine": _byzantine,
    "membership": _membership,
    "crash-cycles": _crash_cycle,
    "liveness": _liveness,
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
    ]


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
    # ROADMAP item 9: a scale-out under a dropping primary diverges.
    "membership/scale-out/drop@0/28": UNSAFE,
    "membership/scale-out/drop@0/35": UNSAFE,
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
    default = SAFE if s.byzantine is not None and s.byzantine[1] == 0 else SERVED
    safe, served = EXPECTED.get(s.name, default)
    if outcome.safe != safe or (served is not None and outcome.stalled == served):
        pinned = "pinned" if s.name in EXPECTED else "unpinned"
        raise Departure(
            f"{s.name} ({pinned}): expected {'safe' if safe else 'unsafe'}"
            f"{'' if served is None else ', served' if served else ', stalled'}; got {outcome.to_json()}"
        )
