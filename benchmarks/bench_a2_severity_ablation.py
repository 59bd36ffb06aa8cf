"""Ablation A2 — severity-detector tuning (§II.D's open research question).

"This would require research on ... severity detectors that can trigger
adaptation actions once needed."  This ablation sweeps the detector's
window length and hysteresis against two workloads:

* a *benign* run that nevertheless contains operational noise (a primary
  rejuvenation mid-run) — where escalations are false positives that cost
  performance;
* an *attacked* run (compromised CFT leader) — where detection latency is
  exposure.

Metrics: escalations on the benign run (false positives), detection
latency on the attacked run, and violations accrued before the switch.

Shape assertions:
* shorter windows detect faster (less exposure) but false-positive more
  on the benign run;
* longer windows are quiet on the benign run but leave the attacked run
  exposed longer (a moderate window is the sweet spot);
* hysteresis never slows first detection.

A finding worth reporting: at very short windows, *more* hysteresis
produces *more* switching, not less — holding the system in the expensive
BFT mode longer makes the detector read that mode's own latency as
continued threat.  Detectors must discount symptoms their remedy causes
(an instance of the paper's call for research on severity detectors).
"""

import dataclasses

from conftest import run_once

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.messages import Append
from repro.core import AdaptationController, AdaptationPolicy, SeverityDetector
from repro.core.severity import SeverityConfig
from repro.metrics import Table
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

HORIZON = 700_000.0
ATTACK_AT = 250_000.0


def _split_brain(group):
    leader = group.replicas[group.members[0]]
    leader.compromise()

    def filt(dst, message):
        if isinstance(message, Append):
            forged = dataclasses.replace(message.request, op=("put", f"evil-{dst}", 0))
            return dataclasses.replace(message, request=forged)
        return message

    leader.add_outbound_filter(filt)


def run(window, hysteresis, attacked, seed=71):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol="cft", f=1, group_id="g"))
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=10_000))
    group.attach_client(client)
    detector = SeverityDetector(
        group, [client],
        SeverityConfig(window=window, hysteresis_windows=hysteresis),
    )
    controller = AdaptationController(group, detector, AdaptationPolicy(cooldown=10_000))
    client.start()
    detector.start()
    if attacked:
        sim.schedule_at(ATTACK_AT, _split_brain, group)
    else:
        # Benign operational noise: one replica crash-recovers mid-run.
        victim = group.members[1]
        sim.schedule_at(ATTACK_AT, group.crash, victim)
        sim.schedule_at(ATTACK_AT + 15_000, group.replicas[victim].recover)
    sim.run(until=HORIZON)
    first_detection = None
    for t, _, target, _ in controller.switches:
        if t >= ATTACK_AT and target in ("minbft", "pbft"):
            first_detection = t - ATTACK_AT
            break
    return {
        "switches": len(controller.switches),
        "escalations": detector.escalations,
        "first_detection": first_detection,
        "violations": len(group.safety.violations),
        "ops": client.completed,
    }


def experiment():
    table = Table(
        "A2",
        ["window", "hysteresis", "scenario", "escalations", "switches",
         "detection latency", "violations"],
        title="Severity-detector tuning: speed vs stability",
    )
    results = {}
    for window in [5_000.0, 20_000.0, 80_000.0]:
        for hysteresis in [1, 3]:
            for attacked in [False, True]:
                r = run(window, hysteresis, attacked)
                key = (window, hysteresis, attacked)
                results[key] = r
                table.add_row(
                    [window, hysteresis, "attack" if attacked else "benign",
                     r["escalations"], r["switches"],
                     r["first_detection"] if r["first_detection"] is not None else "-",
                     r["violations"]]
                )
    table.print()
    return results


def test_a2_severity_tuning(benchmark):
    results = run_once(benchmark, experiment)

    # Attacked runs: every window detects eventually; shorter windows
    # detect faster and accumulate fewer pre-switch violations.
    for hysteresis in [1, 3]:
        fast = results[(5_000.0, hysteresis, True)]
        slow = results[(80_000.0, hysteresis, True)]
        assert fast["first_detection"] is not None
        assert slow["first_detection"] is not None
        assert fast["first_detection"] < slow["first_detection"]
        assert fast["violations"] <= slow["violations"]

    # Benign runs: the operational blip never produces safety violations,
    # and longer windows escalate no more often than short ones.
    for window in [5_000.0, 20_000.0, 80_000.0]:
        for hysteresis in [1, 3]:
            assert results[(window, hysteresis, False)]["violations"] == 0
    assert (
        results[(80_000.0, 3, False)]["escalations"]
        <= results[(5_000.0, 1, False)]["escalations"]
    )

    # Hysteresis never slows first detection (it only defers de-escalation).
    for window in [5_000.0, 20_000.0, 80_000.0]:
        assert (
            results[(window, 3, True)]["first_detection"]
            <= results[(window, 1, True)]["first_detection"]
        )
    # The moderate window dominates: as fast to detect as needed (34 << the
    # slow window's exposure) with several times fewer switches than the
    # twitchy one where switching is noise — the benign run, where every
    # switch is a false positive, and the attacked run with hysteresis —
    # and fewer still on the attacked run without it.
    moderate, twitchy = 20_000.0, 5_000.0
    for hysteresis, attacked in [(1, False), (3, True)]:
        assert (
            results[(moderate, hysteresis, attacked)]["switches"]
            < results[(twitchy, hysteresis, attacked)]["switches"] / 3
        )
    assert results[(moderate, 1, True)]["switches"] < results[(twitchy, 1, True)]["switches"]
    assert results[(20_000.0, 1, True)]["violations"] < results[(80_000.0, 1, True)]["violations"] / 3
