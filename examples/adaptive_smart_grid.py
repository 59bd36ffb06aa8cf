#!/usr/bin/env python3
"""Threat-adaptive smart-grid controller: protocol switching in action.

§II.D of the paper: "switching to a backup protocol that is more adequate
to the current conditions (considering safety, liveness, performance)".
A grid substation controller runs cheap crash-tolerant replication while
the world looks benign, and escalates to hybrid/full BFT when its
severity detector sees evidence of intrusion — then relaxes again.

Run:  python examples/adaptive_smart_grid.py
"""

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.core import AdaptationController, AdaptationPolicy, SeverityDetector
from repro.core.severity import SeverityConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import AlternatingKV, ZipfKeys
from repro.workloads.scenarios import AttackPhase, ThreatScenario


def main() -> None:
    sim = Simulator(seed=33)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol="cft", f=1, group_id="grid"))

    scada = ClientNode(
        "scada",
        ClientConfig(think_time=120.0, timeout=10_000.0,
                     workload=AlternatingKV(ZipfKeys(keys=32, seed=33))),
    )
    group.attach_client(scada)

    detector = SeverityDetector(
        group, [scada], SeverityConfig(window=20_000, hysteresis_windows=3)
    )
    controller = AdaptationController(group, detector, AdaptationPolicy(cooldown=20_000))

    # Threat timeline: calm, then a leader compromise window, then calm.
    scenario = ThreatScenario(
        phases=[AttackPhase(250_000, 500_000, "equivocate", 0, "intrusion")]
    )
    scenario.apply(sim, group)

    scada.start()
    detector.start()

    horizon = 1_000_000
    checkpoints = []
    for t in range(50_000, horizon + 1, 50_000):
        sim.run(until=t)
        checkpoints.append((t, controller.current_protocol, detector.level.name,
                            scada.completed))

    print("== adaptive smart grid ==")
    print(f"{'time':>9}  {'protocol':8}  {'threat':8}  {'ops done':>8}")
    for t, protocol, level, done in checkpoints:
        print(f"{t:>9}  {protocol:8}  {level:8}  {done:>8}")
    print()
    print("protocol switches:", [(f"t={t:.0f}", f"{a}->{b}", lvl.name)
                                 for t, a, b, lvl in controller.switches])
    print("safety:", group.safety.summary())
    assert group.safety.is_safe
    assert controller.switches, "expected at least one adaptation"


if __name__ == "__main__":
    main()
