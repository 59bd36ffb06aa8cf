#!/usr/bin/env python3
"""Software-defined vehicle ECU: a replicated control loop under attack.

The paper motivates on-chip resilience with cyber-physical systems —
"software-defined vehicles, UXVs, Smart Grid" (§II.A).  This example
replicates a vehicle's longitudinal controller as a MinBFT group on one
MPSoC: sensors feed wheel-speed readings through the consensus layer into
a deterministic control law, so a compromised replica cannot steer the
actuator on its own.

Timeline:
  0      - 300k : nominal driving (sensor stream, replicated control law)
  300k   - 600k : one replica is compromised and equivocates
  600k   - 900k : attack cleaned up (rejuvenation), nominal again

Run:  python examples/software_defined_vehicle.py
"""

import math
import random

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.app import ControlLoopApp
from repro.faults import make_strategy
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import FactoryWorkload


def wheel_speed_readings(
    period_ops: int, amplitude: float, noise: float, seed: int
) -> FactoryWorkload:
    """The sensor stream: sinusoidal plant output plus seeded noise, as
    ``("sense", value)`` ops for the replicated control law.  The noise
    is pre-drawn, so reading ``i`` is a pure function of ``i``."""
    rng = random.Random(seed)
    noise_table = [rng.gauss(0.0, noise) for _ in range(8192)]

    def reading(i: int):
        value = amplitude * math.sin(2 * math.pi * i / period_ops)
        value += noise_table[i % len(noise_table)]
        return ("sense", round(value, 6))

    return FactoryWorkload(reading, name="wheel-speed")


def main() -> None:
    sim = Simulator(seed=7)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(
        chip,
        GroupConfig(
            protocol="minbft",
            f=1,
            group_id="ecu",
            app_factory=lambda: ControlLoopApp(window=8, gain=0.4, setpoint=50.0),
        ),
    )

    # The sensor hub is the "client": it submits wheel-speed readings at a
    # fixed cadence and receives the agreed actuator command back.
    sensor_hub = ClientNode(
        "sensor-hub",
        ClientConfig(
            think_time=200.0,  # one reading every 200 cycles
            timeout=15_000.0,
            workload=wheel_speed_readings(period_ops=100, amplitude=20.0,
                                          noise=1.0, seed=7),
        ),
    )
    group.attach_client(sensor_hub)
    sensor_hub.start()

    # Phase 2: the adversary owns one replica and equivocates.
    attacker = make_strategy("equivocate", sim.rng.stream("vehicle.attack"))
    victim = group.members[1]
    sim.schedule_at(300_000, attacker.activate, group.replicas[victim])
    # Phase 3: intrusion response rejuvenates the victim (state persists).
    sim.schedule_at(600_000, group.replicas[victim].recover)

    phases = [(0, 300_000, "nominal"), (300_000, 600_000, "under attack"),
              (600_000, 900_000, "recovered")]
    sim.run(until=900_000)

    print("== software-defined vehicle ==")
    for start, end, label in phases:
        window = sensor_hub.latencies_in(start, end)
        completed = sensor_hub.completions_in(start, end)
        mean = sum(window) / len(window) if window else float("nan")
        print(f"{label:13s}: {completed:5d} control rounds, "
              f"mean sensor->actuator latency {mean:7.0f} cycles")
    commands = [r.app.command for r in group.correct_replicas()]
    print(f"actuator commands agree across replicas: "
          f"{all(c == commands[0] for c in commands)}")
    print(f"safety: {group.safety.summary()}")
    assert group.safety.is_safe, "a single compromised replica must not break agreement"


if __name__ == "__main__":
    main()
