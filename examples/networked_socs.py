#!/usr/bin/env python3
"""Networked systems of SoCs: replication that survives a dead chip.

The paper's §I closes Fig. 1 with "networked systems of systems on chip
... already emerging in the automotive, aeronautics, and CPS domain".
This example builds a three-chip avionics-style platform, spans a MinBFT
group across the chips, and then kills an entire chip (think: power
domain loss or a vendor kill switch, §I) — the service keeps running
because no chip hosts more than f replicas.

Run:  python examples/networked_socs.py
"""

from repro.bft import ClientConfig, ClientNode
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.sos import InterChipLinkConfig, MultiChipSystem, build_spanning_group


def main() -> None:
    sim = Simulator(seed=13)
    system = MultiChipSystem(sim)
    for name in ["flight-ctrl", "nav", "payload"]:
        system.add_chip(name, Chip(sim, ChipConfig(width=4, height=4)))
    for a, b in [("flight-ctrl", "nav"), ("nav", "payload"), ("flight-ctrl", "payload")]:
        system.connect(a, b, InterChipLinkConfig(latency=200, bytes_per_cycle=2))

    group = build_spanning_group(system, protocol="minbft", f=1, group_id="fms")
    client = ClientNode("fms-client", ClientConfig(think_time=150, timeout=20_000))
    group.attach_client(client)  # on "flight-ctrl", the group's first chip
    client.start()

    print("== networked systems of SoCs ==")
    placement = {m: system.owner_chip(m) for m in group.members}
    print(f"replica placement: {placement}")

    sim.run(until=250_000)
    calm_ops = client.completed
    lats = client.latencies
    print(f"nominal: {calm_ops} ops, mean latency "
          f"{sum(lats) / len(lats):.0f} cycles (board links add ~2 x 300 cycles/op)")

    print("killing chip 'nav' (hosts one replica)...")
    system.fail_chip("nav")
    sim.run(until=600_000)
    print(f"after chip loss: {client.completed - calm_ops} further ops committed; "
          f"safety: {group.safety.summary()}")
    assert client.completed > calm_ops + 100
    assert group.safety.is_safe

    print("killing chip 'payload' too (now 2 > f replicas lost)...")
    system.fail_chip("payload")
    sim.run(until=700_000)
    stalled = client.completed
    sim.run(until=800_000)
    print(f"service stalls (no quorum) but never lies: "
          f"+{client.completed - stalled} ops, safety: {group.safety.summary()}")
    assert group.safety.is_safe


if __name__ == "__main__":
    main()
