"""E11 — §I: networked systems of SoCs (the top layer of Fig. 1).

"More complex systems can be built through networked systems of systems
on chip" — and replication can *span* them.  This experiment prices both
sides of that choice:

* **performance** — the same MinBFT group deployed on one chip vs spread
  over 2 and 3 chips joined by board links an order of magnitude slower
  than the on-chip NoC: commit latency and throughput;
* **resilience** — a whole-chip failure (power loss / kill switch /
  common-mode defect): the on-chip group dies with its chip, the
  spanning group masks the loss as long as no chip hosts more than f
  replicas.

Shape assertions:
* spanning costs latency, growing with the number of chips crossed;
* the on-chip group stops permanently after the chip failure;
* the spanning group keeps committing through it, safely;
* the inter-chip links actually carried the protocol (sanity).
"""

from conftest import run_once

from repro.bft import ClientConfig, ClientNode
from repro.metrics import Table
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.sos import InterChipLinkConfig, MultiChipSystem, build_spanning_group

FAIL_AT = 200_000.0
HORIZON = 600_000.0


def run_deployment(n_chips, fail_chip, seed=55):
    sim = Simulator(seed=seed)
    system = MultiChipSystem(sim)
    names = [f"chip{i}" for i in range(max(1, n_chips))]
    for name in names:
        system.add_chip(name, Chip(sim, ChipConfig(width=4, height=4)))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            system.connect(a, b, InterChipLinkConfig(latency=200, bytes_per_cycle=2))
    group = build_spanning_group(system, protocol="minbft", f=1, chips=names)
    client = ClientNode("c0", ClientConfig(think_time=100, timeout=20_000))
    group.attach_client(client)  # on names[0], the group's first chip
    client.start()
    sim.run(until=100_000)
    calm_lats = client.latencies_in(20_000, 100_000)
    calm_lat = sum(calm_lats) / len(calm_lats)
    sim.run(until=FAIL_AT)
    if fail_chip is not None:
        # Fail a chip that hosts a replica but not the client.
        system.fail_chip(names[fail_chip])
    before_fail = client.completed
    sim.run(until=HORIZON)
    after_ops = client.completed - before_fail
    carried = sum(
        link.messages_carried for link in system._links.values()
    )
    return {
        "chips": len(names),
        "calm_lat": calm_lat,
        "ops_after_failure": after_ops,
        "carried": carried,
        "safe": group.safety.is_safe,
        "placement": {m: system.owner_chip(m) for m in group.members},
    }


def experiment():
    table = Table(
        "E11",
        ["deployment", "calm latency", "ops after chip failure", "inter-chip msgs",
         "safe"],
        title=f"On-chip vs spanning MinBFT (f=1); one whole chip fails at "
              f"t={FAIL_AT:.0f}",
    )
    results = {}
    configs = [
        ("1 chip (on-chip)", 1, 0),       # the only chip fails: fatal
        ("2 chips", 2, 1),                 # chip1 hosts 1 replica (= f)
        ("3 chips", 3, 1),                 # chip1 hosts 1 replica (= f)
        ("3 chips, no failure", 3, None),
    ]
    for label, n_chips, fail_chip in configs:
        r = run_deployment(n_chips, fail_chip)
        results[label] = r
        table.add_row(
            [label, r["calm_lat"], r["ops_after_failure"], r["carried"], r["safe"]]
        )
    table.print()
    return results


def test_e11_spanning_groups(benchmark):
    results = run_once(benchmark, experiment)

    # Spanning costs latency, increasing with chips crossed.
    lat1 = results["1 chip (on-chip)"]["calm_lat"]
    lat2 = results["2 chips"]["calm_lat"]
    lat3 = results["3 chips"]["calm_lat"]
    assert lat1 < lat2 < lat3
    assert lat3 > 2 * lat1  # board links dominate

    # The on-chip deployment dies with its chip...
    assert results["1 chip (on-chip)"]["ops_after_failure"] == 0
    # ...the spanning deployments mask the whole-chip failure.
    assert results["2 chips"]["ops_after_failure"] > 200
    assert results["3 chips"]["ops_after_failure"] > 200

    # Only multi-chip deployments used the board links.
    assert results["1 chip (on-chip)"]["carried"] == 0
    assert results["3 chips"]["carried"] > 1000

    for r in results.values():
        assert r["safe"]
