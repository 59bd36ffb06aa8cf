"""Shared helpers for the benchmark harness.

Each benchmark reproduces one experiment from DESIGN.md's index: it runs
the workload, prints the experiment's table (the artifact EXPERIMENTS.md
records), and asserts the *shape* of the result — who wins, which way
trends point — never absolute numbers.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from typing import List

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.group import ReplicaGroup
from repro.campaign.scenario import floor_p95
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

# Experiment tables are the benches' real artifact; pytest captures
# stdout, so Table.print() also tees them into this file (fresh per run).
_TABLE_LOG = os.path.join(os.path.dirname(__file__), "results_latest.txt")
os.environ.setdefault("REPRO_TABLE_LOG", _TABLE_LOG)
if os.environ["REPRO_TABLE_LOG"] == _TABLE_LOG:
    open(_TABLE_LOG, "w", encoding="utf-8").close()


def build_protocol_stack(
    protocol: str,
    f: int = 1,
    seed: int = 1,
    width: int = 6,
    height: int = 6,
    think_time: float = 50.0,
    timeout: float = 20_000.0,
    n_clients: int = 1,
    protocol_config=None,
):
    """Chip + replica group + closed-loop clients, ready to start."""
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=width, height=height))
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=f, group_id="b", protocol_config=protocol_config)
    )
    clients = []
    for i in range(n_clients):
        client = ClientNode(f"c{i}", ClientConfig(think_time=think_time, timeout=timeout))
        group.attach_client(client)
        clients.append(client)
    return sim, chip, group, clients


def measure_window(
    sim: Simulator,
    chip,
    clients: List[ClientNode],
    duration: float,
    warmup: float = 20_000.0,
):
    """Run warmup + measurement; returns (ops, mean_lat, p95_lat, flit_hops, msgs)."""
    for client in clients:
        client.start()
    sim.run(until=sim.now + warmup)
    start = sim.now
    flit_hops_before = chip.metrics.counter("noc.flit_hops").value
    delivered_before = chip.metrics.counter("noc.delivered").value
    sim.run(until=start + duration)
    ops = sum(c.completions_in(start, sim.now) for c in clients)
    latencies = [lat for c in clients for lat in c.latencies_in(start, sim.now)]
    latencies.sort()
    mean_lat = sum(latencies) / len(latencies) if latencies else float("nan")
    p95 = floor_p95(latencies, empty=float("nan"))
    flit_hops = chip.metrics.counter("noc.flit_hops").value - flit_hops_before
    msgs = chip.metrics.counter("noc.delivered").value - delivered_before
    return ops, mean_lat, p95, flit_hops, msgs


def run_once(benchmark, fn):
    """Adapter: run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
