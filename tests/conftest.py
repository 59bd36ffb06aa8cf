"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def closed_driver(system, name, think_time=100.0):
    """One closed-loop tenant of a ShardedSystem on the alternating
    put/get stream.  AlternatingKV matters: the default KVWorkload
    classifies its gets as reads and would send them down the read fast
    path."""
    from repro.mesoscale import PopulationConfig
    from repro.workloads import AlternatingKV

    return system.attach_population(
        name,
        PopulationConfig(
            n_clients=1, mode="closed", think_time=think_time,
            workload=AlternatingKV(),
        ),
    )


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=1234)


@pytest.fixture
def chip(sim: Simulator) -> Chip:
    """A 4x4 chip on the fixture simulator."""
    return Chip(sim, ChipConfig(width=4, height=4))


@pytest.fixture
def big_chip(sim: Simulator) -> Chip:
    """A 6x6 chip for group-sized tests."""
    return Chip(sim, ChipConfig(width=6, height=6))
