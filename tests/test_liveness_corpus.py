"""Liveness corpus: fault schedules after which the service must serve again.

"Pin, then fix" (ROADMAP item 2, slice 1): each entry is a small
(config, fault schedule, seed) run whose *liveness* expectation is a
strict xfail until the ROADMAP item named beside it turns it green —
``SafetyRecorder`` checks agreement and order only, so nothing else in
tier-1 notices a group that is safe and serves nothing.
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

CRASH_AT, SETTLED_BY, HORIZON = 20_000.0, 130_000.0, 400_000.0


@pytest.fixture(scope="module")
def one_crash():
    """MinBFT f=1 with batching + leases under one windowed client; the
    view-0 primary crashes at 20 s and stays down (faults = 1 <= f)."""
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    group = build_group(chip, GroupConfig(
        protocol="minbft", f=1,
        protocol_config=protocol_config_for(
            "minbft",
            batching=BatchConfig(8, batch_delay=100.0, max_inflight=4),
            leases=LeaseConfig(),
            view_timeout=8_000.0,
        ),
    ))
    client = ClientNode("c0", ClientConfig(
        think_time=50, timeout=3_000, max_outstanding=8,
        read_only_predicate=lambda op: op[0] == "get",
    ))
    group.attach_client(client)
    client.start()
    sim.schedule_at(CRASH_AT, group.crash, group.members[0])
    sim.run(until=HORIZON)
    return group, client


def test_one_primary_crash_keeps_safety(one_crash):
    group, client = one_crash
    assert client.completions_in(0.0, CRASH_AT) > 100
    assert group.safety.is_safe


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1 (b): a view change that cannot time out — the two "
           "survivors sit in view 2 with _in_view_change=True and no event "
           "left to escalate",
)
def test_one_primary_crash_recovers_liveness(one_crash):
    group, client = one_crash
    assert client.completions_in(SETTLED_BY, HORIZON) > 0
