"""Property-based tests for the systems-of-SoCs layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.sos import MultiChipSystem


# ----------------------------------------------------------------------
# Chip-graph routing
# ----------------------------------------------------------------------
@given(
    st.integers(2, 6),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_chip_route_valid_over_arbitrary_graphs(n_chips, edges, data):
    """Any route returned uses only existing UP links between adjacent
    chips and starts/ends at the requested endpoints."""
    sim = Simulator(seed=1)
    system = MultiChipSystem(sim)
    names = [f"c{i}" for i in range(n_chips)]
    for name in names:
        system.add_chip(name, Chip(sim, ChipConfig(width=2, height=2)))
    connected = set()
    for a_idx, b_idx in edges:
        a, b = a_idx % n_chips, b_idx % n_chips
        if a == b or (a, b) in connected or (b, a) in connected:
            continue
        system.connect(names[a], names[b])
        connected.add((a, b))
    src = data.draw(st.sampled_from(names))
    dst = data.draw(st.sampled_from(names))
    route = system.chip_route(src, dst)
    if route is None:
        return  # disconnected is a legal answer
    assert route[0] == src and route[-1] == dst
    for a, b in zip(route, route[1:]):
        link = system.link(a, b)
        assert link.up
    assert len(set(route)) == len(route)  # simple path, no cycles


@given(st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_chip_route_none_without_links(n_chips):
    sim = Simulator(seed=1)
    system = MultiChipSystem(sim)
    names = [f"c{i}" for i in range(n_chips)]
    for name in names:
        system.add_chip(name, Chip(sim, ChipConfig(width=2, height=2)))
    assert system.chip_route(names[0], names[-1]) is None
    assert system.chip_route(names[0], names[0]) == [names[0]]
