"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import k_of_n, nmr, parallel, series
from repro.crypto import KeyStore, compute_mac, verify_mac
from repro.crypto.mac import canonical_bytes
from repro.hybrids import EccRegister, PlainRegister, TmrRegister
from repro.metrics import Histogram
from repro.noc import Coord, MeshTopology
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Event queue ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=60))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1000, allow_nan=False), st.integers(0, 5)),
        max_size=40,
    )
)
def test_event_priority_ordering_within_same_time(entries):
    sim = Simulator()
    fired = []
    for delay, priority in entries:
        sim.schedule(delay, lambda d=delay, p=priority: fired.append((sim.now, p)), priority=priority)
    sim.run()
    # At equal time, priorities must be non-decreasing.
    for (t1, p1), (t2, p2) in zip(fired, fired[1:]):
        assert t1 < t2 or (t1 == t2 and p1 <= p2) or math.isclose(t1, t2) is False or p1 <= p2


# ----------------------------------------------------------------------
# Canonical serialization / MACs
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
def test_canonical_bytes_total_and_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(json_values, json_values)
def test_canonical_bytes_injective_enough(a, b):
    """Different values never serialize identically (no MAC confusion)."""
    if canonical_bytes(a) == canonical_bytes(b):
        assert repr(a) == repr(b) or a == b


@given(json_values, st.binary(min_size=8, max_size=32))
def test_mac_roundtrip_property(payload, key):
    mac = compute_mac(key, payload)
    assert verify_mac(key, payload, mac)


# ----------------------------------------------------------------------
# ECC register: every single physical flip is corrected
# ----------------------------------------------------------------------
@given(st.integers(1, 32), st.data())
@settings(max_examples=60)
def test_ecc_single_flip_always_corrected(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    reg = EccRegister(width, value)
    bit = data.draw(st.integers(0, reg.physical_bits - 1))
    reg.inject_bitflip(bit)
    assert reg.read() == value


@given(st.integers(1, 32), st.data())
@settings(max_examples=60)
def test_tmr_single_flip_always_voted_out(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    reg = TmrRegister(width, value)
    bit = data.draw(st.integers(0, reg.physical_bits - 1))
    reg.inject_bitflip(bit)
    assert reg.read() == value


@given(st.integers(1, 32), st.data())
@settings(max_examples=60)
def test_plain_flip_always_detectable_by_value_change(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    reg = PlainRegister(width, value)
    bit = data.draw(st.integers(0, reg.physical_bits - 1))
    reg.inject_bitflip(bit)
    assert reg.read() != value  # silently wrong — but always a real change


# ----------------------------------------------------------------------
# Quorum intersection: the arithmetic behind 3f+1 and 2f+1
# ----------------------------------------------------------------------
@given(st.integers(1, 20))
def test_pbft_quorum_intersection_contains_correct_replica(f):
    n = 3 * f + 1
    quorum = 2 * f + 1
    # Any two quorums intersect in >= f+1 replicas -> at least one correct.
    assert 2 * quorum - n >= f + 1


@given(st.integers(1, 20))
def test_minbft_quorum_intersection_nonempty(f):
    n = 2 * f + 1
    quorum = f + 1
    # Any two quorums intersect in >= 1 replica; with non-equivocation
    # (USIG) one honest-or-not intersection suffices for agreement.
    assert 2 * quorum - n >= 1


@given(st.integers(1, 20))
def test_minbft_strictly_cheaper_than_pbft(f):
    assert 2 * f + 1 < 3 * f + 1


# ----------------------------------------------------------------------
# Mesh routing
# ----------------------------------------------------------------------
coords = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda t: Coord(*t))


@given(coords, coords)
def test_xy_route_is_minimal_and_connected(src, dst):
    mesh = MeshTopology(8, 8)
    route = mesh.xy_route(src, dst)
    assert route[0] == src and route[-1] == dst
    assert len(route) == src.manhattan(dst) + 1
    for a, b in zip(route, route[1:]):
        assert a.manhattan(b) == 1


@given(coords, coords)
def test_route_avoiding_no_blocked_matches_minimal_length(src, dst):
    mesh = MeshTopology(8, 8)
    route = mesh.route_avoiding(src, dst, frozenset())
    assert len(route) == src.manhattan(dst) + 1


# ----------------------------------------------------------------------
# Histogram percentile bounds
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1))
def test_histogram_percentiles_bounded_by_extremes(values):
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    for p in (0, 25, 50, 75, 95, 100):
        assert min(values) <= hist.percentile(p) <= max(values)
    assert hist.percentile(0) == min(values)
    assert hist.percentile(100) == max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2))
def test_histogram_percentile_monotone(values):
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    ps = [hist.percentile(p) for p in range(0, 101, 10)]
    assert ps == sorted(ps)


# ----------------------------------------------------------------------
# Reliability algebra invariants
# ----------------------------------------------------------------------
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.lists(probabilities, max_size=6))
def test_series_never_exceeds_weakest(rs):
    r = series(rs)
    assert 0 <= r <= 1
    if rs:
        assert r <= min(rs) + 1e-12


@given(st.lists(probabilities, min_size=1, max_size=6))
def test_parallel_at_least_strongest(rs):
    r = parallel(rs)
    assert 0 <= r <= 1 + 1e-12
    assert r >= max(rs) - 1e-12


@given(st.integers(1, 9).filter(lambda n: n % 2 == 1), probabilities)
def test_nmr_is_probability(n, r):
    assert 0 <= nmr(n, r) <= 1 + 1e-9


@given(st.integers(1, 6), st.integers(1, 6), probabilities)
def test_k_of_n_monotone_in_k(k, extra, r):
    n = k + extra
    assert k_of_n(k, n, r) >= k_of_n(k + 1, n, r) - 1e-12


# ----------------------------------------------------------------------
# USIG monotonicity under arbitrary payload sequences
# ----------------------------------------------------------------------
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=30))
def test_usig_counters_strictly_increasing(payloads):
    from repro.hybrids import Usig

    usig = Usig("r0", KeyStore())
    counters = [usig.create_ui(p).counter for p in payloads]
    assert all(b == a + 1 for a, b in zip(counters, counters[1:]))
    assert counters[0] == 1
