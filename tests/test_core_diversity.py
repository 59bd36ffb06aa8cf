"""Tests for variant libraries and the diversity manager."""

import pytest

from repro.core import DiversityManager, Variant, VariantLibrary
from repro.faults.exploits import compromise_set, worst_case_exploit
from repro.sim import RngStream


def felled_by_worst_exploit(manager):
    """Replicas the adversary's best single exploit fells."""
    assignment = manager.vuln_assignment()
    return len(compromise_set(worst_case_exploit(assignment), assignment))


def test_generate_pool_structure():
    library = VariantLibrary.generate("svc", n_variants=6, n_vendors=3)
    assert len(library) == 6
    names = library.names()
    assert names == [f"svc-v{i}" for i in range(6)]
    # Same-vendor variants share the vendor classes:
    v0, v3 = library.get("svc-v0"), library.get("svc-v3")
    assert v0.vendor == v3.vendor == "vendor0"
    assert v0.vuln_classes & v3.vuln_classes


def test_all_variants_share_spec_classes():
    library = VariantLibrary.generate("svc", 4, 4, spec_classes=1)
    variants = [library.get(n) for n in library.names()]
    common = set.intersection(*[set(v.vuln_classes) for v in variants])
    assert len(common) == 1  # the spec class: irreducible common mode


def test_zero_spec_classes_allows_full_independence():
    library = VariantLibrary.generate("svc", 4, 4, spec_classes=0)
    variants = [library.get(n) for n in library.names()]
    common = set.intersection(*[set(v.vuln_classes) for v in variants])
    assert not common


def test_library_rejects_mismatched_functionality():
    library = VariantLibrary("svc")
    with pytest.raises(ValueError):
        library.add(Variant("x", "other", "v0", frozenset()))


def test_library_rejects_duplicates():
    library = VariantLibrary("svc")
    library.add(Variant("x", "svc", "v0", frozenset()))
    with pytest.raises(ValueError):
        library.add(Variant("x", "svc", "v0", frozenset()))


def test_generate_validation():
    with pytest.raises(ValueError):
        VariantLibrary.generate("svc", 0, 1)


# ----------------------------------------------------------------------
# DiversityManager
# ----------------------------------------------------------------------
def test_assign_distinct_when_pool_sufficient():
    library = VariantLibrary.generate("svc", 6, 3)
    manager = DiversityManager(library)
    assignment = manager.assign([f"r{i}" for i in range(4)])
    assert len(set(assignment.values())) == 4
    assert manager.distinct_variants() == 4


def test_assign_spreads_vendors_first():
    library = VariantLibrary.generate("svc", 6, 3)
    manager = DiversityManager(library)
    assignment = manager.assign(["r0", "r1", "r2"])
    vendors = {library.get(v).vendor for v in assignment.values()}
    assert len(vendors) == 3  # one per vendor before reusing any


def test_assign_wraps_when_pool_small():
    library = VariantLibrary.generate("svc", 2, 1)
    manager = DiversityManager(library)
    assignment = manager.assign([f"r{i}" for i in range(5)])
    assert len(set(assignment.values())) == 2


def test_limit_variants_restricts_pool():
    library = VariantLibrary.generate("svc", 6, 3)
    manager = DiversityManager(library)
    manager.assign([f"r{i}" for i in range(6)], limit_variants=2)
    assert manager.distinct_variants() == 2
    with pytest.raises(ValueError):
        manager.assign(["r0"], limit_variants=0)


@pytest.mark.parametrize("n_variants,n_vendors,n", [(6, 3, 4), (6, 2, 6), (2, 1, 5)])
def test_admitting_members_one_by_one_reproduces_assign(n_variants, n_vendors, n):
    library = VariantLibrary.generate("svc", n_variants, n_vendors)
    one_by_one, at_once = DiversityManager(library), DiversityManager(library)
    for i in range(n):
        one_by_one.admit(f"r{i}")
    assert one_by_one.assignment == at_once.assign([f"r{i}" for i in range(n)])


def test_admit_takes_an_unheld_variant_and_moves_no_one():
    library = VariantLibrary.generate("svc", 6, 3)
    manager = DiversityManager(library)
    for i in range(3):
        manager.admit(f"r{i}")
    manager.next_variant_for("r0")  # rejuvenation re-images r0
    manager.next_variant_for("r1")
    before = dict(manager.assignment)
    newcomer = manager.admit("r3")
    assert newcomer not in before.values()
    assert {k: v for k, v in manager.assignment.items() if k != "r3"} == before
    assert manager.distinct_variants() == 4


def test_next_variant_changes_and_balances():
    library = VariantLibrary.generate("svc", 3, 3)
    manager = DiversityManager(library)
    manager.assign(["r0", "r1", "r2"])
    before = manager.variant_of("r0")
    after = manager.next_variant_for("r0")
    assert after != before
    assert manager.variant_of("r0") == after


def test_next_variant_prefers_least_used():
    library = VariantLibrary.generate("svc", 3, 1)
    manager = DiversityManager(library)
    manager.assignment = {"r0": "svc-v0", "r1": "svc-v1", "r2": "svc-v1"}
    # v2 unused, v1 used twice: rejuvenating r1 should pick v2.
    assert manager.next_variant_for("r1") == "svc-v2"


def test_next_variant_with_rng_tiebreak():
    library = VariantLibrary.generate("svc", 4, 1)
    manager = DiversityManager(library)
    manager.assign(["r0"])
    rng = RngStream(0, "t")
    choice = manager.next_variant_for("r0", rng)
    assert choice != "svc-v0" or True  # deterministic under seed; just runs


def test_max_common_mode_monoculture_vs_diverse():
    library = VariantLibrary.generate("svc", 4, 4, spec_classes=0)
    manager = DiversityManager(library)
    manager.assignment = {f"r{i}": "svc-v0" for i in range(4)}
    assert felled_by_worst_exploit(manager) == 4
    manager.assign([f"r{i}" for i in range(4)])
    assert felled_by_worst_exploit(manager) == 1


def test_spec_class_limits_tolerance_even_with_diversity():
    library = VariantLibrary.generate("svc", 4, 4, spec_classes=1)
    manager = DiversityManager(library)
    manager.assign([f"r{i}" for i in range(4)])
    # The spec class hits everyone: worst-case exploit fells all 4.
    assert felled_by_worst_exploit(manager) == 4


def test_empty_library_rejected():
    with pytest.raises(ValueError):
        DiversityManager(VariantLibrary("svc"))
