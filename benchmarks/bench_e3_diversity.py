"""E3 — §II.B: diversity suppresses common-mode failures.

Monte-Carlo over variant assignments: replica sets of n = 4 and n = 7
(f = 1, 2) draw their implementations from pools of 1..6 distinct
variants, and the adversary throws its *best single exploit* (the
vulnerability class shared by the most replicas).  We report the
probability the exploit fells more than f replicas (system compromise)
and the expected number felled, for uncoordinated (random) assignment
versus the diversity manager's vendor-spread assignment.

Shape assertions:
* compromise probability decreases monotonically (weakly) as the pool
  grows, for both assignment policies;
* a variant monoculture (pool = 1) is always fully compromised;
* the managed assignment never does worse than random;
* a shared specification-level class caps the benefit (residual common
  mode survives any amount of implementation diversity).
"""

from conftest import run_once

from repro.core import DiversityManager, VariantLibrary
from repro.faults.exploits import compromise_set, worst_case_exploit
from repro.metrics import Table
from repro.sim import RngStream

SAMPLES = 300


def compromise_stats(n_replicas, f, pool_size, managed, spec_classes, rng, n_vendors=6):
    """(P[felled > f], E[felled]) over sampled assignments."""
    library = VariantLibrary.generate(
        "svc", n_variants=6, n_vendors=n_vendors, spec_classes=spec_classes
    )
    manager = DiversityManager(library)
    pool = manager._vendor_spread_order()[:pool_size]
    replicas = [f"r{i}" for i in range(n_replicas)]
    failures = 0
    felled_total = 0
    for _ in range(SAMPLES):
        if managed:
            manager.assign(replicas, limit_variants=pool_size)
        else:
            manager.assignment = {r: rng.choice(pool) for r in replicas}
        assignment = manager.vuln_assignment()
        exploit = worst_case_exploit(assignment)
        felled = len(compromise_set(exploit, assignment))
        felled_total += felled
        if felled > f:
            failures += 1
    return failures / SAMPLES, felled_total / SAMPLES


def experiment():
    rng = RngStream(99, "e3")
    table = Table(
        "E3",
        ["n", "f", "pool", "policy", "P(compromise)", "E[felled]"],
        title="Single-exploit common-mode failure vs diversity (no spec bugs)",
    )
    results = {}
    for n_replicas, f in [(4, 1), (7, 2)]:
        for pool_size in [1, 2, 3, 4, 6]:
            for managed in [False, True]:
                p, expected = compromise_stats(
                    n_replicas, f, pool_size, managed, spec_classes=0, rng=rng
                )
                policy = "managed" if managed else "random"
                results[(n_replicas, pool_size, policy)] = (p, expected)
                table.add_row([n_replicas, f, pool_size, policy, p, expected])
    table.print()

    # Residual common mode: same sweep with one shared spec class.
    spec_table = Table(
        "E3b",
        ["n", "f", "pool", "P(compromise)"],
        title="With one specification-level class shared by ALL variants",
    )
    spec_results = {}
    for n_replicas, f in [(4, 1)]:
        for pool_size in [1, 3, 6]:
            p, _ = compromise_stats(n_replicas, f, pool_size, True, 1, rng)
            spec_results[pool_size] = p
            spec_table.add_row([n_replicas, f, pool_size, p])
    spec_table.print()

    # The vendor ceiling: implementation diversity cannot beat shared
    # vendor toolchains — n=4 replicas need 4 *vendors*, not 4 variants.
    vendor_table = Table(
        "E3c",
        ["n", "f", "vendors", "P(compromise)"],
        title="Vendor ceiling: 6 variants, managed assignment, varying vendor count",
    )
    vendor_results = {}
    for n_vendors in [1, 2, 3, 4, 6]:
        p, _ = compromise_stats(4, 1, 6, True, 0, rng, n_vendors=n_vendors)
        vendor_results[n_vendors] = p
        vendor_table.add_row([4, 1, n_vendors, p])
    vendor_table.print()
    return results, spec_results, vendor_results


def test_e3_diversity(benchmark):
    results, spec_results, vendor_results = run_once(benchmark, experiment)

    for n in [4, 7]:
        # Monoculture always falls.
        assert results[(n, 1, "random")][0] == 1.0
        assert results[(n, 1, "managed")][0] == 1.0
        # Weakly monotone improvement with pool size, per policy.
        for policy in ["random", "managed"]:
            ps = [results[(n, pool, policy)][0] for pool in [1, 2, 3, 4, 6]]
            for a, b in zip(ps, ps[1:]):
                assert b <= a + 0.05  # allow MC noise
        # Managed assignment no worse than random at every pool size.
        for pool in [2, 3, 4, 6]:
            assert results[(n, pool, "managed")][0] <= results[(n, pool, "random")][0] + 1e-9
    # Enough managed diversity fully masks the best single exploit (f=1, n=4).
    assert results[(4, 4, "managed")][0] == 0.0
    # The spec-level class is irreducible: even 6 variants fall together.
    assert spec_results[6] == 1.0
    # The vendor ceiling: fewer vendors than replicas -> guaranteed breach;
    # enough vendors -> fully masked.
    assert vendor_results[1] == 1.0
    assert vendor_results[3] == 1.0  # 4 replicas over 3 vendors must collide
    assert vendor_results[4] == 0.0
    assert vendor_results[6] == 0.0
