"""``tools/perf_pairs.py``: the win rule it applies, on canned numbers.

(The runs themselves are fresh interpreters of ``benchmarks/perf/run.py``;
CI drives the tool end to end with the parent set to ``HEAD``.)
"""

import argparse
import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

PARENT = [2300.0, 2310.0, 2290.0, 2350.0, 2305.0, 2295.0, 2320.0, 2300.0, 2315.0, 2285.0]


def test_a_clear_gain_on_nine_of_ten_pairs_holds():
    change = [p * 1.06 for p in PARENT]
    change[3] = PARENT[3] - 1.0  # one loss in ten
    row, holds = perf_pairs.verdict("sim_ops_per_wall_s", PARENT, change)
    assert holds and "wins 9/10" in row and "+5.88 %" in row


def test_eight_of_ten_or_a_gain_inside_the_parents_spread_does_not():
    change = [p * 1.06 for p in PARENT]
    change[3], change[7] = PARENT[3] - 1.0, PARENT[7] - 1.0
    assert not perf_pairs.verdict("sim_ops_per_wall_s", PARENT, change)[1]
    nudged = [p + 5.0 for p in PARENT]  # 10/10 pairs, but 5 ops/s against an IQR of 22.5
    row, holds = perf_pairs.verdict("sim_ops_per_wall_s", PARENT, nudged)
    assert "wins 10/10" in row and not holds


def test_lower_is_better_metrics_and_ties():
    before, after = [32.0, 32.1, 32.2, 32.1, 32.0] * 2, [30.0, 30.1, 30.0, 30.2, 32.0] * 2
    row, holds = perf_pairs.verdict("peak_rss_mb", before, after)
    assert holds and "wins 8/8" in row  # two ties: they count for neither side
    assert not perf_pairs.verdict("peak_rss_mb", before[:5], after[:5])[1]  # under ten pairs
    row, holds = perf_pairs.verdict("lat_p50_ms", [3301.0] * 10, [3301.0] * 10)
    assert not holds and "wins 0/0" in row


def canned_runs(monkeypatch, digest_of):
    """Replace the fresh-interpreter run: record ``(side, seed)`` per call
    and hand back ``digest_of(side, seed)`` with one metric."""
    calls = []

    def run_once(checkout, args, workload, seed):
        side = "change" if checkout == perf_pairs.ROOT else "parent"
        calls.append((side, seed))
        return digest_of(side, seed), {"sim_ops_per_wall_s": 2300.0, "lat_p50_ms": 3000.0 + seed}

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    return calls


def test_pair_i_runs_seed_i_mod_k_on_both_sides_alternating_who_goes_first(monkeypatch, capsys):
    calls = canned_runs(monkeypatch, lambda side, seed: f"d{seed}")
    args = argparse.Namespace(pairs=5, seed=[7, 11, 23], seconds=1.0)
    assert perf_pairs.compare(args, Path("/parent"), "write-pbft")
    assert calls == [
        ("parent", 7), ("change", 7), ("change", 11), ("parent", 11), ("parent", 23),
        ("change", 23), ("change", 7), ("parent", 7), ("parent", 11), ("change", 11),
    ]
    out = capsys.readouterr().out
    assert "seed 7: sim_digest identical (d7)" in out and "seed 23: sim_digest identical (d23)" in out
    assert "DIFFERS" not in out


def test_digests_are_compared_seed_by_seed(monkeypatch, capsys):
    # Different seeds have different digests by construction: that alone is not a drift...
    canned_runs(monkeypatch, lambda side, seed: f"d{seed}")
    args = argparse.Namespace(pairs=2, seed=[7, 11], seconds=1.0)
    assert perf_pairs.compare(args, Path("/parent"), "write-pbft")
    # ...the two sides disagreeing on one seed is.
    canned_runs(monkeypatch, lambda side, seed: f"d{seed}{side if seed == 11 else ''}")
    assert not perf_pairs.compare(args, Path("/parent"), "write-pbft")
    out = capsys.readouterr().out
    assert "seed 11: sim_digest DIFFERS (d11change, d11parent)" in out
    assert "seed 7: sim_digest identical (d7)" in out


def test_seed_is_repeatable_and_defaults_to_seven(monkeypatch):
    seen = []
    monkeypatch.setattr(perf_pairs, "compare", lambda args, parent, workload: seen.append(args.seed) or True)
    here = str(perf_pairs.ROOT)
    monkeypatch.setattr("sys.argv", ["perf_pairs.py", "--parent", here, "--seed", "7", "--seed", "11"])
    assert perf_pairs.main() == 0
    monkeypatch.setattr("sys.argv", ["perf_pairs.py", "--parent", here])
    assert perf_pairs.main() == 0
    assert seen == [[7, 11], [7]]
