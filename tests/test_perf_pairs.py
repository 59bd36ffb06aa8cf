"""``tools/perf_pairs.py``: the win rule it applies, on canned numbers.

(The runs themselves are fresh interpreters of ``benchmarks/perf/run.py``;
CI drives the tool end to end with the parent set to ``HEAD``.)
"""

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
