#!/usr/bin/env python3
"""``fault-storm`` seeds 1-12, the parent commit beside this working tree.

A change that moves the simulated clock reports what it does to the
service under faults: per seed, ``served_frac``, ``bft.view_changes`` and
``shard.unavail_ms`` of the ``fault-storm`` workload
(``benchmarks/perf/workloads.py``), then the stranded count (a run whose
``shard.unavail_ms`` exceeds 100 000) and the medians of ``served_frac``
and ``shard.unavail_ms``, both sides::

    python3 tools/fault_storm.py --parent HEAD~1                 # ~8 min at 12 s a run
    python3 tools/fault_storm.py --parent /path/to/checkout --seconds 4
    python3 tools/fault_storm.py --parent HEAD --seconds 0.5     # smoke (CI)

``--parent`` is a checkout directory or a git revision, exported the way
``tools/perf_pairs.py`` does.  Each run is a fresh interpreter on its
side's own ``src/`` and ``benchmarks/``.  Runs are exact per seed, so one
run per seed and side is the whole measurement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_pairs import ROOT, export  # noqa: E402

SEEDS = range(1, 13)
COLUMNS = ("served_frac", "bft.view_changes", "shard.unavail_ms")
#: A run whose longest outage exceeds this has stranded its service.
STRANDED_MS = 100_000.0

PROBE = """
import json, sys
sys.path[:0] = ["src", "benchmarks"]
from perf.workloads import WORKLOADS, measure
record = measure(WORKLOADS["fault-storm"], int(sys.argv[1]), float(sys.argv[2]))["sim"]
print(json.dumps({name: record[name] for name in %r}))
""" % (COLUMNS,)


def run_once(checkout: Path, seed: int, seconds: float) -> Dict[str, float]:
    """One ``fault-storm`` run of ``checkout`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(seed), f"{seconds:g}"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if done.returncode:
        sys.exit(f"fault_storm: seed {seed} failed in {checkout}:\n{done.stdout}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: List[Dict[str, float]]) -> str:
    stranded = [seed for seed, run in zip(SEEDS, runs) if run["shard.unavail_ms"] > STRANDED_MS]
    served = statistics.median(run["served_frac"] for run in runs)
    unavail = statistics.median(run["shard.unavail_ms"] for run in runs)
    return (f"stranded {len(stranded)} {stranded}  median served_frac {served:.4f}"
            f"  median shard.unavail_ms {unavail:g}")


def compare(parent: Path, seconds: float) -> None:
    sides = {"parent": parent, "change": ROOT}
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in sides}
    print(f"{'seed':>4}  {'side':<6}  " + "  ".join(f"{name:>17}" for name in COLUMNS))
    for seed in SEEDS:
        for side, checkout in sides.items():
            run = run_once(checkout, seed, seconds)
            runs[side].append(run)
            print(f"{seed:>4}  {side:<6}  " + "  ".join(f"{run[name]:>17.6g}" for name in COLUMNS),
                  flush=True)
    for side in sides:
        print(f"{side:<6}  {summary(runs[side])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="checkout directory or git revision")
    parser.add_argument("--seconds", type=float, default=12)
    args = parser.parse_args()
    parent = Path(args.parent)
    if parent.is_dir():
        compare(parent.resolve(), args.seconds)
        return 0
    with tempfile.TemporaryDirectory(prefix="fault-storm-parent-") as tmp:
        export(args.parent, Path(tmp))
        compare(Path(tmp), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
