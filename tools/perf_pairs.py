#!/usr/bin/env python3
"""Alternating parent/change pairs of the service benchmark, with the win rule.

A speed claim on this repo is N pairs of fresh-interpreter runs of
``benchmarks/perf/run.py`` — the parent commit's checkout and this working
tree, the same workload, seed and window, alternating which side goes first
(``/opt/skills/guides/choosing-metrics`` §8, README *Performance*).  This
runs them and applies the rule::

    python3 tools/perf_pairs.py --parent HEAD~1 --workload write-pbft        # 10 pairs x 12 s
    python3 tools/perf_pairs.py --parent /path/to/checkout --pairs 6 --seed 23
    python3 tools/perf_pairs.py --parent HEAD~1 --seed 7 --seed 11 --seed 23 # seeds rotated over the pairs
    python3 tools/perf_pairs.py --parent HEAD --pairs 1 --seconds 1          # smoke (CI)

``--seed`` is repeatable: with k seeds, pair *i* runs seed *i mod k* on both
sides.  Sim-clock metrics are exact for a seed, so ten pairs on one seed are
one observation of them ten times over; a change that means to move them is
judged across seeds, as the driver does (it gives every run another seed).

``--parent`` is a checkout directory or a git revision; a revision is
exported with ``git archive`` into a temporary directory that is removed on
exit (nothing is added to ``.git``, unlike ``git worktree``).  Both sides run
*their own* ``benchmarks/perf`` against *their own* ``src/``.

Every metric gets a row — both medians [q1, q3], the move, wins/decided
pairs — and, from ten pairs on, the rule's verdict: the change wins at least
9 of 10 pairs (ties count for neither) with medians further apart than the
parent's own inter-quartile distance — for sim-clock and wall-clock rows
alike, whatever the seeds.  Exit status 1 if a run fails its checks or, on any
one seed, ``sim_digest`` differs between the two sides (or between two runs of
one side).  For a change that claims to preserve behaviour that is a failure:
a wall-clock comparison of two different simulations means nothing.  For a
change that **declares** a drift in simulated results it is the expected
exit, and the table is the result: the sim-clock rows say what moved and by
how much, and the wall-clock rows compare two programs doing different
simulated work, so read them next to ``sim.events_per_op``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from perf.metrics import quartiles  # noqa: E402  (the benchmark's own median / q1 / q3)

LOWER_IS_BETTER = {
    metric["name"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if metric["better"] == "lower"
}


def export(rev: str, into: Path) -> None:
    """Unpack revision ``rev`` of this repository into ``into``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait():
        sys.exit(f"perf_pairs: cannot export revision {rev!r}")


def run_once(
    checkout: Path, args: argparse.Namespace, workload: str, seed: int
) -> Tuple[str, Dict[str, float]]:
    """One measured run in a fresh interpreter: ``(sim_digest, metrics)``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py finds its own src/
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        digest = lines[0].split("sim_digest", 1)[1].split()[0]
    except (IndexError, ValueError):
        sys.exit(f"perf_pairs: no result from {checkout} (exit {done.returncode}):\n{done.stdout}")
    if done.returncode or not result["correct"] or result["failed"]:
        sys.exit(f"perf_pairs: run in {checkout} failed its checks:\n{done.stdout}")
    return digest, {name: m["value"] for name, m in result["metrics"].items()}


def verdict(name: str, before: List[float], after: List[float]) -> Tuple[str, bool]:
    """One metric's row, and whether the change wins it by the rule: ten
    pairs or more, at least 9 of 10 decided ones won, medians further
    apart than the parent's own inter-quartile distance."""
    sign = -1.0 if name in LOWER_IS_BETTER else 1.0
    wins = sum(sign * a > sign * b for a, b in zip(after, before))
    decided = sum(a != b for a, b in zip(after, before))
    (b1, b2, b3), (a1, a2, a3) = (
        (q["q1"], q["median"], q["q3"]) for q in (quartiles(before), quartiles(after))
    )
    moved = (a2 / b2 - 1.0) * 100 if b2 else 0.0
    holds = len(before) >= 10 and 0 < 0.9 * decided <= wins and sign * (a2 - b2) > b3 - b1
    row = (f"{name:<24} parent {b2:.6g} [{b1:.6g}, {b3:.6g}]  change {a2:.6g} [{a1:.6g}, {a3:.6g}]"
           f"  {moved:+.2f} %  wins {wins}/{decided}{'  <- better by the 9-of-10 rule' if holds else ''}")
    return row, holds


def compare(args: argparse.Namespace, parent: Path, workload: str) -> bool:
    """Run the pairs on one workload, pair *i* on seed *i mod k*, and print
    the rows; True if, seed by seed, every run of both sides had the same
    ``sim_digest``."""
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    digests: Dict[int, Set[str]] = {}
    for pair in range(args.pairs):
        seed = args.seed[pair % len(args.seed)]
        sides = [("parent", parent), ("change", ROOT)]
        for side, checkout in sides if pair % 2 == 0 else reversed(sides):
            digest, metrics = run_once(checkout, args, workload, seed)
            digests.setdefault(seed, set()).add(digest)
            runs[side].append(metrics)
        print(f"  pair {pair + 1}/{args.pairs} (seed {seed}): sim_ops_per_wall_s"
              f" parent {runs['parent'][-1]['sim_ops_per_wall_s']:.6g}"
              f"  change {runs['change'][-1]['sim_ops_per_wall_s']:.6g}", flush=True)
    for seed, seen in digests.items():
        print(f"{workload} seed {seed}: sim_digest"
              f" {'identical' if len(seen) == 1 else 'DIFFERS'} ({', '.join(sorted(seen))})")
    same = all(len(seen) == 1 for seen in digests.values())
    for name in runs["parent"][0]:
        print("  " + verdict(name, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])[0])
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="checkout directory or git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; pair i runs seed i mod k on both sides (default 7)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default write-pbft (see BENCHMARK.json for the others)")
    args = parser.parse_args()
    args.seed = args.seed or [7]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        parent = Path(args.parent)
        if not parent.is_dir():
            parent = Path(scratch)
            export(args.parent, parent)
        print(f"parent {args.parent} vs change {ROOT}: {args.pairs} alternating pairs,"
              f" seeds {args.seed} --seconds {args.seconds:g} --trace 0")
        same = [compare(args, parent.resolve(), w) for w in args.workload or ["write-pbft"]]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
