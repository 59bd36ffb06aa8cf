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
    python3 tools/perf_pairs.py --parent HEAD~1 --trace --seed 7 --seed 11   # where the time went

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
alike, whatever the seeds.  Exit status 1 if a run fails its checks, if in
any pair the change fails a larger share of its operations than the parent
(a workload such as ``fault-storm`` fails some by design, so a failure alone
refuses nothing), or if, on any one seed, ``sim_digest`` differs between the
two sides (or between two runs of one side).  For a change that claims to preserve behaviour that is a failure:
a wall-clock comparison of two different simulations means nothing.  For a
change that **declares** a drift in simulated results it is the expected
exit, and the table is the result: the sim-clock rows say what moved and by
how much, and the wall-clock rows compare two programs doing different
simulated work, so read them next to ``sim.events_per_op``.

``--trace`` runs the same pairs as ``run.py --trace 1 --child``: each run
times the window untraced, then again under the span tracer, and prints
its whole record.  The rows are then the end-to-end metrics of the
untraced window (no ``setup_s``: a traced run does not time setup, and
its ``peak_rss_mb`` covers both windows) beside every layer's
``L.self_s`` and ``L.events`` — where a wall-clock gain was made, and
proof that each layer fired the same events.  ``sim_digest`` is compared
as without it.
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
from perf.metrics import LAYERS, quartiles  # noqa: E402  (the benchmark's own median / q1 / q3)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LOWER_IS_BETTER = {
    metric["name"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    if metric["better"] == "lower"
}
#: The rows of a ``--trace`` pair, in this order (a traced run has no ``setup_s``).
TRACED_ROWS = [m["name"] for m in BENCHMARK["end_to_end"] if m["name"] != "setup_s"] + [
    f"{layer}.{what}" for what in ("self_s", "events") for layer in LAYERS
]


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
) -> Tuple[str, Dict[str, float], float]:
    """One measured run in a fresh interpreter: ``(sim_digest, metrics,
    failed share of attempted operations)``.

    Traced, the metrics are :data:`TRACED_ROWS`, read from the record
    ``--child`` prints (``--child`` also leaves out the layer probes)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py finds its own src/
    command = [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{args.seconds:g}"]
    command += ["--trace", "1", "--child"] if args.trace else ["--trace", "0"]
    done = subprocess.run(
        command, cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        digest = lines[0].split("sim_digest", 1)[1].split()[0]
    except (IndexError, ValueError):
        sys.exit(f"perf_pairs: no result from {checkout} (exit {done.returncode}):\n{done.stdout}")
    if done.returncode or not result["correct"]:
        sys.exit(f"perf_pairs: run in {checkout} failed its checks:\n{done.stdout}")
    failed = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    if not args.trace:
        return digest, {name: m["value"] for name, m in result["metrics"].items()}, failed
    record = next(json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD "))
    return digest, {name: record["values"][name] for name in TRACED_ROWS}, failed


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
    ``sim_digest``, and in no pair did the change fail a larger share of
    its operations than the parent."""
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    failed: Dict[str, List[float]] = {"parent": [], "change": []}
    digests: Dict[int, Set[str]] = {}
    for pair in range(args.pairs):
        seed = args.seed[pair % len(args.seed)]
        sides = [("parent", parent), ("change", ROOT)]
        for side, checkout in sides if pair % 2 == 0 else reversed(sides):
            digest, metrics, share = run_once(checkout, args, workload, seed)
            digests.setdefault(seed, set()).add(digest)
            runs[side].append(metrics)
            failed[side].append(share)
        print(f"  pair {pair + 1}/{args.pairs} (seed {seed}): sim_ops_per_wall_s"
              f" parent {runs['parent'][-1]['sim_ops_per_wall_s']:.6g}"
              f"  change {runs['change'][-1]['sim_ops_per_wall_s']:.6g}", flush=True)
    for seed, seen in digests.items():
        print(f"{workload} seed {seed}: sim_digest"
              f" {'identical' if len(seen) == 1 else 'DIFFERS'} ({', '.join(sorted(seen))})")
    same = all(len(seen) == 1 for seen in digests.values())
    worse = [i + 1 for i, (b, a) in enumerate(zip(failed["parent"], failed["change"])) if a > b]
    print(f"{workload} failed share: parent {max(failed['parent']):.6g} change"
          f" {max(failed['change']):.6g} (worst run)"
          + (f"  LARGER for the change in pairs {worse}" if worse else ""))
    for name in runs["parent"][0]:
        print("  " + verdict(name, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])[0])
    return same and not worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="checkout directory or git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; pair i runs seed i mod k on both sides (default 7)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default write-pbft (see BENCHMARK.json for the others)")
    parser.add_argument("--trace", action="store_true",
                        help="run --trace 1: every layer's self_s and events beside the end-to-end rows")
    args = parser.parse_args()
    args.seed = args.seed or [7]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        parent = Path(args.parent)
        if not parent.is_dir():
            parent = Path(scratch)
            export(args.parent, parent)
        print(f"parent {args.parent} vs change {ROOT}: {args.pairs} alternating pairs,"
              f" seeds {args.seed} --seconds {args.seconds:g} --trace {int(args.trace)}")
        same = [compare(args, parent.resolve(), w) for w in args.workload or ["write-pbft"]]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
