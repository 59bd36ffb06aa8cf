#!/usr/bin/env python3
"""The repo's benchmark: service workloads, two-clock metrics, per-layer attribution.

One measured run (what ``BENCHMARK.json``'s ``command`` invokes, once per
fresh interpreter)::

    python3 benchmarks/perf/run.py --workload e2e-mixed --seed 7 --seconds 12 --trace 0

prints every metric by name with unit and direction, runs the checks, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.

The full human run (all workloads round-robin, one child process per
(workload, repeat), medians and quartiles into a result file)::

    python3 benchmarks/perf/run.py [--seed 11] [--repeats 5] [--workloads a,b]
                                   [--trace] [--smoke] [--out FILE]
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py manifest          # the BENCHMARK.json text

See README.md beside this file for the metric definitions and how to cite them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not __package__:
    # Run as a script: `perf` is a package under benchmarks/ and the program
    # under test lives in src/.  (Imported as perf.run, the importer set these.)
    sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]

from perf.host import peak_rss_mb  # noqa: E402
from perf.metrics import END_TO_END, PER_LAYER, Metric, quartiles, spread  # noqa: E402

DRIVER_SECONDS = 12  # BENCHMARK.json run_seconds
FULL_SECONDS = 3.5  # the human run's default budget per timed window
SMOKE_SECONDS = 0.7
CALIB_TOLERANCE = 0.25  # beyond the reference host's own drift: another class of host
CHILD_TIMEOUT_S = 170


def require_program() -> None:
    """Refuse to run against anything but this checkout's ``src/repro``."""
    try:
        import repro
    except ImportError:
        sys.exit(f"benchmark: the program's sources are missing ({ROOT / 'src' / 'repro'})")
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        sys.exit(f"benchmark: 'repro' resolves to {repro.__file__}, not this checkout's src/")


# ----------------------------------------------------------------------
# One measured run (driver contract / child of the full run)
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool,
            spans: Optional[str], probes: bool) -> Dict[str, Any]:
    from perf.trace import Tracer
    from perf.workloads import WORKLOADS, measure, time_setup

    workload = WORKLOADS[name]
    values: Dict[str, float] = {}
    if not trace:
        setup = time_setup(workload, seed)
        gc.collect()  # fifteen discarded systems must not count towards peak RSS
        record = measure(workload, seed, seconds)
        values["setup_s"] = setup["setup_s"]
        record["setup"] = setup
    else:
        record = measure(workload, seed, seconds)
        tracer = Tracer(keep_spans=spans is not None)
        traced = measure(workload, seed, seconds, tracer)
        same = traced["sim_digest"] == record["sim_digest"]
        record["checks"] += [c for c in traced["checks"] if c["name"] == "traced_events_sum"]
        record["checks"].append({
            "name": "traced_equals_untraced", "ok": same,
            "detail": f"sim_digest traced {traced['sim_digest']} untraced {record['sim_digest']}",
        })
        values.update(traced["traced"])
        values["trace.overhead_frac"] = traced["host"]["sim.wall_s"] / record["host"]["sim.wall_s"] - 1.0
        if spans is not None:
            print(f"wrote {tracer.dump_spans(spans)} spans to {spans}")
        if probes:
            from perf.probes import run_probes
            values.update(run_probes())
    values.update(record["sim"])
    values.update(record["host"])
    values["host.nproc"] = os.cpu_count() or 1
    values["peak_rss_mb"] = peak_rss_mb()
    record["values"] = values
    # The program reads these (REPRO_NOC_EXPRESS, ...); a run under them is not the baseline.
    record["env"] = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    record["correct"] = all(c["ok"] for c in record["checks"])
    return record


def print_metrics(values: Dict[str, float], specs: List[Metric], indent: str = "") -> None:
    for spec in specs:
        if spec.name in values:
            print(f"{indent}{spec.name:38s} {values[spec.name]:>16.6g} {spec.unit:<8s} "
                  f"({spec.better} is better, {spec.clock} clock)")


def print_checks(checks: List[Dict[str, Any]], indent: str = "") -> None:
    for check in checks:
        print(f"{indent}check {check['name']:26s} {'ok  ' if check['ok'] else 'FAIL'} {check['detail']}")


def main_one(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    record = run_one(args.workload, args.seed, args.seconds, trace, args.spans,
                     probes=not args.child)
    values = record["values"]
    print(f"workload {record['workload']} seed {record['seed']} seconds {record['seconds']:g} "
          f"window {record['window_ms']:g} sim-ms  sim_digest {record['sim_digest']}  "
          f"latency samples {record['sim']['lat_samples']}"
          + (f"  env {record['env']}" if record["env"] else ""))
    specs = PER_LAYER if trace else END_TO_END
    print_metrics(values, specs)
    print_checks(record["checks"])
    if args.child:
        print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            spec.name: {"value": values[spec.name], "unit": spec.unit}
            for spec in specs if spec.name in values
        },
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# The full run: round-robin children, medians, result file
# ----------------------------------------------------------------------

def child(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)), "--child"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    for line in done.stdout.splitlines():
        if line.startswith("RECORD "):
            return json.loads(line[len("RECORD "):])
    raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode} without a record:\n"
                       f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")


def summarise(workload: Any, records: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]], probes: Dict[str, float]) -> Dict[str, Any]:
    """One workload's result-file entry: medians over repeats, layer values, checks."""
    digests = sorted({r["sim_digest"] for r in records})
    checks = [dict(c, repeat=i) for i, r in enumerate(records) for c in r["checks"]]
    checks.append({"name": "digest_repeats", "ok": len(digests) == 1,
                   "detail": f"sim_digest over {len(records)} repeats: {digests}"})
    layer = dict(records[-1]["values"])
    if traced is not None:
        checks += [dict(c, repeat="traced") for c in traced["checks"]]
        checks.append({"name": "traced_digest", "ok": traced["sim_digest"] == digests[0],
                       "detail": f"traced child {traced['sim_digest']} vs {digests[0]}"})
        layer.update(traced["values"])
    for spec in PER_LAYER:  # host-clock layer values: median over the untraced repeats
        if spec.clock == "host" and spec.name in records[0]["values"]:
            layer[spec.name] = statistics.median(r["values"][spec.name] for r in records)
    layer.update(probes)
    return {
        "why": workload.why,
        "gated": workload.gated,
        "window_ms": records[0]["window_ms"],
        "sim_digest": digests[0],
        "lat_samples": records[0]["sim"]["lat_samples"],
        "attempted": records[0]["attempted"],
        "failed": records[0]["failed"],
        "end_to_end": {
            spec.name: dict(quartiles([r["values"][spec.name] for r in records]),
                            unit=spec.unit, better=spec.better, clock=spec.clock)
            for spec in END_TO_END
        },
        "per_layer": {spec.name: layer[spec.name] for spec in PER_LAYER if spec.name in layer},
        "checks": checks,
    }


def print_entry(name: str, entry: Dict[str, Any]) -> None:
    n = entry["end_to_end"]["setup_s"]["n"]
    print(f"\n== {name}  (window {entry['window_ms']:g} sim-ms, {n} repeat(s), "
          f"sim_digest {entry['sim_digest']}, {entry['lat_samples']} latency samples, "
          f"{entry['failed']}/{entry['attempted']} ops refused or failed)")
    for spec in END_TO_END:
        s = entry["end_to_end"][spec.name]
        print(f"  {spec.name:38s} {s['median']:>16.6g} {spec.unit:<8s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} min {s['min']:.6g} n {s['n']} "
              f"({spec.better} is better, {spec.clock} clock)")
    print_metrics(entry["per_layer"], PER_LAYER, indent="  ")
    checks = entry["checks"]
    print_checks([c for c in checks if not c["ok"]] or
                 [{"name": "all", "ok": True, "detail": f"{len(checks)} checks passed"}], "  ")


def main_full(args: argparse.Namespace) -> int:
    from perf.workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            sys.exit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else FULL_SECONDS)
    repeats = 1 if args.smoke else args.repeats
    started = time.perf_counter()

    # Round-robin over workloads so a slow phase of a shared host hits all alike.
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for rep in range(repeats):
        for name in names:
            runs[name].append(child(name, args.seed, seconds, trace=False))
            print(f"[{time.perf_counter() - started:6.1f}s] {name} repeat {rep + 1}/{repeats}",
                  file=sys.stderr)
    traced = {name: child(name, args.seed, seconds, trace=True) for name in names} if args.trace else {}

    from perf.probes import REPS, run_probes
    probes = run_probes(1 if args.smoke else REPS)

    ok = True
    result: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": seconds, "repeats": repeats,
        "smoke": bool(args.smoke), "traced": bool(args.trace),
        "nproc": os.cpu_count() or 1,
        "env": runs[names[0]][0]["env"],
        "calib_s": statistics.median(r["values"]["host.calib_s"] for rs in runs.values() for r in rs),
        "probes": probes, "workloads": {},
    }
    for name in names:
        entry = summarise(WORKLOADS[name], runs[name], traced.get(name), probes)
        result["workloads"][name] = entry
        ok = ok and all(c["ok"] for c in entry["checks"])
        print_entry(name, entry)

    out = Path(args.out) if args.out else HERE / "results" / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {out}  ({time.perf_counter() - started:.0f}s wall)  "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def main_compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    for key in ("seed", "seconds"):
        if a[key] != b[key]:
            sys.exit(f"compare: the runs differ in {key} ({a[key]} vs {b[key]}); "
                     "only runs with identical settings compare")
    calib_drift = abs(b["calib_s"] / a["calib_s"] - 1.0)
    host_comparable = calib_drift <= CALIB_TOLERANCE
    print(f"A {path_a}\nB {path_b}\nhost.calib_s A {a['calib_s']:.4f} B {b['calib_s']:.4f} "
          f"(drift {calib_drift:.1%}{'' if host_comparable else ': host-clock rows unresolved'})")
    regressed = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        exact = wa["sim_digest"] == wb["sim_digest"]
        print(f"\n== {name}  sim_digest {'identical' if exact else 'DIFFERS'}"
              f"{'' if wa['gated'] else '  (not gated)'}")
        for spec in END_TO_END:
            sa, sb = wa["end_to_end"][spec.name], wb["end_to_end"][spec.name]
            base, new = sa["median"], sb["median"]
            ratio = new / base if base else float("inf")
            worse_by = (ratio - 1.0) if spec.better == "lower" else (1.0 - ratio)
            if spec.clock == "sim" and exact:
                verdict = "ok (exact)" if new == base else "regressed"
            elif max(spread(sa), spread(sb)) > spec.bound or (
                    spec.clock == "host" and not host_comparable):
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse_by > spec.bound else "ok"
            if verdict == "regressed" and wa["gated"]:
                regressed += 1
            print(f"  {spec.name:24s} A {base:>12.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]  "
                  f"B {new:>12.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]  "
                  f"B/A {ratio:.4f} of {base:.6g} {spec.unit}  bound {spec.bound:.0%}  {verdict}")
    print(f"\n{regressed} regressed row(s)")
    return 0 if regressed == 0 else 1


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def manifest() -> Dict[str, Any]:
    """The BENCHMARK.json contents, generated from the metric/workload tables."""
    from perf.workloads import GATED

    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": DRIVER_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in GATED],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return main_compare(argv[1], argv[2])
    if argv[:1] == ["manifest"]:
        require_program()
        print(json.dumps(manifest(), indent=2))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--workloads", help="full run: comma-separated subset")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall budget of one timed window on the reference host")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="1 repeat, windows / 5, same checks")
    parser.add_argument("--out", help="result file (default benchmarks/perf/results/latest.json)")
    parser.add_argument("--spans", help="with --workload --trace 1: dump every span as JSONL")
    # Set by the full run on its children: also print the whole record, and
    # leave the layer probes to the parent (once, not per workload).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_program()
    if args.workload is None:
        return main_full(args)
    from perf.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(DRIVER_SECONDS)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
