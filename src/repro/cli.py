"""Command-line interface: ``python -m repro <command>`` (or ``repro …``
once installed via the console-script entry point).

Commands
--------
``info``
    Print the package inventory and version.
``demo``
    Run a short end-to-end demo (the quickstart scenario) and print its
    summary.
``shard``
    Run the sharded service layer (N replica groups on one chip) and
    print the per-shard report; ``--kill-shard s1`` exercises
    shard-level failover.
``mesoscale``
    Drive aggregated client populations (10^5–10^6 modeled clients,
    O(populations) memory) through the sharded service with admission
    control and load shedding; ``--kill-shard s1`` shows demand being
    shed at the source while survivors keep serving.
``leases``
    Compare the read path with primary-granted read leases off vs on
    (P4): a read-heavy aggregated population over a sharded system,
    reporting local-read share, lease churn, and the throughput ratio.
``experiments``
    List the experiment index (id, claim, bench target); ``--verify``
    checks the index against the actual ``benchmarks/`` directory.
``campaign list|run|report``
    The sweep-scale evaluation engine (:mod:`repro.campaign`): run
    built-in campaigns in parallel, resume interrupted ones, and
    aggregate results across seeds.
``faultspace``
    The C3 statistical fault-injection campaign (:mod:`repro.faultspace`):
    sample the chip's fault space per stratum, classify every injection
    into {masked, SDC, detected-recovered, unavailable}, stop each
    stratum once its confidence interval is tight enough, and write the
    byte-stable dependability summary.
``evolve``
    Evolutionary design-space exploration (:mod:`repro.evolve`): an
    NSGA-II loop over the protocol/batching/sharding/placement/
    rejuvenation space with common random numbers, shared trial
    memoization, and CI-bound early kills; writes the byte-stable
    ``pareto.json`` / ``front.txt`` decision-support artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List, Optional

EXPERIMENTS = [
    ("E1", "Fig.1: redundancy per layer masks faults", "bench_e1_layers.py"),
    ("E2", "SIII: hybrids cut 3f+1 to 2f+1", "bench_e2_hybrid_bft.py"),
    ("E3", "SII.B: diversity vs common-mode failure", "bench_e3_diversity.py"),
    ("E4", "SII.C: rejuvenation vs APTs", "bench_e4_rejuvenation.py"),
    ("E5", "SII.D: threat-adaptive protocol switching", "bench_e5_adaptation.py"),
    ("E6", "SIII: hybrid complexity middle ground", "bench_e6_hybrid_complexity.py"),
    ("E7", "SII.E: consensual reconfiguration", "bench_e7_reconfig.py"),
    ("E8", "SII.A: passive vs active replication", "bench_e8_passive_active.py"),
    ("E9", "SII.A: replica elasticity (spawn like VMs)", "bench_e9_elasticity.py"),
    ("E10", "SII.C: partial rejuvenation vs device restart", "bench_e10_partial_rejuv.py"),
    ("E11", "SI: networked systems of SoCs", "bench_e11_spanning.py"),
    ("E12", "read-only fast path", "bench_e12_read_path.py"),
    ("A1", "ablation: the hybrid interface is the trust anchor", "bench_a1_hybrid_interface.py"),
    ("A2", "ablation: severity-detector tuning", "bench_a2_severity_ablation.py"),
    ("C1", "campaign engine: sweep-scale evaluation", "bench_campaign_smoke.py"),
    ("C2", "SII: sharding scales throughput across replica groups", "bench_c2_shard_scaling.py"),
    ("C3", "statistical fault injection: outcome CIs + MTTF bounds", "bench_c3_faultspace.py"),
    ("C4", "mesoscale traffic: 10^5+ aggregated clients, admission + shedding", "bench_c4_mesoscale.py"),
    ("P1", "perf: NoC express path + kernel hot-path overhaul", "bench_p1_hotpath.py"),
    ("P2", "perf: consensus batching + pipelined agreement", "bench_p2_consensus.py"),
    ("P4", "perf: leased local reads with bounded staleness", "bench_p4_leased_reads.py"),
    ("P5", "perf: evolutionary search reaches the Pareto front >=2x cheaper than sweeps", "bench_p5_evolve.py"),
]


def cmd_info(args: argparse.Namespace) -> int:
    """Print version and package inventory."""
    import repro

    print(f"repro {repro.__version__} — fault- and intrusion-resilient "
          f"manycore systems on a chip (DSN 2023 reproduction)")
    print("subsystems:", ", ".join(repro.__all__))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run a short end-to-end scenario and print the outcome."""
    from repro.campaign import scenario
    from repro.campaign.runners import THROUGHPUT_PARAMS
    from repro.core.rejuvenation import RejuvenationPolicy

    system, clients = scenario.resilient_service(
        args.seed, 1, protocol=args.protocol,
        rejuvenation=RejuvenationPolicy(period=60_000),
    )
    scenario.open_window(
        system, clients, THROUGHPUT_PARAMS["warmup"], args.duration
    ).run()
    print(system.summary())
    return 0 if system.is_safe else 1


def cmd_shard(args: argparse.Namespace) -> int:
    """Run a sharded-service scenario and print the per-shard report."""
    from repro.campaign import scenario
    from repro.campaign.runners import SHARD_SCALING_PARAMS as defaults
    from repro.metrics.tables import Table
    from repro.workloads import AlternatingKV, UniformKeys

    system = scenario.sharded_system(
        args.seed, args.shards, not args.no_rejuvenation,
        protocol=args.protocol, width=args.width, height=args.height,
    )
    drivers = scenario.closed_drivers(
        system, args.clients, args.think_time, AlternatingKV(UniformKeys(defaults["key_space"]))
    )
    kill = scenario.kill_at_half(args.kill_shard, defaults["warmup"], args.duration)
    try:
        window = scenario.open_window(system, drivers, defaults["warmup"], args.duration, kill)
    except scenario.UnknownShard as exc:
        print(exc, file=sys.stderr)
        return 2
    window.run()

    table = Table(
        "shard",
        ["shard", "status", "protocol", "replicas", "ops", "p50", "p95", "threat"],
        title=f"{args.shards}-shard service, {args.clients} clients",
    )
    for shard_id in system.directory.shard_ids:
        m = system.shard_metrics(shard_id)
        table.add_row([
            m["shard"], m["status"], m["protocol"], m["correct"],
            m["ops"], round(float(m["p50_latency"]), 1),
            round(float(m["p95_latency"]), 1), m["threat"],
        ])
    print(table.render())
    stats = scenario.window_stats(window)
    print(f"\nmeasured window: {stats['ops']} ops "
          f"({stats['ops_per_sec']:.1f} ops/s sim), "
          f"{system.failed_operations()} failed")
    print(system.summary())
    degraded = system.directory.degraded_shards()
    if args.kill_shard is not None:
        survivors_ok = all(
            system.shard_safe(s) for s in system.directory.live_shards()
        )
        return 0 if degraded == [args.kill_shard] and survivors_ok else 1
    return 0 if system.is_safe and not degraded else 1


def cmd_mesoscale(args: argparse.Namespace) -> int:
    """Run aggregated client populations against the sharded service."""
    from repro.campaign import scenario
    from repro.campaign.runners import MESOSCALE_PARAMS, mesoscale_window
    from repro.metrics.tables import Table
    from repro.metrics.traffic import latency_percentiles

    # Flags named like the runner's parameter pass as they are.
    params = {k: v for k, v in vars(args).items() if k in MESOSCALE_PARAMS}
    params.update(
        rate_per_client=args.rate, n_clients=args.clients,
        n_populations=args.populations, n_shards=args.shards,
    )
    try:
        window = mesoscale_window(params, args.seed)
    except scenario.UnknownShard as exc:
        print(exc, file=sys.stderr)
        return 2
    system, populations = window.system, window.sources
    start, end = window.start, window.end

    table = Table(
        "population",
        ["population", "clients", "offered", "admitted", "shed", "ops",
         "p50", "p99"],
        title=(f"{len(populations)} population(s), "
               f"{sum(p.modeled_clients for p in populations)} modeled clients, "
               f"{args.process} arrivals"),
    )
    for population in populations:
        pct = latency_percentiles(
            population.latencies_in(start, end), (50.0, 99.0)
        )
        table.add_row([
            population.name, population.modeled_clients, population.offered,
            population.admitted, population.shed,
            population.completions_in(start, end),
            round(pct["p50"], 1), round(pct["p99"], 1),
        ])
    print(table.render())
    stats = scenario.window_stats(window, "p50_latency_ms", "p99_latency_ms")
    demand = scenario.demand_totals(populations)
    print(f"\nmeasured window: {stats['ops']} ops "
          f"({stats['ops_per_sec']:.1f} ops/s sim), "
          f"p50={stats['p50_latency_ms']:.1f}ms p99={stats['p99_latency_ms']:.1f}ms, "
          f"shed {demand['shed']}/{demand['offered']} offered")
    print(system.summary())
    if args.kill_shard is not None:
        survivors_ok = all(
            system.shard_safe(s) for s in system.directory.live_shards()
        )
        ok = (system.directory.degraded_shards() == [args.kill_shard]
              and demand["shed_degraded"] > 0 and survivors_ok)
        return 0 if ok else 1
    return 0 if system.is_safe and stats["ops"] > 0 else 1


def cmd_leases(args: argparse.Namespace) -> int:
    """Compare the read path with leases off vs on (the P4 story)."""
    from repro.campaign.runners import LEASED_READS_PARAMS, get_runner
    from repro.metrics.tables import Table

    runner = get_runner("leased_reads")
    # Flags named like the runner's parameter pass as they are.
    base = {k: v for k, v in vars(args).items() if k in LEASED_READS_PARAMS}
    base.update(
        n_shards=args.shards, n_clients=args.clients,
        rate_per_client=args.rate, n_ranges=args.ranges,
    )
    off = runner({**base, "leases": 0}, args.seed)
    on = runner({**base, "leases": 1}, args.seed)
    table = Table(
        "leases",
        ["read path", "ops", "ops/s (sim)", "p95 lat", "local", "fallback",
         "granted", "revoked", "safe"],
        title=(f"{args.protocol}: quorum fast path vs leased reads, "
               f"{args.clients} modeled clients @ "
               f"{int(args.read_ratio * 100)}% reads"),
    )
    for label, r in (("quorum", off), ("leased", on)):
        table.add_row([
            label, r["ops"], round(r["ops_per_sec"], 1),
            round(r["p95_latency_ms"], 1), r["reads_local"],
            r["reads_quorum_fallback"], r["lease_granted"],
            r["lease_revoked"], "yes" if r["safe"] else "NO",
        ])
    print(table.render())
    ratio = on["ops_per_sec"] / off["ops_per_sec"] if off["ops_per_sec"] else 0.0
    print(f"\nleased/quorum throughput: {ratio:.2f}x "
          f"(ordered fraction {on['ordered_frac']:.3f} leased, "
          f"{off['ordered_frac']:.3f} quorum)")
    ok = bool(off["safe"] and on["safe"] and on["reads_local"] > 0)
    return 0 if ok else 1


def benchmarks_dir() -> Path:
    """The repo's ``benchmarks/`` directory (next to ``src/``)."""
    return Path(__file__).resolve().parents[2] / "benchmarks"


def verify_experiments_index(bench_dir: Optional[Path] = None) -> List[str]:
    """Cross-check :data:`EXPERIMENTS` against the bench files on disk.

    The index is hand-maintained (each entry carries a human claim no
    filename can encode), so it can drift: a bench added without an index
    entry, an entry pointing at a renamed file, or a duplicate id.
    Returns a list of drift messages — empty means the index is exact.
    A regression test calls this so drift fails CI instead of lingering.
    """
    bench_dir = bench_dir or benchmarks_dir()
    problems: List[str] = []
    on_disk = {p.name for p in bench_dir.glob("bench_*.py")}
    indexed = [bench for _, _, bench in EXPERIMENTS]
    seen_ids = set()
    for exp_id, _, bench in EXPERIMENTS:
        if exp_id in seen_ids:
            problems.append(f"duplicate experiment id {exp_id!r} in EXPERIMENTS")
        seen_ids.add(exp_id)
        if bench not in on_disk:
            problems.append(
                f"EXPERIMENTS entry {exp_id} points at missing file "
                f"benchmarks/{bench}"
            )
    for name in sorted(on_disk - set(indexed)):
        problems.append(f"benchmarks/{name} has no EXPERIMENTS index entry")
    dupes = {b for b in indexed if indexed.count(b) > 1}
    for name in sorted(dupes):
        problems.append(f"benchmarks/{name} is indexed more than once")
    return problems


def cmd_experiments(args: argparse.Namespace) -> int:
    """List the experiment index (optionally verifying it against disk)."""
    width = max(len(e[0]) for e in EXPERIMENTS)
    for exp_id, claim, bench in EXPERIMENTS:
        print(f"{exp_id.ljust(width)}  {claim:55s} benchmarks/{bench}")
    print()
    print("run all:  pytest benchmarks/ --benchmark-only -s")
    if getattr(args, "verify", False):
        problems = verify_experiments_index()
        if problems:
            for problem in problems:
                print(f"DRIFT: {problem}", file=sys.stderr)
            return 1
        print("index verified: matches benchmarks/ exactly")
    return 0


def cmd_faultspace(args: argparse.Namespace) -> int:
    """Run the C3 statistical fault-injection campaign."""
    from repro.faultspace import FaultspaceConfig, SequentialCampaign, render_report

    try:
        cfg = FaultspaceConfig(
            name=args.name,
            system=args.system,
            protocol=args.protocol,
            f=args.f,
            strata=args.strata or None,
            include_uniform=args.uniform,
            max_per_stratum=args.max_per_stratum,
            min_per_stratum=args.min_per_stratum,
            round_size=args.round_size,
            target_half_width=args.target_half_width,
            confidence=args.confidence,
            ci_method=args.method,
            early_stop=not args.no_early_stop,
            duration=args.duration,
            warmup=args.warmup,
            campaign_seed=args.campaign_seed,
            workers=args.workers,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    progress = None if args.quiet else print
    campaign = SequentialCampaign(cfg, args.out, progress=progress, fresh=args.fresh)
    summary = campaign.run()
    print()
    print(render_report(summary))
    print(
        f"results: {campaign.store.results_path}  "
        f"summary: {campaign.store.summary_path}"
    )
    return 0 if summary["overall"]["outcomes"]["sdc"]["count"] == 0 else 1


def cmd_evolve(args: argparse.Namespace) -> int:
    """Run (or resume) the P5 evolutionary design-space exploration."""
    from repro.evolve import EvolutionaryCampaign, EvolveConfig, render_front

    base = {
        "duration": args.duration,
        "warmup": args.warmup,
        "n_clients": args.n_clients,
        "rate_per_client": args.rate,
    }
    try:
        cfg = EvolveConfig(
            name=args.name,
            runner=args.runner,
            strategy=args.strategy,
            population=args.population,
            generations=args.generations,
            seeds_per_eval=args.seeds,
            min_seeds=args.min_seeds if args.min_seeds is not None else args.seeds,
            mutation_rate=args.mutation_rate,
            crossover_rate=args.crossover_rate,
            campaign_seed=args.campaign_seed,
            workers=args.workers,
            trial_timeout=args.trial_timeout,
            base=base,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    progress = None if args.quiet else print
    campaign = EvolutionaryCampaign(cfg, Path(args.out), progress=progress)
    summary = campaign.run(fresh=args.fresh)
    print()
    print(render_front(summary))
    print(f"artifacts: {campaign.directory / 'pareto.json'}  "
          f"{campaign.directory / 'front.txt'}")
    return 0 if summary["front"] else 1


# ----------------------------------------------------------------------
# campaign subcommands
# ----------------------------------------------------------------------

def _parse_override(text: str) -> Any:
    """``key=value`` with the value parsed as JSON, falling back to str."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must look like key=value"
        )
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def cmd_campaign_list(args: argparse.Namespace) -> int:
    """List the built-in campaign definitions."""
    from repro.campaign import BUILTIN_CAMPAIGNS, build_campaign

    for name in sorted(BUILTIN_CAMPAIGNS):
        spec = build_campaign(name)
        print(
            f"{name:12s} {spec.n_trials:4d} trials  runner={spec.runner:12s} "
            f"{spec.description}"
        )
    print()
    print("run one:  python -m repro campaign run <name> --workers 4")
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run (or resume) a built-in campaign and write its report."""
    from repro.campaign import (
        CampaignExecutor,
        ResultStore,
        build_campaign,
        render_report,
        write_summary,
    )

    overrides = dict(args.set or [])
    try:
        spec = build_campaign(
            args.name,
            n_seeds=args.seeds,
            campaign_seed=args.campaign_seed,
            base_overrides=overrides or None,
        )
    except (KeyError, ValueError) as exc:  # unknown campaign / unknown --set name
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.timeout is not None:
        spec.trial_timeout = args.timeout if args.timeout > 0 else None
    if args.retries is not None:
        spec.max_retries = args.retries
    from repro.campaign import SpecMismatchError

    try:
        store = ResultStore(args.out, spec).open(fresh=args.fresh)
    except SpecMismatchError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        progress = None if args.quiet else print
        stats = CampaignExecutor(
            spec, store, workers=args.workers, progress=progress
        ).run(limit=args.limit)
        summary = write_summary(store)
    finally:
        store.close()
    print()
    print(render_report(spec, summary))
    print()
    print(
        f"results: {store.results_path}  summary: {store.summary_path}  "
        f"({stats.succeeded} ok / {stats.failed} failed / "
        f"{stats.skipped} resumed-skip, {stats.wall_time_s:.2f}s)"
    )
    return 0 if stats.failed == 0 else 1


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Re-aggregate a campaign directory and print its report."""
    from repro.campaign import CampaignSpec, ResultStore, render_report, write_summary

    spec_path = Path(args.out) / args.name / "spec.json"
    if not spec_path.exists():
        print(f"no campaign at {spec_path.parent} (missing spec.json)", file=sys.stderr)
        return 1
    data = json.loads(spec_path.read_text(encoding="utf-8"))
    data.pop("spec_hash", None)
    spec = CampaignSpec.from_dict(data)
    store = ResultStore(args.out, spec).open()
    summary = write_summary(store)
    print(render_report(spec, summary))
    print(f"\nsummary: {store.summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``.

    A flag that exposes a runner parameter or a campaign-config field
    reads its default from that runner's table or that dataclass field.
    """
    from repro.campaign.runners import (
        EVOLVE_PARAMS,
        LEASED_READS_PARAMS,
        MESOSCALE_PARAMS,
        SHARD_SCALING_PARAMS,
        THROUGHPUT_PARAMS,
    )
    from repro.evolve import EvolveConfig
    from repro.faultspace import FaultspaceConfig

    protocols = ["minbft", "pbft", "cft", "passive"]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault- and intrusion-resilient manycore systems on a chip",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package inventory").set_defaults(fn=cmd_info)

    demo = sub.add_parser("demo", help="run a short end-to-end scenario")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--protocol", choices=protocols,
                      default=THROUGHPUT_PARAMS["protocol"])
    demo.add_argument("--duration", type=float, default=THROUGHPUT_PARAMS["duration"])
    demo.set_defaults(fn=cmd_demo)

    shard = sub.add_parser("shard", help="run a sharded-service scenario")
    defaults = SHARD_SCALING_PARAMS
    shard.add_argument("--seed", type=int, default=42)
    shard.add_argument("--shards", type=int, default=defaults["n_shards"],
                       help="number of independent replica groups")
    shard.add_argument("--clients", type=int, default=4,
                       help="closed-loop router/driver pairs")
    shard.add_argument("--protocol", choices=protocols, default=defaults["protocol"])
    shard.add_argument("--duration", type=float, default=defaults["duration"])
    shard.add_argument("--think-time", type=float, default=100.0)
    shard.add_argument("--width", type=int, default=defaults["width"])
    shard.add_argument("--height", type=int, default=defaults["height"])
    shard.add_argument("--kill-shard", default=None, metavar="SHARD",
                       help="crash this shard's tiles mid-run (e.g. s1)")
    shard.add_argument("--no-rejuvenation", action="store_true",
                       help="disable per-shard proactive rejuvenation")
    shard.set_defaults(fn=cmd_shard)

    mesoscale = sub.add_parser(
        "mesoscale", help="drive aggregated client populations (C4)"
    )
    defaults = MESOSCALE_PARAMS
    mesoscale.add_argument("--seed", type=int, default=42)
    mesoscale.add_argument("--clients", type=int, default=defaults["n_clients"],
                           help="total modeled clients across populations")
    mesoscale.add_argument("--populations", type=int, default=defaults["n_populations"],
                           help="number of aggregated population objects")
    mesoscale.add_argument("--shards", type=int, default=defaults["n_shards"],
                           help="number of independent replica groups")
    mesoscale.add_argument("--process",
                           choices=["poisson", "pareto", "diurnal", "flash"],
                           default=defaults["process"], help="arrival process shape")
    mesoscale.add_argument("--rate", type=float, default=defaults["rate_per_client"],
                           help="ops per client per sim ms")
    mesoscale.add_argument("--protocol", choices=protocols,
                           default=defaults["protocol"])
    mesoscale.add_argument("--duration", type=float, default=defaults["duration"])
    mesoscale.add_argument("--tick", type=float, default=defaults["tick"],
                           help="demand-sampling tick (sim ms)")
    mesoscale.add_argument("--max-inflight", type=int, default=defaults["max_inflight"],
                           help="per-population concurrent submission cap")
    mesoscale.add_argument("--width", type=int, default=defaults["width"])
    mesoscale.add_argument("--height", type=int, default=defaults["height"])
    mesoscale.add_argument("--kill-shard", default=None, metavar="SHARD",
                           help="crash this shard mid-run and require "
                           "degraded-shard shedding to engage")
    mesoscale.set_defaults(fn=cmd_mesoscale)

    leases = sub.add_parser(
        "leases", help="compare quorum vs leased reads (P4)"
    )
    defaults = LEASED_READS_PARAMS
    leases.add_argument("--seed", type=int, default=42)
    leases.add_argument("--protocol", choices=protocols,
                        default=defaults["protocol"])
    leases.add_argument("--shards", type=int, default=defaults["n_shards"],
                        help="number of independent replica groups")
    leases.add_argument("--clients", type=int, default=defaults["n_clients"],
                        help="modeled clients in the aggregated population")
    leases.add_argument("--rate", type=float, default=defaults["rate_per_client"],
                        help="ops per client per sim ms")
    leases.add_argument("--read-ratio", type=float, default=defaults["read_ratio"],
                        help="read share of the KV mix")
    leases.add_argument("--duration", type=float, default=defaults["duration"])
    leases.add_argument("--lease-duration", type=float, default=defaults["lease_duration"],
                        help="lease validity / staleness bound (sim ms)")
    leases.add_argument("--renew-period", type=float, default=defaults["renew_period"],
                        help="primary grant-renewal period (sim ms)")
    leases.add_argument("--ranges", type=int, default=defaults["n_ranges"],
                        help="number of key ranges leases are granted over")
    leases.add_argument("--width", type=int, default=defaults["width"])
    leases.add_argument("--height", type=int, default=defaults["height"])
    leases.set_defaults(fn=cmd_leases)

    experiments = sub.add_parser("experiments", help="list the experiment index")
    experiments.add_argument(
        "--verify", action="store_true",
        help="check the index against benchmarks/ and fail on drift",
    )
    experiments.set_defaults(fn=cmd_experiments)

    faultspace = sub.add_parser(
        "faultspace",
        help="run the C3 statistical fault-injection campaign",
    )
    faultspace.add_argument("--name", default=FaultspaceConfig.name,
                            help="campaign name (directory under --out)")
    faultspace.add_argument("--system", choices=["resilient", "sharded"],
                            default=FaultspaceConfig.system)
    faultspace.add_argument("--protocol", choices=protocols,
                            default=FaultspaceConfig.protocol)
    faultspace.add_argument("--f", type=int, default=FaultspaceConfig.f,
                            help="fault threshold per replica group")
    faultspace.add_argument("--strata", nargs="*", default=None, metavar="KEY",
                            help="restrict to these strata "
                            "(e.g. node:crash link:link_fail)")
    faultspace.add_argument("--uniform", action="store_true",
                            help="add the population-weighted uniform estimator")
    faultspace.add_argument("--max-per-stratum", type=int,
                            default=FaultspaceConfig.max_per_stratum,
                            help="per-stratum injection budget")
    faultspace.add_argument("--min-per-stratum", type=int,
                            default=FaultspaceConfig.min_per_stratum,
                            help="floor before a stratum may stop early")
    faultspace.add_argument("--round-size", type=int, default=FaultspaceConfig.round_size,
                            help="trials released per stratum per round")
    faultspace.add_argument("--target-half-width", type=float,
                            default=FaultspaceConfig.target_half_width,
                            help="CI half-width at which a stratum closes")
    faultspace.add_argument("--confidence", type=float,
                            default=FaultspaceConfig.confidence)
    faultspace.add_argument("--method", choices=["wilson", "clopper-pearson"],
                            default=FaultspaceConfig.ci_method,
                            help="binomial interval method")
    faultspace.add_argument("--no-early-stop", action="store_true",
                            help="always spend the full per-stratum budget")
    faultspace.add_argument("--duration", type=float, default=FaultspaceConfig.duration,
                            help="post-warmup observation horizon (sim ms)")
    faultspace.add_argument("--warmup", type=float, default=FaultspaceConfig.warmup)
    faultspace.add_argument("--campaign-seed", type=int,
                            default=FaultspaceConfig.campaign_seed)
    faultspace.add_argument("--workers", type=int, default=FaultspaceConfig.workers,
                            help="parallel worker processes (1 = inline serial)")
    faultspace.add_argument("--out", default="campaigns",
                            help="root directory for campaign results")
    faultspace.add_argument("--fresh", action="store_true",
                            help="discard previous results for this campaign")
    faultspace.add_argument("--quiet", action="store_true",
                            help="suppress per-trial progress lines")
    faultspace.set_defaults(fn=cmd_faultspace)

    evolve = sub.add_parser(
        "evolve",
        help="evolutionary design-space exploration with Pareto decision support",
    )
    evolve.add_argument("--name", default=EvolveConfig.name,
                        help="campaign name (artifact directory)")
    evolve.add_argument("--runner", default=EvolveConfig.runner,
                        choices=["evolve", "evolve_selftest"],
                        help="trial runner: full simulation or the analytic selftest")
    evolve.add_argument("--strategy", default=EvolveConfig.strategy,
                        choices=["nsga2", "stratified"],
                        help="nsga2 search or the stratified-random baseline")
    evolve.add_argument("--population", type=int, default=EvolveConfig.population,
                        help="individuals per generation")
    evolve.add_argument("--generations", type=int, default=EvolveConfig.generations)
    evolve.add_argument("--seeds", type=int, default=EvolveConfig.seeds_per_eval,
                        help="CRN seed repetitions per individual")
    evolve.add_argument("--min-seeds", type=int, default=None,
                        help="repetitions before the CI-bound early kill "
                             "(default: all, i.e. no racing)")
    evolve.add_argument("--mutation-rate", type=float,
                        default=EvolveConfig.mutation_rate)
    evolve.add_argument("--crossover-rate", type=float,
                        default=EvolveConfig.crossover_rate)
    evolve.add_argument("--duration", type=float, default=EVOLVE_PARAMS["duration"],
                        help="sim ms measured per trial")
    evolve.add_argument("--warmup", type=float, default=EVOLVE_PARAMS["warmup"])
    evolve.add_argument("--n-clients", type=int, default=EVOLVE_PARAMS["n_clients"],
                        help="modeled open-loop clients per trial")
    evolve.add_argument("--rate", type=float, default=EVOLVE_PARAMS["rate_per_client"],
                        help="ops per client per sim ms")
    evolve.add_argument("--campaign-seed", type=int, default=EvolveConfig.campaign_seed)
    evolve.add_argument("--workers", type=int, default=EvolveConfig.workers,
                        help="parallel trial workers per generation")
    evolve.add_argument("--trial-timeout", type=float,
                        default=EvolveConfig.trial_timeout)
    evolve.add_argument("--out", default="campaigns",
                        help="artifact root directory")
    evolve.add_argument("--fresh", action="store_true",
                        help="discard existing results for this name")
    evolve.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    evolve.set_defaults(fn=cmd_evolve)

    campaign = sub.add_parser(
        "campaign", help="run sweep-scale experiment campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_sub.add_parser(
        "list", help="list built-in campaign definitions"
    ).set_defaults(fn=cmd_campaign_list)

    run = campaign_sub.add_parser("run", help="run or resume a campaign")
    run.add_argument("name", help="built-in campaign name (see campaign list)")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (1 = inline serial)")
    run.add_argument("--out", default="campaigns",
                     help="root directory for campaign results")
    run.add_argument("--seeds", type=int, default=None,
                     help="override seed repetitions per parameter point")
    run.add_argument("--campaign-seed", type=int, default=None,
                     help="master seed all trial seeds derive from")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-trial wall-clock budget in seconds (0 disables)")
    run.add_argument("--retries", type=int, default=None,
                     help="retry budget per trial")
    run.add_argument("--limit", type=int, default=None,
                     help="run at most N pending trials (rest stay resumable)")
    run.add_argument("--fresh", action="store_true",
                     help="discard previous results for this campaign")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-trial progress lines")
    run.add_argument("--set", type=_parse_override, action="append", metavar="K=V",
                     help="override a base parameter (value parsed as JSON)")
    run.set_defaults(fn=cmd_campaign_run)

    report = campaign_sub.add_parser(
        "report", help="re-aggregate an existing campaign directory"
    )
    report.add_argument("name", help="campaign name (directory under --out)")
    report.add_argument("--out", default="campaigns",
                        help="root directory holding campaign results")
    report.set_defaults(fn=cmd_campaign_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
