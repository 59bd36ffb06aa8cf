"""How a trial is assembled: flat parameters → running service → measured window.

Every number this repo reports comes from the same four steps, and this
module is the one place each is written down:

1. **parameters to config objects** — :func:`resolve` merges a trial's
   flat parameters over a runner's table of names and defaults;
   :func:`protocol_config`, :func:`rejuvenation_policy` and
   :func:`arrival_process` turn them into what the subsystems take;
2. **build and attach** — :func:`sharded_system` with
   :func:`attach_populations` or :func:`closed_drivers`, or
   :func:`resilient_service` with its clients;
3. **warm up, optionally break something, run** — :func:`open_window`
   returns one :class:`Window`; a fault schedule is attached between it
   and ``.run()``;
4. **the statistics every report repeats** — :func:`window_stats` and
   :func:`demand_totals`.

Nothing here knows who is calling: a caller that differs passes a
different argument.  Defaults are resolved *inside* the trial and never
written into a campaign spec's ``base`` — trial ids and seeds derive from
the spec hash, so a default that entered ``base`` would re-seed the
campaign.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.bft.batching import BatchConfig
from repro.bft.client import ClientConfig, ClientNode
from repro.bft.group import protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.bft.replica import ProtocolConfig
from repro.core.orchestrator import OrchestratorConfig, ResilientSystem
from repro.core.rejuvenation import RejuvenationPolicy
from repro.mesoscale.population import ClientPopulation, PopulationConfig
from repro.metrics.stats import percentile
from repro.metrics.traffic import TrafficSource, aggregate_completions, aggregate_latencies
from repro.shard.manager import ShardConfig, ShardedSystem
from repro.shard.router import RouterConfig
from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    ParetoArrivals,
    PoissonArrivals,
)
from repro.workloads.workload import Workload


class UnknownShard(ValueError):
    """A window was asked to kill a shard the system does not have."""


# ----------------------------------------------------------------------
# 1. Parameters to config objects
# ----------------------------------------------------------------------

def resolve(table: Mapping[str, Any], params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` over the defaults of ``table``, typed like the defaults.

    A value whose default is not None is coerced to the default's type
    (``--set duration=60000`` arrives as an int, a genome's ``lease`` as
    0/1); a None default means "derived by the trial unless given", and
    a None value stands for "not given".  Names the table does not list
    (a campaign's label axes) pass through untouched.
    """
    resolved = dict(table)
    for name, value in params.items():
        default = table.get(name)
        if default is None or value is None:
            resolved[name] = value
        else:
            resolved[name] = type(default)(value)
    return resolved


def protocol_config(
    protocol: str,
    batch: Optional[Tuple[int, float, int]] = None,
    lease: Optional[Tuple[int, float, float]] = None,
    failover_timeout: Optional[float] = None,
) -> ProtocolConfig:
    """The family's config object, from flat values.

    ``batch`` is ``(batch_size, batch_delay, max_inflight)`` — primary-
    side batching, unless every knob is degenerate; ``lease`` is
    ``(n_ranges, duration, renew_period)`` — primary-granted read leases;
    ``failover_timeout`` is the family's ``view_timeout``, the time after
    which a replica suspects the primary.  Whatever is None stays at the
    family default.
    """
    knobs: Dict[str, Any] = {}
    if batch is not None and (batch[0] > 1 or batch[1] > 0 or batch[2] > 0):
        knobs["batching"] = BatchConfig(
            batch_size=batch[0], batch_delay=batch[1], max_inflight=batch[2]
        )
    if lease is not None:
        knobs["leases"] = LeaseConfig(
            n_ranges=lease[0], duration=lease[1], renew_period=lease[2]
        )
    if failover_timeout is not None:
        knobs["view_timeout"] = failover_timeout
    return protocol_config_for(protocol, **knobs)


def rejuvenation_policy(
    enabled: Any, period: float, **flags: bool
) -> Union[bool, RejuvenationPolicy]:
    """A policy of that ``period`` (``flags``: ``diversify``, ``relocate``,
    ``heal_first``), or False when not ``enabled``."""
    if not enabled:
        return False
    return RejuvenationPolicy(period=period, **flags)


def arrival_process(p: Mapping[str, Any]) -> ArrivalProcess:
    """The arrival process named by ``p["process"]``.

    Reads ``rate_per_client``, ``alpha`` (pareto), ``amplitude`` and
    ``period`` (diurnal), ``spike_after``, ``spike_duration``,
    ``multiplier`` and ``ramp`` (flash).  The shape knobs that are None
    derive from the window (``duration``, ``warmup``): one diurnal cycle
    per window, a spike a quarter-window long starting a quarter-window
    in, ramping over an eighth of itself.
    """

    def given(name: str, derived: float) -> float:
        return derived if p[name] is None else float(p[name])

    rate, duration = p["rate_per_client"], p["duration"]
    process = p["process"]
    if process == "poisson":
        return PoissonArrivals(rate)
    if process == "pareto":
        return ParetoArrivals(rate, alpha=p["alpha"])
    if process == "diurnal":
        return DiurnalArrivals(
            rate, amplitude=p["amplitude"], period=given("period", duration)
        )
    if process == "flash":
        spike_duration = given("spike_duration", duration / 4.0)
        return FlashCrowdArrivals(
            rate,
            spike_start=p["warmup"] + given("spike_after", duration / 4.0),
            spike_duration=spike_duration,
            multiplier=p["multiplier"],
            ramp=given("ramp", spike_duration / 8.0),
        )
    raise ValueError(f"unknown arrival process {process!r}")


# ----------------------------------------------------------------------
# 2. Build and attach
# ----------------------------------------------------------------------

def _rejuvenation_fields(rejuvenation: Union[bool, RejuvenationPolicy]) -> Dict[str, Any]:
    """False: off; True: the system's own default policy; a policy: that one."""
    policy = rejuvenation if isinstance(rejuvenation, RejuvenationPolicy) else None
    return {"enable_rejuvenation": bool(rejuvenation), "rejuvenation": policy}


def sharded_system(
    seed: int,
    n_shards: int,
    rejuvenation: Union[bool, RejuvenationPolicy] = False,
    router_timeout: Optional[float] = None,
    **config: Any,
) -> ShardedSystem:
    """N replica groups on one chip, no traffic attached yet.

    ``router_timeout`` is the retransmit timeout of every router placed
    later (None: the router default); ``config`` is further
    :class:`~repro.shard.manager.ShardConfig` fields (``protocol``,
    ``f``, ``width``, ``height``, ``protocol_config``).
    """
    router = None if router_timeout is None else RouterConfig(timeout=router_timeout)
    return ShardedSystem(
        ShardConfig(
            seed=seed, n_shards=n_shards, router=router,
            **_rejuvenation_fields(rejuvenation), **config,
        )
    )


def attach_populations(
    system: ShardedSystem, names: Sequence[str], **config: Any
) -> List[ClientPopulation]:
    """One population per name, each a ``PopulationConfig(**config)``
    behind its own router.  The names are load-bearing: each names the
    population's RNG streams, and attach order fixes router placement."""
    return [system.attach_population(name, PopulationConfig(**config)) for name in names]


def closed_drivers(
    system: ShardedSystem, n_drivers: int, think_time: float, workload: Workload
) -> List[ClientPopulation]:
    """``c0`` … ``c{n-1}``: single-client closed loops on ``workload``,
    a router each."""
    return attach_populations(
        system, [f"c{i}" for i in range(n_drivers)],
        n_clients=1, mode="closed", think_time=think_time, workload=workload,
    )


def resilient_service(
    seed: int,
    n_clients: int = 0,
    client: Optional[Mapping[str, Any]] = None,
    rejuvenation: Union[bool, RejuvenationPolicy] = True,
    **config: Any,
) -> Tuple[ResilientSystem, List[ClientNode]]:
    """One replica group with closed- or open-loop clients ``c0`` ….

    ``client`` holds their :class:`~repro.bft.client.ClientConfig`
    fields, ``config`` further
    :class:`~repro.core.orchestrator.OrchestratorConfig` fields.
    """
    system = ResilientSystem(
        OrchestratorConfig(seed=seed, **_rejuvenation_fields(rejuvenation), **config)
    )
    clients = [
        system.add_client(f"c{i}", ClientConfig(**(client or {})))
        for i in range(n_clients)
    ]
    return system, clients


# ----------------------------------------------------------------------
# 3. Warm up, optionally break something, run
# ----------------------------------------------------------------------

class Window(NamedTuple):
    """One measured window ``[start, end)`` of a running service.

    ``duration`` is the nominal length the caller asked for: rates divide
    by it, as every summary always has, not by ``end - start``, which can
    differ from it in the last bit.
    """

    system: Any
    sources: Sequence[TrafficSource]
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Where ``run`` stops: the clock reads exactly this afterwards."""
        return self.start + self.duration

    def run(self) -> "Window":
        """Run the service to the end of the window."""
        self.system.run(self.duration)
        return self


def open_window(
    system: Any,
    sources: Sequence[TrafficSource],
    warmup: float,
    duration: float,
    kill_shard: Optional[str] = None,
) -> Window:
    """Warm the service up and open the window; ``.run()`` runs it.

    ``kill_shard`` crashes that shard's tiles half-way through the
    window; the id is checked before any event runs.  Whatever else
    should break inside the window is scheduled by the caller between
    this call and ``.run()``.
    """
    if kill_shard and kill_shard not in system.shards:
        raise UnknownShard(
            f"unknown shard {kill_shard!r}; have {', '.join(system.directory.shard_ids)}"
        )
    system.start(warmup=warmup)
    if kill_shard:
        system.sim.schedule(duration / 2.0, system.kill_shard, kill_shard)
    return Window(system, sources, system.sim.now, duration)


# ----------------------------------------------------------------------
# 4. The statistics every report repeats
# ----------------------------------------------------------------------

def floor_p95(latencies: Sequence[float], empty: float = 0.0) -> float:
    """The floor-index p95 of an ascending sample: ``x[⌊0.95·(n−1)⌋]``.

    *Not* :func:`repro.metrics.stats.percentile` (nearest rank,
    ``x[⌈0.95·n⌉−1]``), which can read one sample higher.  The summaries
    that have always reported this one keep it, under its own name, so
    their bytes do not move (DESIGN §4 lists which report uses which).
    """
    return latencies[int(0.95 * (len(latencies) - 1))] if latencies else empty


#: Latency statistics by report key, each over the ascending sample.
#: ``p95_latency_ms`` is :func:`floor_p95`; p50 and p99 are nearest-rank.
LATENCY_STATS = {
    "mean_latency_ms": lambda xs: sum(xs) / len(xs) if xs else 0.0,
    "p50_latency_ms": lambda xs: percentile(xs, 50.0),
    "p95_latency_ms": floor_p95,
    "p99_latency_ms": lambda xs: percentile(xs, 99.0),
}


def window_stats(window: Window, *latency_stats: str) -> Dict[str, Any]:
    """``ops`` and ``ops_per_sec`` over the window, across all its
    sources, plus the named :data:`LATENCY_STATS` — a report keeps the
    percentile definition it has always had by naming the key."""
    ops = aggregate_completions(window.sources, window.start, window.end)
    stats: Dict[str, Any] = {"ops": ops, "ops_per_sec": ops / (window.duration / 1000.0)}
    if latency_stats:
        latencies = aggregate_latencies(window.sources, window.start, window.end)
        for name in latency_stats:
            stats[name] = LATENCY_STATS[name](latencies)
    return stats


def demand_totals(populations: Sequence[ClientPopulation]) -> Dict[str, int]:
    """Offered / admitted / shed / backlog, summed over open populations.

    Conservation holds on the sums as on each population:
    ``offered == admitted + shed + backlog``.
    """
    return {
        "offered": sum(p.offered for p in populations),
        "admitted": sum(p.admitted for p in populations),
        "shed": sum(p.shed for p in populations),
        "shed_degraded": sum(p.shed_by_reason.get("degraded", 0) for p in populations),
        "backlog": sum(p.backlog for p in populations),
    }
