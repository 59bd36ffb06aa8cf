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
   returns one :class:`Window`, whose fault :data:`Schedule` the one
   :class:`FaultPlayer` plays;
4. **the statistics every report repeats** — :func:`window_stats` and
   :func:`demand_totals`.

Nothing here knows who is calling: a caller that differs passes a
different argument.  Defaults are resolved *inside* the trial and never
written into a campaign spec's ``base`` — trial ids and seeds derive from
the spec hash, so a default that entered ``base`` would re-seed the
campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.bft.batching import BatchConfig
from repro.bft.client import ClientConfig, ClientNode
from repro.bft.group import ReplicaGroup, protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.bft.replica import ProtocolConfig
from repro.core.orchestrator import OrchestratorConfig, ResilientSystem
from repro.core.rejuvenation import RejuvenationPolicy
from repro.faults.byzantine import make_strategy
from repro.mesoscale.population import ClientPopulation, PopulationConfig
from repro.metrics.stats import percentile
from repro.metrics.traffic import TrafficSource, aggregate_completions, aggregate_latencies
from repro.shard.manager import ShardConfig, ShardedSystem
from repro.shard.router import RouterConfig
from repro.sim.simulator import Simulator
from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    ParetoArrivals,
    PoissonArrivals,
)
from repro.workloads.workload import Workload


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

class UnknownShard(ValueError):
    """A fault schedule names a shard the system does not have."""


@dataclass(frozen=True)
class Crash:
    """``member`` (None: the acting primary) crashes; back ``outage`` later."""

    at: float
    member: Optional[int] = None
    outage: Optional[float] = None
    shard: Optional[str] = None


@dataclass(frozen=True)
class Compromise:
    """``member`` runs the Byzantine ``strategy`` and recovers at ``until``."""

    at: float
    strategy: str
    member: int
    until: Optional[float] = None
    shard: Optional[str] = None


@dataclass(frozen=True)
class Step:
    """A switch to family ``to``, or a scale-out by one member."""

    at: float
    to: Optional[str] = None
    shard: Optional[str] = None


@dataclass(frozen=True)
class KillShard:
    """Every tile of shard ``shard`` crashes."""

    at: float
    shard: str


Fault = Union[Crash, Compromise, Step, KillShard]
#: Entries at absolute sim-ms; ``shard`` None is a one-group service's group.
Schedule = Tuple[Fault, ...]


def _acting_primary(group: ReplicaGroup) -> str:
    """The primary of the highest view a live member holds."""
    return group.context.primary_of(max(r.view for r in group.correct_replicas()))


class FaultPlayer:
    """The one player of a fault schedule on ``groups`` (by shard id);
    ``kill`` kills a shard.

    Made before any event runs, it refuses an unknown shard
    (:class:`UnknownShard`), an entry before ``start`` (default: now), an
    end or outage before its start, a member index the group lacks and an
    unknown strategy (ValueError).  :meth:`arm` makes every other entry
    than a crash one event, in schedule order (a compromise's end right
    after its start).  Targets are resolved as entries fire.  A crash or
    recovery at t is played by :meth:`run` after every event at t, so "the
    acting primary" is the one at t.  A switch rebuilds every member, so
    each compromise in force on that group is activated again, with the
    same strategy.
    """

    def __init__(self, schedule: Schedule, sim: Simulator, groups: Mapping[Optional[str], ReplicaGroup],
                 kill: Optional[Callable[[str], None]] = None, start: Optional[float] = None) -> None:
        opens = sim.now if start is None else start
        for e in schedule:
            if e.shard not in groups:
                have = ", ".join(sid for sid in groups if sid is not None)
                raise UnknownShard(f"unknown shard {e.shard!r}; have {have}")
            if not e.at >= opens:
                raise ValueError(f"{e} fires before the schedule opens at {opens}")
            until, outage = getattr(e, "until", None), getattr(e, "outage", None)
            if (until is not None and not until > e.at) or (outage is not None and not outage >= 0):
                raise ValueError(f"{e} ends before it starts")
            member = getattr(e, "member", None)
            if member is not None and not 0 <= member < len(groups[e.shard].members):
                raise ValueError(f"{e} names a member its group does not have")
        self.schedule, self.sim, self.groups, self.kill = schedule, sim, groups, kill
        self._strategies = {
            i: make_strategy(e.strategy, sim.rng.stream("byzantine"))
            for i, e in enumerate(schedule) if isinstance(e, Compromise)
        }
        self._in_force: Set[int] = set()
        crashes = [(i, e) for i, e in enumerate(schedule) if isinstance(e, Crash)]
        self._moments = sorted(
            [(e.at, i, False) for i, e in crashes]
            + [(e.at + e.outage, i, True) for i, e in crashes if e.outage is not None],
            key=lambda moment: moment[0],
        )
        self._down: Dict[int, str] = {}

    def arm(self) -> "FaultPlayer":
        """Schedule the entries (every one but the crashes)."""
        for i, e in enumerate(self.schedule):
            if isinstance(e, Compromise):
                self.sim.schedule_at(e.at, self._compromise, i)
                if e.until is not None:
                    self.sim.schedule_at(e.until, self._release, i)
            elif not isinstance(e, Crash):
                self.sim.schedule_at(e.at, self._fire, e)
        return self

    def run(self, until: float) -> None:
        """Run to ``until``, crashing and recovering members on the way."""
        while self._moments and self._moments[0][0] <= until:
            at, i, recovering = self._moments.pop(0)
            self.sim.run(until=at)
            e, group = self.schedule[i], self.groups[self.schedule[i].shard]
            if recovering:
                group.replicas[self._down[i]].recover()
                continue
            self._down[i] = name = _acting_primary(group) if e.member is None else group.members[e.member]
            group.crash(name)
        self.sim.run(until=until)

    def _compromise(self, i: int) -> None:
        e, group = self.schedule[i], self.groups[self.schedule[i].shard]
        self._in_force.add(i)
        self._strategies[i].activate(group.replicas[group.members[e.member]])

    def _release(self, i: int) -> None:
        e, group = self.schedule[i], self.groups[self.schedule[i].shard]
        self._in_force.discard(i)
        replica = group.replicas[group.members[e.member]]
        if not replica.is_correct:
            replica.recover()

    def _fire(self, e: Union[Step, KillShard]) -> None:
        if isinstance(e, KillShard):
            self.kill(e.shard)
            return
        group = self.groups[e.shard]
        if e.to is None:
            group.resize(len(group.members) + 1)
            return
        group.switch_protocol(e.to)
        for i in self._strategies:  # in schedule order
            if i in self._in_force and self.schedule[i].shard == e.shard:
                self._compromise(i)


def kill_at_half(shard: Optional[str], warmup: float, duration: float) -> Schedule:
    """``shard``'s tiles crash half-way through the window opened after
    ``warmup`` (no entry when ``shard`` is empty): ``repro shard|mesoscale
    --kill-shard``, the ``mesoscale`` runner, C2 and C4."""
    return (KillShard(warmup + duration / 2.0, shard),) if shard else ()


class Window(NamedTuple):
    """One measured window ``[start, end)`` of a running service.

    ``duration`` is the nominal length the caller asked for: rates divide
    by it, as every summary always has, not by ``end - start``, which can
    differ from it in the last bit.  ``faults`` plays the window's
    schedule.
    """

    system: Any
    sources: Sequence[TrafficSource]
    start: float
    duration: float
    faults: FaultPlayer

    @property
    def end(self) -> float:
        """Where ``run`` stops: the clock reads exactly this afterwards."""
        return self.start + self.duration

    def run(self) -> "Window":
        """Run the service, and its fault schedule, to the end of the window."""
        self.faults.run(self.end)
        return self


def open_window(
    system: Any,
    sources: Sequence[TrafficSource],
    warmup: float,
    duration: float,
    faults: Schedule = (),
) -> Window:
    """Warm the service up and open the window; ``.run()`` runs it.

    ``faults`` is checked before any event runs, must fall after the
    warm-up, and is armed the moment the window opens.  Whatever else
    should break inside the window is scheduled by the caller between
    this call and ``.run()``.
    """
    if isinstance(system, ShardedSystem):
        groups = {sid: shard.group for sid, shard in system.shards.items()}
        player = FaultPlayer(faults, system.sim, groups, system.kill_shard, system.sim.now + warmup)
    else:
        player = FaultPlayer(faults, system.sim, {None: system.group}, start=system.sim.now + warmup)
    system.start(warmup=warmup)
    return Window(system, sources, system.sim.now, duration, player.arm())


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
