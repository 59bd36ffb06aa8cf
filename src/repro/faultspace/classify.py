"""One injected trial, classified into exactly one outcome bucket.

:func:`run_faultspace_trial` is the body of the ``faultspace`` campaign
runner: build a system (``ResilientSystem`` or ``ShardedSystem``), warm
it up, sample one fault point from the trial's own seeded stream, inject
it through :class:`~repro.faults.injector.FaultInjector`, run out the
observation horizon, and bucket the result:

* **sdc** — silent data corruption: the SMR safety recorder saw replicas
  commit divergent state.  The one outcome the architecture must never
  produce within its fault budget.
* **unavailable** — the service stopped: no client completions in the
  tail window, a group below its liveness quorum, or a shard still
  degraded at the horizon.
* **detected_recovered** — the service survived *and* a resilience
  mechanism visibly acted: a detection counter moved (view changes,
  elections, promotions, USIG halts, rejected UIs, bad digests, protocol
  switches, shard degradations), the severity detector escalated, or the
  victim component was restored by rejuvenation.
* **masked** — the fault had no visible effect: redundancy absorbed it
  silently (spare replicas and quorums, ECC correction), or it touched
  nothing the service used.  No trial turns on the NoC's adaptive
  routing, so a failed link drops every packet routed over it; and
  ``Tile.degrade`` only marks the tile, so wear-out stays masked unless
  rejuvenation walks the replica off it.

Precedence is sdc > unavailable > detected_recovered > masked, evaluated
as an if/elif chain — every trial lands in exactly one bucket, which is
the accounting invariant the report and bench cross-check against the
injector's counters.

Masked/recovered outcomes are additionally attributed to the resilience
ingredient that plausibly handled them: register faults to the
**hybrid** (ECC/TMR gating), restored victims to **rejuvenation**, and
everything else — spare replicas, quorums, client retransmission — to
the **replication** umbrella.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import scenario
from repro.metrics.traffic import aggregate_completions
from repro.workloads.workload import AlternatingKV

if TYPE_CHECKING:  # pragma: no cover
    from repro.faultspace.driver import FaultspaceConfig

#: Outcome buckets in report order.  ``outcome_index`` in the trial
#: metrics indexes into this tuple.
OUTCOMES: Tuple[str, ...] = ("masked", "sdc", "detected_recovered", "unavailable")

#: Per-group metric counters whose movement counts as "detection".
DETECTION_COUNTERS: Tuple[str, ...] = (
    "view_changes",
    "elections",
    "promotions",
    "usig_halted",
    "ui_rejected",
    "bad_digest",
    "protocol_switches",
)

#: Availability is the fraction of these equal post-injection sub-windows
#: that saw at least one client completion.
AVAILABILITY_WINDOWS = 8

#: Injection window as fractions of the observation horizon: early enough
#: that at least half the horizon observes the aftermath.
INJECT_WINDOW = (0.05, 0.5)


@dataclass
class _Target:
    """The system under injection: a scenario service plus what the
    classifier reads off it."""

    system: Any
    sources: List[Any]  # closed-loop clients or drivers
    groups: List[Any]
    detectors: List[Any]
    counters: List[str]  # metric names whose movement counts as detection
    degraded_count: Callable[[], int]

    def completions_in(self, start: float, end: float) -> int:
        return aggregate_completions(self.sources, start, end)

    def quorums_met(self) -> bool:
        return all(
            len(g.correct_replicas()) >= g.liveness_quorum for g in self.groups
        )


def _build_target(cfg: FaultspaceConfig, seed: int) -> _Target:
    """One replica group behind closed-loop clients (``resilient``) or N
    independent shards behind closed-loop router drivers (``sharded``).

    Both run ``heal_first`` rejuvenation — the campaign measures the
    architecture *with* proactive recovery: a crashed victim is restored
    at the next tick instead of waiting out the round-robin cycle — with
    the failover timer scaled to the trial (the stock 40 s view/election
    timeouts are longer than a trial's post-injection horizon, so
    primary-crash recovery would never be *observable* in-trial; the
    campaign measures the mechanisms, not the production timer
    calibration) and a client timeout short enough that a closed-loop
    client whose request died with the primary retransmits within the
    horizon instead of sitting out the observation.
    """
    config = {
        "protocol": cfg.protocol,
        "f": cfg.f,
        "width": cfg.resolved_width(),
        "height": cfg.resolved_height(),
        "protocol_config": scenario.protocol_config(
            cfg.protocol, failover_timeout=cfg.failover_timeout
        ),
    }
    if cfg.system == "sharded":
        system = scenario.sharded_system(
            seed, cfg.n_shards,
            # relocate=False keeps replicas inside their shard region.
            scenario.rejuvenation_policy(
                cfg.rejuvenation, cfg.rejuvenation_period,
                relocate=False, heal_first=True,
            ),
            router_timeout=cfg.client_timeout,
            **config,
        )
        sources = scenario.closed_drivers(
            system, cfg.n_clients, cfg.think_time, AlternatingKV()
        )
        shards = [system.shards[sid] for sid in sorted(system.shards)]
        groups = [s.group for s in shards]
        detectors = [s.detector for s in shards]
        extra = ["shard.degraded_transitions"]
        degraded_count = lambda: len(system.directory.degraded_shards())  # noqa: E731
    else:
        system, sources = scenario.resilient_service(
            seed, cfg.n_clients,
            {"think_time": cfg.think_time, "timeout": cfg.client_timeout},
            scenario.rejuvenation_policy(
                cfg.rejuvenation, cfg.rejuvenation_period, heal_first=True
            ),
            **config,
        )
        groups, detectors, extra = [system.group], [system.detector], []
        degraded_count = lambda: 0  # noqa: E731
    counters = [
        f"{g.config.group_id}.{c}" for g in groups for c in DETECTION_COUNTERS
    ]
    return _Target(system, sources, groups, detectors, counters + extra, degraded_count)


def _find_replica(target, name: Optional[str]):
    if name is None:
        return None
    for group in target.groups:
        replica = group.replicas.get(name)
        if replica is not None:
            return replica
    return None


def _current_coord(target, name: Optional[str]):
    if name is None:
        return None
    for group in target.groups:
        coord = group.placement.get(name)
        if coord is not None:
            return coord
    return None


def _fire(target, injector, space, point) -> None:
    """Apply the sampled fault, resolving the victim at fire time.

    Rejuvenation rebuilds replica objects and may relocate them, so the
    component sampled at warmup is re-resolved when the event fires.  The
    fallback chain ends in a link fault (which always applies) so every
    trial injects *exactly one* fault — the accounting invariant.
    """
    if point.layer == "link" and point.link is not None:
        injector.fail_link_now(*point.link)
        return
    if point.layer == "register":
        replica = _find_replica(target, point.node)
        usig = getattr(replica, "usig", None)
        if usig is not None and point.bit is not None:
            injector.flip_register_bit_now(usig, point.bit % usig.physical_bits)
            return
    elif point.layer == "node":
        if injector.crash_node_now(point.node):
            return
        coord = _current_coord(target, point.node) or point.coord
        if coord is not None and injector.crash_tile_now(coord):
            return
    elif point.layer == "tile" and point.coord is not None:
        if point.fault_class == "degrade":
            if injector.degrade_tile_now(point.coord):
                return
        elif injector.crash_tile_now(point.coord):
            return
    injector.fail_link_now(*space.links[0])


def _victim_recovered(target, point) -> bool:
    """Did rejuvenation restore the sampled victim by the horizon?"""
    if point.fault_class == "link_fail":
        return False
    if point.layer == "register":
        return False
    name = point.node
    if name is None:
        return False
    replica = _find_replica(target, name)
    if replica is None or not target.system.chip.has_node(name):
        return False
    if not replica.is_correct:
        return False
    if point.fault_class == "degrade":
        # Recovery from wear-out means the replica was walked off the
        # degraded tile; a correct replica still on it is merely masked.
        return _current_coord(target, name) != point.coord
    if point.layer == "tile":
        # The tile stays dead; recovery means the hosted replica was
        # respawned elsewhere.
        return _current_coord(target, name) != point.coord
    return True  # node crash: the victim is back and correct


def run_faultspace_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sample, inject, observe, classify.  Returns flat numeric metrics.

    ``params["stratum"]`` names the stratum to draw from (or
    ``"uniform"`` for the population-weighted estimator); the concrete
    fault point is drawn from ``RngStream(seed, "faultspace.sample")``,
    so the trial is fully reproducible from its derived seed.  Every
    other parameter is a trial knob of
    :class:`~repro.faultspace.driver.FaultspaceConfig`, which states the
    defaults (:data:`~repro.faultspace.driver.TRIAL_PARAMS`).
    """
    from repro.faults.injector import FaultInjector
    from repro.faultspace.driver import TRIAL_KNOBS, TRIAL_PARAMS, FaultspaceConfig
    from repro.faultspace.space import STRATUM_KEYS, UNIFORM, FaultSpace, default_strata
    from repro.sim.rng import RngStream

    p = scenario.resolve(TRIAL_PARAMS, params)
    cfg = FaultspaceConfig(**{name: p[name] for name in TRIAL_KNOBS})
    duration = cfg.duration
    target = _build_target(cfg, seed)
    sim, chip = target.system.sim, target.system.chip
    opened = scenario.open_window(target.system, target.sources, cfg.warmup, duration)
    t0 = opened.start

    window = (t0 + INJECT_WINDOW[0] * duration, t0 + INJECT_WINDOW[1] * duration)
    space = FaultSpace(chip, target.groups, window)
    rng = RngStream(seed, "faultspace.sample")
    if p["stratum"] == UNIFORM:
        keys = space.valid_strata(default_strata(cfg.protocol))
        point = space.sample_uniform(keys, rng)
    else:
        point = space.sample(p["stratum"], rng)

    injector = FaultInjector(sim, chip)
    baseline = {name: chip.metrics.counter(name).value for name in target.counters}
    escalations0 = sum(d.escalations for d in target.detectors)
    sim.schedule_at(point.time, _fire, target, injector, space, point)
    opened.run()
    injector.stop()
    end = sim.now

    detection_delta = sum(
        chip.metrics.counter(name).value - baseline[name] for name in target.counters
    )
    escalation_delta = sum(d.escalations for d in target.detectors) - escalations0
    recovered = _victim_recovered(target, point)

    span = end - point.time
    tail_ops = target.completions_in(end - span / 4.0, end)
    healthy = target.quorums_met() and target.degraded_count() == 0
    safe = target.system.is_safe

    # Precedence: sdc > unavailable > detected_recovered > masked.  The
    # if/elif chain is the exactly-one-bucket guarantee.
    if not safe:
        outcome = "sdc"
    elif tail_ops == 0 or not healthy:
        outcome = "unavailable"
    elif detection_delta > 0 or escalation_delta > 0 or recovered:
        outcome = "detected_recovered"
    else:
        outcome = "masked"

    window_span = span / AVAILABILITY_WINDOWS
    live_windows = sum(
        1
        for i in range(AVAILABILITY_WINDOWS)
        if target.completions_in(
            point.time + i * window_span, point.time + (i + 1) * window_span
        )
        > 0
    )

    handled = outcome in ("masked", "detected_recovered")
    by_hybrid = handled and point.layer == "register"
    by_rejuvenation = handled and not by_hybrid and recovered
    by_replication = handled and not by_hybrid and not by_rejuvenation

    metrics: Dict[str, Any] = {
        "outcome_index": OUTCOMES.index(outcome),
        "stratum_index": STRATUM_KEYS.index(point.stratum),
        "inject_time": round(point.time, 6),
        "available_fraction": live_windows / AVAILABILITY_WINDOWS,
        "detected_signals": detection_delta,
        "escalations": escalation_delta,
        "recovered": int(recovered),
        "completions_after": target.completions_in(point.time, end),
        "tail_completions": tail_ops,
        "safe": int(safe),
        "by_replication": int(by_replication),
        "by_rejuvenation": int(by_rejuvenation),
        "by_hybrid": int(by_hybrid),
    }
    for name in OUTCOMES:
        metrics[f"outcome_{name}"] = int(outcome == name)
    metrics.update(injector.counters())
    return metrics
