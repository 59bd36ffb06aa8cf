"""`ClientPopulation`: 10^5–10^6 modeled clients in one object.

A per-client driver (:class:`~repro.bft.client.ClientNode`) costs one
Python object plus a timer chain per client — fine for tens of clients,
hopeless for the population sizes real edge services face.  A :class:`ClientPopulation` replaces them with an
*aggregated* model: one object, one periodic tick, one arrival-process
draw answering "how many operations did my N clients generate this
tick?".  Memory is O(populations + completions), never O(clients).

Two operating modes share one completion path:

* ``mode="open"`` — the aggregated engine.  Each tick samples demand
  from the workload's :class:`~repro.workloads.arrivals.ArrivalProcess`,
  queues it (shedding ``queue_full`` overflow beyond ``queue_limit``),
  and drains the queue through the router subject to ``max_inflight``
  and the optional :class:`~repro.mesoscale.admission.AdmissionController`
  (which sheds ``degraded``/``throttled`` demand before it touches the
  NoC).  Offered load is conserved exactly:
  ``offered == admitted + shed + backlog`` at every instant.
* ``mode="closed"`` — ``n_clients`` independent think-time loops, one
  operation in flight each (issue → complete → think → issue); a failed
  operation is counted and the loop continues, as a real tenant retries
  other work when part of the keyspace is down.  No arrival process, no
  admission control; cost is O(n_clients), so it is the mode for a
  handful of tenants saturating the consensus pipeline (``repro shard``,
  the ``shard_scaling`` and sharded ``faultspace`` trials, C2, E12), not
  for mesoscale runs.

In both modes the workload is all of the population's traffic: op ``i``
is ``workload.op(i)``, and ``workload.is_read(op)``, asked once per op,
decides whether it may bypass the ordered-inflight cap as a leased local
read and is passed to :meth:`~repro.shard.router.ShardRouter.submit`.

Demand sampling draws only from ``sim.rng.stream("mesoscale.<name>")``,
so populations are deterministic per seed and campaign trials inherit
byte-stability through
:func:`~repro.sim.rng.derive_trial_seed`-derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.mesoscale.admission import AdmissionController
from repro.metrics.traffic import TrafficSource
from repro.sim.timers import PeriodicTimer
from repro.workloads.workload import KVWorkload, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard.router import ShardRouter, TicketResult
    from repro.sim.rng import RngStream

SHED_QUEUE_FULL = "queue_full"


@dataclass
class PopulationConfig:
    """Shape of one aggregated client population.

    ``workload`` is a :class:`~repro.workloads.workload.Workload` or
    ``None`` for the standard KV mix (wrap a bare op-factory callable in
    :class:`~repro.workloads.workload.FactoryWorkload`).  Open mode
    requires the workload to carry an arrival process; ``think_time``
    applies to closed mode only.
    """

    n_clients: int = 100_000
    workload: Any = None
    mode: str = "open"
    tick: float = 100.0
    max_inflight: int = 256
    queue_limit: int = 4096
    think_time: float = 100.0

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise ValueError(f"n_clients must be >= 0, got {self.n_clients}")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.tick <= 0:
            raise ValueError(f"tick must be positive, got {self.tick}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")


class ClientPopulation(TrafficSource):
    """An aggregated population of clients driving one shard router."""

    def __init__(
        self,
        name: str,
        router: "ShardRouter",
        config: Optional[PopulationConfig] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        TrafficSource.__init__(self)
        self.name = name
        self.router = router
        self.config = config or PopulationConfig()
        self.admission = admission
        cfg = self.config
        self.workload: Workload = KVWorkload() if cfg.workload is None else cfg.workload
        if not isinstance(self.workload, Workload):
            raise TypeError(
                f"population {name!r}: {cfg.workload!r} is not a Workload (need "
                f".op(i), .is_read(op), .arrivals and .name; wrap an op factory "
                f"in FactoryWorkload)"
            )
        if cfg.mode == "open" and self.workload.arrivals is None:
            raise ValueError(
                f"population {name!r} is open-loop but workload "
                f"{self.workload.name!r} has no arrival process; set "
                f"workload.arrivals (e.g. PoissonArrivals) or use mode='closed'"
            )
        self.running = False
        # Demand-conservation counters: offered == admitted + shed + backlog.
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.failures = 0
        self.backlog = 0
        self.inflight = 0
        #: In-flight operations on the *ordered* path.  Leased local
        #: reads never enter the ordered log, so they are admitted past
        #: ``max_inflight`` (which exists to bound ordered-log pressure).
        self.ordered_inflight = 0
        self._issued = 0
        self._draining = False
        self._timer: Optional[PeriodicTimer] = None
        self._stream: Optional["RngStream"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.router.sim

    @property
    def modeled_clients(self) -> int:
        """How many clients this one object stands in for."""
        return self.config.n_clients

    def state_footprint(self) -> Dict[str, int]:
        """Sizes of every internal collection.

        The mesoscale memory claim, checkable: every entry here scales
        with completions or shed reasons, none with ``n_clients``.
        """
        return {
            "latencies": len(self.latencies),
            "completion_times": len(self._completion_times),
            "shed_reasons": len(self.shed_by_reason),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin generating demand (call after the router is placed)."""
        self.running = True
        if self.config.mode == "closed":
            for _ in range(self.config.n_clients):
                if not self.running:
                    break
                self._issue_closed()
            return
        self._stream = self.sim.rng.stream(f"mesoscale.{self.name}")
        self._timer = PeriodicTimer(self.sim, self.config.tick, self._tick)

    def stop(self) -> None:
        """Stop generating demand; in-flight operations still resolve."""
        self.running = False
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    # Open mode: tick → queue → drain
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.running:
            return
        cfg = self.config
        assert self.workload.arrivals is not None and self._stream is not None
        demand = self.workload.arrivals.sample(
            self._stream, self.sim.now, cfg.tick, cfg.n_clients
        )
        if demand <= 0:
            self._drain()
            return
        self.offered += demand
        room = cfg.queue_limit - self.backlog
        if demand > room:
            self._record_shed(demand - room, SHED_QUEUE_FULL)
            demand = room
        self.backlog += demand
        self._drain()

    def _drain(self) -> None:
        # submit() can complete synchronously (degraded fast-fail), which
        # re-enters _drain via _on_done; the guard flattens that recursion
        # into this loop so a 10^4-op backlog cannot blow the stack.
        if self._draining:
            return
        self._draining = True
        try:
            cfg = self.config
            router = self.router
            workload = self.workload
            while self.running and self.backlog > 0:
                # Peek (op() is pure in the index): a leased local read
                # bypasses the ordered-inflight cap, everything else is
                # subject to it.  A capped write at the queue head blocks
                # the reads behind it — admission stays FIFO.
                op = workload.op(self._issued)
                read = workload.is_read(op)
                capped = self.ordered_inflight >= cfg.max_inflight
                if capped and not read:
                    break  # a write is routed when it can go
                route = router.route(op, read)
                local_read = route.local
                if capped and not local_read:
                    break
                self.backlog -= 1
                self._issued += 1
                if self.admission is not None:
                    reason = self.admission.decide(route.shards)
                    if reason is not None:
                        self._record_shed(1, reason)
                        continue
                self.admitted += 1
                self.inflight += 1
                if local_read:
                    router.submit(op, self._on_done, read, route)
                else:
                    self.ordered_inflight += 1
                    router.submit(op, self._on_ordered_done, read, route)
        finally:
            self._draining = False

    def _on_ordered_done(self, result: "TicketResult") -> None:
        self.ordered_inflight -= 1
        self._on_done(result)

    def _on_done(self, result: "TicketResult") -> None:
        self.inflight -= 1
        if result.ok:
            self.record_completion(self.sim.now, result.latency)
        else:
            self.failures += 1
        if self.running and self.backlog > 0:
            self._drain()

    def _record_shed(self, count: int, reason: str) -> None:
        if count <= 0:
            return
        self.shed += count
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + count

    # ------------------------------------------------------------------
    # Closed mode: per-client think-time loops
    # ------------------------------------------------------------------
    def _issue_closed(self) -> None:
        if not self.running:
            return
        op = self.workload.op(self._issued)
        self._issued += 1
        self.offered += 1
        self.admitted += 1
        self.inflight += 1
        self.router.submit(op, self._on_closed_done, self.workload.is_read(op))

    def _on_closed_done(self, result: "TicketResult") -> None:
        self.inflight -= 1
        if result.ok:
            self.record_completion(self.sim.now, result.latency)
        else:
            self.failures += 1
        if self.running:
            self.sim.schedule(self.config.think_time, self._issue_closed)
