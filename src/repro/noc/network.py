"""The NoC facade: endpoint registration, sending, hop-by-hop traversal.

Two traversal modes share one code path:

* **hop-by-hop** (the original model): every hop is a scheduled event —
  arrive at a router, check health, reserve the outgoing link, schedule
  the next hop.
* **express** (``NocConfig.express_routing``, on by default): on a
  fault-free network, consecutive hops are committed in a single pass
  inside one event and only the final delivery is scheduled.  Batching
  is bounded by :meth:`Simulator.lookahead_limit` — a hop is committed
  eagerly only if its virtual time lies strictly before the next
  pending event (and within the run horizon).  That makes the fast path
  unobservable — same seed, byte-identical results with express routing
  on or off — **under one precondition**: the bound is read from the
  queue as it stands when the hops are committed, so the handler that
  called :meth:`NocNetwork.send` must not, after ``send`` returns,
  schedule anything below that bound that contends for the same links
  (``send(A); schedule(5.0, send, B)`` over a shared link reorders A
  and B; pinned as an ``xfail`` in ``tests/test_hotpath.py``).  The
  gate is **per compiled route**: a route whose routers and links were
  all healthy at compile time batches eagerly, while a route that
  crosses a fault takes the original slow path — so one faulty link
  only de-optimizes traffic that actually crosses it.  Per-hop health
  checks still run on every committed hop, which (with the lookahead
  bound pinning fault state for the whole batch) keeps the gate exact
  even if the flag is stale.

Routes on the fault-free mesh are memoized in a ``(src, dst)`` cache
invalidated by ``fault_epoch``, which every fault/repair call bumps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics import MetricsRegistry
from repro.metrics.collectors import Counter
from repro.noc.link import Link, LinkState
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.topology import Coord, MeshTopology

DeliveryHandler = Callable[[Packet], None]

_UP = LinkState.UP
_INF = float("inf")


class CompiledRoute:
    """A route resolved to the objects the forwarding loop touches.

    ``coords[i]`` is the i-th tile, ``routers[i]`` its Router, and
    ``links[i]`` the Link from ``coords[i]`` to ``coords[i+1]``.  Compiling
    once per ``(src, dst)`` (the entries live in the fault-epoch route
    cache) keeps per-hop work to list indexing — no dict lookups or
    Coord hashing on the hot path.
    """

    __slots__ = ("coords", "routers", "links", "last", "fault_free")

    def __init__(
        self,
        coords: List[Coord],
        routers: Dict[Coord, Router],
        links: Dict[Tuple[Coord, Coord], Link],
    ) -> None:
        self.coords = coords
        self.routers = [routers[c] for c in coords]
        self.links = [links[(coords[i], coords[i + 1])] for i in range(len(coords) - 1)]
        self.last = len(coords) - 1
        # Health of this route at compile time.  Entries live in the
        # fault-epoch route cache, so the flag is recomputed whenever any
        # fault state changes; it gates express batching per route rather
        # than de-optimizing the whole mesh for one distant fault.
        self.fault_free = not any(r.failed for r in self.routers) and all(
            l.state is LinkState.UP for l in self.links
        )


def _express_default() -> bool:
    """Express routing defaults on; REPRO_NOC_EXPRESS=0 disables it
    process-wide (the perf bench and CI use this to A/B the fast path)."""
    return os.environ.get("REPRO_NOC_EXPRESS", "1").lower() not in ("0", "false", "no")


@dataclass
class NocConfig:
    """Tunable parameters of the interconnect.

    Defaults approximate a conservative manycore NoC: 1-cycle switch,
    1-cycle link traversal, 16-byte flits at one flit/cycle.  Times are in
    cycles; protocol layers convert to their own unit once.
    """

    link_latency: float = 1.0
    link_cycle_time: float = 1.0
    switch_latency: float = 1.0
    adaptive_routing: bool = False
    drop_corrupted_silently: bool = False
    express_routing: bool = field(default_factory=_express_default)

    @property
    def min_hop_latency(self) -> float:
        """Lower bound on one switch+link traversal.

        Contention and serialization only add to this, so ``hops *
        min_hop_latency`` is a sound lookahead bound for any path of
        ``hops`` hops — the quantity the conservative PDES layer turns
        into its synchronization horizon.
        """
        return self.switch_latency + self.link_latency


class NocNetwork:
    """A mesh NoC carrying opaque payloads between tiles.

    Endpoints (tiles/cores) register a delivery handler for their
    coordinate; :meth:`send` injects a packet which traverses the XY route
    with contention and fault checks, then is delivered.

    Fault interface: ``fail_link``, ``degrade_link``, ``repair_link``,
    ``fail_router``, ``repair_router`` — driven by :mod:`repro.faults`.
    All fault state MUST go through these methods (not the Link/Router
    objects directly): they maintain ``fault_epoch`` and the health
    counters that gate the express path and the route cache.
    """

    def __init__(
        self,
        sim: "Any",
        topology: MeshTopology,
        config: Optional[NocConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config or NocConfig()
        self.metrics = metrics or MetricsRegistry()
        self.routers: Dict[Coord, Router] = {
            coord: Router(sim, coord, self.config.switch_latency)
            for coord in topology.coords()
        }
        self.links: Dict[Tuple[Coord, Coord], Link] = {
            (a, b): Link(sim, a, b, self.config.link_latency, self.config.link_cycle_time)
            for a, b in topology.links()
        }
        self._handlers: Dict[Coord, DeliveryHandler] = {}
        self._next_packet_id = 0
        self._delivered = self.metrics.counter("noc.delivered")
        self._dropped = self.metrics.counter("noc.dropped")
        self._flit_hops = self.metrics.counter("noc.flit_hops")
        self._latency = self.metrics.histogram("noc.latency")
        self._drop_reason_counters: Dict[str, Counter] = {}
        # Fault-epoch bookkeeping: bumped on every link/router state
        # transition; invalidates the route cache and (via the health
        # counters) forces the hop-by-hop slow path while faults exist.
        self.fault_epoch = 0
        self._down_links = 0
        self._corrupting_links = 0
        self._failed_routers = 0
        self._route_cache: Dict[Tuple[Coord, Coord], CompiledRoute] = {}
        self._route_cache_epoch = 0

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def attach(self, coord: Coord, handler: DeliveryHandler) -> None:
        """Register the delivery handler for a tile (replaces any previous)."""
        self.topology.require(coord)
        self._handlers[coord] = handler

    def detach(self, coord: Coord) -> None:
        """Remove a tile's handler; packets for it will be dropped."""
        self._handlers.pop(coord, None)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: Coord, dst: Coord, payload: Any, size_bytes: int = 64) -> Packet:
        """Inject a packet; returns it so callers can trace its fate.

        Normally the first hop is deferred with ``call_soon`` so that
        events already pending at the current instant keep their place
        in line.  When no such event exists (``lookahead_limit`` strictly
        ahead of now), deferral is unobservable and the express path
        enters :meth:`_hop` synchronously, saving one event per packet.
        """
        routers = self.routers
        if src not in routers or dst not in routers:
            self.topology.require(src)
            self.topology.require(dst)
        sim = self.sim
        packet = Packet(self._next_packet_id, src, dst, payload, size_bytes, sim.now)
        self._next_packet_id += 1
        if src == dst:
            # Local loopback: skip the fabric, pay only switch latency.
            router = routers[src]
            router.packets_switched += 1
            sim.schedule(router.switch_latency, self._deliver, packet)
            return packet
        route = self._route(src, dst)
        if route is None:
            self._drop(packet, "no route (failed links)", "no_route")
            return packet
        if route.fault_free and self.config.express_routing:
            limit = sim.lookahead_limit()
            if limit is not None and limit > sim.now:
                self._hop(packet, route, 0)
                return packet
        sim.call_soon(self._hop, packet, route, 0)
        return packet

    def multicast(
        self, src: Coord, dsts: List[Coord], payload: Any, size_bytes: int = 64
    ) -> List[Packet]:
        """Send the same payload to several destinations (replicated unicast,
        as real NoCs without multicast trees do).

        The payload object (including any authenticator riding on it) is
        reused across all copies rather than rebuilt per destination, and
        each destination's route comes from the shared route cache.
        """
        self.topology.require(src)
        return [self.send(src, dst, payload, size_bytes) for dst in dsts]

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def fail_link(self, a: Coord, b: Coord) -> None:
        """Hard-fail both directions of the link between adjacent tiles."""
        self._set_link_state(self._link(a, b), LinkState.DOWN)
        self._set_link_state(self._link(b, a), LinkState.DOWN)

    def degrade_link(self, a: Coord, b: Coord) -> None:
        """Put both directions of a link into corrupting mode."""
        self._set_link_state(self._link(a, b), LinkState.CORRUPTING)
        self._set_link_state(self._link(b, a), LinkState.CORRUPTING)

    def repair_link(self, a: Coord, b: Coord) -> None:
        """Repair both directions of a link."""
        self._set_link_state(self._link(a, b), LinkState.UP)
        self._set_link_state(self._link(b, a), LinkState.UP)

    def fail_router(self, coord: Coord) -> None:
        """Hard-fail a tile's router."""
        router = self.routers[coord]
        if not router.failed:
            router.fail()
            self._failed_routers += 1
            self.fault_epoch += 1

    def repair_router(self, coord: Coord) -> None:
        """Repair a tile's router."""
        router = self.routers[coord]
        if router.failed:
            router.repair()
            self._failed_routers -= 1
            self.fault_epoch += 1

    def failed_links(self) -> "frozenset[Tuple[Coord, Coord]]":
        """The set of currently DOWN directed links."""
        return frozenset(k for k, l in self.links.items() if l.state == LinkState.DOWN)

    @property
    def fault_free(self) -> bool:
        """True when no link is down/corrupting and no router has failed."""
        return not (self._down_links or self._corrupting_links or self._failed_routers)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _set_link_state(self, link: Link, new_state: LinkState) -> None:
        old_state = link.state
        if old_state is new_state:
            return
        if old_state is LinkState.DOWN:
            self._down_links -= 1
        elif old_state is LinkState.CORRUPTING:
            self._corrupting_links -= 1
        if new_state is LinkState.DOWN:
            self._down_links += 1
        elif new_state is LinkState.CORRUPTING:
            self._corrupting_links += 1
        link.state = new_state
        self.fault_epoch += 1

    def _link(self, a: Coord, b: Coord) -> Link:
        link = self.links.get((a, b))
        if link is None:
            raise ValueError(f"no link {a}->{b}: tiles are not adjacent")
        return link

    def _route(self, src: Coord, dst: Coord) -> Optional[CompiledRoute]:
        if self.config.adaptive_routing:
            blocked = self.failed_links() if self._down_links else None
            if blocked:
                try:
                    detour = self.topology.route_avoiding(src, dst, blocked)
                except ValueError:
                    return None
                return CompiledRoute(detour, self.routers, self.links)
        # Deterministic XY route: independent of fault state, so safe to
        # cache.  The cache is flushed whenever the fault epoch moves —
        # cheap insurance that adaptive mode never sees a stale detour.
        if self._route_cache_epoch != self.fault_epoch:
            self._route_cache.clear()
            self._route_cache_epoch = self.fault_epoch
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = CompiledRoute(self.topology.xy_route(src, dst), self.routers, self.links)
            self._route_cache[key] = route
        return route

    def _hop(self, packet: Packet, route: CompiledRoute, index: int) -> None:
        """Move the packet along ``route`` starting at ``route.coords[index]``.

        Fires at the packet's arrival time at ``route.coords[index]``.  On
        the express path, subsequent hops whose virtual times no pending
        event can observe (strictly before the next pending event and
        within the run horizon; see the module docstring for the
        precondition) are committed in the same pass; otherwise the
        next hop is scheduled as its own event, exactly as the original
        hop-by-hop model did.

        Each hop switches through the router (``switch_latency``) and
        reserves the outgoing link: the link is occupied while the flits
        serialize onto it (``busy_until``), and the fixed traversal
        ``latency`` pipelines with the next packet.
        """
        sim = self.sim
        last = route.last
        # The bound is only consulted before a hop that does not end the
        # route (delivery observes sim.now: always an event).
        limit = None
        if index + 1 < last and route.fault_free and self.config.express_routing:
            limit = sim.lookahead_limit()
            if limit is not None:
                horizon = sim.run_horizon
                if horizon is None:
                    horizon = _INF
        coords = route.coords
        route_routers = route.routers
        route_links = route.links
        flits = packet.flits
        path = packet.path
        vtime = sim.now
        while True:
            router = route_routers[index]
            if router.failed:
                self._drop(packet, f"router {coords[index]} failed", "router_failed")
                return
            if index == last:
                self._deliver(packet)
                return
            link = route_links[index]
            state = link.state
            if state is not _UP:
                if state is LinkState.DOWN:
                    if self.config.adaptive_routing:
                        reroute = self._route(coords[index], packet.dst)
                        if reroute is not None and reroute.last > 0:
                            sim.call_soon(self._hop, packet, reroute, 0)
                            return
                    self._drop(
                        packet, f"link {coords[index]}->{coords[index + 1]} down", "link_down"
                    )
                    return
                packet.corrupted = True  # CORRUPTING link
            router.packets_switched += 1
            depart = vtime + router.switch_latency
            start = link.busy_until
            if depart > start:
                start = depart
            link.busy_until = busy_until = start + flits * link.cycle_time
            link.packets_carried += 1
            link.flits_carried += flits
            arrival = busy_until + link.latency
            packet.hops += 1
            index += 1
            path.append(coords[index])
            if limit is not None and index != last and arrival < limit and arrival <= horizon:
                vtime = arrival
                continue
            sim.schedule_at(arrival, self._hop, packet, route, index)
            return

    def _deliver(self, packet: Packet) -> None:
        if packet.corrupted and self.config.drop_corrupted_silently:
            self._drop(packet, "corrupted (end-to-end check)", "corrupted")
            return
        handler = self._handlers.get(packet.dst)
        if handler is None:
            self._drop(packet, f"no endpoint at {packet.dst}", "no_endpoint")
            return
        packet.delivered_at = now = self.sim.now
        self._delivered.inc()
        self._flit_hops.inc(packet.flit_hops)
        self._latency.observe(now - packet.injected_at)
        handler(packet)

    def _drop(self, packet: Packet, reason: str, label: str) -> None:
        packet.dropped = True
        packet.drop_reason = reason
        self._dropped.inc()
        counter = self._drop_reason_counters.get(label)
        if counter is None:
            counter = self.metrics.counter(f"noc.drop_reason.{label}")
            self._drop_reason_counters[label] = counter
        counter.inc()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NocNetwork {self.topology.width}x{self.topology.height}>"
