"""The NoC facade: endpoint registration, sending, traversal, faults.

**Arbitration.**  A link serves packets in the order ``(arrival at its
source router, packet id)``: first come first served, the older packet
first among those that arrive together.  The kernel is made to agree:
every NoC event — injection, hop, resumed traversal, delivery — is
scheduled at ``(time, priority = 1 + packet_id)``, i.e. after every other
event of its instant and oldest packet first.  So what a packet finds at
a router is a function of simulated time and packet ids, never of the
order in which events happened to be scheduled.

Two traversal modes produce the same deliveries, drops and counters:

* **hop by hop** (``NocConfig.express_routing=False``, the reference):
  every hop is an event — arrive at a router, check health, reserve the
  outgoing link on its scalar ``busy_until``, schedule the next hop.
* **analytic** (``express_routing=True``, the default): on a route whose
  routers and links were all healthy when it was compiled,
  :meth:`NocNetwork.send` reserves *every* hop at once in the links'
  calendars (:class:`~repro.noc.link.Link`) and schedules one event, the
  delivery.  A reservation ahead of the clock is tentative: a packet
  sent later that reaches a link earlier is inserted before it, and a
  packet whose slot moves because of that is taken out of the calendars
  from that hop on and resumes there, as one event at its unchanged
  arrival time.  A fault transition takes back everything reserved ahead
  of the clock; those packets, like the ones whose route crosses a fault
  to begin with or was compiled in an earlier ``fault_epoch``, go on one
  hop per event with the live health checks — reserving looks at none.

Routes on the fault-free mesh are memoized in a ``(src, dst)`` cache that
every fault/repair call empties as it bumps ``fault_epoch``; an entry is
also :meth:`NocNetwork.send`'s proof that both ends are on the mesh.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.metrics import MetricsRegistry
from repro.metrics.collectors import Counter
from repro.noc.link import Link, LinkState, Slot
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.topology import Coord, MeshTopology

DeliveryHandler = Callable[[Packet], None]

_UP = LinkState.UP
_INF = float("inf")


class CompiledRoute:
    """A route resolved to the objects the forwarding loop touches.

    ``coords[i]`` is the i-th tile, ``routers[i]`` its Router, and
    ``links[i]`` the Link from ``coords[i]`` to ``coords[i+1]``;
    ``hops[i]`` is all that reserving that hop reads: ``(links[i],
    routers[i].switch_latency, links[i].cycle_time, links[i].latency)``.
    Compiling once per ``(src, dst)`` (the entries live in the
    fault-epoch route cache) keeps per-hop work to unpacking one tuple —
    no dict lookups or Coord hashing on the hot path.
    """

    __slots__ = ("coords", "routers", "links", "hops", "last", "epoch", "fault_free", "analytic")

    def __init__(
        self,
        coords: List[Coord],
        routers: Dict[Coord, Router],
        links: Dict[Tuple[Coord, Coord], Link],
        express: bool,
        epoch: int,
    ) -> None:
        self.coords = coords
        self.routers = [routers[c] for c in coords]
        self.links = [links[(coords[i], coords[i + 1])] for i in range(len(coords) - 1)]
        self.hops = tuple([
            (link, router.switch_latency, link.cycle_time, link.latency)
            for router, link in zip(self.routers, self.links)
        ])
        self.last = len(coords) - 1
        # Health of this route in the ``fault_epoch`` it was compiled in:
        # every health change bumps the network's, so while the two are
        # equal the flag holds *now*.  It gates the analytic traversal per
        # route rather than de-optimizing the whole mesh for one distant fault.
        self.epoch = epoch
        self.fault_free = not any(r.failed for r in self.routers) and all(
            l.state is LinkState.UP for l in self.links
        )
        #: :meth:`NocNetwork.send` may reserve the whole route on the spot
        #: (a one-tile route is a loopback, which never enters the fabric).
        self.analytic = express and self.fault_free and self.last > 0


def _express_default() -> bool:
    """Express (analytic) routing defaults on; REPRO_NOC_EXPRESS=0 selects
    the hop-by-hop reference process-wide (benches and CI A/B the two)."""
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


class NocNetwork:
    """A mesh NoC carrying opaque payloads between tiles.

    Endpoints (tiles/cores) register a delivery handler for their
    coordinate; :meth:`send` injects a packet which traverses the XY route
    with contention and fault checks, then is delivered.

    Fault interface: ``fail_link``, ``degrade_link``, ``repair_link``,
    ``fail_router``, ``repair_router`` — driven by :mod:`repro.faults`.
    All fault state MUST go through these methods (not the Link/Router
    objects directly): they maintain ``fault_epoch`` and the health
    counters, flush the route cache and take back what the analytic
    traversal reserved ahead of the clock.

    ``packet_ids`` is the sequence packet ids are drawn from.  Ids rank
    same-instant NoC events, so networks that share a kernel must share
    one sequence (:meth:`repro.sos.MultiChipSystem.add_chip` does that).
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
        self.packet_ids: Iterator[int] = count()
        self._delivered = self.metrics.counter("noc.delivered")
        self._dropped = self.metrics.counter("noc.dropped")
        self._flit_hops = self.metrics.counter("noc.flit_hops")
        self._latency = self.metrics.histogram("noc.latency")
        self._drop_reason_counters: Dict[str, Counter] = {}
        # (time, packet id) of the latest delivery: how far into the
        # current instant's NoC events the kernel has got (_take_back).
        self._fired_at = -1.0
        self._fired_id = -1
        # Fault-epoch bookkeeping: bumped on every link/router state
        # transition, which also empties the route cache.
        self.fault_epoch = 0
        self._down_links = 0
        self._corrupting_links = 0
        self._failed_routers = 0
        self._route_cache: Dict[Tuple[Coord, Coord], CompiledRoute] = {}

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
    def send(
        self, src: Coord, dst: Coord, payload: Any, size_bytes: int = 64,
        sender: Optional[str] = None, addressee: Optional[str] = None,
    ) -> Packet:
        """Inject a packet; returns it so callers can trace its fate.

        The packet enters the fabric at the current instant, behind every
        older packet.  Inside an event the analytic traversal reserves
        its whole route before ``send`` returns; between runs (and hop by
        hop) injection is an event of its own.  ``sender`` and
        ``addressee`` ride on the packet for the endpoints' use.
        """
        sim = self.sim
        # A cached route vouches for both ends: only a miss validates them.
        route = self._route_cache.get((src, dst)) or self._route(src, dst)
        packet = Packet(
            next(self.packet_ids), src, dst, payload, size_bytes, sim.now, sender, addressee
        )
        packet._route = route
        if sim.running and route is not None and route.analytic:
            self._commit(packet)
        else:
            self._inject(packet)
        return packet

    def multicast(
        self, src: Coord, dsts: List[Coord], payload: Any, size_bytes: int = 64,
        sender: Optional[str] = None, addressees: Optional[List[str]] = None,
    ) -> List[Packet]:
        """Send the same payload to several destinations (replicated unicast,
        as real NoCs without multicast trees do), oldest packet first.

        The payload object (including any authenticator riding on it) is
        reused across all copies rather than rebuilt per destination, and
        each destination's route comes from the shared route cache.
        ``addressees``, when given, names the endpoint behind each of
        ``dsts``.  One pass: this is :meth:`send` with everything that
        does not depend on the destination read once.
        """
        sim = self.sim
        now = sim.now
        running = sim.running
        cache = self._route_cache
        ids = self.packet_ids
        packets = []
        for dst, addressee in zip(dsts, addressees or repeat(None)):
            route = cache.get((src, dst)) or self._route(src, dst)
            packet = Packet(next(ids), src, dst, payload, size_bytes, now, sender, addressee)
            packet._route = route
            if running and route is not None and route.analytic:
                self._commit(packet)
            else:
                self._inject(packet)
            packets.append(packet)
        return packets

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
            self._fault_transition()

    def repair_router(self, coord: Coord) -> None:
        """Repair a tile's router."""
        router = self.routers[coord]
        if router.failed:
            router.repair()
            self._failed_routers -= 1
            self._fault_transition()

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
        self._fault_transition()

    def _link(self, a: Coord, b: Coord) -> Link:
        link = self.links.get((a, b))
        if link is None:
            raise ValueError(f"no link {a}->{b}: tiles are not adjacent")
        return link

    def _route(self, src: Coord, dst: Coord) -> Optional[CompiledRoute]:
        """Resolve a route the cache does not hold: check both ends are on
        the mesh, compile, and remember it unless it is a detour."""
        topology = self.topology
        express = self.config.express_routing
        if self.config.adaptive_routing and self._down_links:
            topology.require(src)
            topology.require(dst)
            try:
                detour = topology.route_avoiding(src, dst, self.failed_links())
            except ValueError:
                return None
            return CompiledRoute(detour, self.routers, self.links, express, self.fault_epoch)
        # Deterministic XY route: independent of fault state, so safe to
        # cache.  Every fault transition empties the cache all the same —
        # cheap insurance that adaptive mode never sees a stale detour,
        # and what keeps ``fault_free`` true to the epoch.
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = CompiledRoute(
                topology.xy_route(src, dst), self.routers, self.links, express, self.fault_epoch
            )
            self._route_cache[key] = route
        return route

    def _inject(self, packet: Packet) -> None:
        """The rest of :meth:`send` for a packet whose route is not
        reserved on the spot: no route, a loopback, hop by hop, a route
        across a fault, or a send between runs."""
        route = packet._route
        if route is None:
            self._drop(packet, "no route (failed links)", "no_route")
            return
        sim = self.sim
        at = sim.now
        enter = self._commit if route.analytic else self._step
        if not route.last:
            # Local loopback: skip the fabric, pay only switch latency.
            at += route.routers[0].switch_latency
        packet._event = sim.schedule_at(at, enter, packet, priority=1 + packet.packet_id)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _step(self, packet: Packet) -> None:
        """Event: ``packet`` arrives at router ``_index`` of its route.

        At the destination it is delivered.  Anywhere else it makes one
        hop with the live health checks: switch through the router
        (``switch_latency``), occupy the outgoing link while the flits
        serialize onto it, and arrive after the link's fixed ``latency``,
        which pipelines with the next packet.  This is the whole of the
        hop-by-hop reference; the analytic mode comes here for
        deliveries and for packets that have met a fault.
        """
        route = packet._route
        index = packet._index
        router = route.routers[index]
        if router.failed and route.last:  # a loopback never meets its router
            self._drop(packet, f"router {route.coords[index]} failed", "router_failed")
            return
        if index == route.last:
            if packet.corrupted and self.config.drop_corrupted_silently:
                self._drop(packet, "corrupted (end-to-end check)", "corrupted")
                return
            handler = self._handlers.get(packet.dst)
            if handler is None:
                self._drop(packet, f"no endpoint at {packet.dst}", "no_endpoint")
                return
            packet.delivered_at = self._fired_at = now = self.sim.now
            self._fired_id = packet.packet_id
            self._delivered.value += 1  # Counter.inc, without the call: one per packet
            self._flit_hops.value += packet.flits * packet.hops
            self._latency.observe(now - packet.injected_at)
            handler(packet)
            return
        link = route.links[index]
        state = link.state
        if state is not _UP:
            if state is LinkState.DOWN:
                coords = route.coords
                if self.config.adaptive_routing:
                    reroute = self._route(coords[index], packet.dst)
                    if reroute is not None and reroute.last > 0:
                        packet._trail = packet.path[:-1]
                        packet._route = reroute
                        packet._index = 0
                        self._step(packet)
                        return
                self._drop(packet, f"link {coords[index]}->{coords[index + 1]} down", "link_down")
                return
            packet.corrupted = True  # CORRUPTING link
        sim = self.sim
        depart = sim.now + router.switch_latency
        if link.slots:
            # Reservations made ahead of the clock: go in before them.
            displaced: List[Slot] = []
            end = link.reserve(sim.now, sim.now, packet, index, depart, displaced)
            if displaced:
                self._requeue(displaced)
        else:
            start = link.busy_until
            if depart > start:
                start = depart
            link.busy_until = end = start + packet.flits * link.cycle_time
        packet.hops += 1
        packet._index = index + 1
        packet._event = sim.schedule_at(
            end + link.latency, self._step, packet, priority=1 + packet.packet_id
        )

    def _commit(self, packet: Packet) -> None:
        """Reserve every remaining hop of ``packet``'s route, now.

        Called at the instant the packet is at router ``_index`` (from
        :meth:`send`, or as the event that injects or resumes it).  Each
        hop takes a slot in its link's calendar at the time the previous
        one ends, so the only event left is the arrival at the
        destination.  No hop looks at health: an analytic route of the
        current ``fault_epoch`` is healthy by construction.  A packet
        whose event outlived a fault transition goes on hop by hop, like
        everything the transition cut back.
        """
        route = packet._route
        if route.epoch != self.fault_epoch:
            self._step(packet)
            return
        sim = self.sim
        now = arrival = sim.now
        index = packet._index
        packet_id = packet.packet_id
        flits = packet.flits
        for link, switch_latency, cycle_time, latency in route.hops[index:]:
            depart = arrival + switch_latency
            slots = link.slots
            # Inlined Link.reserve for a packet that goes last: an empty
            # calendar, one wholly behind the clock, or one it extends.
            if not slots:
                start = link.busy_until
            else:
                tail = slots[-1]
                if tail[0] < now:
                    link.busy_until = start = tail[3]
                    slots.clear()
                elif tail[0] < arrival or (tail[0] == arrival and tail[1] < packet_id):
                    start = tail[3]
                    if slots[0][0] < now:
                        link.fold(now)
                else:
                    start = None
            if start is None:
                displaced: List[Slot] = []
                end = link.reserve(now, arrival, packet, index, depart, displaced)
                if displaced:
                    self._requeue(displaced)
            else:
                if depart > start:
                    start = depart
                end = start + flits * cycle_time
                slots.append((arrival, packet_id, depart, end, packet, index))
            index += 1
            arrival = end + latency
        packet.hops += index - packet._index
        packet._index = index
        packet._event = sim.schedule_at(arrival, self._step, packet, priority=1 + packet_id)

    def _requeue(self, displaced: List[Slot]) -> None:
        """Re-time the packets whose slots a calendar change displaced.

        A displaced slot is already out of its calendar.  Its packet
        gives up the slots of the hops after it — which may displace
        others in turn — and its pending event, and resumes from that hop
        at the arrival time the slot had, which no later change can have
        moved.
        """
        while displaced:
            arrival, _, _, _, packet, hop = displaced.pop()
            if hop >= packet._index:
                continue  # already cut back to an earlier hop
            links = packet._route.links
            for later in range(hop + 1, packet._index):
                links[later].release(packet, displaced)
            self._cut_back(packet, hop, arrival, self._commit)

    def _cut_back(
        self, packet: Packet, hop: int, arrival: float, resume: Callable[[Packet], None]
    ) -> None:
        """Make ``resume`` at router ``hop`` the packet's one pending event."""
        packet.hops -= packet._index - hop
        packet._index = hop
        packet._event.cancel()
        packet._event = self.sim.schedule_at(
            arrival, resume, packet, priority=1 + packet.packet_id
        )

    def _fault_transition(self) -> None:
        """A router or link changed health: take back what was reserved
        ahead of the clock, because the reference checks health hop by hop.

        Every packet is cut back to its first hop the reference has not
        made yet and goes on from there one hop per event.  The reference
        makes hop ``(arrival, packet_id)`` in the event at ``(arrival,
        1 + packet_id)``, so hops that arrive later than now are ahead of
        the clock and earlier ones behind it.  Of those that arrive *now*,
        all are behind it between runs.  Inside an event, those up to the
        latest delivery of this instant are: only a delivery calls out of
        the NoC, so a fault that comes after some NoC event of the instant
        comes from that delivery's handler or a zero-delay event it led
        to, before any younger packet's event.
        """
        self.fault_epoch += 1
        self._route_cache.clear()
        sim = self.sim
        now = sim.now
        if not sim.running:
            passed = _INF
        elif self._fired_at == now:
            passed = self._fired_id
        else:
            passed = -1
        cut: Dict[Packet, Slot] = {}
        for link in self.links.values():
            slots = link.slots
            keep = len(slots)
            while keep:
                slot = slots[keep - 1]
                if slot[0] < now or (slot[0] == now and slot[1] <= passed):
                    break
                keep -= 1
            for slot in slots[keep:]:
                packet = slot[4]
                first = cut.get(packet)
                if first is None or slot[5] < first[5]:
                    cut[packet] = slot
            del slots[keep:]
        for packet, slot in cut.items():
            self._cut_back(packet, slot[5], slot[0], self._step)

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
