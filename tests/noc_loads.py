"""Link and router loads, read off the packets that made them.

The NoC keeps no per-hop traffic counters (DESIGN §4, *what a hop
costs*): what a link carried and a router switched is a function of the
``path`` and ``flits`` of every packet sent, and the tests that compare
loads derive them here.  Nor does it keep a per-packet latency sample:
tests that compare delivery times across traversal modes tap the
endpoints with :func:`delivery_log`.
"""

from collections import Counter


def derived_loads(packets):
    """``{"links": {(a, b): (packets, flits)}, "routers": {coord: switched}}``
    over every hop made (or reserved) so far by ``packets`` — all packets
    *sent*, dropped ones included.  A loopback never enters the fabric
    but pays one switch at its own router."""
    carried, flits, switched = Counter(), Counter(), Counter()
    for packet in packets:
        path = packet.path
        assert len(path) == packet.hops + 1, packet
        for hop in zip(path, path[1:]):
            carried[hop] += 1
            flits[hop] += packet.flits
            switched[hop[0]] += 1
        if packet.src == packet.dst:
            switched[packet.src] += 1
    return {
        "links": {hop: (carried[hop], flits[hop]) for hop in carried},
        "routers": dict(switched),
    }


def delivery_log(chip):
    """Tap every endpoint of ``chip``'s NoC.  The returned list gets one
    ``(packet_id, src, dst, injected_at, delivered_at)`` per packet
    delivered from then on, in delivery order: what a run's NoC did, to
    compare across traversal modes.  The tap schedules nothing."""
    log = []
    noc = chip.noc
    for coord, handler in list(noc._handlers.items()):
        def tap(packet, handler=handler):
            log.append((packet.packet_id, packet.src, packet.dst,
                        packet.injected_at, packet.delivered_at))
            handler(packet)
        noc.attach(coord, tap)
    return log
