"""Link and router loads, read off the packets that made them.

The NoC keeps no per-hop traffic counters (DESIGN §4, *what a hop
costs*): what a link carried and a router switched is a function of the
``path`` and ``flits`` of every packet sent, and the tests that compare
loads derive them here.
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
