"""Host-speed calibration: what makes wall-clock numbers comparable on a shared host.

The 2-core reference host drifts by +-30 % in raw speed over tens of minutes
and by 10-20 % within seconds (process CPU time drifts with it, so it is
execution speed, not preemption).  Ten back-to-back runs of one workload spread
by 14-22 % in ops per wall second, whatever in-run statistic was used (total,
median or minimum over chunks).  A fixed pure-Python snippet interleaved with
the measured work tracks the drift: rescaling each ~0.1 s chunk of wall time by
the snippets around it, to the speed at which the snippet takes
``CALIB_REF_S``, cut the spread to ~4 % (a run-wide mean of the snippets: 6 %;
fewer, longer chunks: 6-8 %); 1-3 % of what is left is the seed's own
events-per-op variation.

So the two gated host-clock metrics (``sim_ops_per_wall_s``, ``setup_s``) are
reported *at reference speed*; the raw seconds stay beside them as
``sim.wall_s`` and ``host.calib_s``.  The snippet touches no repo code, so a
change to the simulator cannot move it.
"""

from __future__ import annotations

import heapq
import re
import resource
import statistics
import time
from typing import Any, Dict, List, Sequence

CALIB_ITERS = 12_000
CALIB_REF_S = 0.010  # the snippet on the reference host in a quiet phase


def calibrate() -> float:
    """Wall seconds of the fixed heap+dict snippet (~10 ms)."""
    start = time.perf_counter()
    heap: List[Any] = []
    table: Dict[int, int] = {}
    for i in range(CALIB_ITERS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 1023] = i
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calib_s: float) -> float:
    """``seconds`` rescaled to a host on which the snippet takes CALIB_REF_S.

    ``calib_s`` summarises snippet timings interleaved with the work that took
    ``seconds`` — summarised the same way as the work (mean with a total,
    median with a median), so a burst of co-tenant load weighs on both alike.
    """
    return seconds * CALIB_REF_S / calib_s


def window_at_reference_speed(chunk_wall: Sequence[float], calib: Sequence[float]) -> float:
    """Total of ``chunk_wall``, each chunk rescaled by the snippets around it.

    ``calib[i]`` ran just before chunk ``i`` and ``calib[i + 1]`` just after;
    a chunk is scaled by the median of those two and their outer neighbours,
    which follows the host's speed second by second yet ignores one snippet
    hit by a burst.
    """
    return sum(
        at_reference_speed(wall, statistics.median(calib[max(0, i - 1): i + 3]))
        for i, wall in enumerate(chunk_wall)
    )


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux folds the *launching* process's
    resident set into the child's ``ru_maxrss`` across exec (a 300-MB parent
    made a 10-MB child read 310 MB), so it would measure whoever started the
    benchmark.  ``ru_maxrss`` is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            match = re.search(r"VmHWM:\s+(\d+) kB", status.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
