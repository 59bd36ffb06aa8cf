"""The discrete-event simulator: clock, event queue, and scheduling API."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import _FIRED, _PENDING, ScheduledEvent
from repro.sim.rng import RngRegistry

_INF = float("inf")
_new_handle = object.__new__

SimTime = float
"""Simulated time.  Units are abstract; the SoC layer interprets them as
nanoseconds and protocol layers as microseconds — what matters is that a
single experiment uses one consistent unit."""


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the virtual clock and an event heap.  Components
    schedule callbacks with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time) and the kernel fires them in
    deterministic ``(time, priority, seq)`` order.  Heap entries are
    ``(time, priority, seq, event)`` tuples: ``seq`` is unique, so
    ``heapq`` orders them in C without ever comparing the handles.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`.  All
        randomness in a simulation must be drawn through ``sim.rng`` so
        that runs are reproducible.
    """

    #: Compact the heap once this many cancelled entries dominate it.
    COMPACTION_MIN = 64

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time.  Read it freely; only the kernel writes it.
        self.now: SimTime = 0.0
        self._heap: List[Tuple[SimTime, int, int, ScheduledEvent]] = []
        self._seq = 0
        #: True while :meth:`run` (or :meth:`step`) is firing an event.  A
        #: component that works ahead of the clock reads it to tell "inside
        #: an event: more of this instant may follow" from "between runs".
        self.running = False
        self._stopped = False
        self._cancelled_pending = 0
        self.rng = RngRegistry(seed)
        self.seed = seed
        self._trace_hooks: List[Callable[[ScheduledEvent], None]] = []
        self.events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: SimTime,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative (NaN is not).  A zero delay schedules
        the callback for the current instant, after all events already
        scheduled for this instant at the same priority.
        """
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: SimTime,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        The one funnel every event goes through (tracers patch it on the
        class).  A NaN ``time`` fails the guard like a past one: it would
        otherwise sit anywhere in the heap and set the clock to NaN.
        """
        if not time >= self.now:
            raise SimulationError(f"cannot schedule in the past (or at NaN): {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        event = _new_handle(ScheduledEvent)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event._state = _PENDING
        event._owner = self
        heappush(self._heap, (time, priority, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule a callback at the current instant (after pending same-time events)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[SimTime] = None, max_events: Optional[int] = None) -> SimTime:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` are executed.  When None, run until the queue
            drains or :meth:`stop` is called.
        max_events:
            Safety valve: abort after firing this many events.

        Returns the simulated time at which the loop stopped.
        """
        if self.running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self.running = True
        self._stopped = False
        fired = 0
        heap = self._heap  # compaction rebuilds it in place, so this stays valid
        hooks = self._trace_hooks
        limit = _INF if until is None else until
        cap = _INF if max_events is None else max_events
        try:
            while heap and not self._stopped:
                time, _, _, event = heap[0]
                if event._state:  # cancelled: a fired entry has left the heap
                    heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if time > limit:
                    break
                heappop(heap)
                self.now = time
                callback, args = event.callback, event.args
                event._state = _FIRED
                event.callback = None
                event.args = ()
                callback(*args)
                self.events_fired += 1
                fired += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                if fired >= cap:
                    break
        finally:
            self.running = False
        if until is not None and not self._stopped and self.now < until:
            # Advance the clock to the requested horizon even if the queue
            # drained early, so periodic measurement windows stay aligned.
            self.now = until
        return self.now

    def step(self) -> bool:
        """Fire exactly one pending event.  Returns False if the queue is empty.

        This *is* a one-event :meth:`run`, so the firing order, the clock
        and the trace hooks are the same by construction.
        """
        if self.peek_next_time() is None:
            return False
        self.run(max_events=1)
        return True

    def stop(self) -> None:
        """Stop the event loop after the currently executing event returns."""
        self._stopped = True

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the queue.  O(1)."""
        return len(self._heap) - self._cancelled_pending

    def peek_next_time(self) -> Optional[SimTime]:
        """Time of the next pending event, or None if the queue is empty.

        Amortized O(1): cancelled entries at the heap top are discarded
        lazily rather than sorting the whole queue.
        """
        heap = self._heap
        while heap and heap[0][3]._state:
            heappop(heap)
            self._cancelled_pending -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by ScheduledEvent.cancel(); keeps pending_count O(1) and
        compacts the heap when cancelled entries dominate it."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACTION_MIN
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            # In place: run() holds this list in a local.
            self._heap[:] = [entry for entry in self._heap if not entry[3]._state]
            heapify(self._heap)
            self._cancelled_pending = 0

    def add_trace_hook(self, hook: Callable[[ScheduledEvent], None]) -> None:
        """Register a hook called after every fired event (for debugging/metrics)."""
        self._trace_hooks.append(hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} pending={len(self._heap)} seed={self.seed}>"
