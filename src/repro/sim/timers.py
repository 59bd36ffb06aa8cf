"""Periodic and one-shot timer helpers built on the simulator."""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.events import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class PeriodicTimer:
    """Fires a callback every ``period`` time units until stopped.

    Used for heartbeats, rejuvenation schedules, severity-detector sampling
    windows, and metric flushes.  The first firing is one full period out.
    """

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        if not period > 0:  # NaN fails too
            raise ValueError(f"timer period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.args = args
        self._running = True
        self._event: Optional[ScheduledEvent] = sim.schedule(period, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.callback(*self.args)
        if self._running:  # the callback may have stopped us
            self._event = self.sim.schedule(self.period, self._fire)

    def stop(self) -> None:
        """Stop the timer; no further firings occur."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return self._running


class Timeout:
    """A restartable one-shot timeout (failure detectors, view-change timers).

    ``start()`` arms it; if :meth:`reset` is not called within ``duration``
    the callback fires once.  ``reset()`` re-arms from the current time.
    """

    def __init__(self, sim: "Simulator", duration: float, callback: Callable[[], Any]) -> None:
        if not duration > 0:  # NaN fails too
            raise ValueError(f"timeout duration must be positive, got {duration}")
        self.sim = sim
        self.duration = duration
        self.callback = callback
        self._event: Optional[ScheduledEvent] = None
        self.expired_count = 0

    def start(self, delay: Optional[float] = None) -> None:
        """Arm (or re-arm) the timeout to fire after ``delay`` (default:
        ``duration``)."""
        self.cancel()
        self._event = self.sim.schedule(self.duration if delay is None else delay, self._expire)

    # reset is an alias that reads better at call sites ("I heard from the
    # primary, push the deadline out").
    reset = start

    def cancel(self) -> None:
        """Disarm without firing."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        """True while the timeout is counting down."""
        return self._event is not None and self._event.pending

    def _expire(self) -> None:
        self._event = None
        self.expired_count += 1
        self.callback()
