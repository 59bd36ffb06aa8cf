"""Scheduled-event handles for the simulation kernel.

A :class:`ScheduledEvent` is returned by every ``Simulator.schedule*`` call.
It is a cancellable, introspectable handle: callers can test whether the
event already fired, cancel it before it fires, and read the time it is due.
The handle is not what the queue orders: the kernel's heap holds
``(time, priority, seq, event)`` tuples, which ``heapq`` compares in C and
which never tie (``seq`` is unique), so the handle itself is never compared.
Cancellation is lazy — the heap entry stays in the queue but is skipped when
popped — which keeps cancellation O(1).
"""

from __future__ import annotations

# The one state field of a handle.  Pending is 0, so "is this heap entry
# dead?" is a truth test: an entry still in the heap has not fired.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2


class ScheduledEvent:
    """A cancellable handle for a callback scheduled on the simulator.

    ``(time, priority, seq)`` is the kernel's deterministic firing order:
    earlier time first, then lower priority number, then insertion order.
    Only :meth:`Simulator.schedule_at <repro.sim.simulator.Simulator.schedule_at>`
    makes handles: it fills the slots in place (one handle per event, so
    no ``__init__`` frame), the pending → fired / cancelled transition is
    one write of ``_state``, and ``_owner`` is the simulator, told of
    cancellations.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_state", "_owner")

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        """True once the kernel has executed the callback."""
        return self._state == _FIRED

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return self._state == _PENDING

    def cancel(self) -> bool:
        """Cancel the event.

        Returns True if the event was pending and is now cancelled, False
        if it had already fired (or is firing) or was already cancelled.
        """
        if self._state:
            return False
        self._state = _CANCELLED
        self.callback = None  # break reference cycles early
        self.args = ()
        self._owner._note_cancelled()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled")[self._state]
        return f"<ScheduledEvent t={self.time} prio={self.priority} seq={self.seq} {state}>"
