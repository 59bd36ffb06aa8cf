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

from typing import Any, Callable, Optional, Tuple


class ScheduledEvent:
    """A cancellable handle for a callback scheduled on the simulator.

    ``(time, priority, seq)`` is the kernel's deterministic firing order:
    earlier time first, then lower priority number, then insertion order.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled", "_fired", "_owner")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        owner: Optional[Any] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        self._owner = owner  # the scheduling Simulator, told of cancellations

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the kernel has executed the callback."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.

        Returns True if the event was pending and is now cancelled, False
        if it had already fired or was already cancelled.
        """
        if self._fired or self._cancelled:
            return False
        self._cancelled = True
        self.callback = None  # break reference cycles early
        self.args = ()
        owner = self._owner
        if owner is not None:
            owner._note_cancelled()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<ScheduledEvent t={self.time} prio={self.priority} seq={self.seq} {state}>"
