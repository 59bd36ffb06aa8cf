"""Nodes: named protocol participants running on SoC tiles."""

from __future__ import annotations

import enum
from collections import deque
from itertools import repeat
from typing import Any, Callable, Deque, List, Optional, TYPE_CHECKING

from repro.noc.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.soc.chip import Chip

# An outbound filter sees (dst_name, message) and returns a possibly
# modified message, or None to drop the send.  Byzantine strategies from
# repro.faults install these to equivocate/corrupt/delay without the node
# class needing to know attack details.
OutboundFilter = Callable[[str, Any], Optional[Any]]
InboundFilter = Callable[[str, Any], Optional[Any]]


class NodeState(enum.Enum):
    """Logical health of a node (orthogonal to its tile's physical state).

    OK          — executing its protocol faithfully.
    CRASHED     — stopped; drops all traffic until recovered.
    COMPROMISED — controlled by the adversary; still *runs*, but its
                  behaviour is filtered through the installed Byzantine
                  strategy.  It keeps only its own keys.
    """

    OK = "ok"
    CRASHED = "crashed"
    COMPROMISED = "compromised"


class Node:
    """A named endpoint on the chip: the base class for replicas/clients.

    Subclasses override :meth:`on_message`.  The node charges processing
    time on a serialized virtual core, so protocol latency reflects
    compute as well as NoC transfer.  The core serves *charges*, not
    messages: each charge (:meth:`charge`, :meth:`after`) is reserved
    behind every charge requested before it, first come first served.  A
    message delivered while another is being handled therefore gets its
    receive charge (``handle_message``) ahead of the first one's later
    steps — its MAC or UI check, the continuations that check schedules —
    and the steps of several messages interleave on the core in the order
    they were requested.  Two protocol rules depend on exactly this
    (DESIGN §4, *What the primary does first*): a committed batch's next
    proposal is requested before its executions, so it is served first;
    and a PBFT vote queued for verification completes before any vote
    delivered after it, so counting queued votes toward a quorum is exact.

    A message whose last step on the core ends in the future can be sent
    now with that instant as its departure (:meth:`send`'s
    ``depart_at``): its outbound filters run now, the NoC commits it now,
    and a crash before it leaves withdraws it (DESIGN §4, *When a copy
    leaves*).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = NodeState.OK
        self.chip: Optional["Chip"] = None
        #: The chip's simulator and cost model, bound at placement (every
        #: message handled reads both).
        self.sim: Any = None
        self.costs: Any = None
        self._busy_until = 0.0
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self._outbound_filters: List[OutboundFilter] = []
        self._inbound_filters: List[InboundFilter] = []
        # Packets sent with a departure ahead of the clock, in departure
        # order; the ones that have left are dropped as more are sent.
        self._departing: Deque[Packet] = deque()

    # ------------------------------------------------------------------
    # Wiring (called by Chip)
    # ------------------------------------------------------------------
    def attach_to(self, chip: "Chip") -> None:
        """Bind this node to a chip.  Called by :meth:`Chip.place_node`."""
        self.chip = chip
        self.sim = chip.sim
        self.costs = chip.costs

    @property
    def coord(self):
        """Current tile coordinate (nodes can be relocated)."""
        assert self.chip is not None
        return self.chip.coord_of(self.name)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def is_correct(self) -> bool:
        """True if the node is neither crashed nor compromised."""
        return self.state is NodeState.OK

    def crash(self) -> None:
        """Stop the node.  In-flight handler work is abandoned, and so is
        every message still waiting for its departure."""
        if self.state is not NodeState.COMPROMISED:
            self.state = NodeState.CRASHED
        self.withdraw_undeparted()
        self.on_crash()

    def withdraw_undeparted(self) -> None:
        """Take back every message sent with a departure still ahead: it
        never leaves, and it no longer counts as sent."""
        departing = self._departing
        if not departing:
            return
        now = self.sim.now
        while departing:
            packet = departing.popleft()
            if packet.injected_at > now:
                self.chip.noc.withdraw(packet)
                self.messages_sent -= 1
                self.bytes_sent -= packet.size_bytes

    def recover(self) -> None:
        """Restart the node with protocol state reset by the subclass."""
        self.state = NodeState.OK
        self._busy_until = 0.0
        self._outbound_filters.clear()
        self._inbound_filters.clear()
        self.on_recover()

    def compromise(self) -> None:
        """Hand the node to the adversary (Byzantine strategies filter I/O)."""
        self.state = NodeState.COMPROMISED
        self.on_compromise()

    def add_outbound_filter(self, flt: OutboundFilter) -> None:
        """Install an adversarial outbound filter (see module docstring)."""
        self._outbound_filters.append(flt)

    def add_inbound_filter(self, flt: InboundFilter) -> None:
        """Install an adversarial inbound filter."""
        self._inbound_filters.append(flt)

    # Subclass hooks ----------------------------------------------------
    def on_crash(self) -> None:
        """Subclass hook: invoked when the node crashes."""

    def on_recover(self) -> None:
        """Subclass hook: reset protocol state after recovery."""

    def on_compromise(self) -> None:
        """Subclass hook: invoked when the node is compromised."""

    def on_message(self, sender: str, message: Any) -> None:
        """Subclass hook: handle a delivered protocol message."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self, dst: str, message: Any, size_bytes: int = 64, depart_at: Optional[float] = None
    ) -> Optional[Packet]:
        """Send a message to a named node over the NoC.

        ``depart_at`` (default: now) is when it leaves this tile: the
        instant the core work that produces it is done.  The outbound
        filters see it now; until it leaves, :meth:`crash` withdraws it.
        Returns the packet, or None if the node is crashed or an
        adversarial filter dropped the send.
        """
        if self.state is NodeState.CRASHED or self.chip is None:
            return None
        for flt in self._outbound_filters:
            filtered = flt(dst, message)
            if filtered is None:
                return None
            message = filtered
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if depart_at is None:
            return self.chip.transmit(self.name, dst, message, size_bytes)
        packet = self.chip.transmit(self.name, dst, message, size_bytes, depart_at)
        if packet is not None:
            self._departures().append(packet)
        return packet

    def broadcast(
        self, dsts: List[str], message: Any, size_bytes: int = 64,
        depart_at: Optional[List[float]] = None,
    ) -> None:
        """Send the same message to several nodes (self is skipped).

        What :meth:`send` would do name by name, in one call down to the
        chip — unless an outbound filter is installed, which must see (and
        may rewrite or drop) every ``(dst, message)`` on its own.
        ``depart_at``, if given, is each name's departure (see
        :meth:`send`); each copy then goes down on its own
        (:meth:`Chip.transmit`).
        """
        if self._outbound_filters:
            for dst, at in zip(dsts, depart_at or repeat(None)):
                if dst != self.name:
                    self.send(dst, message, size_bytes, at)
        elif self.state is not NodeState.CRASHED and self.chip is not None:
            name = self.name
            if depart_at is None:
                copies = self.chip.multicast(name, dsts, message, size_bytes)
            else:
                copies = 0
                transmit, departing = self.chip.transmit, self._departures()
                for dst, at in zip(dsts, depart_at):
                    if dst != name:
                        copies += 1
                        packet = transmit(name, dst, message, size_bytes, at)
                        if packet is not None:
                            departing.append(packet)
            self.messages_sent += copies
            self.bytes_sent += copies * size_bytes

    def _departures(self) -> Deque[Packet]:
        """The packets sent with a departure still ahead (the ones that
        have left are dropped here), in departure order."""
        departing = self._departing
        now = self.sim.now
        while departing and departing[0].injected_at <= now:
            departing.popleft()
        return departing

    def charge(self, duration: float) -> float:
        """Serialize ``duration`` of compute on this node's core.

        Returns the delay from *now* until the work completes; callers
        schedule continuations after that delay.
        """
        if not duration >= 0:  # NaN fails too
            raise ValueError(f"negative charge duration {duration}")
        start = now = self.sim.now
        if self._busy_until > now:
            start = self._busy_until
        self._busy_until = busy_until = start + duration
        return busy_until - now

    def charge_each(self, duration: float, count: int) -> List[float]:
        """:meth:`charge` ``count`` steps of ``duration`` back to back;
        returns the instant each one completes.

        The core ends as busy as one charge of ``count * duration``
        would leave it, bit for bit; the last instant is that end.
        """
        if not duration >= 0:  # NaN fails too
            raise ValueError(f"negative charge duration {duration}")
        start = now = self.sim.now
        if self._busy_until > now:
            start = self._busy_until
        self._busy_until = busy_until = start + duration * count
        ends = [start + duration * k for k in range(1, count)]
        if count:
            ends.append(busy_until)
        return ends

    def after(self, duration: float, callback: Callable[..., Any], *args: Any) -> Any:
        """:meth:`charge` ``duration``, then run ``callback(*args)`` when the
        work completes: how every handler continues after paying for a step.

        Fires at the instant scheduling after a :meth:`charge` delay would,
        bit for bit, and returns the scheduled event.
        """
        if not duration >= 0:  # NaN fails too
            raise ValueError(f"negative charge duration {duration}")
        sim = self.sim
        start = now = sim.now
        if self._busy_until > now:
            start = self._busy_until
        self._busy_until = busy_until = start + duration
        return sim.schedule_at(now + (busy_until - now), callback, *args)

    def deliver(self, sender: str, message: Any) -> None:
        """Entry point from the chip: queue handling of a received message."""
        if self.state is NodeState.CRASHED:
            return
        for flt in self._inbound_filters:
            filtered = flt(sender, message)
            if filtered is None:
                return
            message = filtered
        self.messages_received += 1
        # after(handle_message, ...) inline, bit for bit: one per message.
        sim = self.sim
        start = now = sim.now
        if self._busy_until > now:
            start = self._busy_until
        self._busy_until = busy_until = start + self.costs.handle_message
        sim.schedule_at(now + (busy_until - now), self._handle_if_alive, sender, message)

    def _handle_if_alive(self, sender: str, message: Any) -> None:
        if self.state is NodeState.CRASHED:
            return
        self.on_message(sender, message)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r} {self.state.value}>"
