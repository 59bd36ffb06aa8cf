"""Nodes: named protocol participants running on SoC tiles."""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, TYPE_CHECKING

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
        """Stop the node.  In-flight handler work is abandoned."""
        if self.state is not NodeState.COMPROMISED:
            self.state = NodeState.CRASHED
        self.on_crash()

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
    def send(self, dst: str, message: Any, size_bytes: int = 64) -> Optional[Packet]:
        """Send a message to a named node over the NoC.

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
        return self.chip.transmit(self.name, dst, message, size_bytes)

    def broadcast(self, dsts: List[str], message: Any, size_bytes: int = 64) -> None:
        """Send the same message to several nodes (self is skipped).

        What :meth:`send` would do name by name, in one call down to the
        chip — unless an outbound filter is installed, which must see (and
        may rewrite or drop) every ``(dst, message)`` on its own.
        """
        if self._outbound_filters:
            for dst in dsts:
                if dst != self.name:
                    self.send(dst, message, size_bytes)
        elif self.state is not NodeState.CRASHED and self.chip is not None:
            copies = self.chip.multicast(self.name, dsts, message, size_bytes)
            self.messages_sent += copies
            self.bytes_sent += copies * size_bytes

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
