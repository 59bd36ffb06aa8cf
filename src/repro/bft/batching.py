"""Request batching and pipelined agreement for the consensus hot path.

With closed-loop clients and one request per agreement round, throughput
is bounded by protocol latency: every operation pays a full three-phase
exchange (PBFT) or UI-signed round (MinBFT) plus one MAC vector / USIG
certificate of its own.  Batching amortizes that per-round cost — the
primary accumulates incoming :class:`~repro.bft.messages.ClientRequest`\\ s
into a batch closed by **size** (``batch_size`` requests) or **time**
(``batch_delay`` after the first request), and runs *one* agreement round
per batch.  Pipelining bounds concurrency instead of forbidding it: up to
``max_inflight`` sequence numbers may be in flight at once.  Batches are
cut at **dispatch** time, not at admission, and the two kinds of batch are
cut by different rules:

* a **full** batch (``batch_size`` requests pooled) goes whenever the
  in-flight window has room — the window exists for full batches, and
  while it is full, requests pool, so backpressure produces *fuller*
  batches instead of a queue of fragments;
* a **partial** batch goes only when its delay is due **and nothing is in
  flight** (Nagle's rule applied to agreement rounds).  A round occupies
  the primary's serialized core from proposal to execution, so a second
  partial round in flight overlaps with nothing and only queues the
  primary behind itself; held back, the arrivals of one round pool into
  the next one.  Below saturation the window is therefore never filled
  with fragments, and latency is one round's service time, not
  ``max_inflight`` of them (DESIGN §4, *When a partial batch may go*).

The delay bound is a deadline, not a poll: once it has fired the credit
stays due until a cut empties the pool, and no timer runs meanwhile.

Exactness contract: with ``batch_size=1`` (and no delay bound) the
accumulator closes every batch synchronously at admission, unwraps it to
the bare request, and schedules **no events of its own** — the message
stream, event order, and results are byte-identical to the unbatched
protocol (``batching=None``), which ``tests/test_bft_batching.py``
asserts per family.  The protocol config's ``batching`` field is the one
switch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Set, Tuple, TYPE_CHECKING

from repro.bft.messages import ClientRequest, RequestBatch
from repro.soc.node import NodeState

if TYPE_CHECKING:  # pragma: no cover
    from repro.bft.replica import BaseReplica

ProposeFn = Callable[[Any], bool]
"""Protocol callback: order one proposal now.  Returns False if the
proposal could not be admitted (watermark full, not primary any more);
the accumulator then releases its window slot and drops the batch —
clients retransmit, exactly as with the unbatched protocols."""


@dataclass
class BatchConfig:
    """Batching/pipelining knobs shared by every protocol family.

    ``batch_size``   — close a batch once it holds this many requests.
    ``batch_delay``  — close a partial batch this long after its first
                       request arrived.  0 means only the size bound
                       closes batches: with ``batch_size > 1`` a workload
                       that never pools a full batch (fewer outstanding
                       requests than the batch size) stalls, so pair
                       real batching with a delay bound.
    ``max_inflight`` — concurrent uncommitted sequence numbers the primary
                       may have outstanding as **full** batches (0 =
                       unbounded, the legacy watermark-only behaviour).
                       A partial batch never shares the pipeline: it goes
                       only when nothing is in flight, whatever this is.
    """

    batch_size: int = 1
    batch_delay: float = 0.0
    max_inflight: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_delay < 0 or self.max_inflight < 0:
            raise ValueError("batching bounds must be non-negative")


class BatchAccumulator:
    """Primary-side request accumulator with a bounded in-flight window.

    The owning replica feeds deduplicated requests through :meth:`add`;
    the accumulator cuts batches per the config's bounds and calls the
    protocol's propose callback synchronously.  Batches are cut at
    dispatch time: a full batch whenever the in-flight window has room,
    a partial one only when its delay is due and nothing is in flight;
    until then requests pool in ``_open`` and later cuts are fuller.
    :meth:`on_committed` must be called once per committed sequence
    number so pooled requests drain as the pipeline frees.  All
    bookkeeping is dropped by :meth:`reset` on view change / recovery —
    pending requests survive in the protocol's ``_pending_requests`` map
    and re-enter via re-batching.
    """

    def __init__(self, replica: "BaseReplica", config: BatchConfig, propose: ProposeFn) -> None:
        self.replica = replica
        self.config = config
        self._propose = propose
        self._open: Deque[ClientRequest] = deque()
        self.inflight = 0
        self.pending_keys: Set[Tuple[str, int]] = set()
        self._delay_due = False  # the delay timer fired with requests pooled
        self._timer_armed = False
        self._timer_gen = 0  # invalidates timers armed before a reset
        metrics = replica.group.metrics
        gid = replica.group.group_id
        self._size_hist = metrics.histogram(f"{gid}.batch.size")
        self._inflight_gauge = metrics.gauge(f"{gid}.inflight")

    # ------------------------------------------------------------------
    def add(self, request: ClientRequest) -> None:
        """Admit one request; may cut and propose a batch synchronously."""
        self.pending_keys.add(request.key())
        self._open.append(request)
        self._pump()
        # The delay bound is a deadline: one timer from the pool's first
        # request; once it has fired the credit stays due until a cut
        # empties the pool, and nothing polls meanwhile.
        cfg = self.config
        if self._open and cfg.batch_delay > 0 and not self._timer_armed and not self._delay_due:
            self._timer_armed = True
            self.replica.sim.schedule(cfg.batch_delay, self._on_delay, self._timer_gen)

    def on_committed(self) -> None:
        """One proposed sequence number committed: free a window slot."""
        if self.inflight > 0:
            self.inflight -= 1
            self._inflight_gauge.set(float(self.inflight))
        self._pump()

    def flush(self) -> None:
        """Dispatch everything pooled now, window permitting (view
        installation / re-batching must not wait on a delay); any
        remainder pumps out on commits."""
        while self._open and self._window_free():
            self._cut()

    def reset(self) -> None:
        """Drop all bookkeeping (view change, recovery, shutdown)."""
        self._timer_gen += 1
        self._timer_armed = False
        self._delay_due = False
        self._open.clear()
        self.pending_keys.clear()
        self.inflight = 0
        self._inflight_gauge.set(0.0)

    # ------------------------------------------------------------------
    def _window_free(self) -> bool:
        return self.config.max_inflight == 0 or self.inflight < self.config.max_inflight

    def _pump(self) -> None:
        """Cut what may go now: a full batch while the window has room, a
        partial one only when its delay is due and nothing is in flight —
        while a round is out, arrivals pool and the next cut is fuller."""
        cfg = self.config
        while self._open:
            if len(self._open) >= cfg.batch_size:
                may_go = self._window_free()
            else:
                may_go = self._delay_due and self.inflight == 0
            if not may_go:
                break
            self._cut()

    def _cut(self) -> None:
        """Dispatch up to one batch_size worth of pooled requests."""
        k = min(len(self._open), self.config.batch_size)
        requests = [self._open.popleft() for _ in range(k)]
        if not self._open:
            self._delay_due = False  # the credit does not outlive the pool
        # A single request goes on the wire bare: batch_size=1 traffic is
        # byte-identical to the unbatched protocol.
        proposal = requests[0] if k == 1 else RequestBatch(tuple(requests))
        self._size_hist.observe(float(k))
        self.inflight += 1
        self._inflight_gauge.set(float(self.inflight))
        if not self._propose(proposal):
            # Watermark full / demoted mid-batch: drop, free the slot —
            # clients retransmit, exactly as with the unbatched protocols.
            self.inflight -= 1
            self._inflight_gauge.set(float(self.inflight))
        for request in requests:
            self.pending_keys.discard(request.key())

    def _on_delay(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # armed before a reset
        self._timer_armed = False
        if self._open and self.replica.state is not NodeState.CRASHED:
            self._delay_due = True
            self._pump()
