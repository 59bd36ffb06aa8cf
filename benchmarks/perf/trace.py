"""Span tracing from outside the program: who spent a wall-second, layer by layer.

Nothing under ``src/`` knows about this.  For one traced pass a single table of
attributes is patched and restored in ``finally``:

* ``Simulator.schedule_at`` wraps every scheduled callback, so each *fired*
  event is a root span named by the package of the callback's owner (a
  ``PeriodicTimer``/``Timeout`` is attributed to the callback it carries);
* the synchronous cross-layer calls in :data:`SYNC_CALLS` nest child spans.
  (PBFT and MinBFT here never build an ``Authenticator``; the crypto on the
  service path is ``digest``/``compute_mac``/``verify_mac``, so those are in
  the table too.)

A layer's self time is its spans' duration minus the part their child spans
cover; the kernel's own time (heap push/pop/compare, the loop) is the window's
wall time minus all root spans.  Time spent in a synchronous callee that is not
in the table stays with its caller.  Spans are folded into per-layer sums as
they close; pass ``keep_spans=True`` to also keep every span (name, start, end,
parent) in memory for ``--spans FILE``.
"""

from __future__ import annotations

import functools
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.bft.app
import repro.bft.messages
import repro.bft.replica
import repro.hybrids.usig
from repro.crypto.mac import Authenticator
from repro.hybrids.usig import Usig, UsigVerifier
from repro.mesoscale.admission import AdmissionController
from repro.noc.network import NocNetwork
from repro.shard.router import ShardRouter
from repro.sim.simulator import Simulator
from repro.sim.timers import PeriodicTimer, Timeout
from repro.soc.chip import Chip
from repro.soc.node import Node

from perf.metrics import LAYERS

#: (namespace, attribute, layer of the span).  The crypto primitives are
#: module-level functions, so they are patched where their callers bound them.
SYNC_CALLS: List[Tuple[Any, str, str]] = [
    (NocNetwork, "send", "noc"),
    (NocNetwork, "multicast", "noc"),
    (Chip, "transmit", "soc"),
    (Node, "deliver", "soc"),
    (Authenticator, "create", "crypto"),
    (Authenticator, "verify", "crypto"),
    (repro.bft.messages, "_digest", "crypto"),
    (repro.bft.app, "payload_digest", "crypto"),
    (repro.bft.replica, "payload_digest", "crypto"),
    (repro.hybrids.usig, "compute_mac", "crypto"),
    (repro.hybrids.usig, "verify_mac", "crypto"),
    (Usig, "create_ui", "hybrids"),
    (UsigVerifier, "verify_ui", "hybrids"),
    (ShardRouter, "submit", "shard"),
    (AdmissionController, "decide", "mesoscale"),
]


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def layer_of(callback: Callable[..., Any]) -> str:
    """The layer an event handler belongs to: the package of its owner."""
    if isinstance(callback, functools.partial):
        return layer_of(callback.func)
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return layer_of_module(getattr(callback, "__module__", "") or "")
    if isinstance(owner, (PeriodicTimer, Timeout)):
        return layer_of(owner.callback)
    return layer_of_module(type(owner).__module__)


class Tracer:
    """Per-layer event counts, call counts and self times for one window."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.recording = False
        self.events: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)  # SYNC_CALLS spans per layer
        self.root_s = 0.0  # total duration of root (event) spans
        self._stack: List[List[Any]] = []  # [layer, start, child seconds, span index]
        self._keep = keep_spans
        self._span_layer = array("b")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("l")

    # ------------------------------------------------------------------
    def _span(self, layer: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        index = -1
        if self._keep:
            index = len(self._span_layer)
            self._span_layer.append(LAYERS.index(layer))
            self._span_parent.append(stack[-1][3] if stack else -1)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        frame = [layer, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                self.root_s += duration
            if index >= 0:
                self._span_start[index] = start
                self._span_end[index] = end

    def fire(self, layer: str, callback: Callable[..., Any], args: tuple) -> None:
        """Kernel-facing wrapper: run one event's callback as a root span."""
        if not self.recording:
            callback(*args)
            return
        self.events[layer] += 1
        self._span(layer, callback, args, {})

    # ------------------------------------------------------------------
    def _wrap_sync(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            return tracer._span(layer, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the method table for the duration of the block.

        Install *before* the system is built so every event of the run is
        scheduled through the wrapper — then the per-layer event counts sum
        to ``events_fired`` exactly.
        """
        tracer = self
        original_schedule_at = Simulator.schedule_at

        def schedule_at(sim, time, callback, *args, priority=0):
            return original_schedule_at(
                sim, time, tracer.fire, layer_of(callback), callback, args,
                priority=priority,
            )

        saved: List[Tuple[Any, str, Any]] = [(Simulator, "schedule_at", original_schedule_at)]
        try:
            Simulator.schedule_at = schedule_at  # type: ignore[method-assign]
            for namespace, attr, layer in SYNC_CALLS:
                raw = vars(namespace)[attr]
                saved.append((namespace, attr, raw))
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap_sync(layer, raw.__func__))
                else:
                    patched = self._wrap_sync(layer, raw)
                setattr(namespace, attr, patched)
            yield self
        finally:
            for namespace, attr, raw in saved:
                setattr(namespace, attr, raw)

    # ------------------------------------------------------------------
    def fold(self, window_wall_s: float) -> Dict[str, float]:
        """``L.events`` / ``L.self_s`` / ``L.self_frac`` for every layer."""
        self_s = dict(self.self_s)
        self_s["sim"] += max(0.0, window_wall_s - self.root_s)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.events"] = self.events[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.self_frac"] = self_s[layer] / window_wall_s
        return out

    def dump_spans(self, path: str) -> int:
        """Write kept spans as JSONL (``name``, ``start``, ``end``, ``parent``)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, layer in enumerate(self._span_layer):
                handle.write(json.dumps({
                    "id": i,
                    "name": LAYERS[layer],
                    "start": self._span_start[i],
                    "end": self._span_end[i],
                    "parent": self._span_parent[i],
                }) + "\n")
        return len(self._span_layer)
