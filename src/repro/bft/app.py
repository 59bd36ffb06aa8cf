"""Replicated application state machines.

Replication protocols order opaque operations; these classes execute
them.  Determinism is the contract (paper §II.A: "a deterministic
replicated state machine"): ``execute`` must be a pure function of the
operation sequence, and ``state_digest()`` lets replicas compare states
cheaply (checkpoints, passive state transfer, divergence tests).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.crypto.mac import digest as payload_digest


class StateMachine:
    """Interface every replicated application implements."""

    def execute(self, op: Any) -> Any:
        """Apply one operation and return its result (deterministic)."""
        raise NotImplementedError

    def read(self, op: Any) -> Any:
        """Answer a read-only operation from the current state.

        Must not mutate state.  Raises ValueError for operations that are
        not read-only (the replica then refuses the fast path).
        """
        raise ValueError(f"operation {op!r} is not read-only")

    def state_digest(self) -> bytes:
        """A digest of the full application state."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Serializable copy of the state (state transfer)."""
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        """Replace the state with a snapshot."""
        raise NotImplementedError


class KeyValueStore(StateMachine):
    """A replicated KV store — the canonical SMR workload.

    Operations are tuples:
    ``("put", key, value)`` → "OK", ``("get", key)`` → value or None,
    ``("del", key)`` → "OK" / "MISSING", ``("cas", key, old, new)`` →
    True/False.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self.ops_executed = 0

    def execute(self, op: Any) -> Any:
        if not isinstance(op, tuple) or not op:
            raise ValueError(f"malformed KV operation: {op!r}")
        kind = op[0]
        self.ops_executed += 1
        if kind == "put":
            _, key, value = op
            self._data[key] = value
            return "OK"
        if kind == "get":
            _, key = op
            return self._data.get(key)
        if kind == "del":
            _, key = op
            return "OK" if self._data.pop(key, _MISSING) is not _MISSING else "MISSING"
        if kind == "cas":
            _, key, old, new = op
            if self._data.get(key) == old:
                self._data[key] = new
                return True
            return False
        raise ValueError(f"unknown KV operation kind {kind!r}")

    def read(self, op: Any) -> Any:
        if isinstance(op, tuple) and op and op[0] == "get":
            return self._data.get(op[1])
        raise ValueError(f"operation {op!r} is not read-only")

    def state_digest(self) -> bytes:
        return payload_digest({k: self._data[k] for k in sorted(self._data)})

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._data)

    def restore(self, snapshot: Any) -> None:
        self._data = dict(snapshot)

    def get_local(self, key: str) -> Any:
        """Read-only local peek (tests/diagnostics, not via consensus)."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)


_MISSING = object()


class ControlLoopApp(StateMachine):
    """A CPS control-law state machine (software-defined vehicle / grid).

    State: the last ``window`` sensor readings and the current actuator
    command.  ``("sense", value)`` folds a reading into a moving average
    and returns the new actuator command; ``("command",)`` reads it.
    Deterministic (pure arithmetic over the op stream), so replicas agree.
    """

    def __init__(self, window: int = 8, gain: float = 0.5, setpoint: float = 0.0) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.gain = gain
        self.setpoint = setpoint
        self._readings: Tuple[float, ...] = ()
        self.command = 0.0

    def execute(self, op: Any) -> Any:
        if isinstance(op, tuple) and op and op[0] == "sense":
            reading = float(op[1])
            self._readings = (self._readings + (reading,))[-self.window:]
            average = sum(self._readings) / len(self._readings)
            # Proportional control toward the setpoint.
            self.command = self.gain * (self.setpoint - average)
            return round(self.command, 9)
        if isinstance(op, tuple) and op and op[0] == "command":
            return round(self.command, 9)
        raise ValueError(f"unknown control operation {op!r}")

    def read(self, op: Any) -> Any:
        if isinstance(op, tuple) and op and op[0] == "command":
            return round(self.command, 9)
        raise ValueError(f"operation {op!r} is not read-only")

    def state_digest(self) -> bytes:
        return payload_digest((list(self._readings), round(self.command, 9)))

    def snapshot(self) -> Any:
        return (list(self._readings), self.command)

    def restore(self, snapshot: Any) -> None:
        readings, command = snapshot
        self._readings = tuple(readings)
        self.command = float(command)
