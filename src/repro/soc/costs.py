"""Processing-cost model for nodes (execution and crypto operation times)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Per-operation time costs charged by a node's core, in NoC cycles.

    Defaults approximate a modest embedded core clocked at the NoC
    frequency: a truncated HMAC-SHA256 over a small message costs ~40
    cycles with a hardware MAC unit, message handling logic ~20 cycles,
    request execution ~50 cycles.  Only *relative* magnitudes matter for
    the experiments; E2 sweeps them.
    """

    handle_message: float = 20.0
    mac_compute: float = 40.0
    mac_verify: float = 40.0
    execute_request: float = 50.0
    usig_create: float = 60.0
    usig_verify: float = 45.0

    def __post_init__(self) -> None:
        # Node.deliver reserves handle_message without after()'s check.
        for name, cost in vars(self).items():
            if not cost >= 0:  # NaN fails too
                raise ValueError(f"cost {name} must be >= 0, got {cost}")

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every cost multiplied by ``factor`` (slower core)."""
        if not factor > 0:  # NaN fails too: it would make every cost NaN
            raise ValueError(f"cost scale factor must be positive, got {factor}")
        return CostModel(
            handle_message=self.handle_message * factor,
            mac_compute=self.mac_compute * factor,
            mac_verify=self.mac_verify * factor,
            execute_request=self.execute_request * factor,
            usig_create=self.usig_create * factor,
            usig_verify=self.usig_verify * factor,
        )
