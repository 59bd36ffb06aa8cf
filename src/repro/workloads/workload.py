"""The unified `Workload` API: op mix + key distribution + arrival process.

Historically a workload was a bare ``op_factory(i) -> op`` callable and
the *demand side* (who issues how fast) lived in whichever driver you
wired it to.  The mesoscale engine needs both halves in one object — a
population samples demand from the workload's arrival process and turns
each admitted slot into ``workload.op(i)``.  This module defines:

* :class:`Workload` — the protocol every traffic consumer accepts:
  ``op(i)``, an ``arrivals`` process, and a ``name``;
* :class:`UniformKeys` / :class:`ZipfKeys` — deterministic key
  distributions, factored out of the old generator closures;
* :class:`KVWorkload` — the standard put/get mix over a key
  distribution (the concrete workload every bench uses);
* :class:`FactoryWorkload` — adapter exposing an ``op_factory(i)``
  callable as a workload (a bare callable is not one: wrap it).

Everything is a pure function of the op index ``i`` (plus explicit
seeds), so the same workload replays identically against any protocol,
shard count, or driver — the property every exactness check in this
repo leans on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Protocol, runtime_checkable

from repro.workloads.arrivals import ArrivalProcess, PoissonArrivals

OpFactory = Callable[[int], Any]


@runtime_checkable
class Workload(Protocol):
    """One object answering both "what ops?" and "how fast?"."""

    name: str
    arrivals: Optional[ArrivalProcess]

    def op(self, i: int) -> Any:
        """The ``i``-th operation of the workload (pure in ``i``)."""
        ...


# ----------------------------------------------------------------------
# Key distributions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UniformKeys:
    """Round-robin over ``keys`` names — every key equally hot."""

    keys: int = 64

    def __post_init__(self) -> None:
        if self.keys < 1:
            raise ValueError("need at least one key")

    def key(self, i: int) -> str:
        return f"k{i % self.keys}"


@dataclass(frozen=True)
class ZipfKeys:
    """Zipf-skewed popularity: a pre-drawn table keeps ``key`` pure in i."""

    keys: int = 64
    s: float = 1.1
    seed: int = 0
    table_size: int = 65536
    _table: List[int] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.keys < 1:
            raise ValueError("need at least one key")
        if self.s <= 0:
            raise ValueError("zipf exponent must be positive")
        rng = random.Random(self.seed)
        weights = [1.0 / (rank + 1) ** self.s for rank in range(self.keys)]
        total = sum(weights)
        probabilities = [w / total for w in weights]
        table = rng.choices(range(self.keys), weights=probabilities, k=self.table_size)
        object.__setattr__(self, "_table", table)

    def key(self, i: int) -> str:
        return f"k{self._table[i % len(self._table)]}"


# ----------------------------------------------------------------------
# Concrete workloads
# ----------------------------------------------------------------------

@dataclass
class KVWorkload:
    """The standard KV mix: deterministic put/get interleave over keys.

    ``write_ratio`` is honored with the same stride trick as the old
    ``kv_uniform_ops`` (``(i * 37) % 100``), so a migrated bench sees the
    identical op sequence for the identical index stream.  ``read_ratio``
    is the complementary spelling (read-path benches think in reads):
    setting it overrides ``write_ratio`` with ``1 - read_ratio``.

    The workload also *classifies* its own ops: :meth:`is_read` is the
    ``read_only_predicate`` drivers derive automatically via
    :func:`read_only_predicate_of` — no more per-bench lambdas.
    """

    name: str = "kv"
    keys: Any = field(default_factory=UniformKeys)
    write_ratio: float = 0.5
    read_ratio: Optional[float] = None
    arrivals: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.read_ratio is not None:
            if not 0 <= self.read_ratio <= 1:
                raise ValueError("read ratio must be in [0, 1]")
            self.write_ratio = 1.0 - self.read_ratio
        if not 0 <= self.write_ratio <= 1:
            raise ValueError("write ratio must be in [0, 1]")
        self._writes_per_period = round(self.write_ratio * 100)

    def op(self, i: int) -> Any:
        key = self.keys.key(i)
        if (i * 37) % 100 < self._writes_per_period:
            return ("put", key, i)
        return ("get", key)

    @staticmethod
    def is_read(op: Any) -> bool:
        """True for ops the read fast path may serve without ordering."""
        return isinstance(op, tuple) and len(op) > 0 and op[0] in ("get", "mget")


@dataclass
class FactoryWorkload:
    """Adapter: an ``op_factory(i)`` exposed through the Workload API.

    The ops are opaque — no ``is_read`` — so nothing derives a read-only
    predicate from it and every op takes the ordered path.
    """

    factory: OpFactory
    name: str = "factory"
    arrivals: Optional[ArrivalProcess] = None

    def op(self, i: int) -> Any:
        return self.factory(i)


def kv_workload(
    keys: int = 64,
    write_ratio: float = 0.5,
    zipf_s: Optional[float] = None,
    seed: int = 0,
    arrivals: Optional[ArrivalProcess] = None,
    rate_per_client: Optional[float] = None,
    read_ratio: Optional[float] = None,
) -> KVWorkload:
    """Build the standard KV workload in one call.

    ``zipf_s`` switches the key distribution from uniform to Zipf;
    ``rate_per_client`` is sugar for ``arrivals=PoissonArrivals(...)``;
    ``read_ratio`` overrides ``write_ratio`` with its complement.
    """
    if arrivals is not None and rate_per_client is not None:
        raise ValueError("pass arrivals or rate_per_client, not both")
    if rate_per_client is not None:
        arrivals = PoissonArrivals(rate_per_client)
    distribution: Any
    if zipf_s is None:
        distribution = UniformKeys(keys)
    else:
        distribution = ZipfKeys(keys=keys, s=zipf_s, seed=seed)
    return KVWorkload(
        name="kv-zipf" if zipf_s is not None else "kv-uniform",
        keys=distribution,
        write_ratio=write_ratio,
        read_ratio=read_ratio,
        arrivals=arrivals,
    )


def read_only_predicate_of(workload: Any) -> Optional[Callable[[Any], bool]]:
    """Derive the read-only classifier from a workload, if it has one.

    Workloads that know their own op shapes expose ``is_read(op)``
    (:class:`KVWorkload` does); drivers call this helper instead of
    requiring callers to hand-write per-bench predicate lambdas.  Legacy
    :class:`FactoryWorkload` wrappers return None — their ops are opaque,
    so every op stays on the ordered path unless a predicate is passed
    explicitly.
    """
    is_read = getattr(workload, "is_read", None)
    return is_read if callable(is_read) else None
