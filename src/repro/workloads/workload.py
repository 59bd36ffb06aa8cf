"""The `Workload` API: all of a requester's traffic in one object.

A workload answers every question a requester asks about what it sends:
``op(i)`` (the ``i``-th operation), ``is_read(op)`` (may it take the read
fast path?), ``arrivals`` (how fast an open population issues; None for
closed loops) and ``name``.  :class:`~repro.bft.client.ClientNode` takes
one in ``ClientConfig.workload``,
:class:`~repro.mesoscale.population.ClientPopulation` in
``PopulationConfig.workload``; each classifies an op once, when it issues
it, and tells whoever sends it.  This module defines:

* :class:`Workload` — the protocol;
* :class:`UniformKeys` / :class:`ZipfKeys` — deterministic key
  distributions;
* :class:`KVWorkload` — the put/get mix at a write ratio over a key
  distribution, its gets classified as reads (every read-path bench);
* :class:`AlternatingKV` — put on even indices, get on odd ones, every
  op ordered (the default client and the closed-loop populations);
* :class:`FactoryWorkload` — any ``factory(i)`` callable, with an
  optional ``reads`` predicate (a bare callable is not a workload: wrap
  it).

Everything is a pure function of the op index ``i`` (plus explicit
seeds), so the same workload replays identically against any protocol,
shard count, or driver — the property every exactness check in this
repo leans on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, List, Optional, Protocol, runtime_checkable

from repro.workloads.arrivals import ArrivalProcess, PoissonArrivals


@runtime_checkable
class Workload(Protocol):
    """One object answering "what ops?", "which are reads?" and "how fast?"."""

    name: str
    arrivals: Optional[ArrivalProcess]

    def op(self, i: int) -> Any:
        """The ``i``-th operation of the workload (pure in ``i``)."""
        ...

    def is_read(self, op: Any) -> bool:
        """True for ops the read fast path may serve without ordering."""
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

    ``write_ratio`` is honored with a stride (``(i * 37) % 100`` below
    ``write_ratio * 100`` is a put), so the mix is exact over every 100
    consecutive indices.  ``read_ratio`` is the complementary spelling
    (read-path benches think in reads): setting it overrides
    ``write_ratio`` with ``1 - read_ratio``.  Its ``get`` and ``mget``
    ops are reads (:meth:`is_read`).
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


@dataclass(frozen=True)
class AlternatingKV:
    """Put on even indices, get on odd ones, keys drawn from ``keys``.

    Classifies nothing as a read, so every op is ordered: the closed
    loops measure the consensus pipeline, not the read fast path.  Not
    a :class:`KVWorkload` mode: the default client, C2, ``shard-scaling``,
    ``faultspace`` and ``repro shard`` results were captured on this
    stream, whose puts and gets alternate rather than follow the stride.
    """

    keys: Any = UniformKeys(64)
    name: ClassVar[str] = "alternating-kv"
    arrivals: ClassVar[Optional[ArrivalProcess]] = None

    def op(self, i: int) -> Any:
        key = self.keys.key(i)
        return ("put", key, i) if i % 2 == 0 else ("get", key)

    @staticmethod
    def is_read(op: Any) -> bool:
        return False


@dataclass
class FactoryWorkload:
    """Any ``factory(i)`` callable exposed through the Workload API.

    ``reads`` classifies its ops for the read fast path; None means the
    ops are opaque and every one takes the ordered path.
    """

    factory: Callable[[int], Any]
    name: str = "factory"
    arrivals: Optional[ArrivalProcess] = None
    reads: Optional[Callable[[Any], bool]] = None

    def op(self, i: int) -> Any:
        return self.factory(i)

    def is_read(self, op: Any) -> bool:
        return self.reads is not None and bool(self.reads(op))


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
