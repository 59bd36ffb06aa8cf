"""Named, independently seeded random streams.

Distributed-system simulations are easiest to debug when randomness is
reproducible *per component*: adding a new random draw in the fault injector
must not perturb the sequence seen by the workload generator.  We achieve
this by deriving one :class:`RngStream` per name from a master seed using a
stable hash, so streams are independent of creation order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)`` stably."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_trial_seed(campaign_seed: int, trial_id: str) -> int:
    """Derive an independent 63-bit simulator seed for one campaign trial.

    Campaign trials must not share randomness: two trials whose simulator
    seeds collide would explore the same sample path and silently shrink
    the effective sample size of every cross-seed aggregate.  We derive
    each trial's master seed from ``(campaign_seed, trial_id)`` through a
    domain-separated hash (the ``campaign-trial:`` prefix keeps the space
    disjoint from component-stream derivation above), so trials are
    independent regardless of how the sweep is ordered or resumed.

    The result is truncated to 63 bits so it round-trips through JSON
    readers that only handle signed 64-bit integers.
    """
    digest = hashlib.sha256(
        f"campaign-trial:{campaign_seed}:{trial_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_generation_seed(campaign_seed: int, generation: int) -> int:
    """Derive the genetic-operator seed for one evolutionary generation.

    The evolve driver (:mod:`repro.evolve`) draws mutation, crossover,
    and tournament decisions for generation ``g`` from a stream seeded
    here.  The ``evolve-gen:`` prefix keeps the space disjoint from
    component streams (``_derive_seed``) and campaign trial seeds
    (``campaign-trial:``), so the search trajectory never shares
    randomness with the simulations it steers — and is itself a pure
    function of ``(campaign_seed, g)``, which is what makes interrupted
    evolutionary campaigns resumable.
    Truncated to 63 bits for the same JSON round-trip reason as trial
    seeds.
    """
    digest = hashlib.sha256(
        f"evolve-gen:{campaign_seed}:{generation}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngStream:
    """A seeded random stream for one named component.

    Thin wrapper over :class:`random.Random` with a few distribution
    helpers used across the codebase.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self.name = name
        self._rng = random.Random(_derive_seed(master_seed, name))

    # -- primitive draws ------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Sample k distinct elements."""
        return self._rng.sample(seq, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def getrandbits(self, k: int) -> int:
        """k random bits as an int."""
        return self._rng.getrandbits(k)

    # -- distributions ---------------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival time with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def weibull(self, scale: float, shape: float) -> float:
        """Weibull-distributed lifetime (scale=characteristic life, shape=k).

        shape > 1 models aging (increasing hazard rate), shape == 1 is
        exponential, shape < 1 models infant mortality.
        """
        if scale <= 0 or shape <= 0:
            raise ValueError("weibull scale and shape must be positive")
        return self._rng.weibullvariate(scale, shape)

    def normal(self, mean: float, stddev: float) -> float:
        """Gaussian draw."""
        return self._rng.gauss(mean, stddev)

    def bernoulli(self, p: float) -> bool:
        """True with probability p."""
        return self._rng.random() < p

    def poisson(self, mean: float) -> int:
        """Poisson draw via inversion (fine for the small means used here)."""
        if mean < 0:
            raise ValueError("poisson mean must be non-negative")
        if mean == 0:
            return 0
        # Knuth's algorithm; acceptable because benches use mean < ~50.
        import math

        threshold = math.exp(-mean)
        count, product = 0, self._rng.random()
        while product > threshold:
            count += 1
            product *= self._rng.random()
        return count


class RngRegistry:
    """Factory and cache of named :class:`RngStream` objects.

    ``registry.stream("noc.link_faults")`` always returns the same stream
    object for a given name, seeded independently of every other name.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.master_seed, name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams
