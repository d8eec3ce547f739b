"""Deterministic random-number utilities.

Every stochastic decision in the simulation (network jitter, packet drops,
workload key selection, byzantine behaviour) draws from a
:class:`DeterministicRNG` derived from the experiment seed, so results are
reproducible bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from a root seed and a label path.

    Using a hash keeps child streams statistically independent even when the
    labels are sequential integers (e.g. node identifiers).
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class DeterministicRNG:
    """A seeded random stream with the handful of draws the simulation needs."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        # Bind the hottest draws straight to the underlying generator: the
        # workload generator calls randint hundreds of thousands of times per
        # simulated second, and the wrapper frame is pure overhead.  The
        # instance attributes shadow the identically-behaved methods below.
        self.randint = self._random.randint  # type: ignore[method-assign]
        self.random = self._random.random  # type: ignore[method-assign]
        self.uniform = self._random.uniform  # type: ignore[method-assign]
        # The raw bit source, exposed for the compiled kernel's rejection
        # sampler: repro._ckernel draws through this exact bound method so
        # C-generated draw sequences stay bit-identical to bounded_int_fn's.
        self.getrandbits: Callable[[int], int] = self._random.getrandbits

    @property
    def seed(self) -> int:
        return self._seed

    def child(self, *labels: object) -> "DeterministicRNG":
        """Create an independent stream for a sub-component."""
        return DeterministicRNG(derive_seed(self._seed, *labels))

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def random(self) -> float:
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def bounded_int_fn(self, width: int) -> Callable[[], int]:
        """A zero-argument sampler equivalent to ``randint(0, width - 1)``.

        Replicates CPython's ``Random._randbelow_with_getrandbits`` rejection
        loop exactly — the same ``getrandbits`` calls in the same order — so
        the draw *sequence* is bit-identical to calling :meth:`randint`, while
        skipping the three stdlib wrapper frames per draw.  The workload
        generator's general builder pre-builds one sampler per constant
        bound (partition size, hot-key count, value range); its generation
        loop and the compiled kernel inline this exact loop, so this stays
        their reference.
        """
        if width <= 0:
            raise ValueError("width must be positive")
        getrandbits = self._random.getrandbits
        bits = width.bit_length()

        def draw() -> int:
            value = getrandbits(bits)
            while value >= width:
                value = getrandbits(bits)
            return value

        return draw

    def choice(self, options: Sequence[T]) -> T:
        return self._random.choice(options)

    def sample(self, options: Sequence[T], count: int) -> List[T]:
        return self._random.sample(options, count)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def zipf_index(self, population: int, theta: float) -> int:
        """Draw a Zipfian-distributed index in ``[0, population)``.

        Uses the rejection-inversion method of Hörmann; adequate for the
        YCSB-style skewed key selection used in the workload generator.
        """
        if population <= 0:
            raise ValueError("population must be positive")
        if theta <= 0 or population <= 2:
            # Tiny populations degenerate (the harmonic approximation divides
            # by zero at population 2); uniform choice is exact enough there.
            return self._random.randrange(population)
        # Classic YCSB zipfian via the harmonic approximation.
        zetan = _zeta(population, theta)
        alpha = 1.0 / (1.0 - theta)
        eta = (1 - (2.0 / population) ** (1 - theta)) / (1 - _zeta(2, theta) / zetan)
        u = self._random.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** theta:
            return 1
        return int(population * (eta * u - eta + 1) ** alpha)


def _zeta(n: int, theta: float, _cache: Dict[Tuple[int, float], float] = {}) -> float:
    """Truncated zeta function used by the zipfian generator (memoised)."""
    key = (n, theta)
    if key not in _cache:
        _cache[key] = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    return _cache[key]


def spread_evenly(items: Sequence[T], buckets: int) -> List[List[T]]:
    """Round-robin ``items`` into ``buckets`` lists (used for region placement)."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    result: List[List[T]] = [[] for _ in range(buckets)]
    for index, item in enumerate(items):
        result[index % buckets].append(item)
    return result
