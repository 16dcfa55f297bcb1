"""Seeded randomness for the simulators.

Every stochastic component of the reproduction draws from a
:class:`Rng`, which wraps :class:`random.Random` with the distributions
section 4.2 of the paper uses (exponential inter-arrival, recovery and
dependency-count draws; uniform item selection; Bernoulli failure
choices).  All simulators and workload generators take an explicit seed
so every number in EXPERIMENTS.md is replayable.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

from repro.core.errors import SimulationError

T = TypeVar("T")


class Rng:
    """A seeded random source with the paper's distributions."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    def fork(self, stream: str) -> "Rng":
        """Derive an independent, reproducible sub-stream.

        Named sub-streams keep components (arrivals, failures, network
        jitter ...) statistically independent while remaining functions
        of the master seed, so adding draws to one component does not
        perturb another.  The derivation uses crc32, not Python's
        ``hash`` — string hashing is randomised per process, which
        would silently break cross-run reproducibility.
        """
        derived = zlib.crc32(f"{self._seed}:{stream}".encode("utf-8"))
        return Rng((self._seed * 2654435761 + derived) & 0x7FFFFFFFFFFFFFFF)

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given *mean* (not rate).

        Section 4.2 draws the dependency count ``d`` and the failure
        recovery time from exponential distributions specified by their
        means (``D`` and ``1/R``).
        """
        if mean <= 0:
            raise SimulationError(f"exponential mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def uniform(self, low: float, high: float) -> float:
        """A uniform variate on ``[low, high)``.

        CPython's own ``Random.uniform`` formula, inlined: one draw,
        bit-identical results, one Python call fewer per network jitter
        sample.
        """
        return low + (high - low) * self._random.random()

    def bernoulli(self, probability: float) -> bool:
        """True with the given *probability*."""
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"probability must be in [0, 1], got {probability}"
            )
        return self._random.random() < probability

    def randint(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """A uniformly chosen element of *options*."""
        if not options:
            raise SimulationError("cannot choose from an empty sequence")
        return self._random.choice(options)

    def sample(self, options: Sequence[T], count: int) -> List[T]:
        """*count* distinct elements chosen uniformly from *options*.

        If *count* exceeds ``len(options)`` the whole population is
        returned (shuffled) — section 4.2 selects "a set of d items ...
        at random" and d can exceed a small database.
        """
        count = min(count, len(options))
        return self._random.sample(options, count)

    def shuffled(self, options: Sequence[T]) -> List[T]:
        """A new list with the elements of *options* in random order."""
        shuffled = list(options)
        self._random.shuffle(shuffled)
        return shuffled

    def zipf_like(self, size: int, skew: float) -> int:
        """An index in ``[0, size)`` with a Zipf-like skew.

        Used by the hot-spot workload variants: the paper notes that
        non-uniform item selection "has the effect of reducing the
        effective size of the database".  ``skew = 0`` degenerates to
        uniform.
        """
        if size <= 0:
            raise SimulationError(f"size must be positive, got {size}")
        if skew <= 0:
            return self._random.randrange(size)
        # Inverse-CDF sampling of p(i) ~ 1/(i+1)^skew via rejection-free
        # power-law approximation: u^(1/(1-skew)) for skew < 1, else a
        # bounded Zipf by rejection.
        while True:
            u = self._random.random()
            index = int(size * u ** (1.0 + skew)) % size
            return index
