"""Emulated CHA (Caching and Home Agent) occupancy/rate counters.

On the paper's hardware, the CHA sits between the cache hierarchy and the
memory controllers and exposes uncore counters for per-tier request queue
occupancy and arrival counts (§3.1). Colloid samples these each quantum and
derives per-tier latency with Little's Law.

Here, the equilibrium solver already knows the true per-tier latencies and
request rates; the emulated counters integrate occupancy (``O = R * L``, the
reverse application of Little's Law, which is exact in steady state) and
arrivals over the quantum, optionally perturbed by multiplicative lognormal
noise so that the measurement pipeline (EWMA smoothing, division by rate) is
exercised under realistic conditions.

The counters deliberately expose *raw integrals* the way hardware does —
the measurement layer in :mod:`repro.core.measurement` is responsible for
turning them into latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.fixedpoint import MultiEquilibrium


@dataclass(frozen=True)
class ChaSample:
    """One counter readout covering a sampling window.

    Attributes:
        occupancy: Average per-tier read-queue occupancy (requests).
        rate: Average per-tier read-request arrival rate (requests/ns).
        duration_ns: Window length the sample covers.
    """

    occupancy: np.ndarray
    rate: np.ndarray
    duration_ns: float


class ChaCounters:
    """Accumulating per-tier occupancy/arrival counters with optional noise.

    Usage per simulation quantum::

        counters.observe(equilibrium, quantum_ns)
        sample = counters.sample_and_reset()

    Multiple ``observe`` calls may cover one sample window (e.g. when the
    hardware state changes mid-quantum due to migrations), mirroring the
    microsecond-scale polling the paper's kernel module performs.

    :meth:`window` closes a window unread, so a quantum whose counters
    nobody reads costs nothing; every window still owns its block of
    ``2 * n_tiers`` normals on the noise stream.
    """

    def __init__(self, n_tiers: int, noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_tiers <= 0:
            raise ConfigurationError("n_tiers must be positive")
        if not 0.0 <= noise_sigma < math.inf:
            raise ConfigurationError(
                "noise_sigma must be finite and non-negative")
        self._n_tiers = n_tiers
        self._noise_sigma = noise_sigma
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Per-tier integrals as Python floats: elementwise float
        # arithmetic gives the bits numpy would, without its per-call
        # cost on two or three tiers.
        self._occupancy_integral = [0.0] * n_tiers
        self._arrivals = [0.0] * n_tiers
        self._elapsed_ns = 0.0
        # Windows closed so far, and how many of them drew their noise.
        self._windows = 0
        self._drawn = 0

    def observe(self, equilibrium: MultiEquilibrium,
                duration_ns: float) -> None:
        """Integrate counters over ``duration_ns`` of the given steady state.

        Accepts anything exposing ``tier_read_request_rate`` and
        ``latencies_ns``. With several applications the CHA sees the
        machine's total traffic regardless of who generated it.
        """
        if duration_ns < 0:
            raise ConfigurationError("duration must be non-negative")
        rates = equilibrium.tier_read_request_rate
        if rates.shape != (self._n_tiers,):
            raise ConfigurationError(
                f"equilibrium has {rates.shape[0]} tiers, "
                f"counters expect {self._n_tiers}"
            )
        occupancy = self._occupancy_integral
        arrivals = self._arrivals
        for i, (rate, latency) in enumerate(zip(
                rates.tolist(), equilibrium.latencies_ns.tolist())):
            # Little's Law in reverse: steady-state queue occupancy is
            # R * L.
            occupancy[i] += rate * latency * duration_ns
            arrivals[i] += rate * duration_ns
        self._elapsed_ns += duration_ns

    def sample_and_reset(self) -> ChaSample:
        """Produce a sample for the window observed so far and reset.

        An empty window yields all-zero occupancy and rates, which is what
        idle hardware counters report.
        """
        self._windows += 1
        return self._sample(self._windows)

    def window(self, equilibrium: MultiEquilibrium,
               duration_ns: float) -> Callable[[], ChaSample]:
        """Close one window over ``duration_ns`` of ``equilibrium``
        unread; returns the reader giving the sample :meth:`observe` then
        :meth:`sample_and_reset` would have given. Call it at most once,
        with nothing observed meanwhile and no later window sampled."""
        self._windows += 1
        number = self._windows

        def read() -> ChaSample:
            self.observe(equilibrium, duration_ns)
            return self._sample(number)

        return read

    def _sample(self, number: int) -> ChaSample:
        """Sample the accumulators as window ``number`` (1-based) and
        reset them."""
        elapsed = self._elapsed_ns
        if elapsed > 0:
            occupancy = [o / elapsed for o in self._occupancy_integral]
            rate = [a / elapsed for a in self._arrivals]
        else:
            occupancy = [0.0] * self._n_tiers
            rate = [0.0] * self._n_tiers
        if self._noise_sigma > 0:
            # One draw covers the blocks of ``2 * n_tiers`` normals of
            # this window and of those closed unread since the last
            # draw. numpy draws element by element, so each block holds
            # the values a draw of its own would, occupancy's noise then
            # rate's. Only this window's block is exponentiated, by numpy
            # (``math.exp`` is not guaranteed to round like ``np.exp``).
            if number <= self._drawn:
                raise ConfigurationError("CHA window read after a later one")
            n = self._n_tiers
            noise = np.exp(self._rng.normal(
                0.0, self._noise_sigma, size=(number - self._drawn) * 2 * n
            )[-2 * n:]).tolist()
            self._drawn = number
            occupancy = list(map(mul, occupancy, noise[:n]))
            rate = list(map(mul, rate, noise[n:]))
        sample = ChaSample(
            occupancy=np.array(occupancy),
            rate=np.array(rate),
            duration_ns=elapsed,
        )
        self._occupancy_integral = [0.0] * self._n_tiers
        self._arrivals = [0.0] * self._n_tiers
        self._elapsed_ns = 0.0
        return sample
