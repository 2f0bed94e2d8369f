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

from dataclasses import dataclass
from operator import mul
from typing import Optional

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
    """

    def __init__(self, n_tiers: int, noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_tiers <= 0:
            raise ConfigurationError("n_tiers must be positive")
        if noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be non-negative")
        self._n_tiers = n_tiers
        self._noise_sigma = noise_sigma
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Per-tier integrals as Python floats: elementwise float
        # arithmetic gives the bits numpy would, without its per-call
        # cost on two or three tiers.
        self._occupancy_integral = [0.0] * n_tiers
        self._arrivals = [0.0] * n_tiers
        self._elapsed_ns = 0.0

    @property
    def n_tiers(self) -> int:
        """Number of tiers being monitored."""
        return self._n_tiers

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
        elapsed = self._elapsed_ns
        if elapsed > 0:
            occupancy = [o / elapsed for o in self._occupancy_integral]
            rate = [a / elapsed for a in self._arrivals]
        else:
            occupancy = [0.0] * self._n_tiers
            rate = [0.0] * self._n_tiers
        if self._noise_sigma > 0:
            noise = self._lognormal_noise()
            n = self._n_tiers
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

    def _lognormal_noise(self) -> list:
        """Multiplicative noise factors, mean ~1, occupancy's ``n_tiers``
        then rate's: one ``normal`` draw of ``2 * n_tiers`` values, which
        numpy draws element by element, so they are the values of two
        ``n_tiers`` draws in turn; exponentiated by numpy (``math.exp``
        is not guaranteed to round like ``np.exp``)."""
        return np.exp(
            self._rng.normal(0.0, self._noise_sigma,
                             size=2 * self._n_tiers)
        ).tolist()
