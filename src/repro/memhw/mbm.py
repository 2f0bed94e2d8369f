"""Emulated Memory Bandwidth Monitoring (MBM).

The paper uses Intel MBM to attribute per-tier memory bandwidth to the
application (Figures 2b / 6a show the application's default-vs-alternate
bandwidth split, *excluding* the antagonist). This module provides the
same observable from the equilibrium solver's solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MbmSample:
    """Application bandwidth attribution for a window.

    Attributes:
        app_tier_bandwidth: Application wire traffic per tier (bytes/ns),
            demand reads plus writebacks.
        duration_ns: Window length.
    """

    app_tier_bandwidth: np.ndarray
    duration_ns: float

    @property
    def default_tier_share(self) -> float:
        """Fraction of application bandwidth served by tier 0.

        This is the quantity plotted in Figures 2(b) and 6(a).
        """
        total = float(self.app_tier_bandwidth.sum())
        if total <= 0:
            return 0.0
        return float(self.app_tier_bandwidth[0]) / total


class MbmMonitor:
    """Accumulates application per-tier bandwidth across a window."""

    def __init__(self, n_tiers: int, traffic_multiplier: float = 1.5) -> None:
        if n_tiers <= 0:
            raise ConfigurationError("n_tiers must be positive")
        if traffic_multiplier < 1.0:
            raise ConfigurationError("traffic multiplier must be >= 1")
        self._n_tiers = n_tiers
        self._multiplier = traffic_multiplier
        self._traffic_integral = np.zeros(n_tiers)
        self._elapsed_ns = 0.0

    def observe_rates(self, tier_read_rate: np.ndarray,
                      duration_ns: float) -> None:
        """Integrate one application's per-tier read rates over a window.

        The loop feeds each tenant's monitor from its own
        :class:`~repro.memhw.fixedpoint.AppEquilibrium` — MBM attributes
        bandwidth per resource-monitoring ID on real hardware, so each
        tenant sees only its own traffic here too.
        """
        if duration_ns < 0:
            raise ConfigurationError("duration must be non-negative")
        reads = np.asarray(tier_read_rate, dtype=float)
        if reads.shape != (self._n_tiers,):
            raise ConfigurationError("tier count mismatch")
        self._traffic_integral += reads * self._multiplier * duration_ns
        self._elapsed_ns += duration_ns

    def sample_and_reset(self) -> MbmSample:
        """Produce the window's sample and reset the accumulator."""
        if self._elapsed_ns > 0:
            bandwidth = self._traffic_integral / self._elapsed_ns
        else:
            bandwidth = np.zeros(self._n_tiers)
        sample = MbmSample(
            app_tier_bandwidth=bandwidth, duration_ns=self._elapsed_ns
        )
        self._traffic_integral = np.zeros(self._n_tiers)
        self._elapsed_ns = 0.0
        return sample
