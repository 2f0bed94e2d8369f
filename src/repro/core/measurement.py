"""Per-tier access-latency measurement (§3.1).

Colloid samples CHA occupancy and request-rate counters each quantum and
computes per-tier latency with Little's Law, ``L = O / R``. Little's Law
holds for any stable queueing system regardless of arrival or service
distributions, so no modelling assumptions are needed. EWMA smoothing is
applied to the occupancy and rate signals *separately* (as the paper
specifies) before the division, trading a little reaction time for
stability.

Only CHA-to-memory latency is measured; the CPU-to-CHA hop (~5 ns) is a
negligible, constant additive term on both tiers and is ignored, as in the
paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.cha import ChaSample
from repro.memhw.fixedpoint import tier_sum

#: Default EWMA weight for new samples.
DEFAULT_EWMA_ALPHA = 0.2

#: Rates below this (requests/ns) are treated as "no traffic": the latency
#: estimate falls back to the tier's unloaded latency rather than dividing
#: by ~zero.
_MIN_RATE = 1e-9


class LatencyMonitor:
    """EWMA-smoothed Little's-Law latency estimation from CHA samples."""

    def __init__(self, unloaded_latencies_ns: Sequence[float],
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0 < ewma_alpha <= 1:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        unloaded = np.asarray(unloaded_latencies_ns, dtype=float)
        if unloaded.ndim != 1 or len(unloaded) < 1:
            raise ConfigurationError("need unloaded latency per tier")
        if (unloaded <= 0).any():
            raise ConfigurationError("unloaded latencies must be positive")
        self._unloaded = unloaded
        self._unloaded_list = unloaded.tolist()
        self._alpha = float(ewma_alpha)
        # Smoothed per-tier signals as Python floats: the elementwise
        # EWMA gives the bits numpy would, without its per-call cost on
        # two or three tiers.
        self._occupancy: Optional[List[float]] = None
        self._rate: Optional[List[float]] = None
        self.samples_seen = 0

    @property
    def n_tiers(self) -> int:
        """Number of monitored tiers."""
        return len(self._unloaded)

    def update(self, sample: ChaSample) -> None:
        """Fold one counter sample into the smoothed state."""
        if sample.occupancy.shape != (self.n_tiers,):
            raise ConfigurationError("sample tier count mismatch")
        occupancy = sample.occupancy.astype(float).tolist()
        rate = sample.rate.astype(float).tolist()
        if self._occupancy is None:
            self._occupancy = occupancy
            self._rate = rate
        else:
            a = self._alpha
            keep = 1 - a
            self._occupancy = [keep * old + a * new
                               for old, new in zip(self._occupancy,
                                                   occupancy)]
            self._rate = [keep * old + a * new
                          for old, new in zip(self._rate, rate)]
        self.samples_seen += 1

    @property
    def smoothed_rates(self) -> np.ndarray:
        """EWMA-smoothed per-tier request rates (requests/ns)."""
        if self._rate is None:
            return np.zeros(self.n_tiers)
        return np.array(self._rate)

    def latencies_ns(self) -> np.ndarray:
        """Per-tier latency estimates, ``O / R`` on the smoothed signals.

        Idle tiers report their unloaded latency — the value a single
        probe request would see, and the right operand for the balancing
        comparison (an idle tier is maximally attractive).
        """
        if self._occupancy is None:
            return self._unloaded.copy()
        result = self._unloaded_list.copy()
        for i, (occupancy, rate) in enumerate(zip(self._occupancy,
                                                  self._rate)):
            if rate > _MIN_RATE:
                result[i] = occupancy / rate
        # Measurement noise can push the estimate below physical unloaded
        # latency; clamp, as the kernel implementation does.
        return np.maximum(result, self._unloaded)

    def measured_p(self) -> float:
        """Default-tier share of total request rate (Algorithm 1, line 4)."""
        if self._rate is None:
            return 0.0
        total = tier_sum(self._rate)
        if total <= _MIN_RATE:
            return 0.0
        return self._rate[0] / total

    def reset(self) -> None:
        """Forget all smoothed state (used on reconfiguration)."""
        self._occupancy = None
        self._rate = None
        self.samples_seen = 0
