"""PEBS-style sampling front ends.

HeMem reads PEBS samples at a fixed rate from a polling thread; MEMTIS
adapts the sampling period to bound CPU overhead. Both reduce to the same
statistical process — every Nth access is recorded — which
:meth:`repro.tracking.feed.AccessFeed.pebs_counts` implements. This module
adds the stateful wrappers: fixed- and adaptive-period samplers plus sample
accounting used by the CPU-overhead model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.tracking.feed import AccessFeed


class PebsSampler:
    """Fixed-period PEBS sampler (HeMem-style)."""

    def __init__(self, sample_period: int = 199) -> None:
        if sample_period <= 0:
            raise ConfigurationError("sample period must be positive")
        self.sample_period = int(sample_period)
        self.total_samples = 0
        #: Samples drained by the last :meth:`collect`.
        self.last_samples = 0

    def collect(self, feed: AccessFeed) -> np.ndarray:
        """Drain this quantum's samples into per-page counts."""
        counts = feed.pebs_counts(self.sample_period)
        # Multinomial counts sum to the drawn sample count exactly.
        self.last_samples = feed.pebs_sample_count(self.sample_period)
        self.total_samples += self.last_samples
        return counts


class AdaptivePebsSampler(PebsSampler):
    """Dynamic-period sampler (MEMTIS-style).

    MEMTIS bounds sampling CPU overhead by adapting the period so that the
    number of samples per interval stays near a target. We emulate that
    with a multiplicative-increase/decrease controller on the period.
    """

    def __init__(self, sample_period: int = 199,
                 target_samples_per_quantum: int = 4096,
                 min_period: int = 19, max_period: int = 100_003) -> None:
        super().__init__(sample_period)
        if target_samples_per_quantum <= 0:
            raise ConfigurationError("target sample count must be positive")
        if not 0 < min_period <= max_period:
            raise ConfigurationError("need 0 < min_period <= max_period")
        self.target = int(target_samples_per_quantum)
        self.min_period = int(min_period)
        self.max_period = int(max_period)

    def collect(self, feed: AccessFeed) -> np.ndarray:
        counts = super().collect(feed)
        observed = self.last_samples
        if observed > 2 * self.target:
            self.sample_period = min(self.max_period, self.sample_period * 2)
        elif observed < self.target // 2 and observed > 0:
            self.sample_period = max(self.min_period, self.sample_period // 2)
        return counts
