"""HeMem-style frequency counters with cooling.

HeMem maintains per-page access-frequency counts, incremented on PEBS
samples, and *cools* them — halving every page's count — whenever any
page's count reaches ``COOLING_THRESHOLD``. Cooling bounds the counter
range (which Colloid's binned page lists rely on) and ages out stale
hotness.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: HeMem's default cooling trigger.
DEFAULT_COOLING_THRESHOLD = 18


class CoolingCounters:
    """Per-page sample counters with halving-based cooling."""

    def __init__(self, n_pages: int,
                 cooling_threshold: int = DEFAULT_COOLING_THRESHOLD,
                 estimate_decay: float = 0.995) -> None:
        if n_pages <= 0:
            raise ConfigurationError("n_pages must be positive")
        if cooling_threshold < 2:
            raise ConfigurationError("cooling threshold must be >= 2")
        if not 0 < estimate_decay < 1:
            raise ConfigurationError("estimate decay must be in (0, 1)")
        self.cooling_threshold = int(cooling_threshold)
        self.estimate_decay = float(estimate_decay)
        self._counts = np.zeros(n_pages, dtype=np.float64)
        # Separate accumulator for probability estimation: the cooled
        # counts saturate at the cooling threshold, which destroys the
        # dynamic range of skewed (Zipfian) workloads — a page 100x
        # colder than the hottest would always round to zero. The
        # decaying cumulative counter preserves ratios across the full
        # range while still ageing out stale hotness.
        self._cumulative = np.zeros(n_pages, dtype=np.float64)
        self.coolings = 0

    @property
    def counts(self) -> np.ndarray:
        """Current per-page frequency counts (read-only use expected)."""
        return self._counts

    @property
    def n_pages(self) -> int:
        """Number of tracked pages."""
        return len(self._counts)

    def add_samples(self, sample_counts: np.ndarray) -> None:
        """Fold a quantum's PEBS samples in, cooling as needed.

        Cooling applies repeatedly until no count reaches the threshold,
        matching HeMem's invariant that counts stay in
        ``[0, COOLING_THRESHOLD)``.
        """
        if sample_counts.shape != self._counts.shape:
            raise ConfigurationError("sample count shape mismatch")
        # Converted once for both accumulators; exact while counts stay
        # below 2**53.
        samples = np.asarray(sample_counts, dtype=np.float64)
        self._counts += samples
        # The maximum is read once and halved alongside the array:
        # rounding is monotone, so the largest halved count is the halved
        # largest count, bit for bit, subnormals included. Each cooling
        # stays one ``/= 2.0`` (one ldexp by the total would round
        # subnormals differently).
        peak = float(self._counts.max(initial=0.0))
        while peak >= self.cooling_threshold:
            self._counts /= 2.0
            peak /= 2.0
            self.coolings += 1
        self._cumulative *= self.estimate_decay
        self._cumulative += samples

    def access_probabilities(self) -> np.ndarray:
        """Estimated per-page access probabilities (§4.1).

        Each page's (decayed cumulative) frequency count divided by the
        total; an all-zero state returns a uniform distribution (no
        information).
        """
        total = self._cumulative.sum()
        if total <= 0:
            return np.full(self.n_pages, 1.0 / self.n_pages)
        return self._cumulative / total

    def reset(self) -> None:
        """Clear all counters."""
        self._counts[:] = 0.0
        self._cumulative[:] = 0.0
        self.coolings = 0
