"""The per-quantum access feed.

Tiering systems must not read the workload's true access distribution —
on real hardware they only see sampled or fault-driven signals. The
:class:`AccessFeed` is the boundary: the runtime constructs one per quantum
from the true distribution and the solved request rate, and systems draw
*observations* from it: PEBS samples from the feed's own RNG, and hint
faults from the tracking substrate (:mod:`repro.tracking.hintfaults`,
seeded by its system), whose exponential clocks run on the per-page
access rates.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


class AccessFeed:
    """Physical access stream for one quantum.

    Attributes:
        quantum_ns: Quantum duration.
        request_rate: Application demand-read requests per ns (all tiers).
    """

    def __init__(self, access_probs: np.ndarray, request_rate: float,
                 quantum_ns: float, rng: np.random.Generator) -> None:
        if not 0.0 <= request_rate < math.inf:
            raise ConfigurationError(
                "request rate must be finite and non-negative")
        if not 0.0 < quantum_ns < math.inf:
            raise ConfigurationError("quantum must be finite and positive")
        self._probs = access_probs
        self.request_rate = float(request_rate)
        self.quantum_ns = float(quantum_ns)
        self._rng = rng

    @property
    def n_pages(self) -> int:
        """Number of pages in the distribution."""
        return len(self._probs)

    @property
    def total_accesses(self) -> int:
        """Expected number of application accesses this quantum."""
        return int(self.request_rate * self.quantum_ns)

    def pebs_sample_count(self, sample_period: int,
                          max_samples: Optional[int] = None) -> int:
        """How many PEBS samples this quantum takes: one every
        ``sample_period`` accesses, at most ``max_samples``."""
        if sample_period <= 0:
            raise ConfigurationError("sample period must be positive")
        n_samples = self.total_accesses // sample_period
        if max_samples is not None:
            n_samples = min(n_samples, max_samples)
        return max(n_samples, 0)

    def pebs_counts(self, sample_period: int,
                    max_samples: Optional[int] = None) -> np.ndarray:
        """Per-page PEBS sample counts for this quantum.

        :meth:`pebs_sample_count` samples are taken; sampled addresses
        follow the true access distribution — exactly the statistical
        process PEBS implements.
        """
        n_samples = self.pebs_sample_count(sample_period, max_samples)
        if n_samples == 0:
            return np.zeros(self.n_pages, dtype=np.int64)
        return self._rng.multinomial(n_samples, self._probs).astype(
            np.int64, copy=False)

    @property
    def access_probs(self) -> np.ndarray:
        """The true per-page access distribution, for the tracking
        substrates that simulate physical signals on it, not for
        placement policy: page ``i`` is accessed at ``access_probs[i] *
        request_rate`` requests/ns, the rate the hint-fault tracker's
        exponential clocks run on."""
        return self._probs
