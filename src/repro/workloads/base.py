"""Workload interface.

A workload is a stochastic page-access process. The hardware model, the
tracking substrates, and the best-case oracle all consume the same
representation: a probability vector over pages that sums to one, plus the
core group issuing the accesses. Time-varying workloads override
:meth:`Workload.advance`.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.memhw.corestate import CoreGroup


class Workload(abc.ABC):
    """Abstract page-access workload."""

    #: Human-readable name, used in experiment output.
    name: str = "workload"

    @property
    @abc.abstractmethod
    def n_pages(self) -> int:
        """Number of pages in the working set."""

    @property
    @abc.abstractmethod
    def page_bytes(self) -> int:
        """Page granularity of the working set."""

    @property
    def working_set_bytes(self) -> int:
        """Total working set size."""
        return self.n_pages * self.page_bytes

    @abc.abstractmethod
    def access_probabilities(self) -> np.ndarray:
        """True per-page access probabilities (non-negative, sum to 1).

        Callers must not mutate the returned array; implementations may
        return an internal buffer for efficiency.
        """

    @abc.abstractmethod
    def core_group(self) -> CoreGroup:
        """The cores issuing this workload's accesses."""

    def hot_mask(self) -> Optional[np.ndarray]:
        """Boolean mask of the workload's hot set, if it has a crisp one.

        Used by the best-case oracle's hot-fraction sweep. Workloads with
        smooth skew (Zipfian) return None and the oracle falls back to a
        hottest-prefix definition.
        """
        return None

    def advance(self, time_s: float) -> bool:
        """Advance workload state to absolute time ``time_s``.

        Returns:
            True if the access distribution changed (so cached state
            derived from it must be refreshed). A change made in place,
            to the same array :meth:`access_probabilities` returned
            before (GUPS's hot-set reshuffle), must return True too: the
            loop reuses each tenant's tier split and core group until
            this returns True or the page table changes.
        """
        return False

    def effective_hot_mask(self, coverage: float = 0.9) -> np.ndarray:
        """The crisp hot mask, or the hottest prefix covering ``coverage``.

        This is what the oracle actually sweeps over for every workload.
        """
        mask = self.hot_mask()
        if mask is not None:
            return mask
        probs = self.access_probabilities()
        order = np.argsort(-probs, kind="stable")
        cum = np.cumsum(probs[order])
        n_hot = int(np.searchsorted(cum, coverage)) + 1
        result = np.zeros(self.n_pages, dtype=bool)
        result[order[:n_hot]] = True
        return result
