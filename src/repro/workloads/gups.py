"""The GUPS workload (§2.1).

A virtually contiguous buffer (72 GB by default) with a contiguous random
hot region (24 GB). Threads read+update objects chosen from the hot set
with 90% probability and from the full working set with 10% probability —
note the paper's phrasing: the 10% tail is over the *full* working set, so
hot pages also absorb a proportional slice of it.

Scale knobs: ``page_bytes`` controls the bookkeeping granularity (2 MiB by
default — all placement math is scale-free), and ``scale`` shrinks the
whole geometry for fast tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.corestate import CoreGroup
from repro.units import gib, mib
from repro.workloads.base import Workload, check_scale


class GupsWorkload(Workload):
    """GUPS with a contiguous uniform hot region."""

    def __init__(
        self,
        working_set_bytes: int = gib(72),
        hot_bytes: int = gib(24),
        hot_probability: float = 0.9,
        page_bytes: int = mib(2),
        object_bytes: int = 64,
        n_cores: int = 15,
        base_mlp: float = 7.0,
        read_fraction: float = 0.5,
        scale: float = 1.0,
        seed: int = 1,
    ) -> None:
        check_scale(scale)
        working_set_bytes = int(working_set_bytes * scale)
        hot_bytes = int(hot_bytes * scale)
        if hot_bytes > working_set_bytes:
            raise ConfigurationError("hot set cannot exceed working set")
        if not 0 < hot_probability <= 1:
            raise ConfigurationError("hot probability must be in (0, 1]")
        self.name = "gups"
        self._page_bytes = int(page_bytes)
        self._n_pages = max(2, working_set_bytes // self._page_bytes)
        self._n_hot = max(1, hot_bytes // self._page_bytes)
        if self._n_hot >= self._n_pages:
            raise ConfigurationError(
                "hot set must be smaller than the working set at this "
                "page granularity"
            )
        self._hot_probability = float(hot_probability)
        self._object_bytes = int(object_bytes)
        self._n_cores = int(n_cores)
        self._base_mlp = float(base_mlp)
        self._read_fraction = float(read_fraction)
        self._rng = np.random.default_rng(seed)
        self._hot_start = 0
        self._probs = np.empty(self._n_pages)
        self._hot = np.zeros(self._n_pages, dtype=bool)
        self.reshuffle_hot_set()

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    @property
    def hot_bytes(self) -> int:
        """Size of the hot region."""
        return self._n_hot * self._page_bytes

    @property
    def object_bytes(self) -> int:
        """Object size read+updated per operation."""
        return self._object_bytes

    def reshuffle_hot_set(self) -> None:
        """Pick a new contiguous hot region uniformly at random.

        Used at construction and by the dynamic hot-set-shift experiments
        (§5.2): pages previously hot become cold and a fresh region becomes
        hot.
        """
        self._hot_start = int(
            self._rng.integers(0, self._n_pages - self._n_hot + 1)
        )
        self._hot[:] = False
        self._hot[self._hot_start:self._hot_start + self._n_hot] = True
        self._rebuild_probabilities()

    def _rebuild_probabilities(self) -> None:
        """Recompute the page distribution from the hot mask.

        The 10% tail is uniform over the *full* working set (hot pages
        included), per §2.1.
        """
        tail = (1.0 - self._hot_probability) / self._n_pages
        self._probs[:] = tail
        self._probs[self._hot] += self._hot_probability / self._n_hot

    def access_probabilities(self) -> np.ndarray:
        return self._probs

    def hot_mask(self) -> Optional[np.ndarray]:
        return self._hot

    def core_group(self) -> CoreGroup:
        return CoreGroup.for_object_size(
            name=self.name,
            n_cores=self._n_cores,
            object_bytes=self._object_bytes,
            base_mlp=self._base_mlp,
            read_fraction=self._read_fraction,
        )
