"""NumPy-backed page metadata.

A :class:`PageArray` holds the per-page metadata every other layer shares:
sizes (pages may be regular or huge, and MEMTIS changes sizes at runtime)
and the tier each page currently resides in. Hotness estimates are *not*
stored here — each tiering system owns its own estimates, as in the real
systems — but the workload's true access probabilities are carried alongside
by the runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Sentinel tier index for pages not yet placed anywhere.
UNPLACED = -1


class PageArray:
    """Mutable per-page metadata table.

    Attributes are exposed as NumPy arrays for vectorized policy code;
    mutation should go through the provided methods so invariants hold.
    """

    def __init__(self, sizes_bytes: Sequence[int]) -> None:
        sizes = np.asarray(sizes_bytes, dtype=np.int64)
        if sizes.ndim != 1 or len(sizes) == 0:
            raise ConfigurationError("need a non-empty 1-D size array")
        if (sizes <= 0).any():
            raise ConfigurationError("page sizes must be positive")
        self._sizes = sizes.copy()
        self._tier = np.full(len(sizes), UNPLACED, dtype=np.int16)
        self._version = 0
        self._size_bounds: tuple | None = None
        self._total_bytes: int | None = None

    @classmethod
    def uniform(cls, n_pages: int, page_bytes: int) -> "PageArray":
        """All pages the same size — the common case."""
        if n_pages <= 0:
            raise ConfigurationError("n_pages must be positive")
        if page_bytes <= 0:
            raise ConfigurationError("page_bytes must be positive")
        return cls(np.full(n_pages, page_bytes, dtype=np.int64))

    def __len__(self) -> int:
        return len(self._sizes)

    @property
    def n_pages(self) -> int:
        """Number of pages tracked."""
        return len(self._sizes)

    @property
    def sizes_bytes(self) -> np.ndarray:
        """Per-page sizes in bytes (a view; change sizes through
        :meth:`resize_pages`, which keeps the cached size bounds valid)."""
        return self._sizes

    @property
    def tier(self) -> np.ndarray:
        """Per-page tier indices (``UNPLACED`` for unplaced pages)."""
        return self._tier

    @property
    def version(self) -> int:
        """Mutation counter, bumped by :meth:`set_tier` and
        :meth:`resize_pages`.

        Lets observers (e.g. the placement occupancy ledger) reuse
        derived state across quanta where no page moved or resized.
        """
        return self._version

    @property
    def min_page_bytes(self) -> int:
        """Smallest page size (cached until :meth:`resize_pages`)."""
        return self._bounds()[0]

    @property
    def max_page_bytes(self) -> int:
        """Largest page size (cached until :meth:`resize_pages`)."""
        return self._bounds()[1]

    def _bounds(self) -> tuple:
        if self._size_bounds is None:
            self._size_bounds = (int(self._sizes.min()),
                                 int(self._sizes.max()))
        return self._size_bounds

    @property
    def total_bytes(self) -> int:
        """Sum of all page sizes (cached until :meth:`resize_pages`)."""
        if self._total_bytes is None:
            self._total_bytes = int(self._sizes.sum())
        return self._total_bytes

    def pages_in_tier(self, tier: int) -> np.ndarray:
        """Indices of pages currently in ``tier``."""
        return np.nonzero(self._tier == tier)[0]

    def bytes_in_tier(self, tier: int) -> int:
        """Total bytes of pages currently in ``tier``."""
        mask = self._tier == tier
        return int(self._sizes[mask].sum())

    def set_tier(self, pages: np.ndarray, tier: int) -> None:
        """Assign ``pages`` to ``tier`` without capacity checks.

        Capacity enforcement is the job of
        :class:`repro.pages.placement.PlacementState`; this raw mutator
        exists for initialization and for that class's internals.
        """
        self._tier[pages] = tier
        self._version += 1

    def resize_pages(self, pages: np.ndarray,
                     new_sizes: Sequence[int]) -> None:
        """Change the sizes of ``pages`` (MEMTIS split/coalesce bookkeeping).

        Callers are responsible for conserving total bytes across the
        logical region being split or coalesced.
        """
        sizes = np.asarray(new_sizes, dtype=np.int64)
        if (sizes <= 0).any():
            raise ConfigurationError("page sizes must be positive")
        self._sizes[pages] = sizes
        self._size_bounds = None
        self._total_bytes = None
        self._version += 1
