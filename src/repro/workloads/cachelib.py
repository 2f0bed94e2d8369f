"""CacheLib / HeMemKV workload model (§5.3c).

CacheLib in RAM-only mode running the HeMemKV CacheBench workload: 15
million key-value pairs (64 B keys, 4 KB values, ~75 GB working set
including cache overheads), 20% of keys hot, hot set accessed with 90%
probability, GET/UPDATE ratio 90/10.

The 4 KB values make each operation touch a run of consecutive cachelines,
so the core group is built with the object-size model (prefetch-boosted
effective parallelism), which is what lets Colloid help this workload even
at low contention (cf. Figure 8's large-object columns).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.corestate import CoreGroup
from repro.units import mib
from repro.workloads.base import Workload, check_scale

#: Effective per-item footprint: 64 B key + 4 KB value + allocator/cache
#: metadata, sized so 15 M items give the paper's ~75 GB working set.
ITEM_BYTES = 5 * 1024


class CacheLibWorkload(Workload):
    """HeMemKV: hot/cold KV cache traffic with 4 KB values."""

    def __init__(
        self,
        n_items: int = 15_000_000,
        hot_key_fraction: float = 0.2,
        hot_probability: float = 0.9,
        get_fraction: float = 0.9,
        page_bytes: int = mib(2),
        n_cores: int = 15,
        base_mlp: float = 7.0,
        scale: float = 1.0,
        seed: int = 3,
    ) -> None:
        check_scale(scale)
        if not 0 < hot_key_fraction < 1:
            raise ConfigurationError("hot_key_fraction must be in (0, 1)")
        if not 0 < hot_probability <= 1:
            raise ConfigurationError("hot_probability must be in (0, 1]")
        n_items = max(1000, int(n_items * scale))
        self.name = "cachelib-hememkv"
        self._page_bytes = int(page_bytes)
        working_set = n_items * ITEM_BYTES
        self._n_pages = max(4, working_set // self._page_bytes)
        self._n_cores = int(n_cores)
        self._base_mlp = float(base_mlp)
        self._get_fraction = float(get_fraction)
        rng = np.random.default_rng(seed)
        # CacheLib segregates items into slabs and its LRU promotion
        # concentrates frequently hit items: most of the hot set ends up
        # clustered in "hot" slab pages, with the remainder scattered.
        # slab_clustering controls that concentration; 0 would scatter hot
        # items uniformly (no page-level skew at all at huge-page
        # granularity), 1 would be a crisp GUPS-like hot region.
        slab_clustering = 0.85
        n_hot_pages = max(1, int(round(hot_key_fraction * self._n_pages)))
        hot_pages = rng.choice(self._n_pages, size=n_hot_pages,
                               replace=False)
        probs = np.zeros(self._n_pages)
        clustered_mass = hot_probability * slab_clustering
        # Per-slab popularity varies: weight hot slabs with a gamma draw.
        weights = rng.gamma(shape=6.0, scale=1.0, size=n_hot_pages)
        probs[hot_pages] += clustered_mass * weights / weights.sum()
        # Scattered remainder (unclustered hot hits + cold traffic) over
        # every page, with binomial dispersion from hashing.
        scattered_mass = 1.0 - clustered_mass
        items_per_page = max(1, self._page_bytes // ITEM_BYTES)
        scatter = rng.binomial(items_per_page, 0.5,
                               size=self._n_pages).astype(float)
        scatter = np.maximum(scatter, 1.0)
        probs += scattered_mass * scatter / scatter.sum()
        self._probs = probs / probs.sum()
        self._hot = np.zeros(self._n_pages, dtype=bool)
        self._hot[hot_pages] = True

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def access_probabilities(self) -> np.ndarray:
        return self._probs

    def hot_mask(self) -> Optional[np.ndarray]:
        """The hot-slab pages (the clustered portion of the hot set)."""
        return self._hot

    def core_group(self) -> CoreGroup:
        # 4 KB values -> 64 consecutive cachelines per GET: strongly
        # prefetchable, high effective parallelism (Figure 8 regime).
        return CoreGroup.for_object_size(
            name=self.name,
            n_cores=self._n_cores,
            object_bytes=4096,
            base_mlp=self._base_mlp,
            read_fraction=self._get_fraction,
        )
