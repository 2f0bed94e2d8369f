"""Silo / YCSB-C workload model (§5.3b).

An in-memory transactional database serving 15 billion point lookups over
400 million key-value pairs (64 B keys, 100 B values, ~60 GB working set)
with a Zipfian key-popularity distribution. The page-level access
distribution is the Zipf law aggregated over the keys each page holds
(:mod:`repro.workloads.zipf`), with popular pages scattered across the
address space as YCSB's hashed key layout produces.
"""

from __future__ import annotations

import numpy as np

from repro.memhw.corestate import CoreGroup
from repro.units import gib, mib
from repro.workloads.base import Workload, check_scale
from repro.workloads.zipf import zipf_page_probabilities

#: 64 B key + 100 B value, as in §5.3.
KV_PAIR_BYTES = 164


class SiloYcsbWorkload(Workload):
    """YCSB-C (100% lookups) over an in-memory store."""

    def __init__(
        self,
        n_keys: int = 400_000_000,
        working_set_bytes: int = gib(60),
        page_bytes: int = mib(2),
        zipf_theta: float = 0.99,
        n_cores: int = 15,
        base_mlp: float = 3.5,
        scale: float = 1.0,
        seed: int = 5,
    ) -> None:
        # base_mlp defaults lower than GUPS's: Silo interleaves index
        # compute (key comparisons, version checks) between memory
        # accesses, so its effective memory-level parallelism — and
        # therefore its sensitivity to placement — is smaller. This is why
        # the paper's Silo gains (1.08-1.25x) trail its GUPS gains.
        check_scale(scale)
        working_set_bytes = int(working_set_bytes * scale)
        n_keys = max(1000, int(n_keys * scale))
        self.name = "silo-ycsbc"
        self._page_bytes = int(page_bytes)
        self._n_pages = max(2, working_set_bytes // self._page_bytes)
        self._n_cores = int(n_cores)
        self._base_mlp = float(base_mlp)
        # Scatter the popular keys across pages individually, as Silo's
        # hashed/packed record layout does; see zipf_page_probabilities.
        self._probs = zipf_page_probabilities(
            n_items=n_keys,
            theta=zipf_theta,
            n_pages=self._n_pages,
            shuffle_seed=seed,
            scatter_top_k=65536,
        )

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def access_probabilities(self) -> np.ndarray:
        return self._probs

    def core_group(self) -> CoreGroup:
        # YCSB-C is read-only; index traversal plus record fetch is a
        # pointer-chasing random pattern over small objects.
        return CoreGroup(
            name=self.name,
            n_cores=self._n_cores,
            mlp=self._base_mlp,
            randomness=1.0,
            read_fraction=1.0,
        )
