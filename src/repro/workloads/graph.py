"""GAPBS PageRank workload model (§5.3a).

PageRank's memory traffic is dominated by gathers of neighbour ranks: the
access frequency of a vertex's rank entry is proportional to its degree,
and the paper notes that "access locality arises from skew in the degree
distribution of graph nodes". We therefore model the page-access
distribution as degree mass aggregated over the pages holding the rank and
CSR arrays.

Two constructors are provided:

* :meth:`GraphWorkload.synthetic` — draws a power-law degree sequence
  (Twitter-like, exponent ~2.1) and aggregates it to pages; this is the
  scale the paper runs (working set ~37.8 GB).
* :meth:`GraphWorkload.from_networkx` — takes a real (small) graph, used
  by the examples and tests to show the pipeline end-to-end on concrete
  data.
"""

from __future__ import annotations


import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.corestate import CoreGroup
from repro.units import gib, mib
from repro.workloads.base import Workload, check_scale


class GraphWorkload(Workload):
    """PageRank-style access distribution derived from vertex degrees."""

    def __init__(self, page_mass: np.ndarray, page_bytes: int,
                 n_cores: int = 15, base_mlp: float = 7.0,
                 read_fraction: float = 0.85, name: str = "gapbs-pr") -> None:
        mass = np.asarray(page_mass, dtype=float)
        if mass.ndim != 1 or len(mass) < 2:
            raise ConfigurationError("need at least two pages of mass")
        if (mass < 0).any() or mass.sum() <= 0:
            raise ConfigurationError("page mass must be non-negative, sum>0")
        self.name = name
        self._probs = mass / mass.sum()
        self._page_bytes = int(page_bytes)
        self._n_cores = int(n_cores)
        self._base_mlp = float(base_mlp)
        self._read_fraction = float(read_fraction)

    @classmethod
    def synthetic(
        cls,
        working_set_bytes: int = gib(37.8),
        page_bytes: int = mib(2),
        vertices_per_page: int = 4096,
        degree_exponent: float = 2.1,
        scale: float = 1.0,
        seed: int = 11,
        n_cores: int = 15,
        base_mlp: float = 7.0,
    ) -> "GraphWorkload":
        """Twitter-like power-law degree mass aggregated to pages.

        ``vertices_per_page`` controls the aggregation ratio; higher values
        flatten the page-level skew, as in real CSR layouts where one page
        holds thousands of rank entries.
        """
        check_scale(scale)
        working_set_bytes = int(working_set_bytes * scale)
        n_pages = max(4, working_set_bytes // page_bytes)
        rng = np.random.default_rng(seed)
        # Pareto-distributed degrees, heavy tail with the given exponent.
        alpha = degree_exponent - 1.0
        degrees = (1.0 + rng.pareto(alpha, size=(n_pages, 8)))
        # Aggregate a small per-page sample of vertex weights; sampling 8
        # representative vertices per page and scaling is statistically
        # equivalent to summing thousands, by the law of large numbers
        # applied to the bulk plus an explicit heavy-tail sample.
        page_mass = degrees.sum(axis=1)
        # Heavy hitters: a few celebrity vertices dominate real graphs.
        n_hubs = max(1, n_pages // 200)
        hub_pages = rng.choice(n_pages, size=n_hubs, replace=False)
        hub_mass = (1.0 + rng.pareto(alpha, size=n_hubs)) * float(
            vertices_per_page
        ) ** (1.0 / alpha)
        page_mass[hub_pages] += hub_mass
        return cls(page_mass, page_bytes, n_cores=n_cores, base_mlp=base_mlp)

    @classmethod
    def from_networkx(cls, graph, page_bytes: int = mib(2),
                      bytes_per_vertex: int = 16, n_cores: int = 15,
                      base_mlp: float = 7.0) -> "GraphWorkload":
        """Aggregate a real graph's degree mass into pages.

        Vertices are laid out in node order; each page holds
        ``page_bytes // bytes_per_vertex`` rank entries.
        """
        degrees = np.array([d for _, d in graph.degree()], dtype=float)
        if len(degrees) == 0:
            raise ConfigurationError("graph has no vertices")
        degrees = degrees + 1.0  # every vertex is touched at least once
        per_page = max(1, page_bytes // bytes_per_vertex)
        n_pages = max(2, int(np.ceil(len(degrees) / per_page)))
        padded = np.zeros(n_pages * per_page)
        padded[:len(degrees)] = degrees
        page_mass = padded.reshape(n_pages, per_page).sum(axis=1)
        # Guard against empty trailing pages.
        page_mass = np.maximum(page_mass, 1e-9)
        return cls(page_mass, page_bytes, n_cores=n_cores, base_mlp=base_mlp)

    @property
    def n_pages(self) -> int:
        return len(self._probs)

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def access_probabilities(self) -> np.ndarray:
        return self._probs

    def core_group(self) -> CoreGroup:
        # PageRank gathers are random single-cacheline reads of neighbour
        # ranks; writes (rank updates) are streaming and rarer.
        return CoreGroup(
            name=self.name,
            n_cores=self._n_cores,
            mlp=self._base_mlp,
            randomness=0.9,
            read_fraction=self._read_fraction,
        )
