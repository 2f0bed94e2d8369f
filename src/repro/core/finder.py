"""Page-finding procedures (§3.2, §4).

Given the desired shift ``dp`` and a byte budget, find a set of pages in
the source tier whose summed access probability is at most ``dp`` and
whose summed size is within the budget. Two procedures mirror the paper's
integrations:

* :class:`BinnedPageFinder` — HeMem-style (§4.1): the frequency space
  ``[0, COOLING_THRESHOLD)`` is split into equal bins with a page list per
  bin; bins are walked hottest-first, accumulating pages while the
  probability and byte budgets allow.
* :class:`HotListPageFinder` — MEMTIS-style (§4.2): scan the source
  tier's hot list (pages above the dynamic hot threshold) and pick pages
  until ``dp`` or the limit is hit; falls back to the full tier population
  when the hot list alone cannot realize the shift.

TPP's per-fault procedure lives in
:class:`repro.core.integrate.TppColloidSystem` because it is event-driven
rather than list-driven.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.pages.placement import PlacementState
from repro.pages.selection import (
    select_pages_by_probability,
    walk_hottest_first,
)


class BinnedPageFinder:
    """HeMem integration: binned frequency lists (5 bins by default)."""

    def __init__(self, cooling_threshold: float, n_bins: int = 5) -> None:
        if cooling_threshold <= 0:
            raise ConfigurationError("cooling threshold must be positive")
        if n_bins < 1:
            raise ConfigurationError("need at least one bin")
        self.cooling_threshold = float(cooling_threshold)
        self.n_bins = int(n_bins)

    def bin_of(self, counts: np.ndarray) -> np.ndarray:
        """Bin index per page (0 coldest, n_bins-1 hottest)."""
        width = self.cooling_threshold / self.n_bins
        bins = np.minimum((counts / width).astype(np.int64), self.n_bins - 1)
        return bins

    def find(self, counts: np.ndarray, placement: PlacementState,
             src_tier: int, dp: float, byte_budget: int,
             probs: Optional[np.ndarray] = None) -> np.ndarray:
        """Select pages from ``src_tier`` whose probability sums to <= dp.

        Bins are walked hottest-first; within a bin, pages are taken in
        probability order, skipping pages that would overshoot either
        budget. Bin 0 is walked last and only its *sampled* pages are
        candidates — moving a never-sampled page cannot realize any
        measurable shift in access probability, so those are HeMem's
        "no feasible page choices" (§4.1).

        Args:
            counts: HeMem's cooled frequency counts, used for binning.
            probs: Per-page probability estimates; derived from the
                counts when omitted.
        """
        if dp < 0 or byte_budget < 0:
            raise ConfigurationError("budgets must be non-negative")
        empty = np.empty(0, dtype=np.int64)
        if dp == 0 or byte_budget == 0:
            return empty
        if probs is None:
            total = counts.sum()
            # No samples at all -> no measurable pages -> no candidates.
            probs = counts / total if total > 0 else np.zeros(len(counts))
        pages = placement.pages
        sizes = pages.sizes_bytes
        # One mask over the pages forms the candidates: the source
        # tier's pages that fit both budgets on their own. A later bin
        # walks under smaller budgets, so no page dropped here could be
        # taken there; pages kept that no longer fit are skipped by the
        # walk.
        mask = (pages.tier == src_tier) & (probs <= dp + 1e-15)
        if pages.max_page_bytes > byte_budget:
            mask &= sizes <= byte_budget
        cand = mask.nonzero()[0]
        cand_p = probs[cand]
        bins = self.bin_of(counts[cand])
        # Bin 0 holds only the sampled pages.
        measurable = (cand_p > 0) | (bins > 0)
        if not measurable.all():
            cand = cand[measurable]
            cand_p = cand_p[measurable]
            bins = bins[measurable]
        if cand.size == 0:
            return empty
        cand_sizes = sizes[cand]
        top, low = int(bins.max()), int(bins.min())
        selected: list = []
        acc_p = 0.0
        acc_b = 0
        # Hottest bin first, from the hottest holding a candidate down to
        # the coldest; most quanta find every candidate in one bin.
        for b in range(top, low - 1, -1):
            if top == low:
                bin_pages, bin_p, bin_sizes = cand, cand_p, cand_sizes
            else:
                in_bin = (bins == b).nonzero()[0]
                if in_bin.size == 0:
                    continue
                bin_pages = cand[in_bin]
                bin_p = cand_p[in_bin]
                bin_sizes = cand_sizes[in_bin]
            pos = walk_hottest_first(bin_p, bin_sizes, (dp - acc_p) + 1e-15,
                                     byte_budget - acc_b)
            if pos.size:
                selected.append(bin_pages[pos])
                acc_p += float(bin_p[pos].sum())
                acc_b += int(bin_sizes[pos].sum())
            if acc_p >= dp or acc_b >= byte_budget:
                break
        if len(selected) < 2:
            return selected[0] if selected else empty
        return np.concatenate(selected)


class HotListPageFinder:
    """MEMTIS integration: scan the source tier's hot list (§4.2).

    MEMTIS's hot lists contain pages above the dynamic threshold; the
    paper's integration "simply uses the per-tier hot lists to select
    pages for migration", picking until ``dp`` is satisfied or the limit
    is hit. Pages below the threshold that have still been *sampled* are
    also eligible (they sit on MEMTIS's warm LRU lists and carry
    measurable probability); never-sampled pages are not candidates —
    moving them cannot realize any shift.
    """

    def find(self, counts: np.ndarray, hot_threshold: float,
             placement: PlacementState, src_tier: int, dp: float,
             byte_budget: int) -> np.ndarray:
        total = counts.sum()
        probs = counts / total if total > 0 else (
            np.full(len(counts), 1.0 / len(counts))
        )
        sizes = placement.pages.sizes_bytes
        in_tier = placement.pages.tier == src_tier
        sampled = counts > 0
        hot = in_tier & sampled & (counts >= hot_threshold)
        chosen = select_pages_by_probability(
            probs, sizes, np.nonzero(hot)[0], dp, byte_budget
        )
        acc_p = float(probs[chosen].sum())
        acc_b = int(sizes[chosen].sum())
        if acc_p >= dp * 0.5 or acc_b >= byte_budget:
            return chosen
        # Disjoint from ``hot``, so none of ``chosen`` is among them.
        warm = np.nonzero(in_tier & sampled & (counts < hot_threshold))[0]
        more = select_pages_by_probability(
            probs, sizes, warm, dp - acc_p, byte_budget - acc_b
        )
        if more.size:
            return np.concatenate([chosen, more])
        return chosen
