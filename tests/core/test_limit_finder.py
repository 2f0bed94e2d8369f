"""Tests for the dynamic migration limit and page finders."""

import numpy as np
import pytest

from repro.core.finder import BinnedPageFinder, HotListPageFinder
from repro.core.limit import dynamic_migration_limit
from repro.errors import ConfigurationError
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from tests.pages.test_selection import _scan_oracle


class TestDynamicMigrationLimit:
    def test_formula(self):
        """min(dp * (R_D+R_A), M) in bytes per quantum."""
        limit = dynamic_migration_limit(
            dp=0.1, total_request_rate=2.0, quantum_ns=1e7,
            static_limit_bytes=10**9,
        )
        assert limit == int(0.1 * 2.0 * 64 * 1e7)

    def test_static_limit_caps(self):
        limit = dynamic_migration_limit(
            dp=0.5, total_request_rate=10.0, quantum_ns=1e7,
            static_limit_bytes=1000,
        )
        assert limit == 1000

    def test_zero_dp_zero_budget(self):
        assert dynamic_migration_limit(0.0, 2.0, 1e7, 10**9) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            dynamic_migration_limit(-0.1, 2.0, 1e7, 100)
        with pytest.raises(ConfigurationError):
            dynamic_migration_limit(0.1, 2.0, 0.0, 100)
        with pytest.raises(ConfigurationError):
            dynamic_migration_limit(0.1, 2.0, 1e7, 0)


def make_placement(tiers):
    """tiers: list of tier index per page (100 B pages)."""
    pages = PageArray.uniform(len(tiers), 100)
    placement = PlacementState(pages, [100 * len(tiers)] * 2)
    for t in (0, 1):
        placement.move(np.nonzero(np.array(tiers) == t)[0], t)
    return placement


class TestBinnedPageFinder:
    def test_bin_assignment(self):
        finder = BinnedPageFinder(cooling_threshold=10.0, n_bins=5)
        counts = np.array([0.0, 1.9, 2.0, 9.9, 100.0])
        assert list(finder.bin_of(counts)) == [0, 0, 1, 4, 4]

    def test_finds_hottest_within_dp(self):
        finder = BinnedPageFinder(cooling_threshold=10.0, n_bins=5)
        counts = np.array([9.0, 5.0, 1.0, 9.0])
        placement = make_placement([1, 1, 1, 0])
        chosen = finder.find(counts, placement, src_tier=1, dp=0.45,
                             byte_budget=10_000)
        # probs: 9/24, 5/24, 1/24 for tier-1 pages; hottest bin first.
        assert 0 in chosen
        total_prob = counts[chosen].sum() / counts.sum()
        assert total_prob <= 0.45 + 1e-9

    def test_respects_byte_budget(self):
        finder = BinnedPageFinder(cooling_threshold=10.0)
        counts = np.array([9.0, 9.0, 9.0, 9.0])
        placement = make_placement([1, 1, 1, 1])
        chosen = finder.find(counts, placement, src_tier=1, dp=1.0,
                             byte_budget=250)
        assert len(chosen) == 2

    def test_only_source_tier_pages(self):
        finder = BinnedPageFinder(cooling_threshold=10.0)
        counts = np.array([9.0, 9.0])
        placement = make_placement([0, 1])
        chosen = finder.find(counts, placement, src_tier=1, dp=1.0,
                             byte_budget=10_000)
        assert list(chosen) == [1]

    def test_unsampled_pages_are_not_candidates(self):
        """Cold-bin pages carry no measurable probability; migrating
        them cannot realize a shift, so the finder skips them."""
        finder = BinnedPageFinder(cooling_threshold=10.0)
        counts = np.zeros(4)
        placement = make_placement([1, 1, 1, 1])
        chosen = finder.find(counts, placement, src_tier=1, dp=0.6,
                             byte_budget=10_000)
        assert chosen.size == 0

    def test_sampled_cold_bin_pages_are_last_resort(self):
        """Bin-0 pages with samples are eligible, after hotter bins."""
        finder = BinnedPageFinder(cooling_threshold=10.0, n_bins=5)
        counts = np.array([9.0, 0.5, 0.0, 0.5])  # page 2 never sampled
        placement = make_placement([1, 1, 1, 1])
        chosen = finder.find(counts, placement, src_tier=1, dp=1.0,
                             byte_budget=10_000)
        assert list(chosen)[0] == 0       # hottest bin first
        assert 2 not in chosen            # unsampled excluded
        assert {1, 3} <= set(chosen.tolist())

    def test_explicit_probability_estimates_used(self):
        """Colloid passes decayed-cumulative estimates; binning still
        follows the cooled counts."""
        finder = BinnedPageFinder(cooling_threshold=10.0, n_bins=5)
        counts = np.array([9.0, 1.0, 1.0, 1.0])
        probs = np.array([0.1, 0.6, 0.2, 0.1])
        placement = make_placement([1, 1, 1, 1])
        chosen = finder.find(counts, placement, src_tier=1, dp=0.15,
                             byte_budget=10_000, probs=probs)
        # dp excludes pages 1 and 2; page 0 (bin 4) fits.
        assert 0 in chosen
        assert 1 not in chosen

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            BinnedPageFinder(cooling_threshold=0.0)
        with pytest.raises(ConfigurationError):
            BinnedPageFinder(cooling_threshold=10.0, n_bins=0)


class TestHotListPageFinder:
    def test_scans_hot_list_first(self):
        finder = HotListPageFinder()
        counts = np.array([10.0, 8.0, 1.0, 0.5])
        placement = make_placement([1, 1, 1, 1])
        chosen = finder.find(counts, hot_threshold=5.0, placement=placement,
                             src_tier=1, dp=0.6, byte_budget=10_000)
        assert set([0, 1]) & set(chosen.tolist())
        assert counts[chosen].sum() / counts.sum() <= 0.6 + 1e-9

    def test_falls_through_to_cold_pages_when_hot_list_thin(self):
        finder = HotListPageFinder()
        counts = np.array([10.0, 1.0, 1.0, 1.0])
        placement = make_placement([0, 1, 1, 1])
        # Source tier 1 has only cold pages (counts 1.0 < threshold).
        chosen = finder.find(counts, hot_threshold=5.0, placement=placement,
                             src_tier=1, dp=0.2, byte_budget=10_000)
        assert len(chosen) >= 1
        assert all(placement.pages.tier[c] == 1 for c in chosen)

    def test_budget_zero_selects_nothing(self):
        finder = HotListPageFinder()
        counts = np.array([10.0, 8.0])
        placement = make_placement([1, 1])
        chosen = finder.find(counts, 5.0, placement, 1, dp=0.0,
                             byte_budget=10_000)
        assert chosen.size == 0


def _former_binned_find(finder, counts, placement, src_tier, dp,
                        byte_budget, probs=None):
    """``BinnedPageFinder.find`` as it was: a tier mask and a bin mask
    over every page, per bin."""
    if probs is None:
        total = counts.sum()
        probs = counts / total if total > 0 else np.zeros(len(counts))
    sizes = placement.pages.sizes_bytes
    in_tier = placement.pages.tier == src_tier
    bins = finder.bin_of(counts)
    selected = []
    acc_p = 0.0
    acc_b = 0
    for b in range(finder.n_bins - 1, -1, -1):
        candidates = in_tier & (bins == b)
        if b == 0:
            candidates &= probs > 0
        candidate_idx = np.nonzero(candidates)[0]
        if candidate_idx.size == 0:
            continue
        chosen = _scan_oracle(probs, sizes, candidate_idx,
                              dp - acc_p, byte_budget - acc_b)
        if chosen.size:
            selected.append(chosen)
            acc_p += float(probs[chosen].sum())
            acc_b += int(sizes[chosen].sum())
        if acc_p >= dp or acc_b >= byte_budget:
            break
    if not selected:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(selected)


def _former_hot_list_find(counts, hot_threshold, placement, src_tier, dp,
                          byte_budget):
    total = counts.sum()
    probs = counts / total if total > 0 else (
        np.full(len(counts), 1.0 / len(counts)))
    sizes = placement.pages.sizes_bytes
    in_tier = placement.pages.tier == src_tier
    sampled = counts > 0
    hot = in_tier & sampled & (counts >= hot_threshold)
    chosen = _scan_oracle(probs, sizes, np.nonzero(hot)[0], dp,
                          byte_budget)
    acc_p = float(probs[chosen].sum())
    acc_b = int(sizes[chosen].sum())
    if acc_p >= dp * 0.5 or acc_b >= byte_budget:
        return chosen
    warm = np.nonzero(in_tier & sampled & (counts < hot_threshold))[0]
    more = _scan_oracle(probs, sizes, warm, dp - acc_p,
                        byte_budget - acc_b)
    if more.size:
        return np.concatenate([chosen, more])
    return chosen


def _random_finder_case(seed):
    """Cooled counts with unsampled pages and some bins left empty, a
    random two-tier placement with mixed page sizes, and budgets from
    nothing up to everything."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 7, 200, 1500]))
    threshold = 18.0
    counts = rng.integers(0, 18, n).astype(float)
    if rng.random() < 0.5:
        counts /= 2.0  # a cooled state
    counts[rng.random(n) < 0.4] = 0.0  # never sampled
    if rng.random() < 0.5:
        # Empty the hottest bins (and maybe more).
        counts = np.minimum(counts, rng.choice([3.0, 7.5, 10.0]))
    sizes = rng.choice([4096, 2 << 20], n) if rng.random() < 0.5 \
        else np.full(n, 2 << 20)
    pages = PageArray(sizes)
    placement = PlacementState(pages, [int(sizes.sum())] * 2)
    tiers = rng.integers(0, 2, n)
    for t in (0, 1):
        placement.move(np.nonzero(tiers == t)[0], t)
    probs = None
    if rng.random() < 0.5:
        probs = rng.random(n) * (counts > 0)
        if probs.sum() > 0:
            probs /= probs.sum()
    dp = float(rng.choice([0.0, 1e-4, 0.01, 0.05, 0.3, 2.0]))
    byte_budget = int(rng.choice([0, 4096, 8 << 20, 64 << 20, 2**62]))
    return counts, threshold, placement, probs, dp, byte_budget


class TestFindersMatchFormerImplementations:
    """The finders bin and select only the source tier's pages, ranking
    only the head of each bin the budgets reach; the pages chosen and
    their order must be those of the whole-array masks and full sorts
    they replace."""

    @pytest.mark.parametrize("seed", range(120))
    def test_binned_finder(self, seed):
        counts, threshold, placement, probs, dp, budget = (
            _random_finder_case(seed))
        finder = BinnedPageFinder(cooling_threshold=threshold)
        for src in (0, 1):
            chosen = finder.find(counts, placement, src, dp, budget,
                                 probs=probs)
            expected = _former_binned_find(finder, counts, placement, src,
                                           dp, budget, probs=probs)
            assert chosen.dtype == np.int64
            np.testing.assert_array_equal(chosen, expected)

    @pytest.mark.parametrize("seed", range(120))
    def test_hot_list_finder(self, seed):
        counts, _, placement, _, dp, budget = _random_finder_case(seed)
        hot_threshold = float(np.random.default_rng(seed).choice(
            [0.5, 4.0, 9.0, 100.0]))
        finder = HotListPageFinder()
        for src in (0, 1):
            chosen = finder.find(counts, hot_threshold, placement, src, dp,
                                 budget)
            expected = _former_hot_list_find(counts, hot_threshold,
                                             placement, src, dp, budget)
            np.testing.assert_array_equal(chosen, expected)


_PAGE = 2 << 20


def _small_budget_case(seed):
    """Cooled counts and probabilities drawn from a few values, so keys
    tie within and across bins; 2 MiB pages mixed with pages larger than
    any budget of up to 8 pages."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([3, 40, 600]))
    counts = rng.integers(0, 18, n) / float(rng.choice([1.0, 2.0, 8.0]))
    counts[rng.random(n) < 0.4] = 0.0
    sizes = np.full(n, _PAGE, dtype=np.int64)
    sizes[rng.random(n) < 0.2] = 16 * _PAGE
    pages = PageArray(sizes)
    placement = PlacementState(pages, [int(sizes.sum())] * 2)
    tiers = rng.integers(0, 2, n)
    for t in (0, 1):
        placement.move(np.nonzero(tiers == t)[0], t)
    probs = None
    if rng.random() < 0.7:
        probs = rng.choice([1.0, 2.0, 5.0], n) * (counts > 0)
        # Some sampled pages estimated at zero: only bin 0 drops them.
        probs[rng.random(n) < 0.1] = 0.0
        probs /= max(probs.sum(), 1.0)
    dp = float(rng.choice([2e-3, 0.01, 0.05, 0.3, 1.0]))
    return counts, placement, probs, dp


class TestBinnedFinderOnSmallBudgets:
    """Byte budgets of one to eight pages, as Colloid's quanta grant
    them: the pages chosen and their order must be those of the full
    stable sort, ``np.argsort(-probs, kind="stable")`` per bin."""

    @pytest.mark.parametrize("n_pages", range(1, 9))
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_the_full_sort(self, seed, n_pages):
        counts, placement, probs, dp = _small_budget_case(seed)
        finder = BinnedPageFinder(cooling_threshold=18.0)
        for budget in (n_pages * _PAGE, n_pages * _PAGE + _PAGE // 2):
            for src in (0, 1):
                chosen = finder.find(counts, placement, src, dp, budget,
                                     probs=probs)
                expected = _former_binned_find(finder, counts, placement,
                                               src, dp, budget, probs=probs)
                assert chosen.dtype == np.int64
                np.testing.assert_array_equal(chosen, expected)

    def test_pages_larger_than_the_budget_are_never_taken(self):
        counts = np.array([17.0, 17.0, 9.0, 1.0])
        sizes = np.array([16 * _PAGE, _PAGE, 16 * _PAGE, _PAGE])
        placement = PlacementState(PageArray(sizes),
                                   [int(sizes.sum())] * 2)
        placement.move(np.arange(4), 1)
        chosen = BinnedPageFinder(cooling_threshold=18.0).find(
            counts, placement, 1, 1.0, 2 * _PAGE)
        np.testing.assert_array_equal(chosen, [1, 3])

    def test_empty_source_tier_selects_nothing(self):
        counts = np.array([10.0, 5.0, 1.0])
        placement = make_placement([0, 0, 0])
        chosen = BinnedPageFinder(cooling_threshold=18.0).find(
            counts, placement, 1, 0.5, 10_000)
        assert chosen.dtype == np.int64
        assert chosen.size == 0

    def test_only_unsampled_pages_select_nothing(self):
        counts = np.array([10.0, 0.0, 0.0])
        placement = make_placement([0, 1, 1])
        chosen = BinnedPageFinder(cooling_threshold=18.0).find(
            counts, placement, 1, 0.5, 10_000)
        assert chosen.size == 0

    def test_single_bin_keeps_only_sampled_pages(self):
        counts = np.array([0.0, 40.0, 3.0, 0.0])
        placement = make_placement([1, 1, 1, 1])
        finder = BinnedPageFinder(cooling_threshold=18.0, n_bins=1)
        chosen = finder.find(counts, placement, 1, 1.0, 10_000)
        np.testing.assert_array_equal(chosen, [1, 2])
        np.testing.assert_array_equal(
            chosen, _former_binned_find(finder, counts, placement, 1, 1.0,
                                        10_000))

    def test_negative_budgets_are_rejected(self):
        placement = make_placement([1, 1])
        finder = BinnedPageFinder(cooling_threshold=18.0)
        with pytest.raises(ConfigurationError):
            finder.find(np.ones(2), placement, 1, -0.1, 100)
        with pytest.raises(ConfigurationError):
            finder.find(np.ones(2), placement, 1, 0.1, -1)
