"""Unit tests for TPP's internal heuristics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from repro.tiering.tpp import TppSystem


def attached_system(**kwargs) -> TppSystem:
    system = TppSystem(**kwargs)
    pages = PageArray.uniform(20, 100)
    placement = PlacementState(pages, [1000, 2000])
    placement.move(np.arange(10), 0)
    placement.move(np.arange(10, 20), 1)
    system.attach(placement)
    return system


class TestThresholdAdaptation:
    def test_grows_when_too_few_hot(self):
        system = attached_system(initial_hot_ttf_ns=1000.0)
        system._adapt_threshold(n_hot_faults=1, n_faults=10)
        assert system.hot_ttf_ns > 1000.0

    def test_shrinks_when_too_many_hot(self):
        system = attached_system(initial_hot_ttf_ns=1000.0)
        system._adapt_threshold(n_hot_faults=9, n_faults=10)
        assert system.hot_ttf_ns < 1000.0

    def test_holds_in_band(self):
        system = attached_system(initial_hot_ttf_ns=1000.0)
        system._adapt_threshold(n_hot_faults=5, n_faults=10)
        assert system.hot_ttf_ns == 1000.0

    def test_no_faults_no_change(self):
        system = attached_system(initial_hot_ttf_ns=1000.0)
        system._adapt_threshold(n_hot_faults=0, n_faults=0)
        assert system.hot_ttf_ns == 1000.0


class TestKswapd:
    def test_below_watermark_no_demotion(self):
        system = attached_system(high_watermark=0.99,
                                 low_watermark=0.97)
        placement = system._placement
        # Tier 0 usage: 10 pages * 100 B = 1000 B == capacity -> above
        # the 0.99 watermark, so demotions fire.
        demotions = system.kswapd_demotions(placement)
        assert demotions.size > 0
        # Free some space below the watermark.
        placement.move(demotions, 1)
        assert system.kswapd_demotions(placement).size == 0

    def test_demotes_coldest_by_time_to_fault(self):
        system = attached_system()
        placement = system._placement
        # Pages 0-4 recently faulted fast (hot), 5-9 slow (cold).
        system._last_ttf_ns[:5] = 1_000.0
        system._last_ttf_ns[5:10] = 1_000_000.0
        demotions = system.kswapd_demotions(placement)
        assert demotions.size > 0
        assert set(demotions.tolist()) <= set(range(5, 10))


def lexsort_prefix(system, candidates, sizes, need):
    """kswapd's ranking as it was before only the head was sorted: the
    whole ``lexsort`` and its cumulative sizes, kept as the oracle."""
    order = candidates[np.lexsort((
        system._last_access_s[candidates],
        -system._last_ttf_ns[candidates],
    ))]
    cum = np.cumsum(sizes[order])
    n = int(np.searchsorted(cum, need, side="left")) + 1
    return order[:min(n, len(order))]


@st.composite
def _coldness(draw):
    """Per-page time-to-fault and last access with many ties: ``inf``
    (never faulted) and equal finite values, equal access times, signed
    zeros and the odd NaN, over uniform or mixed page sizes."""
    n = draw(st.integers(1, 200))
    ttf = draw(st.lists(
        st.sampled_from([np.inf, np.inf, np.inf, 1e3, 1e3, 5e4, 0.0, -0.0,
                         np.nan]),
        min_size=n, max_size=n))
    access = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
                           min_size=n, max_size=n))
    size_pool = draw(st.sampled_from([[100], [4096, 2 << 20], [1, 7, 50]]))
    sizes = draw(st.lists(st.sampled_from(size_pool), min_size=n,
                          max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    candidates = np.flatnonzero(keep)
    total = int(np.asarray(sizes)[candidates].sum())
    need = draw(st.integers(1, total + 200))
    return (np.array(ttf), np.array(access), np.array(sizes, dtype=np.int64),
            candidates, need)


class TestColdestFirst:
    @given(state=_coldness())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_is_the_full_lexsort_prefix(self, state):
        ttf, access, sizes, candidates, need = state
        system = attached_system()
        system._last_ttf_ns = ttf
        system._last_access_s = access
        np.testing.assert_array_equal(
            system.coldest_first(candidates, sizes, need),
            lexsort_prefix(system, candidates, sizes, need),
        )

    def test_kswapd_breaks_inf_ties_like_the_full_sort(self):
        """Every default-tier page never faulted (``inf``) except two,
        so the head is all ties, broken by last access, then index."""
        system = TppSystem()
        pages = PageArray.uniform(400, 100)
        placement = PlacementState(pages, [30_000, 40_000])
        placement.move(np.arange(300), 0)
        placement.move(np.arange(300, 400), 1)
        system.attach(placement)
        system._last_ttf_ns[[7, 50]] = 1e3
        system._last_access_s[::3] = 1.0
        demotions = system.kswapd_demotions(placement)
        assert demotions.size > 0
        np.testing.assert_array_equal(
            demotions,
            lexsort_prefix(system, pages.pages_in_tier(0),
                           pages.sizes_bytes,
                           int(0.03 * 30_000) - placement.free_bytes(0)),
        )
