"""Tests for cooling counters and the MEMTIS capacity threshold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tracking.cooling import CoolingCounters
from repro.tracking.histogram import capacity_hot_threshold


class TestCoolingCounters:
    def test_counts_accumulate(self):
        counters = CoolingCounters(4, cooling_threshold=100)
        counters.add_samples(np.array([1, 2, 3, 0]))
        counters.add_samples(np.array([1, 0, 0, 0]))
        assert list(counters.counts) == [2, 2, 3, 0]

    def test_cooling_halves_at_threshold(self):
        counters = CoolingCounters(3, cooling_threshold=10)
        counters.add_samples(np.array([10, 4, 0]))
        assert counters.counts[0] == pytest.approx(5.0)
        assert counters.counts[1] == pytest.approx(2.0)
        assert counters.coolings == 1

    @given(seed=st.integers(0, 2**32 - 1),
           threshold=st.sampled_from([2, 4, 18]),
           scale=st.sampled_from([1, 3, 50, 10**6]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_former_fold_bitwise(self, seed, threshold, scale):
        """One float64 conversion feeding both accumulators gives the
        same bits as adding the int64 counts to each, through cascaded
        cooling too (``scale`` up to a million samples per page). The
        maximum read once per fold and halved as a scalar cools exactly
        as often as reducing it again after every halving, subnormals
        included."""
        rng = np.random.default_rng(seed)
        n = 50
        counters = CoolingCounters(n, cooling_threshold=threshold)
        counts = np.zeros(n)
        cumulative = np.zeros(n)
        coolings = 0

        def fold(samples):
            nonlocal coolings, counts, cumulative
            counters.add_samples(samples)
            # The fold as it was: the int64 counts added to each array,
            # and the maximum reduced again after every halving.
            counts += samples
            while counts.max(initial=0.0) >= threshold:
                counts /= 2.0
                coolings += 1
            cumulative *= counters.estimate_decay
            cumulative += samples
            assert counters.counts.tobytes() == counts.tobytes()
            assert counters._cumulative.tobytes() == cumulative.tobytes()
            assert counters.coolings == coolings

        for _ in range(8):
            samples = rng.integers(0, scale + 1, n).astype(np.int64)
            samples[rng.random(n) < 0.3] = 0
            fold(samples)
        assert counters.coolings > 0 or scale < threshold
        # A long unsampled stretch: one page takes 2**10 to 2**20 samples
        # a quantum and the other pages none, so theirs halve through
        # the subnormals (10 to 20 coolings a quantum, against 52
        # subnormal binades) down to zero, over 1,100 coolings.
        start = counters.coolings
        cooled = counts[1:].any()
        saw_subnormal = False
        while counters.coolings - start < 1100:
            samples = np.zeros(n, dtype=np.int64)
            samples[0] = rng.integers(2**10, 2**20)
            fold(samples)
            rest = counts[1:]
            saw_subnormal |= bool(
                ((rest > 0) & (rest < np.finfo(float).tiny)).any())
        assert saw_subnormal == cooled
        assert not counts[1:].any()

    def test_cooling_repeats_until_under_threshold(self):
        counters = CoolingCounters(1, cooling_threshold=4)
        counters.add_samples(np.array([40]))
        assert counters.counts[0] < 4
        assert counters.coolings >= 3

    def test_counts_bounded_by_threshold_invariant(self):
        rng = np.random.default_rng(0)
        counters = CoolingCounters(50, cooling_threshold=18)
        for __ in range(100):
            counters.add_samples(rng.poisson(2.0, size=50))
            assert counters.counts.max() < 18

    def test_probabilities_normalized(self):
        counters = CoolingCounters(4, cooling_threshold=100)
        counters.add_samples(np.array([3, 1, 0, 0]))
        probs = counters.access_probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] == pytest.approx(0.75)

    def test_empty_counters_uniform(self):
        counters = CoolingCounters(5)
        assert (counters.access_probabilities() == 0.2).all()

    def test_reset(self):
        counters = CoolingCounters(3, cooling_threshold=10)
        counters.add_samples(np.array([5, 5, 5]))
        counters.reset()
        assert counters.counts.sum() == 0
        assert counters.coolings == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            CoolingCounters(0)
        with pytest.raises(ConfigurationError):
            CoolingCounters(5, cooling_threshold=1)

    def test_rejects_shape_mismatch(self):
        counters = CoolingCounters(3)
        with pytest.raises(ConfigurationError):
            counters.add_samples(np.array([1, 2]))


class TestCapacityHotThreshold:
    def test_everything_fits_threshold_zero(self):
        counts = np.array([5.0, 3.0, 1.0])
        sizes = np.full(3, 100)
        assert capacity_hot_threshold(counts, sizes, 1000) == 0.0

    def test_threshold_selects_hottest_that_fit(self):
        counts = np.array([5.0, 3.0, 1.0, 2.0])
        sizes = np.full(4, 100)
        threshold = capacity_hot_threshold(counts, sizes, 250)
        hot = counts >= threshold
        # The two hottest pages (counts 5 and 3) fit in 250 bytes.
        assert hot[0] and hot[1]
        assert not hot[2]

    def test_single_page_capacity(self):
        counts = np.array([5.0, 3.0])
        sizes = np.full(2, 100)
        threshold = capacity_hot_threshold(counts, sizes, 100)
        assert (counts >= threshold).sum() == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            capacity_hot_threshold(np.array([1.0]), np.array([1, 2]), 100)
        with pytest.raises(ConfigurationError):
            capacity_hot_threshold(np.array([1.0]), np.array([100]), 0)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                 max_size=30),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_hot_set_above_strict_threshold_fits(self, raw_counts, capacity):
        """Pages with counts strictly above the threshold always fit."""
        counts = np.array(raw_counts)
        sizes = np.full(len(counts), 100, dtype=np.int64)
        threshold = capacity_hot_threshold(counts, sizes, capacity)
        if np.isinf(threshold):
            return
        strictly_hot = counts > threshold
        assert sizes[strictly_hot].sum() <= capacity
