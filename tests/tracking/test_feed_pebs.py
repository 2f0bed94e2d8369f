"""Tests for the access feed and PEBS samplers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tracking.feed import AccessFeed
from repro.tracking.pebs import AdaptivePebsSampler, PebsSampler


def make_feed(n_pages=100, rate=1.0, quantum=1e7, seed=0,
              hot_frac=0.1, hot_prob=0.9):
    rng = np.random.default_rng(seed)
    probs = np.full(n_pages, (1 - hot_prob) / n_pages)
    n_hot = max(1, int(hot_frac * n_pages))
    probs[:n_hot] += hot_prob / n_hot
    probs = probs / probs.sum()
    return AccessFeed(probs, rate, quantum, rng)


class TestAccessFeed:
    def test_total_accesses(self):
        feed = make_feed(rate=0.5, quantum=1e6)
        assert feed.total_accesses == 500_000

    def test_sample_counts_follow_distribution(self):
        feed = make_feed(seed=1)
        counts = feed.pebs_counts(sample_period=100)
        assert counts.sum() == feed.total_accesses // 100
        # Hot pages (first 10%) should dominate the samples.
        hot_share = counts[:10].sum() / counts.sum()
        assert hot_share == pytest.approx(0.9, abs=0.03)

    def test_longer_period_fewer_samples(self):
        few = make_feed(seed=2).pebs_counts(sample_period=1000).sum()
        many = make_feed(seed=2).pebs_counts(sample_period=100).sum()
        assert many == 10 * few

    def test_max_samples_cap(self):
        feed = make_feed()
        counts = feed.pebs_counts(sample_period=10, max_samples=50)
        assert counts.sum() == 50

    def test_zero_rate_yields_no_samples(self):
        feed = make_feed(rate=0.0)
        assert feed.pebs_counts(sample_period=10).sum() == 0

    def test_page_access_rates(self):
        feed = make_feed(rate=2.0)
        rates = feed.access_probs * feed.request_rate
        assert rates.sum() == pytest.approx(2.0)

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            AccessFeed(np.array([1.0]), -1.0, 1e6, rng)
        with pytest.raises(ConfigurationError):
            AccessFeed(np.array([1.0]), 1.0, 0.0, rng)
        feed = make_feed()
        with pytest.raises(ConfigurationError):
            feed.pebs_counts(sample_period=0)

    @pytest.mark.parametrize("rate, quantum", [
        (float("nan"), 1e6), (float("inf"), 1e6), (1.0, float("nan")),
        (1.0, float("inf")), (1.0, -float("inf")),
    ])
    def test_rejects_non_finite_args(self, rate, quantum):
        with pytest.raises(ConfigurationError):
            AccessFeed(np.array([1.0]), rate, quantum,
                       np.random.default_rng(0))


class TestPebsSampler:
    def test_fixed_period_accumulates_totals(self):
        sampler = PebsSampler(sample_period=100)
        feed = make_feed()
        counts = sampler.collect(feed)
        assert sampler.total_samples == counts.sum()

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            PebsSampler(sample_period=0)

    @pytest.mark.parametrize("sampler_class",
                             [PebsSampler, AdaptivePebsSampler])
    @pytest.mark.parametrize("rate, quantum, n_pages", [
        (1.0, 1e7, 100), (0.013, 1e6, 7), (2.5, 3e6, 1), (0.3, 1e7, 5000),
        (1e-4, 1e6, 50), (0.0, 1e7, 10),
    ])
    def test_last_samples_is_the_drawn_count(self, sampler_class, rate,
                                             quantum, n_pages):
        sampler = sampler_class(sample_period=199)
        total = 0
        for seed in range(3):
            feed = make_feed(n_pages=n_pages, rate=rate, quantum=quantum,
                             seed=seed)
            counts = sampler.collect(feed)
            assert sampler.last_samples == int(counts.sum())
            total += sampler.last_samples
        assert sampler.total_samples == total
        if rate * quantum < 199:
            assert total == 0


class TestAdaptivePebsSampler:
    def test_period_grows_when_oversampling(self):
        sampler = AdaptivePebsSampler(sample_period=19,
                                      target_samples_per_quantum=100)
        feed = make_feed(rate=1.0)  # 1e7 accesses -> huge sample count
        sampler.collect(feed)
        assert sampler.sample_period > 19

    def test_period_shrinks_when_undersampling(self):
        sampler = AdaptivePebsSampler(sample_period=10_000,
                                      target_samples_per_quantum=5000)
        feed = make_feed(rate=0.1, quantum=1e6)  # few accesses
        sampler.collect(feed)
        assert sampler.sample_period < 10_000

    def test_period_stays_within_bounds(self):
        sampler = AdaptivePebsSampler(sample_period=50, min_period=19,
                                      max_period=400,
                                      target_samples_per_quantum=10)
        for seed in range(10):
            sampler.collect(make_feed(seed=seed))
        assert 19 <= sampler.sample_period <= 400

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            AdaptivePebsSampler(min_period=100, max_period=10)
        with pytest.raises(ConfigurationError):
            AdaptivePebsSampler(target_samples_per_quantum=0)
