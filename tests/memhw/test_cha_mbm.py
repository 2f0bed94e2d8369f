"""Tests for the emulated CHA counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memhw.cha import ChaCounters
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed


@pytest.fixture
def equilibrium():
    solver = EquilibriumSolver(paper_testbed().tiers)
    app = CoreGroup("a", 15, 7.0, read_fraction=0.5)
    return solver.solve(app, [0.8, 0.2])


class _Steady:
    """The two fields :meth:`ChaCounters.observe` reads."""

    def __init__(self, rates, latencies):
        self.tier_read_request_rate = rates
        self.latencies_ns = latencies


class TestChaCounters:
    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            ChaCounters(0)
        with pytest.raises(ConfigurationError):
            ChaCounters(2, noise_sigma=-0.1)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ChaCounters(2, noise_sigma=sigma)

    def test_noiseless_sample_recovers_latency(self, equilibrium):
        cha = ChaCounters(2, noise_sigma=0.0)
        cha.observe(equilibrium, 1e7)
        sample = cha.sample_and_reset()
        latency = sample.occupancy / sample.rate
        np.testing.assert_allclose(latency, equilibrium.latencies_ns,
                                   rtol=1e-12)

    def test_rates_match_equilibrium(self, equilibrium):
        cha = ChaCounters(2, noise_sigma=0.0)
        cha.observe(equilibrium, 5e6)
        sample = cha.sample_and_reset()
        np.testing.assert_allclose(
            sample.rate, equilibrium.tier_read_request_rate, rtol=1e-12
        )

    def test_sample_resets_accumulators(self, equilibrium):
        cha = ChaCounters(2)
        cha.observe(equilibrium, 1e6)
        cha.sample_and_reset()
        empty = cha.sample_and_reset()
        assert empty.duration_ns == 0.0
        assert (empty.occupancy == 0).all()
        assert (empty.rate == 0).all()

    def test_multiple_observations_average(self, equilibrium):
        cha = ChaCounters(2, noise_sigma=0.0)
        cha.observe(equilibrium, 1e6)
        cha.observe(equilibrium, 3e6)
        sample = cha.sample_and_reset()
        assert sample.duration_ns == pytest.approx(4e6)
        np.testing.assert_allclose(
            sample.occupancy / sample.rate, equilibrium.latencies_ns,
            rtol=1e-12,
        )

    def test_noise_perturbs_but_centers(self, equilibrium):
        cha = ChaCounters(2, noise_sigma=0.05,
                          rng=np.random.default_rng(3))
        ratios = []
        for __ in range(400):
            cha.observe(equilibrium, 1e6)
            sample = cha.sample_and_reset()
            ratios.append(
                (sample.occupancy / sample.rate) / equilibrium.latencies_ns
            )
        mean_ratio = np.mean(ratios, axis=0)
        np.testing.assert_allclose(mean_ratio, 1.0, atol=0.02)
        assert np.std(ratios, axis=0).max() > 0.01  # noise is present

    @given(n_tiers=st.integers(1, 4), sigma=st.floats(1e-3, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_one_noise_draw_equals_two(self, n_tiers, sigma, seed):
        """Occupancy and rate noise come from one ``normal`` draw of
        ``2 * n_tiers`` values: the values, and the generator state, of
        the two ``n_tiers`` draws (occupancy's, then rate's) taken
        before."""
        cha = ChaCounters(n_tiers, noise_sigma=sigma,
                          rng=np.random.default_rng(seed))
        oracle = np.random.default_rng(seed)
        rates = np.linspace(0.5, 2.0, n_tiers)
        latencies = np.linspace(80.0, 300.0, n_tiers)
        for __ in range(5):
            cha.observe(_Steady(rates, latencies), 1e6)
            sample = cha.sample_and_reset()
            occupancy = [r * lat * 1e6 / 1e6
                         for r, lat in zip(rates.tolist(),
                                           latencies.tolist())]
            rate = [r * 1e6 / 1e6 for r in rates.tolist()]
            occupancy_noise = np.exp(
                oracle.normal(0.0, sigma, size=n_tiers)).tolist()
            rate_noise = np.exp(
                oracle.normal(0.0, sigma, size=n_tiers)).tolist()
            assert sample.occupancy.tolist() == [
                o * f for o, f in zip(occupancy, occupancy_noise)]
            assert sample.rate.tolist() == [
                r * f for r, f in zip(rate, rate_noise)]
        assert (cha._rng.bit_generator.state
                == oracle.bit_generator.state)

    def test_tier_count_mismatch_rejected(self, equilibrium):
        cha = ChaCounters(3)
        with pytest.raises(ConfigurationError):
            cha.observe(equilibrium, 1e6)

    @given(n_tiers=st.integers(1, 3), sigma=st.floats(0.0, 0.5),
           reads=st.lists(st.booleans(), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_windows_read_sparsely_match_sampling_each(self, n_tiers,
                                                       sigma, reads, seed):
        """A window read after unread ones gives the sample
        ``sample_and_reset`` gives when every window is sampled; unread
        windows at the end draw nothing."""
        lazy = ChaCounters(n_tiers, noise_sigma=sigma,
                           rng=np.random.default_rng(seed))
        eager = ChaCounters(n_tiers, noise_sigma=sigma,
                            rng=np.random.default_rng(seed))
        for k, read in enumerate(reads):
            steady = _Steady(np.linspace(0.5, 2.0, n_tiers) * (k + 1),
                             np.linspace(80.0, 300.0, n_tiers) + k)
            reader = lazy.window(steady, 1e6 + k)
            eager.observe(steady, 1e6 + k)
            expected = eager.sample_and_reset()
            if read:
                sample = reader()
                assert sample.occupancy.tolist() == (
                    expected.occupancy.tolist())
                assert sample.rate.tolist() == expected.rate.tolist()
                assert sample.duration_ns == expected.duration_ns
        if sigma > 0 and reads[-1]:
            assert (lazy._rng.bit_generator.state
                    == eager._rng.bit_generator.state)
        if not any(reads):
            assert (lazy._rng.bit_generator.state
                    == np.random.default_rng(seed).bit_generator.state)

    def test_window_read_after_a_later_one_is_rejected(self, equilibrium):
        cha = ChaCounters(2, noise_sigma=0.01)
        first = cha.window(equilibrium, 1e6)
        cha.window(equilibrium, 1e6)()
        with pytest.raises(ConfigurationError):
            first()
