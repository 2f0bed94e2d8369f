"""Behavioural tests for the three baseline systems on the full loop.

Uses a small-scale GUPS run; the assertions are the paper's qualitative
claims about the baselines: they identify the hot set, pack it into the
default tier, and keep it there regardless of contention.
"""

import numpy as np
import pytest

from repro.core.integrate import with_colloid
from repro.errors import ConfigurationError
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.tiering.memtis import MemtisSystem
from repro.tiering.tpp import TppSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE


def run(system, small_machine, contention=0, duration=6.0, seed=5):
    workload = GupsWorkload(scale=FAST_SCALE, seed=seed)
    loop = SimulationLoop(
        machine=small_machine,
        workload=workload,
        system=system,
        contention=contention,
        seed=seed,
    )
    metrics = loop.run(duration_s=duration)
    return metrics


class TestHemem:
    def test_converges_to_hot_packed_at_0x(self, small_machine):
        metrics = run(HememSystem(), small_machine)
        tail = metrics.p_true[-50:]
        assert tail.mean() > 0.85  # ~all hot accesses on default tier

    def test_keeps_hot_packed_under_contention(self, small_machine):
        """The paper's critique: contention-agnostic placement."""
        metrics = run(HememSystem(), small_machine, contention=3)
        assert metrics.p_true[-50:].mean() > 0.85

    def test_hot_classification_follows_samples(self, small_machine):
        system = HememSystem()
        run(system, small_machine, duration=2.0)
        hot = system.hot_mask()
        # roughly the hot third of pages classified hot
        assert 0.15 < hot.mean() < 0.6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            HememSystem(hot_threshold=0.0)
        with pytest.raises(ConfigurationError):
            HememSystem(action_period_s=0.0)


class TestMemtis:
    def test_converges_to_hot_packed(self, small_machine):
        metrics = run(MemtisSystem(), small_machine, duration=10.0)
        assert metrics.p_true[-50:].mean() > 0.8

    def test_acts_on_500ms_cadence(self, small_machine):
        metrics = run(MemtisSystem(), small_machine, duration=3.0)
        moved = metrics.migration_bytes > 0
        # Copy debt spreads migrations, but activity must be much sparser
        # than HeMem's every-quantum cadence early on.
        assert 0 < moved.sum() < len(moved)

    def test_split_penalty_applies_after_warmup(self, small_machine):
        system = MemtisSystem(split_warmup_s=0.5)
        run(system, small_machine, duration=2.0)
        assert system.split_pages.any()
        assert system.throughput_scale() < 1.0

    def test_splitting_can_be_disabled(self, small_machine):
        system = MemtisSystem(enable_splitting=False)
        run(system, small_machine, duration=2.0)
        assert not system.split_pages.any()
        assert system.throughput_scale() == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MemtisSystem(demotion_watermark=1.0)
        with pytest.raises(ConfigurationError):
            MemtisSystem(split_fraction=1.5)


class TestTpp:
    def test_slowly_converges_toward_hot_packed(self, small_machine):
        metrics = run(TppSystem(), small_machine, duration=20.0)
        start = metrics.p_true[:50].mean()
        end = metrics.p_true[-50:].mean()
        assert end > start
        assert end > 0.7

    def test_respects_kswapd_watermarks(self, small_machine):
        system = TppSystem(high_watermark=0.99, low_watermark=0.97)
        run(system, small_machine, duration=10.0)
        placement = system._placement
        used_fraction = placement.used_bytes(0) / placement.capacity_bytes(0)
        assert used_fraction <= 0.995

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TppSystem(scan_fraction_per_quantum=0.0)
        with pytest.raises(ConfigurationError):
            TppSystem(high_watermark=0.9, low_watermark=0.95)


class TestWithColloidFactory:
    def test_builds_each_integration(self):
        assert with_colloid("hemem").name == "hemem+colloid"
        assert with_colloid("memtis").name == "memtis+colloid"
        assert with_colloid("tpp").name == "tpp+colloid"

    def test_rejects_unknown_base(self):
        with pytest.raises(ConfigurationError):
            with_colloid("nimble")


class TestPebsSampleAccounting:
    """``pebs_samples`` is the sampler's own count of what it drained,
    not a second sum over the sample array."""

    @pytest.mark.parametrize("make", [HememSystem, MemtisSystem,
                                      lambda: with_colloid("hemem")])
    def test_equals_the_sum_of_the_drained_samples(self, make,
                                                   small_machine):
        system = make()
        sampler = system._sampler
        drained = []
        periods = set()
        collect = sampler.collect

        def recording_collect(feed):
            periods.add(sampler.sample_period)
            counts = collect(feed)
            drained.append(int(np.sum(counts)))
            return counts

        sampler.collect = recording_collect
        run(system, small_machine, duration=1.5)
        assert len(drained) > 100
        assert system.cpu_work["pebs_samples"] == sum(drained)
        assert sampler.total_samples == sum(drained)
        if isinstance(system, MemtisSystem):
            assert len(periods) > 1  # the adaptive period moved
