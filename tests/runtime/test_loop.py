"""Tests for the simulation loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.tiering.memorymode import MemoryModeSystem
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.dynamic import HotSetShiftWorkload
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE


def make_loop(small_machine, system=None, contention=0, **kwargs):
    workload = GupsWorkload(scale=FAST_SCALE, seed=4)
    return SimulationLoop(
        machine=small_machine,
        workload=workload,
        system=system if system is not None else StaticPlacementSystem(),
        contention=contention,
        seed=4,
        **kwargs,
    )


class TestStep:
    def test_records_one_quantum(self, small_machine):
        loop = make_loop(small_machine)
        record = loop.step()
        assert record.time_s == 0.0
        assert record.throughput > 0
        assert record.latencies_ns.shape == (2,)
        assert len(loop.metrics) == 1

    def test_clock_advances_by_quantum(self, small_machine):
        loop = make_loop(small_machine, quantum_ms=5.0)
        loop.step()
        loop.step()
        assert loop.time_s == pytest.approx(0.01)

    def test_run_duration(self, small_machine):
        loop = make_loop(small_machine)
        metrics = loop.run(duration_s=0.5)
        assert len(metrics) == 50  # 10 ms quanta

    def test_static_system_throughput_is_stationary(self, small_machine):
        loop = make_loop(small_machine)
        metrics = loop.run(duration_s=0.5)
        assert metrics.throughput.std() < 0.01 * metrics.throughput.mean()

    def test_latencies_are_cpu_observed(self, small_machine):
        """Recorded latencies include the CPU-to-CHA hop."""
        loop = make_loop(small_machine)
        record = loop.step()
        assert record.latencies_ns[1] >= 135.0  # 130 CHA + 5


class TestContention:
    def test_constant_contention(self, small_machine):
        loop = make_loop(small_machine, contention=3)
        record = loop.step()
        assert record.antagonist_intensity == 3
        assert record.latencies_ns[0] > 200.0

    def test_schedule_callable(self, small_machine):
        loop = make_loop(
            small_machine, contention=lambda t: 3 if t >= 0.05 else 0
        )
        metrics = loop.run(duration_s=0.1)
        intensities = [r.antagonist_intensity for r in metrics.records]
        assert intensities[0] == 0
        assert intensities[-1] == 3

    def test_contention_raises_latency_and_drops_throughput(
            self, small_machine):
        quiet = make_loop(small_machine, contention=0).run(0.2)
        loud = make_loop(small_machine, contention=3).run(0.2)
        assert loud.throughput.mean() < quiet.throughput.mean()
        assert loud.latencies_ns[:, 0].mean() > (
            quiet.latencies_ns[:, 0].mean()
        )


class TestInitialPlacement:
    def test_default_fill_packs_default_tier(self, small_machine):
        loop = make_loop(small_machine)
        assert loop.placement.free_bytes(0) < loop.placement.pages.sizes_bytes[0]

    def test_explicit_initial_placement(self, small_machine):
        workload = GupsWorkload(scale=FAST_SCALE, seed=4)
        tiers = np.ones(workload.n_pages, dtype=np.int64)  # all alternate
        loop = SimulationLoop(
            machine=small_machine, workload=workload,
            system=StaticPlacementSystem(), initial_placement=tiers,
            seed=4,
        )
        record = loop.step()
        assert record.p_true == 0.0

    def test_rejects_wrong_length_placement(self, small_machine):
        workload = GupsWorkload(scale=FAST_SCALE, seed=4)
        with pytest.raises(ConfigurationError):
            SimulationLoop(
                machine=small_machine, workload=workload,
                system=StaticPlacementSystem(),
                initial_placement=np.zeros(3, dtype=np.int64),
            )

    def test_rejects_bad_quantum(self, small_machine):
        workload = GupsWorkload(scale=FAST_SCALE, seed=4)
        with pytest.raises(ConfigurationError):
            SimulationLoop(machine=small_machine, workload=workload,
                           system=StaticPlacementSystem(), quantum_ms=0.0)


class TestMigrationTrafficSpreading:
    def test_copy_debt_drains_at_rate_limit(self, small_machine):
        """A bursty system's copies are charged over following quanta."""
        loop = make_loop(small_machine, system=HememSystem(),
                         migration_limit_bytes=2 * 1024 * 1024)
        metrics = loop.run(duration_s=1.0)
        per_quantum = metrics.migration_bytes
        assert per_quantum.max() <= 2 * 1024 * 1024

    def test_p_true_tracks_promotions(self, small_machine):
        loop = make_loop(small_machine, system=HememSystem())
        metrics = loop.run(duration_s=4.0)
        assert metrics.p_true[-1] > metrics.p_true[0] - 0.05
        assert metrics.p_true[-10:].mean() > 0.8


class TestTierSplitCache:
    """The loop recomputes a tenant's tier split only when the page table
    or the workload's distribution changed."""

    @staticmethod
    def counting_split(placement):
        """Count calls to ``placement.tier_probabilities``."""
        calls = []
        compute = placement.tier_probabilities

        def counted(probs):
            calls.append(probs)
            return compute(probs)

        placement.tier_probabilities = counted
        return calls

    def test_unchanged_state_reuses_the_split(self, small_machine):
        loop = make_loop(small_machine)
        calls = self.counting_split(loop.placement)
        records = [loop.step() for __ in range(5)]
        assert len(calls) == 1
        assert len({r.p_true for r in records}) == 1

    def test_in_place_hot_set_shift_recomputes(self, small_machine):
        """GUPS reshuffles its hot set inside the same array and a static
        system moves no page: only ``advance()``'s True says the split
        is stale."""
        workload = HotSetShiftWorkload(
            GupsWorkload(scale=FAST_SCALE, seed=3), [0.05])
        loop = SimulationLoop(machine=small_machine, workload=workload,
                              system=StaticPlacementSystem(), seed=4)
        probs = workload.access_probabilities()
        before = [loop.step().p_true for __ in range(5)]
        version = loop.placement.pages.version
        after = loop.step().p_true  # t = 0.05: the shift fires
        assert workload.access_probabilities() is probs
        assert loop.placement.pages.version == version
        assert after == loop.placement.default_tier_probability(probs)
        assert after != before[-1]

    def test_resize_recomputes(self, small_machine):
        """A page-table version bump without any move (MEMTIS's
        split/coalesce bookkeeping resizes pages) recomputes the split."""
        loop = make_loop(small_machine)
        calls = self.counting_split(loop.placement)
        loop.step()
        pages = loop.placement.pages
        pages.resize_pages(np.array([0]), [pages.sizes_bytes[0]])
        loop.step()
        loop.step()
        assert len(calls) == 2

    def test_override_applies_while_the_split_is_cached(self, small_machine):
        """Memory mode never moves a page, so its placement split stays
        cached, while the split it publishes changes every quantum."""
        system = MemoryModeSystem()
        loop = make_loop(small_machine, system=system)
        calls = self.counting_split(loop.placement)
        published = [system.traffic_split_override()[0]]
        p_true = []
        for __ in range(10):
            p_true.append(loop.step().p_true)
            published.append(system.traffic_split_override()[0])
        assert len(calls) == 1
        assert p_true == published[:-1]
        assert len(set(p_true)) > 2
