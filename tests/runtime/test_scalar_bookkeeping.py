"""Per-tier bookkeeping in Python scalars, bit for bit against numpy.

The per-quantum counters, monitors and copy-debt accounting work on
arrays of two or three tiers, where numpy's per-call cost dwarfs the
arithmetic; they now loop over Python floats instead. Each rewrite is
checked here against the numpy formula it replaced, kept as an oracle,
on random and edge-case inputs, comparing bits (signed zeros and NaNs
included) rather than values within a tolerance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.check.invariants import Checker
from repro.core.measurement import LatencyMonitor
from repro.memhw.cha import ChaCounters, ChaSample
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import (
    EquilibriumSolver,
    MultiEquilibrium,
    tier_sum,
)
from repro.memhw.topology import paper_testbed
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from repro.runtime.loop import SimulationLoop
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE
from tests.core.test_multitier import three_tier_machine

# The numpy oracles warn on the infinite edge values (inf * 0); the
# scalar code computes the same NaNs silently.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.1, 1.0, 3.0, 1e300,
         float("inf")]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def values(rng, n, nonnegative=True):
    """``n`` floats spread over many magnitudes, with edge values."""
    out = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n)
    edge = rng.random(n) < 0.2
    out[edge] = rng.choice(EDGES, int(edge.sum()))
    if not nonnegative:
        out *= rng.choice([-1.0, 1.0], n)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tier_sum_matches_numpy(n):
    rng = np.random.default_rng(n)
    for __ in range(2000):
        x = values(rng, n, nonnegative=False)
        assert bits(tier_sum(x.tolist())) == bits(np.sum(x))
    for pair in ([-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0],
                 [np.inf, -np.inf]):
        assert bits(tier_sum(pair)) == bits(np.sum(np.array(pair)))


def former_normalize_split(split, n_cores):
    split_arr = np.clip(np.asarray(split, dtype=float), 0.0, None)
    total = split_arr.sum()
    if n_cores > 0:
        split_arr = split_arr / total
    return split_arr


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("n_cores", [0, 4])
def test_normalize_split_matches_numpy(n, n_cores):
    solver = EquilibriumSolver(three_tier_machine().tiers if n == 3
                               else paper_testbed().tiers)
    group = CoreGroup("app", n_cores, 10.0)
    rng = np.random.default_rng(n + n_cores)
    splits = []
    for __ in range(2000):
        raw = rng.dirichlet(np.ones(n))
        raw[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, -1e-13])
        splits.append(raw)
    splits += [np.array([1.0] + [0.0] * (n - 1)),
               np.array([-0.0] + [1.0] + [0.0] * (n - 2))]
    for split in splits:
        if n_cores and abs(np.clip(split, 0.0, None).sum() - 1.0) > 1e-6:
            continue
        got, values = solver._normalize_split(group, split)
        assert bits(got) == bits(former_normalize_split(split, n_cores))
        assert bits(values) == bits(got)


def equilibrium(rates, latencies):
    return MultiEquilibrium(
        latencies_ns=np.asarray(latencies, dtype=float), apps=(),
        tier_wire_traffic=None,
        tier_read_request_rate=np.asarray(rates, dtype=float),
        utilizations=None, effective_bandwidths=None, iterations=0)


class FormerCha:
    """``ChaCounters`` with numpy arrays, as the oracle."""

    def __init__(self, n, sigma, rng):
        self.n, self.sigma, self.rng = n, sigma, rng
        self.occ, self.arr, self.elapsed = np.zeros(n), np.zeros(n), 0.0

    def observe(self, eq, duration_ns):
        rates = eq.tier_read_request_rate
        self.occ += rates * eq.latencies_ns * duration_ns
        self.arr += rates * duration_ns
        self.elapsed += duration_ns

    def sample_and_reset(self):
        if self.elapsed > 0:
            occupancy, rate = self.occ / self.elapsed, self.arr / self.elapsed
        else:
            occupancy, rate = np.zeros(self.n), np.zeros(self.n)
        if self.sigma > 0:
            occupancy = occupancy * np.exp(
                self.rng.normal(0.0, self.sigma, size=self.n))
            rate = rate * np.exp(self.rng.normal(0.0, self.sigma,
                                                 size=self.n))
        sample = (occupancy, rate, self.elapsed)
        self.occ, self.arr, self.elapsed = (np.zeros(self.n),
                                            np.zeros(self.n), 0.0)
        return sample


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_cha_matches_numpy(n, sigma):
    rng = np.random.default_rng(7)
    cha = ChaCounters(n, noise_sigma=sigma,
                      rng=np.random.default_rng(11))
    oracle = FormerCha(n, sigma, np.random.default_rng(11))
    for __ in range(300):
        for __ in range(int(rng.integers(0, 3))):
            eq = equilibrium(values(rng, n), 100.0 + values(rng, n))
            duration = float(rng.choice([0.0, 1e7, rng.uniform(1, 1e8)]))
            cha.observe(eq, duration)
            oracle.observe(eq, duration)
        sample = cha.sample_and_reset()
        occupancy, rate, elapsed = oracle.sample_and_reset()
        assert bits(sample.occupancy) == bits(occupancy)
        assert bits(sample.rate) == bits(rate)
        assert sample.duration_ns == elapsed


@pytest.mark.parametrize("n", [2, 3])
def test_latency_monitor_matches_numpy(n):
    rng = np.random.default_rng(9)
    unloaded = np.array([80.0, 130.0, 180.0][:n])
    monitor = LatencyMonitor(unloaded, ewma_alpha=0.3)
    occ = rate = None
    for __ in range(500):
        sample = ChaSample(occupancy=values(rng, n), rate=values(rng, n),
                           duration_ns=1e7)
        rate_sample = sample.rate.copy()
        rate_sample[rng.random(n) < 0.2] = 0.5e-9  # below the idle floor
        sample = ChaSample(sample.occupancy, rate_sample, 1e7)
        monitor.update(sample)
        if occ is None:
            occ, rate = sample.occupancy.copy(), sample.rate.copy()
        else:
            occ = (1 - 0.3) * occ + 0.3 * sample.occupancy
            rate = (1 - 0.3) * rate + 0.3 * sample.rate
        expected = unloaded.copy()
        active = rate > 1e-9
        expected[active] = occ[active] / rate[active]
        expected = np.maximum(expected, unloaded)
        assert bits(monitor.latencies_ns()) == bits(expected)
        assert bits(monitor.smoothed_rates) == bits(rate)
        total = float(rate.sum())
        p = 0.0 if total <= 1e-9 else float(rate[0]) / total
        assert bits(monitor.measured_p()) == bits(p)


@pytest.mark.parametrize("n", [2, 3])
def test_measured_p_matches_numpy(n):
    rng = np.random.default_rng(10)
    for __ in range(2000):
        rates = values(rng, n)
        eq = equilibrium(rates, np.ones(n))
        total = float(rates.sum())
        expected = 0.0 if total <= 0 else float(rates[0]) / total
        assert bits(eq.measured_p) == bits(expected)


def former_drain(read_debt, write_debt, rate_limit, quantum_ns):
    if read_debt.sum() + write_debt.sum() <= 0:
        return None, 0
    fraction = min(1.0, rate_limit / max(read_debt.sum(), 1.0))
    charged_read = read_debt * fraction
    charged_write = write_debt * fraction
    read_debt -= charged_read
    write_debt -= charged_write
    streams = []
    for t in range(len(charged_read)):
        tier_streams = []
        if charged_read[t] > 0:
            tier_streams.append((charged_read[t] / quantum_ns, 0.3, 1.0))
        if charged_write[t] > 0:
            tier_streams.append((charged_write[t] / quantum_ns, 0.3, 0.0))
        streams.append(tuple(tier_streams))
    return streams, int(charged_read.sum())


@pytest.mark.parametrize("n", [2, 3])
def test_copy_debt_matches_numpy(n, small_machine):
    machine = three_tier_machine() if n == 3 else small_machine
    loop = SimulationLoop(machine=machine,
                          workload=GupsWorkload(scale=FAST_SCALE, seed=4),
                          system=StaticPlacementSystem())
    tenant = loop._tenants[0]
    read_debt, write_debt = np.zeros(n), np.zeros(n)
    rng = np.random.default_rng(12)
    for __ in range(1000):
        if rng.random() < 0.4:
            moved_read = rng.integers(0, 3, n) * rng.choice(
                [4096, 2 ** 21, 12345], n)
            moved_write = rng.permutation(moved_read)
            read_debt += moved_read
            write_debt += moved_write
            tenant.add_copy_debt(SimpleNamespace(
                read_bytes_per_tier=moved_read,
                write_bytes_per_tier=moved_write))
        limit = int(rng.choice([4096, 8 * 2 ** 20, 25 * 2 ** 20]))
        expected = former_drain(read_debt, write_debt, limit, 1e7)
        got = tenant.drain_copy_debt(limit, 1e7)
        assert got == expected
        assert bits(tenant.copy_read_debt) == bits(read_debt)
        assert bits(tenant.copy_write_debt) == bits(write_debt)


def former_snapshot(placement):
    tier = placement.pages.tier
    placed = tier >= 0
    placed_tier = tier[placed]
    placed_sizes = placement.pages.sizes_bytes[placed]
    n_tiers = placement.n_tiers
    byte_sums = np.bincount(placed_tier, weights=placed_sizes.astype(float),
                            minlength=n_tiers).astype(np.int64)
    return {
        "n_pages": int(tier.shape[0]),
        "placed_pages": int(placed_tier.shape[0]),
        "tier_bytes": byte_sums[:n_tiers],
        "total_bytes": int(placed_sizes.sum()),
    }


@pytest.mark.parametrize("n_tiers", [2, 3])
@pytest.mark.parametrize("page_sizes", [[4096, 2 ** 21], [2 ** 21]],
                         ids=["mixed", "uniform"])
def test_placement_snapshot_matches_former(n_tiers, page_sizes):
    rng = np.random.default_rng(13)
    for __ in range(50):
        sizes = rng.choice(page_sizes, 500).astype(np.int64)
        home = rng.integers(-1, n_tiers, 500)
        placement = PlacementState(PageArray(sizes),
                                   [int(sizes.sum())] * n_tiers)
        for t in range(n_tiers):
            placement.move(np.nonzero(home == t)[0], t)
        got = Checker().placement_snapshot(placement)
        expected = former_snapshot(placement)
        assert got.keys() == expected.keys()
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])
