"""A quantum's bookkeeping, each piece against the computation it
replaced, bit for bit: the two-tier split from one mask and its
complement, the tail statistics from the tail rows only, Colloid's
balance inputs from the monitor's floats, and split normalization once
per split value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import ColloidController
from repro.core.integrate import HememColloidSystem
from repro.core.measurement import LatencyMonitor
from repro.core.shift import ShiftComputer
from repro.exec.execute import _tail_stats
from repro.experiments.common import scaled_machine
from repro.memhw.cha import ChaSample
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed
from repro.pages.pagestate import UNPLACED, PageArray
from repro.pages.placement import PlacementState
from repro.runtime.loop import SimulationLoop
from repro.runtime.metrics import MetricsRecorder, QuantumRecord
from repro.tracking.cooling import CoolingCounters
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def former_tier_probabilities(placement, probs):
    split = np.zeros(placement.n_tiers)
    tier = placement.pages.tier
    for t in range(placement.n_tiers):
        split[t] = probs[tier == t].sum()
    return split


@pytest.mark.parametrize("n_tiers", [2, 3])
@pytest.mark.parametrize("unplaced", [False, True])
def test_tier_split_matches_boolean_indexing(n_tiers, unplaced):
    rng = np.random.default_rng(n_tiers + 2 * unplaced)
    n = 500
    pages = PageArray(rng.choice([1, 2, 4], n))
    placement = PlacementState(pages, [10**6] * n_tiers)
    for __ in range(20):
        tiers = rng.integers(0, n_tiers, n)
        if unplaced:
            tiers[rng.random(n) < 0.1] = UNPLACED
        for t in (UNPLACED, *range(n_tiers)):
            pages.set_tier(np.nonzero(tiers == t)[0], t)
        placement._recount()
        probs = rng.random(n) * 10.0 ** rng.integers(-9, 0, n)
        if unplaced:
            probs[tiers == UNPLACED] = 0.0
        probs /= probs.sum()
        assert (bits(placement.tier_probabilities(probs))
                == bits(former_tier_probabilities(placement, probs)))


def former_tail_stats(metrics):
    tail = max(1, len(metrics) // 4)
    latencies = metrics.latencies_ns[-tail:].mean(axis=0)
    bandwidth = metrics.app_tier_bandwidth[-tail:].mean(axis=0)
    total = float(bandwidth.sum())
    share = float(bandwidth[0]) / total if total else 0.0
    return tuple(float(x) for x in latencies), share


@pytest.mark.parametrize("n_records", [1, 3, 4, 401, 2000])
def test_tail_stats_stack_only_the_tail(n_records):
    rng = np.random.default_rng(n_records)
    metrics = MetricsRecorder()
    for i in range(n_records):
        metrics.record(QuantumRecord(
            time_s=i * 0.01, throughput=float(rng.random()),
            latencies_ns=rng.random(2) * 300.0, p_true=0.5,
            p_measured=0.5, app_tier_bandwidth=rng.random(2) * 50.0,
            migration_bytes=0, antagonist_intensity=1))
    got = _tail_stats(metrics)
    want = former_tail_stats(metrics)
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])


@pytest.mark.parametrize("n", [2, 3])
def test_balance_is_the_former_array_reading(n):
    rng = np.random.default_rng(n)
    monitor = LatencyMonitor([80.0, 130.0, 180.0][:n], ewma_alpha=0.3)
    for step in range(400):
        if step:
            occupancy = rng.random(n) * 10.0 ** rng.integers(-3, 3, n)
            rate = rng.random(n) * 10.0 ** rng.integers(-10, 0, n)
            monitor.update(ChaSample(occupancy, rate, 1e7))
        latencies = monitor.latencies_ns()
        expected = (float(latencies[0]), float(latencies[1:].min()),
                    monitor.measured_p(),
                    float(monitor.smoothed_rates.sum()))
        assert bits(monitor.balance()) == bits(expected)
        assert all(monitor.smoothed_rate(t) == monitor.smoothed_rates[t]
                   for t in range(n))


def test_hemem_colloid_estimates_only_when_used(monkeypatch):
    calls = []
    estimate = CoolingCounters.access_probabilities

    def counted(self):
        calls.append(1)
        return estimate(self)

    monkeypatch.setattr(CoolingCounters, "access_probabilities", counted)
    loop = SimulationLoop(
        machine=scaled_machine(FAST_SCALE),
        workload=GupsWorkload(scale=FAST_SCALE, seed=5),
        system=HememColloidSystem(), contention=0, seed=5)
    decide = ColloidController.decide
    reads = []

    def record(self, ctx, find, coldness, period_ns=None):
        before = len(calls)
        decision = decide(self, ctx, find, coldness, period_ns)
        reads.append((decision.mode, len(calls) - before))
        return decision

    monkeypatch.setattr(ColloidController, "decide", record)
    loop.run(1.0)
    # A finder search and its make-room share one computation.
    assert reads and all(n <= 1 for __, n in reads)
    assert any(mode != "hold" and n == 1 for mode, n in reads)
    # A holding decision computes none.
    monkeypatch.setattr(ShiftComputer, "compute", lambda *args: 0.0)
    del reads[:]
    loop.run(1.0)
    assert reads and all(mode == "hold" and n == 0 for mode, n in reads)


def test_equal_splits_are_normalized_once(monkeypatch):
    solver = EquilibriumSolver(paper_testbed().tiers, use_cache=True)
    app = CoreGroup("app", 15, 7.0)
    normalized = []
    normalize = EquilibriumSolver._normalize_split

    def counted(self, group, split):
        normalized.append(1)
        return normalize(self, group, split)

    monkeypatch.setattr(EquilibriumSolver, "_normalize_split", counted)
    for __ in range(3):
        split = np.array([0.7, 0.3])
        split.flags.writeable = False
        equilibrium = solver.solve(app, split)
    assert len(normalized) == 1
    assert not equilibrium.apps[0].split.flags.writeable
    solver.solve(app, [0.7, 0.3])  # a list is read afresh
    assert len(normalized) == 2
    assert solver.cache_hits == 3
