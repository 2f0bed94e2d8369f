"""Unit-level tests of the TPP+Colloid per-fault logic (§4.3)."""

import numpy as np

from repro.core.integrate import TppColloidSystem
from repro.memhw.cha import ChaSample
from repro.memhw.topology import paper_testbed
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from repro.tiering.base import QuantumContext
from repro.tracking.feed import AccessFeed
from repro.tracking.hintfaults import FaultEvent


def make_system(n_pages=16, default_pages=8):
    system = TppColloidSystem(scan_fraction_per_quantum=1.0)
    pages = PageArray.uniform(n_pages, 100)
    placement = PlacementState(pages, [100 * n_pages, 100 * n_pages])
    placement.move(np.arange(default_pages), 0)
    placement.move(np.arange(default_pages, n_pages), 1)
    system.attach(placement)
    system.on_configure(paper_testbed(), static_limit_bytes=10_000,
                        quantum_ns=1e7)
    return system, placement


def make_ctx(placement, occupancy, rate, probs=None, request_rate=1.0):
    n = placement.pages.n_pages
    if probs is None:
        probs = np.full(n, 1.0 / n)
    return QuantumContext(
        time_s=0.0,
        quantum_ns=1e7,
        placement=placement,
        cha=ChaSample(np.asarray(occupancy, float),
                      np.asarray(rate, float), 1e7),
        feed=AccessFeed(probs, request_rate, 1e7,
                        np.random.default_rng(0)),
    )


class TestPerFaultEstimates:
    def test_promotes_faulted_alternate_pages_when_default_faster(self):
        system, placement = make_system()
        # Default fast (70 ns), alternate slow (300 ns).
        ctx = make_ctx(placement, occupancy=[70.0, 60.0], rate=[1.0, 0.2])
        # Inject faults directly: a hot alternate page.
        system.tracker.quantum = lambda **kw: [
            FaultEvent(page=10, time_to_fault_ns=5_000.0)
        ]
        decision = system.quantum(ctx)
        moves = dict(zip(decision.plan.page_indices.tolist(),
                         decision.plan.dst_tiers.tolist()))
        assert moves.get(10) == 0

    def test_demotes_faulted_default_pages_when_default_slower(self):
        system, placement = make_system()
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        system.tracker.quantum = lambda **kw: [
            FaultEvent(page=3, time_to_fault_ns=5_000.0)
        ]
        decision = system.quantum(ctx)
        moves = dict(zip(decision.plan.page_indices.tolist(),
                         decision.plan.dst_tiers.tolist()))
        assert moves.get(3) == 1

    def test_estimate_exceeding_dp_skips_page(self):
        """p_hat = 1/(dt*r); a tiny time-to-fault means a scorching page
        whose estimate can exceed the allowed shift."""
        system, placement = make_system()
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        # dt = 1 ns at r = 1.2 req/ns -> estimate min(1, 1/1.2) = 0.83
        # which exceeds any dp < 0.5.
        system.tracker.quantum = lambda **kw: [
            FaultEvent(page=3, time_to_fault_ns=1.0)
        ]
        decision = system.quantum(ctx)
        moves = dict(zip(decision.plan.page_indices.tolist(),
                         decision.plan.dst_tiers.tolist()))
        assert 3 not in moves or moves[3] != 1 or len(decision.plan) == 0

    def test_faults_on_wrong_tier_ignored(self):
        """In demotion mode, faults on alternate-tier pages don't move."""
        system, placement = make_system()
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        system.tracker.quantum = lambda **kw: [
            FaultEvent(page=12, time_to_fault_ns=5_000.0)  # in alternate
        ]
        decision = system.quantum(ctx)
        assert 12 not in decision.plan.page_indices

    def test_balanced_latencies_no_moves(self):
        system, placement = make_system()
        ctx = make_ctx(placement, occupancy=[140.0, 28.0],
                       rate=[1.0, 0.2])  # 140 vs 140: dead band
        system.tracker.quantum = lambda **kw: [
            FaultEvent(page=10, time_to_fault_ns=5_000.0)
        ]
        decision = system.quantum(ctx)
        assert len(decision.plan) == 0
