"""Flow-matrix conservation: the hypothesis property over arbitrary
move batches, and the ``check_placement_flows`` invariant against the
real executor's applied-move record."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.invariants import Checker
from repro.errors import InvariantViolation
from repro.obs.placement import flow_matrix
from repro.pages.migration import (
    MigrationExecutor,
    MigrationPlan,
    MigrationResult,
)
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first

PAGE = 100
QUANTUM_NS = 1e7


def make_state(n_pages=10, capacities=(500, 1000)):
    pages = PageArray.uniform(n_pages, PAGE)
    placement = PlacementState(pages, list(capacities))
    fill_default_first(placement)
    return placement


moves = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(1, 1 << 20)),
    max_size=50,
)


class TestFlowMatrixProperty:
    @given(moves=moves)
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, moves):
        """Total bytes are conserved, and row/column sums are exactly
        the per-tier outbound/inbound byte totals of the move list."""
        src = np.array([m[0] for m in moves], dtype=np.int64)
        dst = np.array([m[1] for m in moves], dtype=np.int64)
        sizes = np.array([m[2] for m in moves], dtype=np.int64)
        flows = flow_matrix(4, src, dst, sizes)
        assert flows.sum() == sizes.sum()
        for t in range(4):
            assert flows[t].sum() == sizes[src == t].sum()
            assert flows[:, t].sum() == sizes[dst == t].sum()

    @given(moves=moves, seed=st.integers(0, 1 << 16))
    @settings(max_examples=50, deadline=None)
    def test_order_invariant(self, moves, seed):
        src = np.array([m[0] for m in moves], dtype=np.int64)
        dst = np.array([m[1] for m in moves], dtype=np.int64)
        sizes = np.array([m[2] for m in moves], dtype=np.int64)
        order = np.random.default_rng(seed).permutation(len(moves))
        a = flow_matrix(4, src, dst, sizes)
        b = flow_matrix(4, src[order], dst[order], sizes[order])
        assert (a == b).all()


class TestCheckPlacementFlows:
    def run_batch(self, plan_pages, dst):
        placement = make_state()
        executor = MigrationExecutor(placement,
                                     limit_bytes_per_quantum=10_000)
        checker = Checker()
        before = checker.placement_snapshot(placement)
        result = executor.execute(
            MigrationPlan(np.asarray(plan_pages), np.asarray(dst)),
            QUANTUM_NS,
        )
        return placement, checker, before, result

    def test_real_executor_record_passes(self):
        placement, checker, before, result = self.run_batch(
            [0, 1, 7], [1, 1, 0]
        )
        checker.check_placement_flows(0.0, placement, result, before)
        assert not checker.violations

    def test_empty_plan_passes(self):
        placement, checker, before, result = self.run_batch([], [])
        checker.check_placement_flows(0.0, placement, result, before)
        assert not checker.violations

    def test_pre_record_results_are_skipped(self):
        # Results without the applied-move record (older callers, or
        # hand-built results) are not checkable and must not violate.
        placement = make_state()
        checker = Checker()
        before = checker.placement_snapshot(placement)
        result = MigrationResult(
            bytes_moved=0, moves_applied=0, moves_skipped=0,
            moves_deferred=0,
            read_bytes_per_tier=np.zeros(2, dtype=np.int64),
            write_bytes_per_tier=np.zeros(2, dtype=np.int64),
        )
        checker.check_placement_flows(0.0, placement, result, before)
        assert not checker.violations

    def test_tampered_record_violates(self):
        placement, checker, before, result = self.run_batch([0], [1])
        forged = MigrationResult(
            bytes_moved=result.bytes_moved,
            moves_applied=result.moves_applied,
            moves_skipped=result.moves_skipped,
            moves_deferred=result.moves_deferred,
            read_bytes_per_tier=result.read_bytes_per_tier,
            write_bytes_per_tier=result.write_bytes_per_tier,
            moved_pages=result.moved_pages,
            moved_src_tiers=result.moved_dst_tiers,  # swapped
            moved_dst_tiers=result.moved_src_tiers,
        )
        with pytest.raises(InvariantViolation):
            checker.check_placement_flows(0.0, placement, forged, before)

    def test_executor_record_matches_traffic_arrays(self):
        # The record is the ground truth the observer's flow matrix is
        # built from; its implied flows must equal the executor's own
        # copy-traffic accounting byte for byte.
        placement, checker, before, result = self.run_batch(
            [0, 1, 2, 8, 9], [1, 1, 1, 0, 0]
        )
        sizes = placement.pages.sizes_bytes
        flows = flow_matrix(
            2, result.moved_src_tiers, result.moved_dst_tiers,
            sizes[result.moved_pages],
        )
        assert (flows.sum(axis=1)
                == result.read_bytes_per_tier).all()
        assert (flows.sum(axis=0)
                == result.write_bytes_per_tier).all()
