"""Tests for capacity-checked placement state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first


def make_placement(n_pages=10, page_bytes=100,
                   capacities=(500, 1000)) -> PlacementState:
    pages = PageArray.uniform(n_pages, page_bytes)
    return PlacementState(pages, list(capacities))


class TestConstruction:
    def test_basics(self):
        placement = make_placement()
        assert placement.n_tiers == 2
        assert placement.capacity_bytes(0) == 500
        assert placement.free_bytes(0) == 500
        assert placement.used_bytes(1) == 0

    def test_rejects_oversized_working_set(self):
        pages = PageArray.uniform(100, 100)
        with pytest.raises(CapacityError):
            PlacementState(pages, [500, 1000])

    def test_rejects_bad_capacities(self):
        pages = PageArray.uniform(2, 100)
        # Zero on one tier is a valid colocation grant; negative or
        # all-zero capacities are not.
        PlacementState(pages, [0, 1000])
        with pytest.raises(ConfigurationError):
            PlacementState(pages, [-1, 1000])
        with pytest.raises(ConfigurationError):
            PlacementState(pages, [0, 0])


class TestMove:
    def test_move_updates_usage(self):
        placement = make_placement()
        placement.move(np.array([0, 1, 2]), 0)
        assert placement.used_bytes(0) == 300
        placement.move(np.array([0]), 1)
        assert placement.used_bytes(0) == 200
        assert placement.used_bytes(1) == 100

    def test_move_rejects_overflow_atomically(self):
        placement = make_placement()
        placement.move(np.arange(5), 0)  # 500/500 used
        with pytest.raises(CapacityError):
            placement.move(np.array([5]), 0)
        assert placement.used_bytes(0) == 500
        assert placement.pages.tier[5] == -1  # untouched

    def test_move_same_tier_is_noop(self):
        placement = make_placement()
        placement.move(np.array([0]), 0)
        placement.move(np.array([0]), 0)
        assert placement.used_bytes(0) == 100

    def test_move_empty_batch(self):
        placement = make_placement()
        placement.move(np.empty(0, dtype=np.int64), 0)
        assert placement.used_bytes(0) == 0

    def test_move_rejects_bad_tier(self):
        placement = make_placement()
        with pytest.raises(ConfigurationError):
            placement.move(np.array([0]), 7)

    def test_fits_predicate(self):
        placement = make_placement()
        assert placement.fits(np.arange(5), 0)
        assert not placement.fits(np.arange(6), 0)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=20),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=50, deadline=None)
    def test_usage_always_consistent(self, moves, dst):
        """Capacity accounting stays consistent with the page table under
        arbitrary move sequences."""
        placement = make_placement()
        for page in moves:
            try:
                placement.move(np.array([page]), dst)
            except CapacityError:
                pass
            dst = 1 - dst
        for tier in range(2):
            assert placement.used_bytes(tier) == (
                placement.pages.bytes_in_tier(tier)
            )
            assert placement.used_bytes(tier) <= placement.capacity_bytes(
                tier
            )


#: Mixed page sizes for the one-page move oracle; pages 10 and 11 stay
#: unplaced until a move places them.
MIXED_SIZES = [100, 300, 100, 200, 100, 300, 200, 100, 100, 300, 200, 100]


def mixed_placement() -> PlacementState:
    placement = PlacementState(PageArray(MIXED_SIZES), [800, 700, 1200])
    placement.move(np.arange(0, 5), 0)
    placement.move(np.arange(5, 8), 1)
    placement.move(np.arange(8, 10), 2)
    return placement


def outcome(action):
    try:
        action()
    except (CapacityError, ConfigurationError) as error:
        return type(error)
    return None


class TestMovePage:
    """``move_page`` is ``move([page])`` in Python scalars, checked
    against ``move`` as the oracle."""

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_move(self, moves):
        oracle = mixed_placement()
        scalar = mixed_placement()
        for page, dst in moves:
            expected = outcome(
                lambda: oracle.move(np.array([page], dtype=np.int64), dst))
            got = outcome(lambda: scalar.move_page(page, dst))
            assert got == expected
            for tier in range(3):
                assert scalar.used_bytes(tier) == oracle.used_bytes(tier)
            np.testing.assert_array_equal(scalar.pages.tier,
                                          oracle.pages.tier)
            assert scalar.pages.version == oracle.pages.version
        for tier in range(3):
            assert scalar.used_bytes(tier) == (
                scalar.pages.bytes_in_tier(tier))

    def test_capacity_error_leaves_state_unchanged(self):
        placement = mixed_placement()  # tier 0 is full
        version = placement.pages.version
        tiers = placement.pages.tier.copy()
        used = [placement.used_bytes(t) for t in range(3)]
        with pytest.raises(CapacityError):
            placement.move_page(5, 0)
        assert placement.pages.version == version
        np.testing.assert_array_equal(placement.pages.tier, tiers)
        assert [placement.used_bytes(t) for t in range(3)] == used

    def test_unplaced_source_frees_nothing(self):
        placement = mixed_placement()
        used = [placement.used_bytes(t) for t in range(3)]
        placement.move_page(11, 2)
        assert placement.pages.tier[11] == 2
        assert [placement.used_bytes(t) for t in range(3)] == [
            used[0], used[1], used[2] + 100]

    def test_same_tier_is_a_noop_without_a_version_bump(self):
        placement = mixed_placement()
        version = placement.pages.version
        placement.move_page(0, 0)
        assert placement.pages.version == version

    def test_rejects_bad_tier(self):
        placement = mixed_placement()
        with pytest.raises(ConfigurationError):
            placement.move_page(0, 3)
        with pytest.raises(ConfigurationError):
            placement.move_page(0, -1)


class TestProbabilities:
    def test_default_tier_probability(self):
        placement = make_placement()
        placement.move(np.array([0, 1]), 0)
        placement.move(np.arange(2, 10), 1)
        probs = np.full(10, 0.1)
        assert placement.default_tier_probability(probs) == pytest.approx(
            0.2
        )

    def test_tier_probabilities_sum_to_one(self):
        placement = make_placement()
        placement.move(np.arange(0, 4), 0)
        placement.move(np.arange(4, 10), 1)
        probs = np.random.default_rng(0).dirichlet(np.ones(10))
        split = placement.tier_probabilities(probs)
        assert split.sum() == pytest.approx(1.0)

    def test_unplaced_accessed_pages_rejected(self):
        placement = make_placement()
        placement.move(np.arange(0, 4), 0)  # pages 4..9 unplaced
        probs = np.full(10, 0.1)
        with pytest.raises(ConfigurationError):
            placement.tier_probabilities(probs)

    def test_length_mismatch_rejected(self):
        placement = make_placement()
        with pytest.raises(ConfigurationError):
            placement.default_tier_probability(np.full(5, 0.2))


class TestFillDefaultFirst:
    def test_packs_default_then_overflows(self):
        placement = make_placement()
        fill_default_first(placement)
        assert placement.used_bytes(0) == 500
        assert placement.used_bytes(1) == 500
        assert list(placement.pages.pages_in_tier(0)) == [0, 1, 2, 3, 4]

    def test_custom_order(self):
        placement = make_placement()
        fill_default_first(placement, order=np.arange(9, -1, -1))
        assert list(placement.pages.pages_in_tier(0)) == [5, 6, 7, 8, 9]

    def test_raises_when_nothing_fits(self):
        pages = PageArray.uniform(10, 100)
        placement = PlacementState(pages, [500, 500])
        fill_default_first(placement)  # exactly fits
        assert placement.free_bytes(0) == 0
        assert placement.free_bytes(1) == 0


class TestCapacityArbiter:
    def make(self, capacities=(1000, 2000)):
        from repro.pages.placement import CapacityArbiter

        return CapacityArbiter(list(capacities))

    def test_grants_sum_to_tier_capacity(self):
        grants = self.make().grant([600, 900])
        for t, capacity in enumerate((1000, 2000)):
            assert sum(g[t] for g in grants) == capacity

    def test_every_tenant_covers_its_working_set(self):
        working_sets = [600, 900, 1200]
        grants = self.make().grant(working_sets)
        for grant, ws in zip(grants, working_sets):
            assert sum(grant) >= ws

    def test_proportional_to_working_sets_by_default(self):
        grants = self.make().grant([500, 1500])
        # 1:3 footprint ratio carries to each tier's split.
        assert grants[0][0] == 250 and grants[1][0] == 750
        assert grants[0][1] == 500 and grants[1][1] == 1500

    def test_explicit_weights_override_footprint(self):
        grants = self.make().grant([100, 100], weights=[3.0, 1.0])
        assert grants[0][0] == 750 and grants[1][0] == 250

    def test_all_zero_weights_split_equally(self):
        grants = self.make().grant([100, 100], weights=[0.0, 0.0])
        assert grants[0] == grants[1]

    def test_shortfall_covered_from_alternate_tier_first(self):
        # Tenant 0's proportional total (10% of 3000 = 300) is below its
        # 500 B working set; the donor's alternate-tier grant shrinks
        # while the default tier keeps the proportional split.
        grants = self.make().grant([500, 2500], weights=[1.0, 9.0])
        assert sum(grants[0]) >= 500
        assert grants[0][0] == 100  # default split untouched
        assert sum(g[0] for g in grants) == 1000
        assert sum(g[1] for g in grants) == 2000

    def test_largest_remainder_is_deterministic(self):
        arbiter = self.make(capacities=(1000, 1000))
        a = arbiter.grant([333, 333, 333])
        b = arbiter.grant([333, 333, 333])
        assert a == b
        for t in range(2):
            assert sum(g[t] for g in a) == 1000

    def test_infeasible_demand_raises(self):
        with pytest.raises(CapacityError, match="exceed total"):
            self.make().grant([2000, 1500])

    def test_bad_inputs_rejected(self):
        from repro.pages.placement import CapacityArbiter

        with pytest.raises(ConfigurationError):
            CapacityArbiter([])
        with pytest.raises(ConfigurationError):
            CapacityArbiter([-1, 10])
        arbiter = self.make()
        with pytest.raises(ConfigurationError):
            arbiter.grant([])
        with pytest.raises(ConfigurationError):
            arbiter.grant([-5, 10])
        with pytest.raises(ConfigurationError):
            arbiter.grant([10, 10], weights=[1.0])
        with pytest.raises(ConfigurationError):
            arbiter.grant([10, 10], weights=[1.0, float("nan")])
