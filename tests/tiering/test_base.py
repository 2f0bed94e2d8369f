"""Tests for the tiering base interface and the pack-hottest policy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pages.migration import MigrationPlan
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from repro.tiering.base import QuantumDecision, pack_hottest_plan
from repro.tiering.static import StaticPlacementSystem


def make_placement(tiers, page_bytes=100, capacities=None):
    pages = PageArray.uniform(len(tiers), page_bytes)
    if capacities is None:
        capacities = [page_bytes * len(tiers)] * 2
    placement = PlacementState(pages, capacities)
    arr = np.asarray(tiers)
    for t in (0, 1):
        placement.move(np.nonzero(arr == t)[0], t)
    return placement


class TestPackHottestPlan:
    def test_promotes_hot_alternate_pages_hottest_first(self):
        placement = make_placement([0, 1, 1, 1])
        hotness = np.array([1.0, 5.0, 9.0, 0.1])
        hot = hotness >= 5.0
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=10**6)
        promoted = plan.page_indices[plan.dst_tiers == 0]
        assert list(promoted) == [2, 1]

    def test_demotes_coldest_when_capacity_needed(self):
        # Default tier full with capacity 200 (pages 0, 1).
        placement = make_placement([0, 0, 1, 1], capacities=[200, 400])
        hotness = np.array([0.5, 0.1, 9.0, 8.0])
        hot = hotness >= 8.0
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=10**6)
        demoted = plan.page_indices[plan.dst_tiers == 1]
        # Coldest default page (1) demoted first.
        assert list(demoted)[0] == 1
        # Demotions precede promotions in the plan.
        first_promo = np.argmax(plan.dst_tiers == 0)
        assert (plan.dst_tiers[:first_promo] == 1).all()

    def test_hot_default_pages_never_demoted(self):
        placement = make_placement([0, 0, 1, 1], capacities=[200, 400])
        hotness = np.array([9.0, 8.5, 8.0, 7.0])
        hot = hotness >= 7.0
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=10**6)
        demoted = set(plan.page_indices[plan.dst_tiers == 1].tolist())
        assert 0 not in demoted and 1 not in demoted

    def test_max_bytes_caps_promotions(self):
        placement = make_placement([1, 1, 1, 1])
        hotness = np.array([4.0, 3.0, 2.0, 1.0])
        hot = np.ones(4, dtype=bool)
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=250)
        assert len(plan.page_indices[plan.dst_tiers == 0]) == 2

    def test_no_hot_pages_no_plan(self):
        placement = make_placement([0, 1])
        plan = pack_hottest_plan(
            placement, np.zeros(2), np.zeros(2, dtype=bool),
            max_bytes=10**6,
        )
        assert len(plan) == 0

    def test_free_slack_triggers_extra_demotion(self):
        placement = make_placement([0, 0, 1, 1], capacities=[200, 400])
        hotness = np.array([1.0, 2.0, 0.0, 0.0])
        hot = np.zeros(4, dtype=bool)
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=10**6,
                                 free_slack_bytes=100)
        demoted = plan.page_indices[plan.dst_tiers == 1]
        assert len(demoted) >= 1
        assert demoted[0] == 0  # coldest first


class TestTieringSystemBase:
    def test_idle_decision(self):
        decision = QuantumDecision.idle()
        assert len(decision.plan) == 0
        assert decision.budget_bytes is None

    def test_static_system_never_migrates(self):
        system = StaticPlacementSystem()
        placement = make_placement([0, 1])
        system.attach(placement)
        decision = system.quantum(None)
        assert len(decision.plan) == 0

    def test_cpu_work_accounting(self):
        system = StaticPlacementSystem()
        system.account("things", 3)
        system.account("things", 2)
        assert system.cpu_work == {"things": 5}

    def test_throughput_scale_default(self):
        assert StaticPlacementSystem().throughput_scale() == 1.0


class TestPackHottestDeterminism:
    """Tie-breaking is pinned: equal-hotness pages are taken in page-
    index order (stable sort), so plans are reproducible bit-for-bit."""

    def test_equal_hotness_promotions_break_ties_by_index(self):
        placement = make_placement([0, 1, 1, 1, 1])
        hotness = np.array([0.0, 5.0, 5.0, 5.0, 5.0])
        hot = hotness >= 5.0
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=250)
        promoted = plan.page_indices[plan.dst_tiers == 0]
        assert list(promoted) == [1, 2]

    def test_equal_coldness_demotions_break_ties_by_index(self):
        placement = make_placement([0, 0, 0, 1, 1],
                                   capacities=[300, 500])
        hotness = np.array([1.0, 1.0, 1.0, 9.0, 9.0])
        hot = hotness >= 9.0
        plan = pack_hottest_plan(placement, hotness, hot, max_bytes=10**6)
        demoted = plan.page_indices[plan.dst_tiers == 1]
        assert list(demoted) == sorted(demoted)
        assert demoted[0] == 0

    def test_repeated_calls_produce_identical_plans(self):
        rng = np.random.default_rng(3)
        # Many duplicated hotness values to stress tie handling.
        hotness = rng.integers(0, 4, size=64).astype(float)
        hot = hotness >= 2.0
        tiers = rng.integers(0, 2, size=64)
        plans = []
        for _ in range(3):
            placement = make_placement(list(tiers),
                                       capacities=[4000, 4000])
            plans.append(pack_hottest_plan(placement, hotness, hot,
                                           max_bytes=1500))
        for plan in plans[1:]:
            np.testing.assert_array_equal(plan.page_indices,
                                          plans[0].page_indices)
            np.testing.assert_array_equal(plan.dst_tiers,
                                          plans[0].dst_tiers)


def _full_sort_pack_hottest_plan(
    placement, hotness, hot_mask, max_bytes, free_slack_bytes=0,
):
    """The pack-hottest policy as it was built before plans were ranked
    lazily (every candidate stable-sorted), kept verbatim as the oracle."""
    pages = placement.pages
    tier = pages.tier
    sizes = pages.sizes_bytes

    promo_candidates = np.nonzero(hot_mask & (tier != 0))[0]
    if promo_candidates.size:
        promo_order = promo_candidates[
            np.argsort(-hotness[promo_candidates], kind="stable")
        ]
        promo_cum = np.cumsum(sizes[promo_order])
        n_promo = int(np.searchsorted(promo_cum, max_bytes, side="right"))
        promo_order = promo_order[:n_promo]
        promo_bytes = int(sizes[promo_order].sum())
    else:
        promo_order = promo_candidates
        promo_bytes = 0

    need = promo_bytes + free_slack_bytes - placement.free_bytes(0)
    demo_order = np.empty(0, dtype=np.int64)
    if need > 0:
        demo_candidates = np.nonzero(~hot_mask & (tier == 0))[0]
        if demo_candidates.size:
            demo_order = demo_candidates[
                np.argsort(hotness[demo_candidates], kind="stable")
            ]
            demo_cum = np.cumsum(sizes[demo_order])
            n_demo = int(np.searchsorted(demo_cum, need, side="left")) + 1
            demo_order = demo_order[:min(n_demo, demo_order.size)]

    plan_pages = np.concatenate([demo_order, promo_order])
    plan_dst = np.concatenate([
        np.ones(len(demo_order), dtype=np.int64),
        np.zeros(len(promo_order), dtype=np.int64),
    ])
    return MigrationPlan(plan_pages, plan_dst)


@st.composite
def _pack_inputs(draw):
    """A placement, hotness and budgets; sizes in units of 100 B, pages
    on both sides of the top-k small-n cutoff."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=40),
                       st.integers(min_value=1500, max_value=4000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sizes = np.full(n, 200, dtype=np.int64)
    else:
        sizes = rng.choice([100, 200, 500], n).astype(np.int64)
    tiers = rng.integers(0, 2, n)
    n_levels = draw(st.sampled_from([2, 5, 1000]))  # tie-heavy or not
    hotness = rng.integers(0, n_levels, n).astype(float)
    hot_mask = hotness >= draw(st.integers(0, n_levels))
    free0 = draw(st.sampled_from([0, 100, 300, 1000, 10**5]))
    used0 = int(sizes[tiers == 0].sum())
    pages = PageArray(sizes)
    placement = PlacementState(pages, [used0 + free0, int(sizes.sum())])
    for t in (0, 1):
        placement.move(np.nonzero(tiers == t)[0], t)
    # Multiples of 100 B land cumulative sizes exactly on the cap.
    max_bytes = draw(st.one_of(
        st.just(2**62), st.just(0),
        st.integers(min_value=1, max_value=1000).map(lambda x: 100 * x),
        st.integers(min_value=1, max_value=10**5)))
    slack = draw(st.sampled_from([0, 0, 300, 5000]))
    return placement, hotness, hot_mask, max_bytes, slack


class TestPackHottestMatchesFullSort:
    @given(inputs=_pack_inputs())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_same_plan_and_heads_as_the_full_sort(self, inputs):
        placement, hotness, hot_mask, max_bytes, slack = inputs
        expected = _full_sort_pack_hottest_plan(
            placement, hotness, hot_mask, max_bytes, slack)

        def build():
            return pack_hottest_plan(placement, hotness, hot_mask,
                                     max_bytes, free_slack_bytes=slack)

        n = len(expected)
        assert len(build()) == n
        for m in sorted({0, 1, 3, 7, n}):
            head_pages, head_dsts = build().head(m)
            np.testing.assert_array_equal(head_pages,
                                          expected.page_indices[:m])
            np.testing.assert_array_equal(head_dsts,
                                          expected.dst_tiers[:m])
        plan = build()
        np.testing.assert_array_equal(plan.page_indices,
                                      expected.page_indices)
        np.testing.assert_array_equal(plan.dst_tiers, expected.dst_tiers)
