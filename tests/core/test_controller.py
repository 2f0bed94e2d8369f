"""Tests for the Algorithm 1 controller."""

import numpy as np
import pytest

from repro.core.controller import (
    ColloidController,
    ColloidDecision,
    interleave_plans,
)
from repro.core.measurement import LatencyMonitor
from repro.core.shift import ShiftComputer
from repro.errors import ConfigurationError
from repro.memhw.cha import ChaSample
from repro.pages.migration import MigrationPlan
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState
from repro.tiering.base import QuantumContext


def make_controller(static_limit=10**6):
    monitor = LatencyMonitor([65.0, 130.0], ewma_alpha=1.0)
    shift = ShiftComputer(delta=0.05, epsilon=0.01)
    return ColloidController(monitor, shift, static_limit)


def make_ctx(placement, occupancy, rate):
    sample = ChaSample(
        occupancy=np.asarray(occupancy, dtype=float),
        rate=np.asarray(rate, dtype=float),
        duration_ns=1e7,
    )
    return QuantumContext(
        time_s=0.0, quantum_ns=1e7, placement=placement, cha=sample,
        feed=None,
    )


def make_placement(tiers, page_bytes=100):
    pages = PageArray.uniform(len(tiers), page_bytes)
    placement = PlacementState(
        pages, [page_bytes * len(tiers)] * 2
    )
    arr = np.asarray(tiers)
    for t in (0, 1):
        placement.move(np.nonzero(arr == t)[0], t)
    return placement


def take_all_finder(pages_to_return):
    def find(src_tier, dp, budget):
        return np.asarray(pages_to_return, dtype=np.int64)
    return find


class TestInterleave:
    def test_alternates_moves(self):
        a = MigrationPlan(np.array([1, 2]), np.array([1, 1]))
        b = MigrationPlan(np.array([3, 4]), np.array([0, 0]))
        merged = interleave_plans(a, b)
        assert list(merged.page_indices) == [1, 3, 2, 4]
        assert list(merged.dst_tiers) == [1, 0, 1, 0]

    def test_uneven_lengths(self):
        a = MigrationPlan(np.array([1]), np.array([1]))
        b = MigrationPlan(np.array([3, 4, 5]), np.array([0, 0, 0]))
        merged = interleave_plans(a, b)
        assert list(merged.page_indices) == [1, 3, 4, 5]

    def test_empty_sides(self):
        a = MigrationPlan.empty()
        b = MigrationPlan(np.array([7]), np.array([0]))
        assert list(interleave_plans(a, b).page_indices) == [7]
        assert list(interleave_plans(b, a).page_indices) == [7]


class TestDecide:
    def test_balanced_latencies_hold(self):
        controller = make_controller()
        placement = make_placement([0, 0, 1, 1])
        ctx = make_ctx(placement, occupancy=[100.0, 20.4],
                       rate=[1.0, 0.2])  # 100 vs 102 ns: inside delta band
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([]), coldness=np.full(4, 0.25)
        )
        assert decision.mode == "hold"
        assert len(decision.plan) == 0

    def test_demotion_mode_when_default_slower(self):
        controller = make_controller()
        placement = make_placement([0, 0, 1, 1])
        ctx = make_ctx(placement, occupancy=[300.0, 28.0],
                       rate=[1.0, 0.2])  # 300 vs 140
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([0]), coldness=np.full(4, 0.25)
        )
        assert decision.mode == "demotion"
        assert list(decision.plan.dst_tiers) == [1]

    def test_promotion_mode_when_default_faster(self):
        controller = make_controller()
        placement = make_placement([0, 1, 1, 1])
        ctx = make_ctx(placement, occupancy=[70.0, 60.0],
                       rate=[1.0, 0.2])  # 70 vs 300
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([1]), coldness=np.full(4, 0.25)
        )
        assert decision.mode == "promotion"
        assert 1 in decision.plan.page_indices

    def test_promotion_into_full_tier_adds_make_room_demotions(self):
        controller = make_controller()
        # Default tier full: pages 0,1 in tier0 with capacity 200.
        pages = PageArray.uniform(4, 100)
        placement = PlacementState(pages, [200, 400])
        placement.move(np.array([0, 1]), 0)
        placement.move(np.array([2, 3]), 1)
        ctx = make_ctx(placement, occupancy=[70.0, 60.0], rate=[1.0, 0.2])
        controller.observe(ctx)
        coldness = np.array([0.01, 0.4, 0.3, 0.29])  # page 0 coldest
        decision = controller.decide(
            ctx, take_all_finder([2]), coldness=coldness
        )
        moves = dict(zip(decision.plan.page_indices.tolist(),
                         decision.plan.dst_tiers.tolist()))
        assert moves[2] == 0          # the promotion
        assert moves[0] == 1          # coldest page demoted to make room
        # Demotion comes first so the promotion has space.
        assert list(decision.plan.page_indices)[0] == 0

    def test_budget_uses_dynamic_limit(self):
        controller = make_controller(static_limit=10**9)
        placement = make_placement([0, 0, 1, 1])
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([0]), coldness=np.full(4, 0.25)
        )
        # dp * (R_D + R_A) * 64 * quantum, with dp from the first step.
        dp = decision.dp
        expected = int(dp * 1.2 * 64 * 1e7)
        assert decision.budget_bytes == expected

    def test_period_scales_budget(self):
        controller = make_controller(static_limit=10**3)
        placement = make_placement([0, 0, 1, 1])
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([0]), coldness=np.full(4, 0.25),
            period_ns=50e7,  # 50 quanta
        )
        assert decision.budget_bytes == 50 * 10**3

    def test_empty_finder_holds(self):
        controller = make_controller()
        placement = make_placement([0, 0, 1, 1])
        ctx = make_ctx(placement, occupancy=[300.0, 28.0], rate=[1.0, 0.2])
        controller.observe(ctx)
        decision = controller.decide(
            ctx, take_all_finder([]), coldness=np.full(4, 0.25)
        )
        assert decision.mode == "hold"

    @pytest.mark.parametrize("tiers, occupancy", [
        ([0, 0, 0, 0], [70.0, 60.0]),  # promotion, alternate tier empty
        ([1, 1, 1, 1], [300.0, 28.0]),  # demotion, default tier empty
    ])
    def test_empty_source_tier_holds_without_finding(self, tiers,
                                                     occupancy):
        def spy(src_tier, dp, budget):
            raise AssertionError("finder called on an empty source tier")

        decisions = []
        for finder in (spy, take_all_finder([])):
            controller = make_controller()
            ctx = make_ctx(make_placement(tiers), occupancy=occupancy,
                           rate=[1.0, 0.2])
            controller.observe(ctx)
            decisions.append(controller.decide(
                ctx, finder, coldness=np.full(4, 0.25)))
        held, found_nothing = decisions
        assert held.mode == found_nothing.mode == "hold"
        assert held.p == found_nothing.p
        assert held.latency_default_ns == found_nothing.latency_default_ns
        assert (held.latency_alternate_ns
                == found_nothing.latency_alternate_ns)

    def test_rejects_nonpositive_static_limit(self):
        monitor = LatencyMonitor([65.0, 130.0])
        with pytest.raises(ConfigurationError):
            ColloidController(monitor, ShiftComputer(), 0)

    def test_hold_decision_telemetry(self):
        decision = ColloidDecision.hold(0.4, 100.0, 101.0)
        assert decision.mode == "hold"
        assert decision.dp == 0.0
        assert decision.p == 0.4


_PAGE = 2 << 20


def _former_with_make_room(placement, promotions, coldness):
    """``ColloidController._with_make_room`` as it was: the default
    tier ranked coldest first by a full stable sort, the shortest prefix
    covering the need demoted, and the two plans alternated."""
    sizes = placement.pages.sizes_bytes
    promoted = promotions.page_indices
    need = int(sizes[promoted].sum()) - placement.free_bytes(0)
    if need <= 0:
        return promotions
    in_default = placement.pages.tier == 0
    in_default[promoted] = False
    default_pages = np.nonzero(in_default)[0]
    if default_pages.size == 0:
        return promotions
    keys = -coldness[default_pages]
    order = default_pages[np.argsort(-keys, kind="stable")]
    cum = np.cumsum(sizes[order])
    n = min(int(np.searchsorted(cum, need, side="left")) + 1, len(order))
    demoted = order[:n].tolist()
    pages, dsts = [], []
    for i in range(max(n, len(promoted))):
        if i < n:
            pages.append(demoted[i])
            dsts.append(1)
        if i < len(promoted):
            pages.append(int(promoted[i]))
            dsts.append(int(promotions.dst_tiers[i]))
    return MigrationPlan(np.array(pages, dtype=np.int64),
                         np.array(dsts, dtype=np.int64))


def _make_room_case(seed, n_promoted):
    """A default tier near full of 2 MiB and 32 MiB pages whose coldness
    ties often, and ``n_promoted`` alternate-tier pages to promote."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 30, 700]))
    sizes = np.where(rng.random(n) < 0.15, 16 * _PAGE, _PAGE)
    tiers = rng.integers(0, 2, n)
    tiers[: min(n_promoted, n)] = 1  # enough pages to promote
    default_bytes = int(sizes[tiers == 0].sum())
    slack = int(rng.choice([0, _PAGE // 2, 3 * _PAGE, 64 * _PAGE]))
    placement = PlacementState(PageArray(sizes),
                               [default_bytes + slack, int(sizes.sum())])
    for t in (0, 1):
        placement.move(np.nonzero(tiers == t)[0], t)
    coldness = rng.choice([0.0, 0.0, 1e-4, 3e-4, 1e-3], n)
    if rng.random() < 0.3:
        coldness = rng.random(n)
    alternate = np.nonzero(tiers == 1)[0]
    promoted = rng.permutation(alternate)[:n_promoted]
    promotions = MigrationPlan(promoted,
                               np.zeros(len(promoted), dtype=np.int64))
    return placement, promotions, coldness


class TestMakeRoomMatchesTheFullSort:
    """Make-room ranks only the head of the default tier's coldness
    order that the need reaches; the demotions and the interleaved plan
    must be the full stable sort's, move for move."""

    @pytest.mark.parametrize("n_promoted", range(1, 9))
    @pytest.mark.parametrize("seed", range(16))
    def test_same_plan(self, seed, n_promoted):
        placement, promotions, coldness = _make_room_case(seed, n_promoted)
        plan = make_controller()._with_make_room(placement, promotions,
                                                 coldness)
        expected = _former_with_make_room(placement, promotions, coldness)
        np.testing.assert_array_equal(plan.page_indices,
                                      expected.page_indices)
        np.testing.assert_array_equal(plan.dst_tiers, expected.dst_tiers)

    def test_empty_default_tier_keeps_the_promotions(self):
        pages = PageArray.uniform(3, 100)
        placement = PlacementState(pages, [0, 300])
        placement.move(np.arange(3), 1)
        promotions = MigrationPlan(np.array([2]), np.array([0]))
        plan = make_controller()._with_make_room(placement, promotions,
                                                 np.zeros(3))
        assert plan is promotions

    def test_tied_coldness_demotes_in_page_order(self):
        pages = PageArray.uniform(6, 100)
        placement = PlacementState(pages, [400, 600])
        placement.move(np.array([0, 1, 2, 3]), 0)
        placement.move(np.array([4, 5]), 1)
        coldness = np.array([0.2, 0.0, 0.1, 0.0, 0.5, 0.5])
        promotions = MigrationPlan(np.array([4, 5]), np.array([0, 0]))
        plan = make_controller()._with_make_room(placement, promotions,
                                                 coldness)
        assert plan.page_indices.tolist() == [1, 4, 3, 5]
        assert plan.dst_tiers.tolist() == [1, 0, 1, 0]
