"""Tests for the rate-limited migration executor."""

import dataclasses

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer
from repro.pages.migration import (
    MigrationExecutor,
    MigrationPlan,
    MigrationResult,
)
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first
from repro.pages.selection import stable_top_k

PAGE = 100
QUANTUM_NS = 1e7


def make_state(n_pages=10, capacities=(500, 1000)):
    pages = PageArray.uniform(n_pages, PAGE)
    placement = PlacementState(pages, list(capacities))
    fill_default_first(placement)
    return placement


class TestPlan:
    def test_empty_plan(self):
        plan = MigrationPlan.empty()
        assert len(plan) == 0

    def test_concat_preserves_order(self):
        a = MigrationPlan(np.array([1, 2]), np.array([0, 0]))
        b = MigrationPlan(np.array([3]), np.array([1]))
        merged = MigrationPlan.concat([a, b])
        assert list(merged.page_indices) == [1, 2, 3]
        assert list(merged.dst_tiers) == [0, 0, 1]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            MigrationPlan(np.array([1, 2]), np.array([0]))


class TestExecute:
    def test_moves_within_budget(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=250)
        plan = MigrationPlan(np.array([0, 1, 2, 3]), np.full(4, 1))
        result = executor.execute(plan, QUANTUM_NS)
        assert result.bytes_moved == 200  # 2 pages of 100 B within 250
        assert result.moves_applied == 2
        assert result.moves_deferred == 2
        assert placement.pages.tier[0] == 1
        assert placement.pages.tier[2] == 0

    def test_token_bucket_accrues_while_idle(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=100)
        # Idle for 3 quanta -> ~400 B of tokens accumulated (incl. initial).
        for __ in range(3):
            executor.execute(MigrationPlan.empty(), QUANTUM_NS)
        plan = MigrationPlan(np.array([0, 1, 2, 3]), np.full(4, 1))
        result = executor.execute(plan, QUANTUM_NS)
        assert result.bytes_moved == 400

    def test_burst_cap_bounds_accrual(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=100,
                                     burst_quanta=2)
        for __ in range(50):
            executor.execute(MigrationPlan.empty(), QUANTUM_NS)
        plan = MigrationPlan(np.arange(5), np.full(5, 1))
        result = executor.execute(plan, QUANTUM_NS)
        assert result.bytes_moved == 200  # capped at 2 quanta worth

    def test_budget_override_caps_below_tokens(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=1000)
        plan = MigrationPlan(np.arange(4), np.full(4, 1))
        result = executor.execute(plan, QUANTUM_NS, budget_bytes=150)
        assert result.bytes_moved == 100

    def test_capacity_violation_skips_but_continues(self):
        placement = make_state()  # tier0 full (5 pages), tier1 has 5
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=10_000)
        # Try to promote pages 5,6 into the full tier 0, then demote 0.
        plan = MigrationPlan(np.array([5, 6, 0]), np.array([0, 0, 1]))
        result = executor.execute(plan, QUANTUM_NS)
        assert result.moves_skipped == 2
        assert result.moves_applied == 1
        assert placement.pages.tier[0] == 1

    def test_demote_then_promote_order_works(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=10_000)
        plan = MigrationPlan(np.array([0, 5]), np.array([1, 0]))
        result = executor.execute(plan, QUANTUM_NS)
        assert result.moves_applied == 2
        assert placement.pages.tier[0] == 1
        assert placement.pages.tier[5] == 0

    def test_traffic_charged_to_both_tiers(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=10_000)
        plan = MigrationPlan(np.array([0, 1]), np.array([1, 1]))
        result = executor.execute(plan, QUANTUM_NS)
        # Copies are read at the source only and written at the
        # destination only.
        np.testing.assert_array_equal(result.read_bytes_per_tier, [200, 0])
        np.testing.assert_array_equal(result.write_bytes_per_tier, [0, 200])

    def test_same_tier_moves_are_free(self):
        placement = make_state()
        executor = MigrationExecutor(placement, limit_bytes_per_quantum=100)
        plan = MigrationPlan(np.array([0]), np.array([0]))  # already there
        result = executor.execute(plan, QUANTUM_NS)
        assert result.bytes_moved == 0
        assert result.moves_applied == 0

    def test_rejects_bad_construction(self):
        placement = make_state()
        with pytest.raises(ConfigurationError):
            MigrationExecutor(placement, limit_bytes_per_quantum=0)
        with pytest.raises(ConfigurationError):
            MigrationExecutor(placement, 100, burst_quanta=0)

    def test_rejects_bad_quantum(self):
        placement = make_state()
        executor = MigrationExecutor(placement, 100)
        with pytest.raises(ConfigurationError):
            executor.execute(MigrationPlan.empty(), 0.0)


class TestRankedPlan:
    def test_ranked_order_is_the_stable_sort_prefix(self):
        candidates = np.array([10, 11, 12, 13, 14])
        key = np.array([1.0, 3.0, 1.0, 3.0, 2.0])
        plan = MigrationPlan.ranked(candidates, key, 4, 1)
        assert len(plan) == 4
        assert list(plan.page_indices) == [11, 13, 14, 10]
        assert list(plan.dst_tiers) == [1, 1, 1, 1]

    def test_head_ranks_across_segments(self):
        plan = MigrationPlan.concat([
            MigrationPlan.ranked(np.array([0, 1, 2]),
                                 np.array([1.0, 2.0, 3.0]), 2, 1),
            MigrationPlan(np.array([7]), np.array([0])),
            MigrationPlan.ranked(np.array([5, 6]), np.array([0.0, 0.0]),
                                 2, 0),
        ])
        assert len(plan) == 5
        pages, dsts = plan.head(4)
        assert list(pages) == [2, 1, 7, 5]
        assert list(dsts) == [1, 1, 0, 0]
        assert plan.head(0)[0].size == 0
        assert list(plan.page_indices) == [2, 1, 7, 5, 6]

    def test_rejects_bad_ranked_segments(self):
        with pytest.raises(ConfigurationError):
            MigrationPlan.ranked(np.arange(3), np.zeros(2), 1, 0)
        with pytest.raises(ConfigurationError):
            MigrationPlan.ranked(np.arange(3), np.zeros(3), 4, 0)


N_BIG = 3000  # above the top-k helper's small-n cutoff


def big_state(sizes, default_pages):
    """Pages ``0..default_pages-1`` fill tier 0 exactly; the rest sit in
    tier 1."""
    pages = PageArray(sizes)
    used0 = int(sizes[:default_pages].sum())
    placement = PlacementState(pages, [used0, int(sizes.sum())])
    placement.move(np.arange(default_pages), 0)
    placement.move(np.arange(default_pages, len(sizes)), 1)
    return placement


def skips_then_noops_plan(n_default):
    """Promotions into the full tier 0 (all capacity skips), then
    demotions over every page, where tier-1 pages are no-ops: the walk
    passes far beyond the budget-sized head before spending a byte."""
    rng = np.random.default_rng(5)
    promo = np.arange(n_default, N_BIG)
    return MigrationPlan.concat([
        MigrationPlan.ranked(promo, rng.random(promo.size), promo.size, 0),
        MigrationPlan.ranked(np.arange(N_BIG),
                             rng.integers(0, 4, N_BIG).astype(float),
                             N_BIG - 10, 1),
    ])


def demotion_plan(n_default):
    key = np.random.default_rng(6).integers(0, 3, n_default).astype(float)
    return MigrationPlan.ranked(np.arange(n_default), key, n_default, 1)


def run_plan(plan, sizes, n_default, limit, budget_bytes=None,
             idle_quanta=0, tracer=None):
    placement = big_state(sizes, n_default)
    executor = MigrationExecutor(placement, limit_bytes_per_quantum=limit,
                                 tracer=tracer)
    for __ in range(idle_quanta):
        executor.execute(MigrationPlan.empty(), QUANTUM_NS)
    result = executor.execute(plan, QUANTUM_NS, budget_bytes=budget_bytes)
    return result, placement.pages.tier.copy()


def assert_same_result(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, field.name


def whole_plan_walk(placement, plan, budget):
    """The executor's walk as it was before plans were ranked lazily:
    every entry front to back, kept as the oracle for the counts."""
    pages = placement.pages
    bytes_moved = applied = skipped = deferred = 0
    applied_pages = []
    for idx, dst in zip(plan.page_indices, plan.dst_tiers):
        src = int(pages.tier[idx])
        dst = int(dst)
        if src == dst:
            continue
        size = int(pages.sizes_bytes[idx])
        if bytes_moved + size > budget:
            deferred += len(plan) - applied - skipped
            break
        try:
            placement.move(np.array([idx], dtype=np.int64), dst)
        except CapacityError:
            skipped += 1
            continue
        bytes_moved += size
        applied += 1
        applied_pages.append(int(idx))
    return bytes_moved, applied, skipped, deferred, applied_pages


UNIFORM = np.full(N_BIG, 100, dtype=np.int64)
MIXED = np.random.default_rng(4).choice([100, 300], N_BIG).astype(np.int64)


class TestRankedPlanExecutesLikeItsEagerCopy:
    """A lazily ranked plan and its materialized copy give the same
    result and final placement, however far the walk goes."""

    @pytest.mark.parametrize("sizes", [UNIFORM, MIXED],
                             ids=["uniform", "mixed"])
    @pytest.mark.parametrize("make_plan, limit, budget, idle", [
        (skips_then_noops_plan, 250, None, 0),
        (skips_then_noops_plan, 10**6, 700, 0),
        (demotion_plan, 250, None, 0),
        (demotion_plan, 200, None, 7),   # burst tokens, no override
        (demotion_plan, 10**9, None, 0),  # budget beyond the whole plan
    ])
    def test_same_result_and_placement(self, sizes, make_plan, limit,
                                       budget, idle):
        n_default = N_BIG // 2
        eager_source = make_plan(n_default)
        eager = MigrationPlan(eager_source.page_indices,
                              eager_source.dst_tiers)
        expected, expected_tier = run_plan(eager, sizes, n_default, limit,
                                           budget, idle)
        result, tier = run_plan(make_plan(n_default), sizes, n_default,
                                limit, budget, idle)
        assert_same_result(result, expected)
        np.testing.assert_array_equal(tier, expected_tier)

        tokens = limit * (idle + 1)  # below the 100-quantum burst cap
        placement = big_state(sizes, n_default)
        walked = whole_plan_walk(
            placement, eager, tokens if budget is None
            else min(budget, tokens))
        assert walked == (result.bytes_moved, result.moves_applied,
                          result.moves_skipped, result.moves_deferred,
                          result.moved_pages.tolist())
        np.testing.assert_array_equal(placement.pages.tier, tier)

    @pytest.mark.parametrize("sizes", [UNIFORM, MIXED],
                             ids=["uniform", "mixed"])
    def test_ranks_only_the_head_the_budget_reaches(self, sizes,
                                                     monkeypatch):
        import repro.pages.migration as migration
        ranked_k = []

        def recording_top_k(keys, k):
            ranked_k.append(k)
            return stable_top_k(keys, k)

        monkeypatch.setattr(migration, "stable_top_k", recording_top_k)
        result, __ = run_plan(demotion_plan(N_BIG // 2), sizes,
                              N_BIG // 2, 250)
        assert result.moves_deferred > 0
        assert ranked_k == [250 // 100 + 1]

    def test_observation_does_not_change_the_result(self):
        n_default = N_BIG // 2
        eager_source = skips_then_noops_plan(n_default)
        eager = MigrationPlan(eager_source.page_indices,
                              eager_source.dst_tiers)
        untraced, __ = run_plan(eager, MIXED, n_default, 250)
        saved = (METRICS.enabled, METRICS._histograms)
        METRICS.enabled, METRICS._histograms = True, {}
        try:
            runs = []
            for plan in (eager, skips_then_noops_plan(n_default)):
                METRICS._histograms = {}
                tracer = Tracer()
                result, tier = run_plan(plan, MIXED, n_default, 250,
                                        tracer=tracer)
                runs.append((result, tier, tracer.events(),
                             METRICS.snapshot().histograms))
        finally:
            METRICS.enabled, METRICS._histograms = saved
        (eager_run, ranked_run) = runs
        assert_same_result(ranked_run[0], untraced)
        assert_same_result(ranked_run[0], eager_run[0])
        np.testing.assert_array_equal(ranked_run[1], eager_run[1])
        assert ranked_run[2] == eager_run[2]
        assert ranked_run[2][0]["planned_bytes"] == int(
            MIXED[eager.page_indices].sum())
        assert ranked_run[3] == eager_run[3]


def former_execute(executor, plan, quantum_ns, budget_bytes=None):
    """``MigrationExecutor.execute`` as it was before one-page moves went
    through ``PlacementState.move_page``: every move is
    ``move(np.array([idx]))`` and the per-tier bytes are numpy arrays.
    Kept as the oracle for the whole result."""
    executor._tokens = min(executor._burst_cap,
                           executor._tokens + executor._limit)
    budget = executor._tokens if budget_bytes is None else (
        min(int(budget_bytes), executor._tokens))
    placement = executor._placement
    pages = placement.pages
    n_tiers = placement.n_tiers
    moved_read = np.zeros(n_tiers, dtype=np.int64)
    moved_write = np.zeros(n_tiers, dtype=np.int64)
    bytes_moved = applied = skipped = deferred = 0
    applied_pages, applied_src, applied_dst = [], [], []
    n_planned = len(plan)
    for idx, dst in zip(plan.page_indices.tolist(), plan.dst_tiers.tolist()):
        src = int(pages.tier[idx])
        if src == dst:
            continue
        size = int(pages.sizes_bytes[idx])
        if bytes_moved + size > budget:
            deferred = n_planned - applied - skipped
            break
        try:
            placement.move(np.array([idx], dtype=np.int64), dst)
        except CapacityError:
            skipped += 1
            continue
        bytes_moved += size
        moved_read[src] += size
        moved_write[dst] += size
        applied += 1
        applied_pages.append(idx)
        applied_src.append(src)
        applied_dst.append(dst)
    executor._tokens -= bytes_moved
    return MigrationResult(
        bytes_moved=bytes_moved, moves_applied=applied,
        moves_skipped=skipped, moves_deferred=deferred,
        read_bytes_per_tier=moved_read.copy(),
        write_bytes_per_tier=moved_write.copy(),
        moved_pages=np.array(applied_pages, dtype=np.int64),
        moved_src_tiers=np.array(applied_src, dtype=np.int64),
        moved_dst_tiers=np.array(applied_dst, dtype=np.int64),
    )


def random_state(rng, n_pages=400, n_tiers=3):
    """Mixed page sizes over ``n_tiers`` tight tiers, with some pages
    left unplaced (moving one frees no tier's bytes)."""
    sizes = rng.choice([100, 200, 300], n_pages).astype(np.int64)
    home = rng.integers(-1, n_tiers, n_pages)
    capacities = [int(sizes[home == t].sum()) + int(rng.integers(0, 600))
                  for t in range(n_tiers)]
    capacities[-1] += int(sizes[home == -1].sum())
    placement = PlacementState(PageArray(sizes), capacities)
    for t in range(n_tiers):
        placement.move(np.nonzero(home == t)[0], t)
    return placement


def random_plan(rng, n_pages, n_tiers):
    """An eager segment, then ranked segments to random tiers."""
    n_eager = int(rng.integers(0, 80))
    segments = [MigrationPlan(rng.integers(0, n_pages, n_eager),
                              rng.integers(0, n_tiers, n_eager))]
    for __ in range(int(rng.integers(0, 3))):
        candidates = rng.choice(n_pages, int(rng.integers(1, 200)),
                                replace=False)
        key = rng.integers(0, 5, candidates.size).astype(float)
        count = int(rng.integers(0, candidates.size + 1))
        segments.append(MigrationPlan.ranked(
            candidates, key, count, int(rng.integers(0, n_tiers))))
    return MigrationPlan.concat(segments)


class TestOnePageMovesMatchTheFormerWalk:
    """The executor's scalar one-page moves give the result, placement
    and page-table version of the former ``move(np.array([idx]))``
    walk, on eager and ranked plans alike."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plans(self, seed):
        rng = np.random.default_rng(seed)
        state_seed = int(rng.integers(2**32))
        limit = int(rng.choice([150, 700, 5000, 10**6]))
        placements = [random_state(np.random.default_rng(state_seed))
                      for __ in range(2)]
        executors = [MigrationExecutor(p, limit_bytes_per_quantum=limit,
                                       burst_quanta=3)
                     for p in placements]
        for __ in range(6):
            plan_seed = int(rng.integers(2**32))
            budget = (None if rng.random() < 0.5
                      else int(rng.integers(0, 3000)))
            plans = [random_plan(np.random.default_rng(plan_seed), 400, 3)
                     for __ in range(2)]
            expected = former_execute(executors[0], plans[0], QUANTUM_NS,
                                      budget)
            result = executors[1].execute(plans[1], QUANTUM_NS, budget)
            assert_same_result(result, expected)
            assert executors[1].available_tokens == (
                executors[0].available_tokens)
            oracle, scalar = placements
            np.testing.assert_array_equal(scalar.pages.tier,
                                          oracle.pages.tier)
            assert scalar.pages.version == oracle.pages.version
            for t in range(3):
                assert scalar.used_bytes(t) == oracle.used_bytes(t)

    def test_empty_plan_accrues_tokens_and_moves_nothing(self):
        placements = [make_state() for __ in range(2)]
        executors = [MigrationExecutor(p, limit_bytes_per_quantum=250)
                     for p in placements]
        for __ in range(3):
            expected = former_execute(executors[0], MigrationPlan.empty(),
                                      QUANTUM_NS)
            result = executors[1].execute(MigrationPlan.empty(), QUANTUM_NS)
            assert_same_result(result, expected)
        assert executors[1].available_tokens == 750
        plan = MigrationPlan(np.arange(5), np.full(5, 1))
        assert_same_result(
            executors[1].execute(plan, QUANTUM_NS),
            former_execute(executors[0], plan, QUANTUM_NS))
