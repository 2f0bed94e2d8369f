"""Work counts of a quiet quantum: what nobody reads is never drawn,
and what did not change is never rebuilt.

Each test counts work deterministically (random-stream states, cache
counters, object identity) instead of timing it:

* a system that never reads ``ctx.cha`` draws nothing on its tenant's
  CHA noise stream, and a system that reads it every quantum draws one
  block per quantum, as it always did;
* reading the CHA sample at scattered quanta gives the very samples of
  reading it every quantum (the skipped quanta's noise is drawn, not
  re-used);
* a solve that passes the last solve's objects is that solve's cache
  hit, refreshes the LRU order, and never outlives the cache entry;
* a warm seed that is the solver's last output solves as its floats do,
  every other seed is checked, and a solve that overflows raises
  instead of returning an output that is no valid seed;
* the empty plan is one shared plan, and an empty plan's result shares
  read-only arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import ColloidDecision
from repro.errors import ConfigurationError, ConvergenceError
from repro.exec.factories import make_system
from repro.experiments.common import scaled_machine
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed
from repro.pages.migration import MigrationExecutor, MigrationPlan
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first
from repro.runtime.colocation import ColocatedLoop, TenantSpec
from repro.runtime.loop import SimulationLoop
from repro.tiering.base import QuantumDecision
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE

N_QUANTA = 300
SEED = 5


def _loop(system, contention=2, **kwargs) -> SimulationLoop:
    return SimulationLoop(
        machine=scaled_machine(FAST_SCALE),
        workload=GupsWorkload(scale=FAST_SCALE, seed=SEED),
        system=system, contention=contention, seed=SEED, **kwargs,
    )


def _cha_state(loop):
    return loop._tenants[0].cha._rng.bit_generator.state


# -- CHA on demand ---------------------------------------------------------


@pytest.mark.parametrize("name", ["hemem", "tpp"])
def test_baseline_runs_draw_nothing_on_the_cha_stream(name):
    loop = _loop(make_system(name))
    untouched = np.random.default_rng(SEED + 1).bit_generator.state
    for __ in range(N_QUANTA):
        loop.step()
    assert _cha_state(loop) == untouched


def test_colloid_draws_one_noise_block_per_quantum():
    loop = _loop(make_system("hemem+colloid"))
    n_tiers = len(loop.machine.tiers)
    for __ in range(N_QUANTA):
        loop.step()
    oracle = np.random.default_rng(SEED + 1)
    oracle.normal(0.0, 0.01, size=N_QUANTA * 2 * n_tiers)
    assert _cha_state(loop) == oracle.bit_generator.state


class _ChaReader(StaticPlacementSystem):
    """Holds its placement and reads ``ctx.cha`` at chosen quanta (every
    quantum for None), keeping each sample's bits."""

    def __init__(self, quanta=None) -> None:
        super().__init__()
        self.quanta = quanta
        self.samples = {}
        self._quantum = 0

    def quantum(self, ctx):
        if self.quanta is None or self._quantum in self.quanta:
            sample = ctx.cha
            assert ctx.cha is sample  # one sample per quantum
            self.samples[self._quantum] = (sample.occupancy.tobytes(),
                                           sample.rate.tobytes(),
                                           sample.duration_ns)
        self._quantum += 1
        return super().quantum(ctx)


def _step_contention(t: float) -> int:
    return int(t * 2) % 4


SCATTERED = {0, 1, 2, 9, 10, 57, 58, 120, 121, 122, 250, N_QUANTA - 1}


def test_scattered_reads_see_the_samples_of_reading_every_quantum():
    every, scattered = _ChaReader(), _ChaReader(SCATTERED)
    for system in (every, scattered):
        loop = _loop(system, contention=_step_contention)
        for __ in range(N_QUANTA):
            loop.step()
    assert set(scattered.samples) == SCATTERED
    for quantum, sample in scattered.samples.items():
        assert sample == every.samples[quantum], quantum
    # The samples differ between quanta: the test compares noise, not a
    # constant.
    assert len({sample for sample in every.samples.values()}) > 100


def test_colocated_tenants_read_their_own_cha_streams():
    """A tenant that never reads leaves its stream alone, and its
    neighbour's samples are those of a neighbour reading alone."""
    def run(first):
        tenants = [
            TenantSpec(name="a", workload=GupsWorkload(
                scale=FAST_SCALE / 2, seed=SEED), system=first),
            TenantSpec(name="b", workload=GupsWorkload(
                scale=FAST_SCALE / 2, seed=SEED + 1),
                system=_ChaReader(SCATTERED)),
        ]
        loop = ColocatedLoop(machine=scaled_machine(FAST_SCALE),
                             tenants=tenants, contention=1, seed=SEED)
        for __ in range(N_QUANTA):
            loop.step()
        return loop, tenants[1].system.samples

    quiet, quiet_samples = run(StaticPlacementSystem())
    __, busy_samples = run(_ChaReader())
    assert quiet_samples == busy_samples
    assert (quiet._tenants[0].cha._rng.bit_generator.state
            == np.random.default_rng([SEED + 1, 0]).bit_generator.state)


# -- the solver's same-input path ------------------------------------------


def _solver(**kwargs) -> EquilibriumSolver:
    return EquilibriumSolver(paper_testbed().tiers, use_cache=True,
                             **kwargs)


def _frozen(*values) -> np.ndarray:
    split = np.array(values)
    split.flags.writeable = False
    return split


APP = CoreGroup("app", 15, 7.0, read_fraction=0.5)
ANTAGONIST = antagonist_core_group(2, paper_testbed().antagonist)


def _solve(solver, split, **kwargs):
    return solver.solve(APP, split, pinned=[(ANTAGONIST, 0)], **kwargs)


class TestSolverSameInputs:
    def test_repeat_returns_the_cached_object_as_a_hit(self):
        solver = _solver()
        split = _frozen(0.7, 0.3)
        first = _solve(solver, split)
        again = _solve(solver, split, initial_latencies=first.latencies_ns)
        assert again is first
        assert solver.last_was_cache_hit
        assert solver.last_hit_residual is None
        assert (solver.cache_hits, solver.cache_misses) == (1, 1)

    def test_lru_order_is_refreshed(self):
        solver = _solver(cache_size=2)
        a, b, c = _frozen(0.7, 0.3), _frozen(0.6, 0.4), _frozen(0.5, 0.5)
        eq_a = _solve(solver, a)
        eq_b = _solve(solver, b)
        assert _solve(solver, b) is eq_b
        assert _solve(solver, a) is eq_a  # a is now the newest entry
        assert _solve(solver, a) is eq_a
        _solve(solver, c)  # evicts the oldest entry: b
        assert _solve(solver, a) is eq_a
        assert solver.last_was_cache_hit
        assert _solve(solver, b) is not eq_b
        assert not solver.last_was_cache_hit
        assert (solver.cache_hits, solver.cache_misses) == (4, 4)

    def test_evicted_or_cleared_entries_are_solved_again(self):
        solver = _solver(cache_size=1)
        a, b = _frozen(0.7, 0.3), _frozen(0.6, 0.4)
        eq_a = _solve(solver, a)
        assert _solve(solver, a) is eq_a
        _solve(solver, b)  # evicts a
        assert _solve(solver, a) is not eq_a
        assert not solver.last_was_cache_hit
        eq_a = _solve(solver, a)
        solver.clear_cache()
        assert _solve(solver, a) is not eq_a
        assert not solver.last_was_cache_hit

    def test_a_writeable_split_is_read_again(self):
        solver = _solver()
        split = np.array([0.7, 0.3])
        first = _solve(solver, split)
        split[:] = [0.4, 0.6]
        moved = _solve(solver, split)
        assert moved is not first
        np.testing.assert_array_equal(
            moved.latencies_ns,
            _solve(_solver(), np.array([0.4, 0.6])).latencies_ns)

    def test_extra_traffic_is_never_assumed_unchanged(self):
        solver = _solver()
        split = _frozen(0.7, 0.3)
        first = _solve(solver, split)
        copy = [[(2.0, 0.3, 1.0)], []]
        assert _solve(solver, split, extra_traffic=copy) is not first
        assert _solve(solver, split) is first

    def test_initial_latencies_are_still_validated(self):
        solver = _solver()
        split = _frozen(0.7, 0.3)
        _solve(solver, split)
        hits = solver.cache_hits
        for bad in ([float("nan"), 100.0], [100.0], [-1.0, 100.0]):
            with pytest.raises(ConfigurationError):
                _solve(solver, split, initial_latencies=bad)
        assert solver.cache_hits == hits

    def test_own_seeds_solve_as_their_floats_do(self):
        solver, other = _solver(), _solver()
        first = _solve(solver, _frozen(0.7, 0.3))
        _solve(other, _frozen(0.7, 0.3))
        assert not first.latencies_ns.flags.writeable
        with pytest.raises(ValueError):
            first.latencies_ns[0] = 1.0
        # The array ``solver`` returned last, against equal floats in a
        # list: both start from the carried inverse Jacobian.
        own = _solve(solver, np.array([0.6, 0.4]),
                     initial_latencies=first.latencies_ns)
        copied = _solve(other, np.array([0.6, 0.4]),
                        initial_latencies=first.latencies_ns.tolist())
        assert own.iterations == copied.iterations
        for name in ("latencies_ns", "tier_wire_traffic",
                     "tier_read_request_rate", "utilizations",
                     "effective_bandwidths"):
            assert (getattr(own, name).tobytes()
                    == getattr(copied, name).tobytes()), name
        # An older output is no longer this solver's own: it is read and
        # checked like any other seed, and solves as its floats do.
        again = _solve(solver, np.array([0.5, 0.5]),
                       initial_latencies=first.latencies_ns)
        copied = _solve(other, np.array([0.5, 0.5]),
                        initial_latencies=first.latencies_ns.tolist())
        assert not solver.last_was_cache_hit
        assert again.iterations == copied.iterations
        assert again.latencies_ns.tobytes() == copied.latencies_ns.tobytes()

    def test_outputs_that_are_not_valid_seeds_are_rejected(self):
        # A solve whose sweep overflows raises instead of returning an
        # infinite latency, so every computed output is a valid seed.
        solver = _solver()
        split = _frozen(0.7, 0.3)
        flood = [[(1e308, 0.3, 1.0)], []]
        with pytest.raises(ConvergenceError, match="overflowed"):
            _solve(solver, split, extra_traffic=flood)
        # Nothing was cached or kept as a seed: the same solve raises
        # again, and the next plain solve is a computed miss.
        with pytest.raises(ConvergenceError):
            _solve(solver, split, extra_traffic=flood)
        assert solver.cache_hits == 0
        assert solver.cache_misses == 0
        plain = _solve(solver, split)
        assert not solver.last_was_cache_hit
        assert np.isfinite(plain.latencies_ns).all()

    def test_a_remembered_split_is_checked_per_kind_of_group(self):
        # Normalization depends on whether the group has cores: an idle
        # group keeps a split that does not sum to 1, a running one
        # rejects it, however often the split object was seen.
        solver = _solver()
        split = _frozen(0.3, 0.3)
        idle = solver.solve(CoreGroup("idle", 0, 7.0), split)
        assert idle.apps[0].split.tolist() == [0.3, 0.3]
        with pytest.raises(ConfigurationError):
            solver.solve(APP, split)

    def test_validated_hits_take_the_full_path(self):
        solver = _solver(validate_cache_hits=True)
        split = _frozen(0.7, 0.3)
        first = _solve(solver, split)
        assert _solve(solver, split) is first
        assert solver.last_hit_residual is not None


# -- the shared empty plan and result ---------------------------------------


def test_the_empty_plan_is_one_shared_read_only_plan():
    plan = MigrationPlan.empty()
    assert MigrationPlan.empty() is plan
    assert QuantumDecision.idle().plan is plan
    assert ColloidDecision.hold(0.5, 100.0, 150.0).plan is plan
    assert len(plan) == 0
    for array in (plan.page_indices, plan.dst_tiers, *plan.head(4)):
        assert array.shape == (0,)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 1
    moves = MigrationPlan(np.array([3, 1]), np.array([1, 0]))
    merged = MigrationPlan.concat([plan, moves, plan])
    assert merged.page_indices.tolist() == [3, 1]
    assert len(MigrationPlan.empty()) == 0


def test_empty_plan_results_share_read_only_arrays():
    placement = PlacementState(PageArray.uniform(8, 100), [400, 800])
    fill_default_first(placement)
    executor = MigrationExecutor(placement, 1000)
    first = executor.execute(MigrationPlan.empty(), 1e7)
    second = executor.execute(MigrationPlan.empty(), 1e7)
    for name in ("read_bytes_per_tier", "write_bytes_per_tier",
                 "moved_pages", "moved_src_tiers", "moved_dst_tiers"):
        array = getattr(first, name)
        assert array is getattr(second, name), name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[...] = 1
    np.testing.assert_array_equal(first.read_bytes_per_tier, [0, 0])
    assert first.moved_pages.shape == (0,)
