"""The solver fast path: warm starts, memoization, and their fidelity.

The contract under test is that the fast paths are *pure speed*: a
warm-started or memoized solve must agree with a cold solve of the same
system within the solver's own relative tolerance, across random splits,
contention levels, and extra-traffic mixes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import (
    SOLVER_RELATIVE_TOLERANCE,
    EquilibriumSolver,
)
from repro.memhw.latency import TrafficClass
from repro.memhw.topology import paper_testbed
from repro.options import SOLVER_CACHE_ENV_VAR, RunOptions


def _app(n_cores=15, mlp=7.0):
    return CoreGroup("app", n_cores, mlp, randomness=1.0,
                     read_fraction=0.5)


@pytest.fixture
def tiers():
    return paper_testbed().tiers


# Warm and memoized solves may differ from a cold solve by at most the
# convergence tolerance on each side.
_AGREE_RTOL = 10 * SOLVER_RELATIVE_TOLERANCE


def _assert_equilibria_agree(a, b):
    np.testing.assert_allclose(a.latencies_ns, b.latencies_ns,
                               rtol=_AGREE_RTOL)
    np.testing.assert_allclose(a.apps[0].read_rate, b.apps[0].read_rate,
                               rtol=_AGREE_RTOL)
    np.testing.assert_allclose(a.apps[0].tier_read_rate,
                               b.apps[0].tier_read_rate, rtol=_AGREE_RTOL)
    np.testing.assert_allclose(a.tier_read_request_rate,
                               b.tier_read_request_rate,
                               rtol=_AGREE_RTOL)
    np.testing.assert_allclose(a.utilizations, b.utilizations,
                               rtol=_AGREE_RTOL, atol=1e-15)


class TestWarmStartFidelity:
    @given(p=st.floats(min_value=0.0, max_value=1.0),
           intensity=st.integers(min_value=0, max_value=4),
           warm_p=st.floats(min_value=0.0, max_value=1.0),
           migration_mib=st.floats(min_value=0.0, max_value=64.0))
    @settings(max_examples=40, deadline=None)
    def test_warm_matches_cold(self, p, intensity, warm_p,
                               migration_mib):
        machine = paper_testbed()
        app = _app()
        ant = antagonist_core_group(intensity, machine.antagonist)
        pinned = [(ant, 0)]
        bw = migration_mib * 1024 * 1024 / 1e9  # bytes/ns
        extra = (
            [(TrafficClass(bw, randomness=0.3, read_fraction=1.0),)
             if bw > 0 else (), ()]
        )
        cold = EquilibriumSolver(machine.tiers, use_cache=False)
        warm = EquilibriumSolver(machine.tiers, use_cache=False)
        # Seed from a (possibly distant) other equilibrium.
        seed_eq = warm.solve(app, [warm_p, 1.0 - warm_p], pinned=pinned)
        cold_eq = cold.solve(app, [p, 1.0 - p], pinned=pinned,
                             extra_traffic=extra)
        warm_eq = warm.solve(app, [p, 1.0 - p], pinned=pinned,
                             extra_traffic=extra,
                             initial_latencies=seed_eq.latencies_ns)
        _assert_equilibria_agree(warm_eq, cold_eq)

    def test_warm_start_collapses_iterations(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=False)
        cold = solver.solve(_app(), [0.7, 0.3])
        warm = solver.solve(_app(), [0.7, 0.3],
                            initial_latencies=cold.latencies_ns)
        assert warm.iterations < cold.iterations
        assert warm.iterations <= 3

    def test_bad_initial_latencies_rejected(self, tiers):
        solver = EquilibriumSolver(tiers)
        with pytest.raises(ConfigurationError):
            solver.solve(_app(), [0.5, 0.5], initial_latencies=[100.0])
        with pytest.raises(ConfigurationError):
            solver.solve(_app(), [0.5, 0.5],
                         initial_latencies=[100.0, -5.0])
        with pytest.raises(ConfigurationError):
            solver.solve(_app(), [0.5, 0.5],
                         initial_latencies=[100.0, float("nan")])


class TestMemoizationFidelity:
    @given(p=st.floats(min_value=0.0, max_value=1.0),
           intensity=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_memoized_matches_cold(self, p, intensity):
        machine = paper_testbed()
        app = _app()
        ant = antagonist_core_group(intensity, machine.antagonist)
        pinned = [(ant, 0)]
        cold = EquilibriumSolver(machine.tiers, use_cache=False)
        memo = EquilibriumSolver(machine.tiers, use_cache=True)
        memo.solve(app, [p, 1.0 - p], pinned=pinned)  # populate
        hit = memo.solve(app, [p, 1.0 - p], pinned=pinned)
        cold_eq = cold.solve(app, [p, 1.0 - p], pinned=pinned)
        assert memo.last_was_cache_hit
        _assert_equilibria_agree(hit, cold_eq)

    def test_hit_returns_cached_instance(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        first = solver.solve(_app(), [0.6, 0.4])
        second = solver.solve(_app(), [0.6, 0.4])
        assert second is first
        assert solver.cache_hits == 1
        assert solver.cache_misses == 1

    def test_warm_start_not_part_of_cache_key(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        first = solver.solve(_app(), [0.6, 0.4])
        again = solver.solve(_app(), [0.6, 0.4],
                             initial_latencies=[200.0, 200.0])
        assert again is first

    def test_none_and_empty_extra_traffic_share_a_key(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        first = solver.solve(_app(), [0.6, 0.4], extra_traffic=None)
        second = solver.solve(_app(), [0.6, 0.4],
                              extra_traffic=[[], []])
        assert second is first

    def test_solve_and_solve_multi_share_one_cache_entry(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        first = solver.solve(_app(), [0.6, 0.4])
        multi = solver.solve_multi([(_app(), [0.6, 0.4])])
        assert solver.last_was_cache_hit
        assert multi is first
        assert solver.solve(_app(), [0.6, 0.4]) is first
        assert solver.cache_hits == 2
        assert solver.cache_misses == 1

    def test_different_inputs_miss(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        solver.solve(_app(), [0.6, 0.4])
        solver.solve(_app(), [0.61, 0.39])
        solver.solve(_app(n_cores=12), [0.6, 0.4])
        extra = [(TrafficClass(0.5, 0.3, 1.0),), ()]
        solver.solve(_app(), [0.6, 0.4], extra_traffic=extra)
        assert solver.cache_hits == 0
        assert solver.cache_misses == 4

    def test_lru_eviction(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True, cache_size=2)
        a, b, c = [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]
        solver.solve(_app(), a)
        solver.solve(_app(), b)
        solver.solve(_app(), c)  # evicts a
        solver.solve(_app(), a)
        assert solver.cache_misses == 4
        solver.solve(_app(), c)
        assert solver.cache_hits == 1

    def test_clear_cache(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        solver.solve(_app(), [0.5, 0.5])
        solver.clear_cache()
        solver.solve(_app(), [0.5, 0.5])
        assert solver.cache_hits == 0
        assert solver.cache_misses == 2


class TestCacheSwitch:
    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv(SOLVER_CACHE_ENV_VAR, raising=False)
        assert RunOptions.from_env().solver_cache

    def test_env_disables(self, monkeypatch, tiers):
        monkeypatch.setenv(SOLVER_CACHE_ENV_VAR, "0")
        assert not RunOptions.from_env().solver_cache
        solver = EquilibriumSolver(tiers)
        assert not solver.cache_enabled
        first = solver.solve(_app(), [0.5, 0.5])
        second = solver.solve(_app(), [0.5, 0.5])
        assert second is not first
        assert solver.cache_hits == 0
        assert not solver.last_was_cache_hit

    def test_explicit_flag_beats_env(self, monkeypatch, tiers):
        monkeypatch.setenv(SOLVER_CACHE_ENV_VAR, "0")
        solver = EquilibriumSolver(tiers, use_cache=True)
        assert solver.cache_enabled

    def test_invalid_cache_size(self, tiers):
        with pytest.raises(ConfigurationError):
            EquilibriumSolver(tiers, cache_size=0)


class TestCacheHitValidation:
    def test_hit_residual_within_tolerance(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True,
                                   validate_cache_hits=True)
        solver.solve(_app(), [0.7, 0.3])
        assert solver.last_hit_residual is None
        solver.solve(_app(), [0.7, 0.3])
        assert solver.last_was_cache_hit
        assert solver.last_hit_residual is not None
        # A fresh solve converged below the tolerance; one more sweep
        # from the fixed point cannot drift beyond a few multiples.
        assert solver.last_hit_residual < 100 * SOLVER_RELATIVE_TOLERANCE

    def test_no_residual_without_validation(self, tiers):
        solver = EquilibriumSolver(tiers, use_cache=True)
        solver.solve(_app(), [0.7, 0.3])
        solver.solve(_app(), [0.7, 0.3])
        assert solver.last_was_cache_hit
        assert solver.last_hit_residual is None


class TestConvergedStateConsistency:
    def test_latencies_consistent_with_utilizations(self, tiers):
        """latencies_ns is exactly the curve at the returned utilizations
        — the convergence fix returns the evaluated state, not a
        re-derived one."""
        from repro.memhw.latency import LatencyCurve

        solver = EquilibriumSolver(tiers, use_cache=False)
        eq = solver.solve(_app(), [0.55, 0.45])
        np.testing.assert_array_equal(
            eq.latencies_ns,
            [LatencyCurve(tier).latency_ns(u)
             for tier, u in zip(tiers, eq.utilizations)],
        )

    def test_closed_loop_exact(self, tiers):
        from repro.units import CACHELINE_BYTES

        solver = EquilibriumSolver(tiers, use_cache=False)
        app = _app()
        eq = solver.solve(app, [0.55, 0.45])
        expected = (app.n_cores * app.mlp * CACHELINE_BYTES
                    / eq.apps[0].avg_latency_ns)
        assert eq.apps[0].read_rate == pytest.approx(expected, rel=1e-12)
