"""Tests for the closed-loop equilibrium solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed


@pytest.fixture
def solver():
    return EquilibriumSolver(paper_testbed().tiers)


@pytest.fixture
def app():
    return CoreGroup("gups", 15, 7.0, randomness=1.0, read_fraction=0.5)


class TestValidation:
    def test_rejects_empty_tiers(self):
        with pytest.raises(ConfigurationError):
            EquilibriumSolver([])

    def test_rejects_wrong_split_length(self, solver, app):
        with pytest.raises(ConfigurationError):
            solver.solve(app, [1.0])

    def test_rejects_negative_split(self, solver, app):
        with pytest.raises(ConfigurationError):
            solver.solve(app, [1.2, -0.2])

    def test_rejects_non_unit_split(self, solver, app):
        with pytest.raises(ConfigurationError):
            solver.solve(app, [0.5, 0.2])

    def test_rejects_bad_pinned_tier(self, solver, app):
        ant = antagonist_core_group(1)
        with pytest.raises(ConfigurationError):
            solver.solve(app, [1.0, 0.0], pinned=[(ant, 5)])

    def test_rejects_wrong_extra_traffic_shape(self, solver, app):
        with pytest.raises(ConfigurationError):
            solver.solve(app, [1.0, 0.0], extra_traffic=[[]])


class TestEquilibriumBasics:
    def test_idle_system_at_unloaded_latency(self, solver):
        idle = CoreGroup("idle", 0, 1.0)
        eq = solver.solve(idle, [1.0, 0.0])
        assert eq.latencies_ns[0] == pytest.approx(65.0, rel=1e-6)
        assert eq.latencies_ns[1] == pytest.approx(130.0, rel=1e-6)
        assert eq.apps[0].read_rate == 0.0

    def test_loaded_latency_above_unloaded(self, solver, app):
        eq = solver.solve(app, [1.0, 0.0])
        assert eq.latencies_ns[0] > 65.0

    def test_closed_loop_law_holds_at_equilibrium(self, solver, app):
        eq = solver.solve(app, [0.9, 0.1])
        expected = app.n_cores * app.mlp * 64 / eq.apps[0].avg_latency_ns
        assert eq.apps[0].read_rate == pytest.approx(expected, rel=1e-9)

    def test_app_avg_latency_is_split_weighted(self, solver, app):
        eq = solver.solve(app, [0.7, 0.3])
        expected = 0.7 * eq.latencies_ns[0] + 0.3 * eq.latencies_ns[1]
        assert eq.apps[0].avg_latency_ns == pytest.approx(expected, rel=1e-9)

    def test_more_contention_means_more_default_latency(self, solver, app):
        latencies = []
        for level in (0, 1, 2, 3):
            ant = antagonist_core_group(level)
            eq = solver.solve(app, [0.9, 0.1], pinned=[(ant, 0)])
            latencies.append(eq.latencies_ns[0])
        assert latencies == sorted(latencies)
        assert latencies[-1] > 2.5 * latencies[0]

    def test_offloading_reduces_default_latency(self, solver, app):
        ant = antagonist_core_group(3)
        packed = solver.solve(app, [0.9, 0.1], pinned=[(ant, 0)])
        offloaded = solver.solve(app, [0.1, 0.9], pinned=[(ant, 0)])
        assert offloaded.latencies_ns[0] < packed.latencies_ns[0]
        assert offloaded.latencies_ns[1] > packed.latencies_ns[1]

    def test_measured_p_includes_antagonist(self, solver, app):
        ant = antagonist_core_group(3)
        eq = solver.solve(app, [0.5, 0.5], pinned=[(ant, 0)])
        # The antagonist only hits tier 0, so the CHA-measured share
        # exceeds the app's own 0.5 split.
        assert eq.measured_p > 0.5

    def test_measured_p_zero_when_idle(self, solver):
        idle = CoreGroup("idle", 0, 1.0)
        eq = solver.solve(idle, [1.0, 0.0])
        assert eq.measured_p == 0.0

    def test_extra_traffic_raises_latency(self, solver, app):
        base = solver.solve(app, [0.9, 0.1])
        loaded = solver.solve(
            app, [0.9, 0.1],
            extra_traffic=[[(60.0, 0.3, 1.0)], []],
        )
        assert loaded.latencies_ns[0] > base.latencies_ns[0]


class TestEquilibriumProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_solves_for_any_split(self, p):
        solver = EquilibriumSolver(paper_testbed().tiers)
        app = CoreGroup("a", 15, 7.0, read_fraction=0.5)
        eq = solver.solve(app, [p, 1.0 - p])
        assert np.isfinite(eq.latencies_ns).all()
        assert (eq.latencies_ns >= np.array([65.0, 130.0]) - 1e-9).all()
        assert eq.apps[0].read_rate > 0

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, level):
        solver = EquilibriumSolver(paper_testbed().tiers)
        app = CoreGroup("a", 15, 7.0, read_fraction=0.5)
        ant = antagonist_core_group(level)
        eq1 = solver.solve(app, [0.8, 0.2], pinned=[(ant, 0)])
        eq2 = solver.solve(app, [0.8, 0.2], pinned=[(ant, 0)])
        np.testing.assert_allclose(eq1.latencies_ns, eq2.latencies_ns)

    def test_split_normalized_in_result(self, solver, app):
        eq = solver.solve(app, [0.25, 0.75])
        assert eq.apps[0].split.sum() == pytest.approx(1.0)
