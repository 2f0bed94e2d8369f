"""Property-based tests on the hardware model's monotone structure.

These are the invariants the balancing principle relies on (§3.1): more
load on a tier can only raise its latency; moving application traffic to
a tier can only raise that tier's latency and lower the other's; and the
closed-loop throughput law couples them consistently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed


def solve(p, intensity=0, n_cores=15, mlp=7.0):
    machine = paper_testbed()
    solver = EquilibriumSolver(machine.tiers)
    app = CoreGroup("app", n_cores, mlp, randomness=1.0,
                    read_fraction=0.5)
    ant = antagonist_core_group(intensity, machine.antagonist)
    return solver.solve(app, [p, 1.0 - p], pinned=[(ant, 0)])


class TestMonotonicity:
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_antagonist_never_lowers_default_latency(self, p, level):
        base = solve(p, intensity=level)
        more = solve(p, intensity=level + 1)
        assert more.latencies_ns[0] >= base.latencies_ns[0] - 1e-6

    @given(st.floats(min_value=0.0, max_value=0.9),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_shifting_to_default_raises_its_latency(self, p, level):
        lighter = solve(p, intensity=level)
        heavier = solve(min(1.0, p + 0.1), intensity=level)
        assert heavier.latencies_ns[0] >= lighter.latencies_ns[0] - 1e-6
        assert heavier.latencies_ns[1] <= lighter.latencies_ns[1] + 1e-6

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_more_cores_never_raise_per_core_throughput(self, p, cores):
        few = solve(p, n_cores=cores)
        many = solve(p, n_cores=cores + 8)
        per_core_few = few.apps[0].read_rate / cores
        per_core_many = many.apps[0].read_rate / (cores + 8)
        assert per_core_many <= per_core_few + 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_latency_bounded_below_by_unloaded(self, p):
        eq = solve(p, intensity=3)
        assert eq.latencies_ns[0] >= 65.0 - 1e-9
        assert eq.latencies_ns[1] >= 130.0 - 1e-9


class TestBalancePrinciple:
    def test_average_latency_continuous_in_p(self):
        """No jumps in the objective the placement algorithm descends."""
        values = [solve(p).apps[0].avg_latency_ns
                  for p in np.linspace(0, 1, 21)]
        diffs = np.abs(np.diff(values))
        assert diffs.max() < 0.2 * np.mean(values)

    def test_throughput_peak_interior_under_contention(self):
        """At 3x the throughput-vs-p curve peaks well inside (0, 1) or at
        the lower boundary — never at hot-packed p."""
        ps = np.linspace(0, 1, 21)
        ts = [solve(p, intensity=3).apps[0].read_rate for p in ps]
        assert np.argmax(ts) < 5

    def test_throughput_peak_at_high_p_without_contention(self):
        ps = np.linspace(0, 1, 21)
        ts = [solve(p, intensity=0).apps[0].read_rate for p in ps]
        assert np.argmax(ts) > 12
