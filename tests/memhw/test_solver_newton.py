"""The safeguarded Newton solve of the tier-latency fixed point.

The contracts: cells whose damped iteration used to stall now
converge; cold, warm and multi-app solves agree across machines and
loads; the sweep count of a warm-chained drift stays within a fixed
budget (a deterministic count, so it cannot flake on a slow host); and
a solve whose Newton steps fail still converges on the damped fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.runner import Runner
from repro.experiments import fig5
from repro.experiments.common import ExperimentConfig
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.latency import TrafficClass
from repro.memhw.topology import cxl_testbed, hbm_testbed, paper_testbed
from repro.workloads.gups import GupsWorkload
from tests.core.test_multitier import three_tier_machine
from tests.memhw.test_solver_fastpath import _assert_equilibria_agree

#: Fig. 5 cells at 1x whose damped-only iteration ran out of sweeps with
#: a ConvergenceError: (simulation seed, system).
_FORMER_FAILURES = [
    (42, "hemem+colloid"),
    (1, "tpp"),
    (6, "hemem"),
    (6, "tpp"),
]


@pytest.mark.parametrize("seed,system", _FORMER_FAILURES)
def test_former_convergence_failures_converge(seed, system):
    config = ExperimentConfig(
        scale=0.0625, seed=seed, migration_limit_bytes=8 << 20,
        duration_caps={"hemem": 8.0, "memtis": 12.0, "tpp": 20.0},
    )
    spec = fig5.build_cells(config, intensities=(1,))[(system, 1)]
    assert Runner().run_one(spec).converged


_MACHINES = {
    "paper": paper_testbed,
    "cxl": cxl_testbed,
    "hbm": hbm_testbed,
    "three-tier": three_tier_machine,
}


def _posed(machine_name, weights, intensity, migration_mib):
    """A solvable system on one machine: app split, pinned antagonist
    on tier 0, and migration reads into tier 0 from the last tier."""
    machine = _MACHINES[machine_name]()
    n = len(machine.tiers)
    weights = np.asarray(weights[:n], dtype=float) + 1e-3
    split = weights / weights.sum()
    app = CoreGroup("app", 15, 7.0, randomness=1.0, read_fraction=0.5)
    pinned = [(antagonist_core_group(intensity, machine.antagonist), 0)]
    bw = migration_mib * 1024 * 1024 / 1e9  # bytes/ns
    extra = [() for _ in range(n)]
    if bw > 0:
        extra[0] = (TrafficClass(bw, randomness=0.3, read_fraction=0.0),)
        extra[-1] = (TrafficClass(bw, randomness=0.3, read_fraction=1.0),)
    return machine, app, split, pinned, extra


_systems = dict(
    machine_name=st.sampled_from(sorted(_MACHINES)),
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0),
                     min_size=3, max_size=3),
    intensity=st.integers(min_value=0, max_value=3),
    migration_mib=st.floats(min_value=0.0, max_value=64.0),
)


class TestSolverMetamorphic:
    @given(**_systems)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_cold_and_distant_warm_agree(self, machine_name, weights,
                                         intensity, migration_mib):
        machine, app, split, pinned, extra = _posed(
            machine_name, weights, intensity, migration_mib)
        cold = EquilibriumSolver(machine.tiers, use_cache=False).solve(
            app, split, pinned=pinned, extra_traffic=extra)
        # Seed from the opposite corner: the whole app on the last tier,
        # under the heaviest antagonist.
        solver = EquilibriumSolver(machine.tiers, use_cache=False)
        corner = np.zeros(len(split))
        corner[-1] = 1.0
        heavy = [(antagonist_core_group(3, machine.antagonist), 0)]
        distant = solver.solve(app, corner, pinned=heavy)
        warm = solver.solve(app, split, pinned=pinned, extra_traffic=extra,
                            initial_latencies=distant.latencies_ns)
        _assert_equilibria_agree(warm, cold)

    @given(**_systems)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_single_app_multi_matches_solve_bit_for_bit(
            self, machine_name, weights, intensity, migration_mib):
        machine, app, split, pinned, extra = _posed(
            machine_name, weights, intensity, migration_mib)
        solver = EquilibriumSolver(machine.tiers, use_cache=False)
        single = solver.solve(app, split, pinned=pinned,
                              extra_traffic=extra)
        multi = solver.solve_multi([(app, split)], pinned=pinned,
                                   extra_traffic=extra)
        for field in ("latencies_ns", "tier_wire_traffic",
                      "tier_read_request_rate", "utilizations",
                      "effective_bandwidths"):
            np.testing.assert_array_equal(getattr(multi, field),
                                          getattr(single, field))
        assert multi.iterations == single.iterations
        assert multi.measured_p == single.measured_p
        (view,) = multi.apps
        assert view.avg_latency_ns == single.app_avg_latency_ns
        assert view.read_rate == single.app_read_rate
        np.testing.assert_array_equal(view.split, single.app_split)
        np.testing.assert_array_equal(view.tier_read_rate,
                                      single.app_tier_read_rate)


def test_warm_chained_drift_sweep_budget():
    """The bench suite's solver-micro drift: p from 0.3 to 0.7 over 200
    warm-chained points on the paper testbed at 2x contention."""
    machine = paper_testbed()
    app = GupsWorkload(scale=0.03, seed=1).core_group()
    pinned = [(antagonist_core_group(2, machine.antagonist), 0)]
    solver = EquilibriumSolver(machine.tiers, use_cache=False)
    warm = None
    sweeps = []
    for i in range(200):
        p = 0.3 + 0.4 * i / 199.0
        eq = solver.solve(app, [p, 1.0 - p], pinned=pinned,
                          initial_latencies=warm)
        if warm is not None:
            sweeps.append(eq.iterations)
        warm = eq.latencies_ns
    assert np.mean(sweeps) <= 12


def test_overloaded_solve_finishes_on_the_damped_fallback(monkeypatch):
    """Migration traffic near tier 0's saturation: the first Newton point
    is not positive and a later one raises the residual, so the solve
    finishes on damped updates. It must still reach the fixed point."""
    machine = paper_testbed()
    app = CoreGroup("app", 18, 20.0, randomness=0.75, read_fraction=0.15)
    extra = [(TrafficClass(18.0, randomness=0.3, read_fraction=0.0),),
             (TrafficClass(18.0, randomness=0.3, read_fraction=1.0),)]
    pinned = [(antagonist_core_group(1, machine.antagonist), 0)]
    newton_points = [0]
    original = EquilibriumSolver._newton_point

    def counted(self, *args):
        newton_points[0] += 1
        return original(self, *args)

    monkeypatch.setattr(EquilibriumSolver, "_newton_point", counted)
    solver = EquilibriumSolver(machine.tiers, use_cache=False)
    cold = solver.solve(app, [0.8, 0.2], pinned=pinned, extra_traffic=extra)
    # Sweeps beyond the Newton steps' own (n probes plus one each, and
    # the first sweep) were damped updates.
    assert cold.iterations > 1 + 3 * newton_points[0]
    warm = solver.solve(app, [0.8, 0.2], pinned=pinned, extra_traffic=extra,
                        initial_latencies=[300.0, 200.0])
    _assert_equilibria_agree(warm, cold)
