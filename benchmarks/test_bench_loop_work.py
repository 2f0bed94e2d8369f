"""Work guard for a quantum's bookkeeping: counts, not times.

A quantum pays for its PEBS draw and its solver sweeps; the bookkeeping
around them is kept from coming back by counting it:

- copy debt reaches the solver as plain per-tier copy-stream tuples, so
  no :class:`~repro.memhw.latency.TrafficClass` is built on the step
  path (while the run does present copy streams to the solver);
- with profiling off, the loop never calls the phase profiler;
- every empty migration plan gets its executor's one shared result;
- the solver's cache hits and misses are the ones pinned below, so
  cheaper memoization keys lose no hit and make no new one.

Two single-tenant loops run 300 quanta each at the test scale and seed
5: TPP+Colloid at 2x contention, which migrates and so carries copy
debt, and HeMem at 1x. The counts are deterministic; they change only
with the simulation, and a deliberate change there regenerates them.
"""

from __future__ import annotations

import pytest

from repro.exec.factories import make_system
from repro.experiments.common import scaled_machine
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.latency import TrafficClass
from repro.obs.profile import PhaseProfiler
from repro.pages.migration import MigrationExecutor
from repro.runtime.loop import SimulationLoop
from repro.workloads.gups import GupsWorkload

#: The test suite's geometry scale (``tests.conftest.FAST_SCALE``).
_SCALE = 0.0625
_SEED = 5
_QUANTA = 300

#: (system, contention) -> (solver cache hits, misses) over the run.
EXPECTED_CACHE = {
    ("tpp+colloid", 2): (43, 257),
    ("hemem", 1): (169, 131),
}


@pytest.mark.parametrize("system, contention", sorted(EXPECTED_CACHE))
def test_quantum_bookkeeping_is_pinned(system, contention, monkeypatch):
    counts = {"traffic_classes": 0, "laps": 0, "streams": 0,
              "empty_plans": 0, "fresh_empty_results": 0}

    def count(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TrafficClass, "__post_init__", count(
        "traffic_classes", TrafficClass.__post_init__))
    monkeypatch.setattr(PhaseProfiler, "lap", count(
        "laps", PhaseProfiler.lap))
    monkeypatch.setattr(PhaseProfiler, "start", count(
        "laps", PhaseProfiler.start))

    solve = EquilibriumSolver.solve

    def solve_counting_streams(self, *args, **kwargs):
        if kwargs.get("extra_traffic") is not None:
            counts["streams"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(EquilibriumSolver, "solve", solve_counting_streams)
    execute = MigrationExecutor.execute

    def execute_checking_empties(self, plan, *args, **kwargs):
        result = execute(self, plan, *args, **kwargs)
        if not len(plan):
            counts["empty_plans"] += 1
            counts["fresh_empty_results"] += result is not self.empty_result
        return result

    monkeypatch.setattr(MigrationExecutor, "execute",
                        execute_checking_empties)

    loop = SimulationLoop(
        machine=scaled_machine(_SCALE),
        workload=GupsWorkload(scale=_SCALE, seed=_SEED),
        system=make_system(system), contention=contention, seed=_SEED,
    )
    assert not loop.profiler.enabled
    for __ in range(_QUANTA):
        loop.step()

    assert counts["traffic_classes"] == 0
    assert counts["laps"] == 0
    assert counts["empty_plans"] > 0
    assert counts["fresh_empty_results"] == 0
    if system == "tpp+colloid":
        assert counts["streams"] > 0
    assert ((loop.solver.cache_hits, loop.solver.cache_misses)
            == EXPECTED_CACHE[(system, contention)])
