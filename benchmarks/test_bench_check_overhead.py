"""Overhead guard for the runtime invariant checker.

Two budgets, mirroring ``test_bench_obs_overhead.py``:

1. *Disabled cost*: with checking off the loop builds no invariant
   observer (its ``checker`` is the shared ``NULL_CHECKER``), so a
   quantum pays nothing for the checks it skips.
2. *Enabled cost*: a ``--check`` run may spend at most 10% of step wall
   time in the checker (the ISSUE's budget). Measured directly: the
   per-step cost of the four checker operations against a live loop's
   state, relative to the measured step time.
"""

from __future__ import annotations

from time import perf_counter

from repro.check import NULL_CHECKER
from repro.experiments.common import scaled_machine
from repro.options import RunOptions
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.workloads.gups import GupsWorkload

#: The ISSUE's overhead budget for an enabled --check run.
MAX_CHECK_OVERHEAD_FRACTION = 0.10

_SCALE = 0.03


def _make_loop(check: bool) -> SimulationLoop:
    return SimulationLoop(
        machine=scaled_machine(_SCALE),
        workload=GupsWorkload(scale=_SCALE, seed=21),
        system=HememSystem(),
        contention=1,
        seed=21,
        options=RunOptions(check=check),
    )


def _measure_step_seconds(check: bool, n_steps: int = 40) -> float:
    loop = _make_loop(check)
    for __ in range(5):  # warm caches and the solver
        loop.step()
    start = perf_counter()
    for __ in range(n_steps):
        loop.step()
    return (perf_counter() - start) / n_steps


def _measure_check_seconds(n_rounds: int = 300) -> float:
    """Mean per-step checker cost: the four operations the loop adds
    per quantum, run against real post-step loop state."""
    loop = _make_loop(True)
    record = loop.step()
    checker = loop.checker
    placement = loop.placement
    from repro.pages.migration import MigrationResult
    import numpy as np

    n_tiers = len(loop.machine.tiers)
    result = MigrationResult(
        bytes_moved=0, moves_applied=0, moves_skipped=0,
        moves_deferred=0,
        read_bytes_per_tier=np.zeros(n_tiers),
        write_bytes_per_tier=np.zeros(n_tiers),
    )
    start = perf_counter()
    for __ in range(n_rounds):
        checker.check_equilibrium(
            0.0, record.latencies_ns, record.throughput,
            record.p_measured,
        )
        snapshot = checker.placement_snapshot(placement)
        checker.check_migration(0.0, placement, result, None, snapshot)
    return (perf_counter() - start) / n_rounds


class TestCheckerOverhead:
    def test_enabled_checks_fit_the_overhead_budget(self):
        step_s = min(_measure_step_seconds(False)
                     for __ in range(3))
        check_s = min(_measure_check_seconds() for __ in range(3))
        overhead = check_s / step_s
        assert overhead < MAX_CHECK_OVERHEAD_FRACTION, (
            f"--check costs {overhead:.2%} of a {step_s * 1e6:.0f} us "
            f"step ({check_s * 1e6:.1f} us of checks per quantum); "
            f"budget is {MAX_CHECK_OVERHEAD_FRACTION:.0%}"
        )

    def test_disabled_checker_is_attribute_check_shaped(self):
        assert NULL_CHECKER.enabled is False
        assert type(NULL_CHECKER).enabled is False  # class attr, no dict
        assert NULL_CHECKER.check_equilibrium(0.0, [], 0.0, 0.0) is None
        assert NULL_CHECKER.placement_snapshot(None) is None
        assert NULL_CHECKER.check_migration(0.0, None, None, None,
                                            None) is None

    def test_checked_and_unchecked_steps_agree(self):
        checked = _make_loop(True)
        unchecked = _make_loop(False)
        assert unchecked.checker is NULL_CHECKER
        assert not unchecked.observers
        for __ in range(10):
            a = checked.step()
            b = unchecked.step()
        assert a.throughput == b.throughput
        assert checked.checker.checks_run > 0
