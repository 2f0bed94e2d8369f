"""Copy streams: the solver's one extra-traffic input.

Per tier, a sequence of ``(bandwidth, randomness, read_fraction)``
tuples. The solver checks each at its boundary, keys its memoization on
the per-tier sequences as given (so equal streams hit, wherever they came
from), and serves a solve with the last solve's objects and equal streams
as that solve's hit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import scaled_machine
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import paper_testbed
from repro.runtime.colocation import ColocatedLoop, TenantSpec
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE

APP = CoreGroup("app", 15, 7.0, read_fraction=0.5)
PINNED = ((antagonist_core_group(2, paper_testbed().antagonist), 0),)


def _solver() -> EquilibriumSolver:
    return EquilibriumSolver(paper_testbed().tiers, use_cache=True)


def _split(*values) -> np.ndarray:
    split = np.array(values)
    split.flags.writeable = False
    return split


def _solve(solver, split, streams):
    return solver.solve(APP, split, pinned=PINNED, extra_traffic=streams)


@pytest.mark.parametrize("stream", [
    (-1.0, 0.3, 1.0),
    (1.0, 1.5, 1.0),
    (1.0, math.nan, 1.0),
    (1.0, 0.3, -0.1),
    [1.0, 0.3, 1.0],
    (1.0, 0.3),
], ids=["negative_bandwidth", "randomness_above_one", "nan_randomness",
        "negative_read_fraction", "list", "two_fields"])
def test_streams_are_checked_at_the_solver(stream):
    solver = _solver()
    with pytest.raises(ConfigurationError):
        _solve(solver, _split(0.7, 0.3), [[stream], []])
    assert (solver.cache_hits, solver.cache_misses) == (0, 0)


def test_equal_streams_share_a_key_in_any_container():
    solver = _solver()
    first = _solve(solver, _split(0.7, 0.3), [[(2.0, 0.3, 1.0)], []])
    again = _solve(solver, _split(0.7, 0.3), (((2.0, 0.3, 1.0),), ()))
    assert again is first
    assert (solver.cache_hits, solver.cache_misses) == (1, 1)


def test_stream_order_within_a_tier_is_part_of_the_key():
    solver = _solver()
    read, write = (2.0, 0.3, 1.0), (1.0, 0.3, 0.0)
    first = _solve(solver, _split(0.7, 0.3), [(read, write), ()])
    other = _solve(solver, _split(0.7, 0.3), [(write, read), ()])
    assert other is not first
    assert (solver.cache_hits, solver.cache_misses) == (0, 2)


def test_last_solve_with_equal_streams_is_its_hit():
    solver = _solver()
    split = _split(0.7, 0.3)
    first = _solve(solver, split, [((2.0, 0.3, 1.0),), ()])
    # Equal values in new tuples: the last solve's hit, counted as one.
    assert _solve(solver, split, [((2.0, 0.3, 1.0),), ()]) is first
    assert solver.last_was_cache_hit
    # Other streams, or none, are other systems.
    assert _solve(solver, split, [((3.0, 0.3, 1.0),), ()]) is not first
    assert _solve(solver, split, None) is not first
    assert (solver.cache_hits, solver.cache_misses) == (1, 3)


def _idle_pair():
    tenants = [TenantSpec(name=f"t{i}",
                          workload=GupsWorkload(scale=FAST_SCALE / 2,
                                                seed=4 + i),
                          system=StaticPlacementSystem())
               for i in range(2)]
    return ColocatedLoop(machine=scaled_machine(FAST_SCALE),
                         tenants=tenants, contention=1, seed=4)


def test_the_same_copies_by_either_tenant_pose_the_same_system():
    loop = _idle_pair()
    loop.step()
    copies = 4 << 20
    tenants = loop._tenants
    tenants[0].copy_read_debt[1] += copies
    tenants[0].copy_write_debt[0] += copies
    loop.step()
    assert not loop.solver.last_was_cache_hit
    # The debt was drained in one quantum; the other tenant now owes the
    # same copies, and the combined streams are the same key.
    tenants[1].copy_read_debt[1] += copies
    tenants[1].copy_write_debt[0] += copies
    loop.step()
    assert loop.solver.last_was_cache_hit
    assert loop.metrics.records[-1].migration_bytes == copies
