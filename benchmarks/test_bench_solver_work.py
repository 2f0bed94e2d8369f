"""Work guard for the equilibrium solver: calls, cache hits and sweeps.

The solver's cost in a run is its computed solves times their sweeps;
cache hits are nearly free. A faster solve path must keep all of these
counts exactly, and a change that loses the carried inverse Jacobian,
a warm start or a cache hit shows up here as a different count rather
than as a slower wall time that a shared machine's noise could hide.

Two cells of the benchmark's workloads run through ``Runner().run_one``,
with the benchmark's configuration (scale 0.0625, 8 MiB migration limit
per 10 ms quantum, shipped simulation seed 2):

- the Fig. 5 grid's HeMem cell at 1x contention (``solve``);
- the colocation grid's HeMem+Colloid primary with a Silo co-runner at
  2x contention (``solve_multi``).

Each entry point's calls, cache hits, misses and total sweeps of the
misses are pinned. The counts are deterministic; they change only with
the simulation, and a deliberate change there regenerates them.
"""

from __future__ import annotations

import pytest

from repro.exec.runner import Runner
from repro.experiments import colocation, fig5
from repro.experiments.common import ExperimentConfig
from repro.memhw.fixedpoint import EquilibriumSolver

_SCALE = 0.0625
_MIGRATION_LIMIT_BYTES = 8 << 20
_SEED = 2

#: Cell -> entry point -> (calls, cache hits, misses, sweeps of misses).
EXPECTED = {
    "fig5-hemem@1x": {"solve": (700, 405, 295, 1140)},
    "coloc-hemem+colloid@2x": {"solve_multi": (900, 752, 148, 715)},
}


def _cell(name: str):
    if name == "fig5-hemem@1x":
        config = ExperimentConfig(
            scale=_SCALE, seed=_SEED,
            migration_limit_bytes=_MIGRATION_LIMIT_BYTES,
            duration_caps={"hemem": 8.0, "memtis": 12.0, "tpp": 20.0})
        return fig5.build_cells(config, intensities=(1, 3))[("hemem", 1)]
    config = ExperimentConfig(
        scale=_SCALE, seed=_SEED,
        migration_limit_bytes=_MIGRATION_LIMIT_BYTES,
        duration_caps={"hemem": 12.0})
    return colocation.build_cells(config)[("hemem+colloid", 2)]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_solver_work_is_pinned(name, monkeypatch):
    counts = {}

    def counted(entry):
        original = getattr(EquilibriumSolver, entry)

        def wrapper(self, *args, **kwargs):
            equilibrium = original(self, *args, **kwargs)
            calls, hits, misses, sweeps = counts.get(entry, (0, 0, 0, 0))
            if self.last_was_cache_hit:
                hits += 1
            else:
                misses += 1
                sweeps += equilibrium.iterations
            counts[entry] = (calls + 1, hits, misses, sweeps)
            return equilibrium

        return wrapper

    for entry in ("solve", "solve_multi"):
        monkeypatch.setattr(EquilibriumSolver, entry, counted(entry))
    Runner().run_one(_cell(name))
    assert counts == EXPECTED[name]
