"""Reproduction of "Tiered Memory Management: Access Latency is the Key!"
(Colloid, SOSP 2024).

Public API quick map:

* Hardware substrate: :mod:`repro.memhw` (machines, equilibrium solver,
  CHA counters) and :mod:`repro.sim` (request-level validation
  simulator).
* Pages: :mod:`repro.pages` (placement, migration, best-case oracle).
* Baseline systems: :mod:`repro.tiering` (HeMem, MEMTIS, TPP, static,
  BATMAN, Carrefour).
* Colloid: :mod:`repro.core` (measurement, Algorithm 1/2, integrations).
* Workloads: :mod:`repro.workloads` (GUPS, GAPBS, Silo, CacheLib,
  dynamics).
* Runtime: :mod:`repro.runtime` (simulation loop, steady-state runner).
* Observability: :mod:`repro.obs` (decision tracing, phase profiling,
  trace reports).
* Experiments: :mod:`repro.experiments` (one module per paper figure).

Minimal example (machine and workload scaled together so the hot set
fits the default tier but the working set does not, as in §2.1)::

    from repro import SimulationLoop, GupsWorkload
    from repro.core import HememColloidSystem
    from repro.experiments.common import scaled_machine

    loop = SimulationLoop(
        machine=scaled_machine(0.125),
        workload=GupsWorkload(scale=0.125),
        system=HememColloidSystem(),
        contention=3,
    )
    metrics = loop.run(duration_s=10.0)
    print(metrics.steady_state_throughput())
"""

from repro.memhw import (
    CoreGroup,
    EquilibriumSolver,
    Machine,
    MemoryTierSpec,
    antagonist_core_group,
    cxl_testbed,
    paper_testbed,
)
from repro.pages import best_case_sweep
from repro.runtime import SimulationLoop, run_steady_state
from repro.tiering import (
    HememSystem,
    MemtisSystem,
    StaticPlacementSystem,
    TppSystem,
)
from repro.workloads import (
    CacheLibWorkload,
    GraphWorkload,
    GupsWorkload,
    HotSetShiftWorkload,
    SiloYcsbWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "CoreGroup",
    "EquilibriumSolver",
    "Machine",
    "MemoryTierSpec",
    "antagonist_core_group",
    "cxl_testbed",
    "paper_testbed",
    "best_case_sweep",
    "SimulationLoop",
    "run_steady_state",
    "HememSystem",
    "MemtisSystem",
    "StaticPlacementSystem",
    "TppSystem",
    "CacheLibWorkload",
    "GraphWorkload",
    "GupsWorkload",
    "HotSetShiftWorkload",
    "SiloYcsbWorkload",
    "__version__",
]
