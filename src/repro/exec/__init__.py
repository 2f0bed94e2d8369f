"""Declarative experiment execution.

The experiment layer's core: figures *declare* their grids as lists of
frozen :class:`~repro.exec.spec.RunSpec` values and submit them to a
:class:`~repro.exec.runner.Runner`, which deduplicates, consults the
opt-in content-addressed :class:`~repro.exec.cache.ResultCache`, and
executes the rest serially or across a process pool — with results
bit-identical either way, because every spec seeds all of its own
randomness.

Layering: ``exec`` sits below :mod:`repro.experiments` (which builds
specs from :class:`~repro.experiments.common.ExperimentConfig`) and
above the runtime/simulation layers it drives.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
)
from repro.exec.execute import (
    build_loop,
    execute_spec,
    run_spec_steady,
)
from repro.exec.factories import base_system_of, make_system
from repro.exec.progress import FleetProgress
from repro.exec.result import CellResult, TraceSeries
from repro.exec.runner import (
    AggregatedCell,
    CellError,
    Runner,
    RunnerStats,
    aggregate,
    expand_seeds,
)
from repro.exec.spec import (
    BEST_CASE_SYSTEM,
    COLOCATION_SYSTEM,
    SPEC_SCHEMA_VERSION,
    MachineSpec,
    RunSpec,
    TenantCellSpec,
    WorkloadSpec,
    static_contention,
)

__all__ = [
    "AggregatedCell",
    "BEST_CASE_SYSTEM",
    "CACHE_DIR_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "COLOCATION_SYSTEM",
    "CellError",
    "CellResult",
    "DEFAULT_CACHE_DIR",
    "FleetProgress",
    "MachineSpec",
    "ResultCache",
    "RunSpec",
    "Runner",
    "RunnerStats",
    "SPEC_SCHEMA_VERSION",
    "TenantCellSpec",
    "TraceSeries",
    "WorkloadSpec",
    "aggregate",
    "base_system_of",
    "build_loop",
    "execute_spec",
    "expand_seeds",
    "make_system",
    "run_spec_steady",
    "static_contention",
]
