"""Figure 11: real-application benchmarks (§5.3).

Three applications with different compute-to-memory-bandwidth demands and
access skews, each with the default tier sized to one third of the
working set:

* GAPBS PageRank on a Twitter-like graph (degree-skewed locality);
* Silo running YCSB-C (Zipfian point lookups, read-only);
* CacheLib running the HeMemKV CacheBench workload (4 KB values, hot/cold
  key split).

The paper reports Colloid improvements of 1.05-2.12x (GAPBS),
1.08-1.25x (Silo) and 1.37-1.93x (CacheLib) at elevated contention.
GAPBS performance is reported as execution time (lower is better) in the
paper; we report throughput for uniformity and note the reciprocal
relationship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec.runner import Runner
from repro.exec.spec import MachineSpec, RunSpec, WorkloadSpec
from repro.experiments.common import (
    BASELINE_SYSTEMS,
    ExperimentConfig,
    format_table,
    steady_cell_spec,
)
from repro.workloads.base import Workload

APPLICATIONS = ("gapbs", "silo", "cachelib")
DEFAULT_INTENSITIES = (0, 1, 2, 3)

#: §5.3 sizing: default tier holds one third of the working set.
WS_DIVISOR = 3


def application_spec(name: str, config: ExperimentConfig) -> WorkloadSpec:
    """Declarative spec for one of the §5.3 application workloads."""
    if name not in APPLICATIONS:
        raise ConfigurationError(f"unknown application {name!r}")
    return WorkloadSpec.make(name, scale=config.scale, seed=config.seed)


def machine_for(workload: Workload, config: ExperimentConfig):
    """The testbed with the default tier sized to one third of the
    working set, per §5.3."""
    return MachineSpec(
        scale=config.scale, default_tier_ws_divisor=WS_DIVISOR
    ).build(workload)


@dataclass(frozen=True)
class Fig11Result:
    """Throughput keyed (application, system, intensity)."""

    applications: Tuple[str, ...]
    base_systems: Tuple[str, ...]
    intensities: Tuple[int, ...]
    throughput: Dict[Tuple[str, str, int], float]

    def improvement(self, app: str, base: str, intensity: int) -> float:
        return (
            self.throughput[(app, f"{base}+colloid", intensity)]
            / self.throughput[(app, base, intensity)]
        )


def build_cells(config: ExperimentConfig,
                applications: Sequence[str] = APPLICATIONS,
                intensities: Sequence[int] = DEFAULT_INTENSITIES,
                systems: Sequence[str] = BASELINE_SYSTEMS
                ) -> Dict[Tuple[str, str, int], RunSpec]:
    """The Figure 11 grid: every app x system x intensity cell."""
    machine = MachineSpec(scale=config.scale,
                          default_tier_ws_divisor=WS_DIVISOR)
    cells: Dict[Tuple[str, str, int], RunSpec] = {}
    for app in applications:
        workload = application_spec(app, config)
        for intensity in intensities:
            for base in systems:
                for name in (base, f"{base}+colloid"):
                    cells[(app, name, intensity)] = steady_cell_spec(
                        name, intensity, config,
                        workload=workload, machine=machine,
                    )
    return cells


def run(config: Optional[ExperimentConfig] = None,
        applications: Sequence[str] = APPLICATIONS,
        intensities: Sequence[int] = DEFAULT_INTENSITIES,
        systems: Sequence[str] = BASELINE_SYSTEMS,
        runner: Optional[Runner] = None) -> Fig11Result:
    if config is None:
        config = ExperimentConfig.from_env()
    if runner is None:
        runner = Runner()
    cells = runner.run_grid(
        build_cells(config, applications, intensities, systems),
        n_runs=max(1, config.n_runs),
    )
    throughput = {key: cell.throughput for key, cell in cells.items()}
    return Fig11Result(
        applications=tuple(applications),
        base_systems=tuple(systems),
        intensities=tuple(intensities),
        throughput=throughput,
    )


def format_rows(result: Fig11Result) -> str:
    blocks = []
    for app in result.applications:
        headers = ["intensity"]
        for base in result.base_systems:
            headers += [base, f"{base}+colloid (gain)"]
        rows = []
        for intensity in result.intensities:
            row = [f"{intensity}x"]
            for base in result.base_systems:
                t0 = result.throughput[(app, base, intensity)]
                t1 = result.throughput[(app, f"{base}+colloid", intensity)]
                row.append(f"{t0:.1f}")
                row.append(f"{t1:.1f} ({t1 / t0:.2f}x)")
            rows.append(row)
        blocks.append(f"{app} (GB/s)\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(format_rows(run()))
