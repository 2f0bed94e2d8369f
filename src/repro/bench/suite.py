"""Scaled benchmark suites and the suite driver.

Each suite is a named list of cases running real figure harnesses
through the ordinary exec layer (specs, Runner, optional cache, fan-out)
at a size budget: ``tiny`` finishes in well under a minute for CI smoke
and pre-commit checks, ``small`` is a denser local check, ``full`` runs
the report-sized grids. A synthetic ``loop`` case runs one profiled
simulation so every record carries the phase-time breakdown the
``--profile`` flag reports — the per-phase perf trajectory.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.runner import Runner
from repro.experiments.common import ExperimentConfig
from repro.options import RunOptions

from repro.bench.record import (
    BenchRecord,
    CaseTiming,
    measure_calibration_step_s,
    peak_rss_bytes,
)

#: Duration caps matched to the raised bench migration limit (mirrors
#: benchmarks/conftest.py: transients shorten, steady placements don't).
_BENCH_DURATION_CAPS = {"hemem": 8.0, "memtis": 12.0, "tpp": 20.0}

_BENCH_MIGRATION_LIMIT = 8 * 1024 * 1024


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark case."""

    name: str
    run: Callable[[ExperimentConfig, Runner], object]


@dataclass(frozen=True)
class BenchSuite:
    """A named set of cases at one geometry scale."""

    name: str
    scale: float
    cases: Tuple[BenchCase, ...]
    profile_duration_s: float = 2.0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            scale=self.scale,
            migration_limit_bytes=_BENCH_MIGRATION_LIMIT,
            duration_caps=_BENCH_DURATION_CAPS,
        )


def _fig5_case(intensities, systems) -> BenchCase:
    def run(config: ExperimentConfig, runner: Runner):
        from repro.experiments import fig5

        return fig5.run(config, intensities=intensities,
                        systems=systems, runner=runner)

    return BenchCase(name="fig5", run=run)


def _fig6_case(intensities, systems) -> BenchCase:
    def run(config: ExperimentConfig, runner: Runner):
        from repro.experiments import fig6

        return fig6.run(config, intensities=intensities,
                        systems=systems, runner=runner)

    return BenchCase(name="fig6", run=run)


def _solver_micro_case() -> BenchCase:
    """Direct microbenchmark of the equilibrium solver's three regimes.

    Cold solves (fresh system per point), warm-chained sweeps (each
    solve seeded by the previous equilibrium), and memoized repeats
    (steady state re-posing the identical system). Runs outside the
    exec layer so its wall time tracks the solver alone — the phase the
    loop profile attributes ~86% of its time to.
    """

    def run(config: ExperimentConfig, runner: Runner):
        from repro.memhw.antagonist import antagonist_core_group
        from repro.memhw.fixedpoint import EquilibriumSolver
        from repro.memhw.topology import paper_testbed
        from repro.workloads.gups import GupsWorkload

        machine = paper_testbed()
        app = GupsWorkload(scale=config.scale,
                           seed=config.seed).core_group()
        antagonist = antagonist_core_group(2, machine.antagonist)
        pinned = [(antagonist, 0)]

        # Cold: every solve starts from unloaded latencies.
        cold = EquilibriumSolver(machine.tiers, use_cache=False)
        for i in range(40):
            p = i / 39.0
            cold.solve(app, [p, 1.0 - p], pinned=pinned)

        # Warm-chained: a drifting sweep, each solve seeded by the last.
        warm_solver = EquilibriumSolver(machine.tiers, use_cache=False)
        warm = None
        for i in range(200):
            p = 0.3 + 0.4 * i / 199.0
            eq = warm_solver.solve(app, [p, 1.0 - p], pinned=pinned,
                                   initial_latencies=warm)
            warm = eq.latencies_ns

        # Memoized: steady state re-posing the identical system.
        memo = EquilibriumSolver(machine.tiers, use_cache=True)
        for _ in range(400):
            memo.solve(app, [0.7, 0.3], pinned=pinned)
        return None

    return BenchCase(name="solver-micro", run=run)


def _colocation_micro_case(duration_s: float = 2.0) -> BenchCase:
    """Direct microbenchmark of the two-tenant colocated loop.

    One GUPS + Silo pair, each under its own ``hemem+colloid``
    controller, stepped for a fixed simulated duration under external
    contention. Runs outside the exec layer so its wall time tracks the
    colocation machinery itself — the shared multi-app solve, per-tenant
    observation/decision/migration, and capacity arbitration — rather
    than spec plumbing.
    """

    def run(config: ExperimentConfig, runner: Runner):
        from repro.experiments.common import make_system, scaled_machine
        from repro.runtime.colocation import ColocatedLoop, TenantSpec
        from repro.workloads.gups import GupsWorkload
        from repro.workloads.silo import SiloYcsbWorkload

        half = config.scale / 2.0
        tenants = [
            TenantSpec(name="gups",
                       workload=GupsWorkload(scale=half,
                                             seed=config.seed),
                       system=make_system("hemem+colloid")),
            TenantSpec(name="silo",
                       workload=SiloYcsbWorkload(scale=half,
                                                 seed=config.seed + 1),
                       system=make_system("hemem+colloid")),
        ]
        loop = ColocatedLoop(
            machine=scaled_machine(config.scale),
            tenants=tenants,
            contention=2,
            migration_limit_bytes=config.resolved_migration_limit(),
            seed=config.seed,
            options=runner.options,
        )
        loop.run(duration_s=duration_s)
        return None

    return BenchCase(name="colocation-micro", run=run)


def _placement_audit_case(duration_s: float = 2.0) -> BenchCase:
    """Direct benchmark of a placement-audited contention-step run.

    The same representative ``hemem+colloid`` loop the diagnostics
    record uses, traced with the placement audit on — so its wall
    time tracks what the occupancy ledger, flow tracker, and periodic
    misplacement-gap audit add on top of plain tracing, and ``bench
    compare`` catches the audit getting more expensive over time.
    """

    def run(config: ExperimentConfig, runner: Runner):
        from dataclasses import replace

        from repro.experiments.common import make_system, scaled_machine
        from repro.obs.tracer import Tracer
        from repro.runtime.loop import SimulationLoop
        from repro.workloads.gups import GupsWorkload

        quanta = int(duration_s * 1000.0 / 10.0)
        step_time = duration_s / 2.0
        loop = SimulationLoop(
            machine=scaled_machine(config.scale),
            workload=GupsWorkload(scale=config.scale, seed=config.seed),
            system=make_system("hemem+colloid"),
            contention=lambda t: 0 if t < step_time else 2,
            seed=config.seed,
            tracer=Tracer(ring_size=max(4096, quanta * 16)),
            options=replace(runner.options, placement_audit=10),
        )
        loop.run(duration_s=duration_s)
        return None

    return BenchCase(name="placement-audit", run=run)


def _fig9_case(scenarios, base_systems) -> BenchCase:
    def run(config: ExperimentConfig, runner: Runner):
        from repro.experiments import fig9

        return fig9.run(config, scenarios=scenarios,
                        base_systems=base_systems, runner=runner)

    return BenchCase(name="fig9", run=run)


SUITES: Dict[str, BenchSuite] = {
    "tiny": BenchSuite(
        name="tiny",
        scale=0.03,
        cases=(
            _fig6_case(intensities=(0, 3), systems=("hemem",)),
            _fig5_case(intensities=(0, 3), systems=("hemem",)),
            _solver_micro_case(),
            _colocation_micro_case(duration_s=1.0),
            _placement_audit_case(duration_s=1.0),
        ),
        profile_duration_s=1.0,
    ),
    "small": BenchSuite(
        name="small",
        scale=0.0625,
        cases=(
            _fig6_case(intensities=(0, 2, 3),
                       systems=("hemem", "memtis")),
            _fig5_case(intensities=(0, 2, 3),
                       systems=("hemem", "memtis")),
            _fig9_case(scenarios=("contention",),
                       base_systems=("hemem",)),
            _solver_micro_case(),
            _colocation_micro_case(duration_s=2.0),
            _placement_audit_case(duration_s=2.0),
        ),
        profile_duration_s=2.0,
    ),
    "full": BenchSuite(
        name="full",
        scale=0.0625,
        cases=(
            _fig6_case(intensities=(0, 1, 2, 3),
                       systems=("hemem", "tpp", "memtis")),
            _fig5_case(intensities=(0, 1, 2, 3),
                       systems=("hemem", "tpp", "memtis")),
            _fig9_case(scenarios=("hotshift-0x", "contention"),
                       base_systems=("hemem",)),
            _solver_micro_case(),
            _colocation_micro_case(duration_s=4.0),
            _placement_audit_case(duration_s=4.0),
        ),
        profile_duration_s=4.0,
    ),
}


def _diagnostics_summary(config: ExperimentConfig, duration_s: float,
                         options: RunOptions) -> dict:
    """Diagnose one traced representative colloid run.

    The behavioral companion to the phase profile: a short
    ``hemem+colloid`` run with a mid-run contention step (the Fig. 4c
    dynamism) is traced in memory and distilled into the
    :class:`~repro.obs.diagnose.DiagnosticsSummary` scores — so every
    bench record pins convergence quanta, oscillation and thrash
    alongside wall time, and ``bench compare`` can flag behavioral
    regressions that cost no wall time at all.
    """
    from repro.experiments.common import make_system, scaled_machine
    from repro.obs.diagnose import diagnose_events
    from repro.obs.tracer import Tracer
    from repro.runtime.loop import SimulationLoop
    from repro.workloads.gups import GupsWorkload

    quanta = int(duration_s * 1000.0 / 10.0)
    tracer = Tracer(ring_size=max(4096, quanta * 16))
    step_time = duration_s / 2.0
    # Deliberately the loop's default migration limit, not the bench
    # cap: the representative run measures controller behavior, and the
    # tighter bench budget rate-limits the post-reset re-walk of p so
    # the second epoch cannot converge within the run.
    loop = SimulationLoop(
        machine=scaled_machine(config.scale),
        workload=GupsWorkload(scale=config.scale, seed=config.seed),
        system=make_system("hemem+colloid"),
        contention=lambda t: 0 if t < step_time else 2,
        seed=config.seed,
        tracer=tracer,
        options=options,
    )
    loop.run(duration_s=duration_s)
    loop.emit_run_end()
    return diagnose_events(tracer.events()).summary.to_dict()


def _profiled_phase_totals(config: ExperimentConfig, duration_s: float,
                           options: RunOptions) -> Dict[str, int]:
    """Run one profiled representative loop; return per-phase totals."""
    from repro.experiments.common import scaled_machine
    from repro.runtime.loop import SimulationLoop
    from repro.tiering.hemem import HememSystem
    from repro.workloads.gups import GupsWorkload

    loop = SimulationLoop(
        machine=scaled_machine(config.scale),
        workload=GupsWorkload(scale=config.scale, seed=config.seed),
        system=HememSystem(),
        contention=1,
        migration_limit_bytes=config.resolved_migration_limit(),
        seed=config.seed,
        profile=True,
        options=options,
    )
    loop.run(duration_s=duration_s)
    return {name: int(ns) for name, ns in loop.profiler.phases.items()}


def run_suite(suite_name: str,
              jobs: int = 1,
              cache: Optional[ResultCache] = None,
              name: Optional[str] = None,
              reporter=None,
              progress: Optional[Callable[[str], None]] = None,
              journal=None,
              options: Optional[RunOptions] = None,
              ) -> BenchRecord:
    """Execute a suite and assemble its :class:`BenchRecord`.

    Args:
        suite_name: Key into :data:`SUITES`.
        jobs: Worker processes for the shared Runner.
        cache: Optional result cache (records then include a hit rate;
            a warm cache makes the record measure cache reads, which is
            a meaningful trajectory point of its own — label such runs
            distinctly via ``name``).
        name: Record name (defaults to the suite name).
        reporter: Optional FleetProgress for live per-cell output.
        progress: Optional per-case callback (receives the case name).
        journal: Optional :class:`~repro.exec.journal.FleetJournal` so
            an interrupted bench resumes instead of restarting.
        options: What every run observes; None takes the environment
            defaults.
    """
    suite = SUITES.get(suite_name)
    if suite is None:
        raise ConfigurationError(
            f"unknown bench suite {suite_name!r}; expected one of "
            f"{sorted(SUITES)}"
        )
    from repro.obs.metrics import METRICS

    config = suite.config()
    runner = Runner(jobs=jobs, cache=cache, reporter=reporter,
                    journal=journal, options=options)
    calibration_step_s = measure_calibration_step_s()
    cases = []
    total_start = perf_counter()
    for case in suite.cases:
        if progress is not None:
            progress(case.name)
        executed_before = runner.stats.executed
        hits_before = runner.stats.cache_hits
        case_start = perf_counter()
        case.run(config, runner)
        cases.append(CaseTiming(
            name=case.name,
            wall_s=perf_counter() - case_start,
            cells_executed=runner.stats.executed - executed_before,
            cache_hits=runner.stats.cache_hits - hits_before,
        ))
    if progress is not None:
        progress("loop-profile")
    phase_start = perf_counter()
    phase_totals = _profiled_phase_totals(config,
                                          suite.profile_duration_s,
                                          runner.options)
    cases.append(CaseTiming(
        name="loop-profile",
        wall_s=perf_counter() - phase_start,
        cells_executed=0,
        cache_hits=0,
    ))
    if progress is not None:
        progress("diagnostics-rep")
    diag_start = perf_counter()
    diagnostics = _diagnostics_summary(
        config, max(3.0, suite.profile_duration_s), runner.options)
    cases.append(CaseTiming(
        name="diagnostics-rep",
        wall_s=perf_counter() - diag_start,
        cells_executed=0,
        cache_hits=0,
    ))
    total_wall_s = perf_counter() - total_start

    lookups = runner.stats.cache_hits + runner.stats.cache_misses
    hit_rate = (runner.stats.cache_hits / lookups
                if cache is not None and lookups else None)
    return BenchRecord(
        name=name or suite.name,
        created_utc=BenchRecord.now_utc(),
        suite=suite.name,
        scale=suite.scale,
        jobs=jobs,
        calibration_step_s=calibration_step_s,
        total_wall_s=total_wall_s,
        cases=tuple(cases),
        phase_totals_ns=phase_totals,
        cache_hit_rate=hit_rate,
        peak_rss_bytes=peak_rss_bytes(),
        python=platform.python_version(),
        machine=BenchRecord.platform_id(),
        metrics=(METRICS.snapshot().to_dict()
                 if runner.options.metrics else None),
        diagnostics=diagnostics,
    )


__all__ = ["BenchCase", "BenchSuite", "SUITES", "run_suite"]
