"""Spec execution — the worker side of the experiment layer.

:func:`execute_spec` turns one :class:`~repro.exec.spec.RunSpec` into a
:class:`~repro.exec.result.CellResult`. It is a module-level function of
picklable arguments — the spec and the
:class:`~repro.options.RunOptions` saying what the cell observes — so
the :class:`~repro.exec.runner.Runner` can fan it out over a
:class:`concurrent.futures.ProcessPoolExecutor`; all randomness is
seeded from the spec, so a cell's result is a pure function of the spec
regardless of which process (or how many neighbors) computed it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exec.factories import make_system
from repro.exec.result import CellResult, TraceSeries
from repro.exec.spec import RunSpec
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.memhw.topology import Machine
from repro.options import RunOptions
from repro.pages.oracle import BestCaseResult, best_case_sweep
from repro.runtime.experiment import SteadyStateResult, run_steady_state
from repro.runtime.colocation import ColocatedLoop
from repro.runtime.loop import SimulationLoop, TenantSpec
from repro.workloads.base import Workload


def build_loop(spec: RunSpec, tracer=None,
               options: Optional[RunOptions] = None):
    """Construct the loop a spec describes: a
    :class:`~repro.runtime.loop.SimulationLoop`, or a
    :class:`~repro.runtime.colocation.ColocatedLoop` when the spec
    declares tenants."""
    common = dict(
        options=options,
        quantum_ms=spec.quantum_ms,
        contention=spec.contention_input(),
        cha_noise_sigma=spec.cha_noise_sigma,
        migration_limit_bytes=spec.migration_limit_bytes,
        seed=spec.seed,
        tracer=tracer,
    )
    if not spec.tenants:
        workload = spec.workload.build()
        return SimulationLoop(
            machine=spec.machine.build(workload),
            workload=workload,
            system=make_system(spec.system, **dict(spec.system_kwargs)),
            **common,
        )
    tenants = [
        TenantSpec(
            name=cell.name,
            workload=cell.workload.build(),
            system=make_system(cell.system, **dict(cell.system_kwargs)),
            weight=cell.weight,
        )
        for cell in spec.tenants
    ]
    return ColocatedLoop(machine=spec.machine.build(tenants[0].workload),
                         tenants=tenants, **common)


def _cell_tracer(spec: RunSpec, options: RunOptions):
    """An in-memory tracer sized to hold the whole cell, when a per-cell
    trace consumer (diagnostics or the placement audit) is on."""
    from repro.obs.tracer import DEFAULT_RING_SIZE, Tracer

    if not (options.diagnose or options.placement_audit is not None):
        return None
    duration_s = spec.duration_s or spec.max_duration_s or 10.0
    quanta = duration_s * 1000.0 / spec.quantum_ms
    # ~8 events per quantum with tracing on; 2x headroom.
    return Tracer(ring_size=max(DEFAULT_RING_SIZE, int(quanta * 16)))


def _finalize_cell(loop, tracer) -> "Tuple[dict | None, dict | None]":
    """Distill the cell's trace into its opt-in payloads.

    Returns ``(diagnostics, placement)`` — each None when the loop's
    options leave it off or the trace is empty.
    """
    if tracer is None:
        return None, None
    from repro.obs.diagnose import diagnose_events
    from repro.obs.placement import placement_payload

    loop.emit_run_end()
    events = tracer.events()
    if not events:
        return None, None
    options = loop.options
    diagnostics = (diagnose_events(events).summary.to_dict()
                   if options.diagnose else None)
    placement = (placement_payload(events)
                 if options.placement_audit is not None else None)
    return diagnostics, placement


def run_spec_steady(spec: RunSpec) -> SteadyStateResult:
    """Run a steady-mode spec and return the full steady-state result
    (with metrics) — the spec-native form of ``run_gups_steady_state``."""
    loop = build_loop(spec)
    return run_steady_state(
        loop,
        min_duration_s=spec.resolved_min_duration_s(),
        max_duration_s=spec.max_duration_s,
    )


def best_case_result(workload: Workload, machine: Machine,
                     intensity: int, seed: int,
                     options: Optional[RunOptions] = None
                     ) -> BestCaseResult:
    """The paper's §2.2 best-case sweep for one contention level.

    The sweep chains warm starts across placement points (the solver is
    fresh per cell, so memoization never crosses cell boundaries and
    parallel fan-out stays bit-identical to serial).
    """
    solver = EquilibriumSolver(
        machine.tiers, use_cache=RunOptions.resolve(options).solver_cache)
    antagonist = antagonist_core_group(intensity, machine.antagonist)
    return best_case_sweep(
        solver=solver,
        app=workload.core_group(),
        access_probs=workload.access_probabilities(),
        hot_mask=workload.effective_hot_mask(),
        page_sizes=np.full(workload.n_pages, workload.page_bytes,
                           dtype=np.int64),
        default_capacity=machine.tiers[0].capacity_bytes,
        pinned=[(antagonist, 0)],
        rng=np.random.default_rng(seed),
        chain_warm_starts=True,
    )


def _tail(metrics) -> list:
    """The records of the run's last quarter (at least one)."""
    return metrics.tail(max(1, len(metrics) // 4))


def _tail_stats(metrics) -> Tuple[Tuple[float, ...], float]:
    """(per-tier tail-mean latency, default tier's tail bandwidth share)
    over the last quarter of the run — the figures' common reduction.
    Only the tail's rows are stacked."""
    rows = _tail(metrics)
    latencies = np.vstack([r.latencies_ns for r in rows]).mean(axis=0)
    bandwidth = np.vstack([r.app_tier_bandwidth for r in rows]).mean(axis=0)
    total = float(bandwidth.sum())
    share = float(bandwidth[0]) / total if total else 0.0
    return tuple(float(x) for x in latencies), share


def _cpu_work(system) -> dict:
    return {key: float(value) for key, value in system.cpu_work.items()}


def _loop_cpu_work(spec: RunSpec, loop) -> dict:
    """The loop's CPU-work counters; colocated specs merge every
    tenant's counters under tenant-prefixed keys."""
    if not spec.tenants:
        return _cpu_work(loop.system)
    merged = {}
    for name, system in loop.tenant_systems.items():
        for key, value in system.cpu_work.items():
            merged[f"{name}.{key}"] = float(value)
    return merged


def _tenant_payload(spec: RunSpec, loop) -> "dict | None":
    """Per-tenant summaries for a colocated spec (None otherwise)."""
    if not spec.tenants:
        return None
    systems = loop.tenant_systems
    payload = {}
    for name, metrics in loop.tenant_metrics.items():
        latencies, share = _tail_stats(metrics)
        throughput = np.array([r.throughput for r in _tail(metrics)])
        payload[name] = {
            "throughput": float(throughput.mean()),
            "tail_latencies_ns": list(latencies),
            "tail_default_share": share,
            "cpu_work": _cpu_work(systems[name]),
            "migration_bytes_total": float(
                metrics.migration_bytes.sum()),
        }
    return payload


def _execute_best_case(spec: RunSpec, options: RunOptions) -> CellResult:
    workload = spec.workload.build()
    machine = spec.machine.build(workload)
    best = best_case_result(workload, machine, spec.initial_contention(),
                            spec.seed, options)
    rates = best.best.equilibrium.apps[0].tier_read_rate
    total = float(rates.sum())
    share = float(rates[0]) / total if total else 0.0
    return CellResult(
        mode=spec.mode,
        throughput=float(best.throughput),
        converged=None,
        duration_s=0.0,
        tail_latencies_ns=(),
        tail_default_share=share,
        cpu_work={},
    )


def _execute_loop(spec: RunSpec, options: RunOptions) -> CellResult:
    """A steady-mode (run until settled) or trace-mode (fixed duration,
    with its time series) cell."""
    tracer = _cell_tracer(spec, options)
    loop = build_loop(spec, tracer=tracer, options=options)
    if spec.mode == "steady":
        steady = run_steady_state(
            loop,
            min_duration_s=spec.resolved_min_duration_s(),
            max_duration_s=spec.max_duration_s,
        )
        metrics = steady.metrics
        outcome = dict(throughput=float(steady.throughput),
                       converged=bool(steady.converged),
                       duration_s=float(steady.duration_s))
    else:
        metrics = loop.run(duration_s=spec.duration_s)
        tail = max(1, len(metrics) // 4)
        outcome = dict(throughput=float(metrics.throughput[-tail:].mean()),
                       converged=None,
                       duration_s=float(spec.duration_s),
                       series=TraceSeries.from_metrics(metrics))
    latencies, share = _tail_stats(metrics)
    diagnostics, placement = _finalize_cell(loop, tracer)
    return CellResult(
        mode=spec.mode,
        tail_latencies_ns=latencies,
        tail_default_share=share,
        cpu_work=_loop_cpu_work(spec, loop),
        diagnostics=diagnostics,
        tenants=_tenant_payload(spec, loop),
        placement=placement,
        **outcome,
    )


def execute_spec(spec: RunSpec,
                 options: Optional[RunOptions] = None) -> CellResult:
    """Execute one spec to completion (the Runner's worker function).

    ``options`` (None: the environment defaults) say what the cell
    observes. With ``check`` the spec's serialization round-trip is
    verified before the run — the content hash is the cache key and the
    dedup unit, so a lossy ``to_dict`` would silently cross results
    between cells — and the result's round-trip after, since the JSON
    form is what the cache persists. The simulation itself is checked
    by the loop's :class:`~repro.check.Checker`.
    """
    from repro.check import check_result_roundtrip, check_spec_roundtrip

    options = RunOptions.resolve(options)
    if options.check:
        check_spec_roundtrip(spec)
    if spec.mode == "best_case":
        result = _execute_best_case(spec, options)
    else:
        result = _execute_loop(spec, options)
    if options.check:
        check_result_roundtrip(spec, result)
    return result
