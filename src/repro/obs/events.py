"""Trace event schema.

Every event a :class:`~repro.obs.tracer.Tracer` emits has a ``type`` drawn
from :data:`EVENT_SCHEMAS` plus the common fields ``time_s`` (simulated
time, stamped by the tracer) — additional fields are per-type and
documented here. The schema is the contract between the instrumented
hot path and the offline report (``repro report trace.jsonl``): renaming
a field is a breaking change to recorded traces and must bump
:data:`TRACE_SCHEMA_VERSION`.

Colocated runs add an optional ``tenant`` field (the tenant's name) to
any event emitted through a :class:`~repro.obs.tracer.TenantTracer` —
per-tenant controller, executor, and invariant events carry it;
machine-scoped events (``run_start``, ``solver_converged``,
``contention_change``, ``run_end``) never do. Events without a
``tenant`` field are shared context for every tenant; single-app traces
contain no ``tenant`` fields at all, so the label is a pure addition and
does not bump :data:`TRACE_SCHEMA_VERSION`.
"""

from __future__ import annotations

from typing import Dict

#: Bumped whenever an event type or field is renamed or removed.
TRACE_SCHEMA_VERSION = 1

#: Event type -> {field name -> description}. ``type`` and ``time_s`` are
#: implicit on every event.
EVENT_SCHEMAS: Dict[str, Dict[str, str]] = {
    "run_start": {
        "schema_version": "trace schema version (TRACE_SCHEMA_VERSION)",
        "system": "tiering system name",
        "workload": "workload name",
        "n_tiers": "number of memory tiers",
        "quantum_ms": "runtime quantum in milliseconds",
        "migration_limit_bytes": "static per-quantum migration budget",
        "tenants": "colocated runs only: list of {tenant, workload, "
                   "system} descriptors in declaration order (absent on "
                   "single-app runs)",
    },
    "solver_converged": {
        "iterations": "fixed-point sweeps the equilibrium solve took, "
                      "Jacobian probes included",
        "latencies_ns": "per-tier loaded latency at the fixed point",
        "app_read_rate": "application demand-read bandwidth (bytes/ns)",
        "measured_p": "CHA-visible default-tier request share",
        "cached": "whether the solve was served from the memoization cache",
    },
    "compute_shift": {
        "p": "measured default-tier access-probability share",
        "p_lo": "lower watermark after this quantum's update",
        "p_hi": "upper watermark after this quantum's update",
        "dp": "desired |shift| in p chosen by Algorithm 2 (0 = hold)",
        "latency_default_ns": "measured default-tier latency L_D",
        "latency_alternate_ns": "measured alternate-tier latency L_A",
    },
    "watermark_reset": {
        "side": "'hi' (p_hi reset to 1), 'lo' (p_lo reset to 0), or "
                "'init' (bracket initialized to [0, 1], emitted once on "
                "the first traced ComputeShift call and again after an "
                "explicit ShiftComputer.reset())",
        "p": "measured p at the reset",
        "resets": "cumulative dynamic (Fig. 4c) reset count",
    },
    "colloid_decision": {
        "mode": "'promotion' or 'demotion'",
        "dp": "desired shift driving the decision",
        "budget_bytes": "dynamic migration limit for the plan",
        "n_moves": "length of the migration plan",
    },
    "migration_executed": {
        "planned_moves": "page moves requested by the tiering system",
        "planned_bytes": "bytes the full plan would move",
        "executed_bytes": "bytes actually migrated this call",
        "budget_bytes": "effective byte budget (tokens and dynamic cap)",
        "moves_applied": "moves applied",
        "moves_skipped": "moves dropped for capacity reasons",
        "moves_deferred": "moves dropped because the budget ran out",
    },
    "workload_shift": {
        "epoch": "1-based index of the access-pattern epoch that just "
                 "began (0 is the initial pattern); the diagnostics "
                 "timeline segments convergence analysis at these "
                 "events",
    },
    "contention_change": {
        "intensity": "antagonist intensity the schedule switched to",
        "previous": "intensity before the switch",
        "epoch": "1-based index of the epoch the change opens (shared "
                 "counter with workload_shift; the diagnostics timeline "
                 "treats both as epoch boundaries)",
    },
    "run_end": {
        "simulated_s": "total simulated time covered by the run",
        "n_quanta": "quanta executed",
        "counters": "runtime-wide obs.profile.Counters snapshot "
                    "(quanta, solver iterations, migrated bytes, "
                    "executor move outcomes)",
    },
    "run_progress": {
        "completed": "fleet cells finished so far",
        "total": "cells scheduled for execution in this batch",
        "label": "short description of the cell that just finished",
        "wall_elapsed_s": "wall-clock seconds since the batch started",
        "cells_per_s": "completion throughput so far",
        "eta_s": "estimated wall-clock seconds to batch completion "
                 "(null until one cell has finished)",
    },
    "cell_start": {
        "completed": "fleet cells finished when this start was observed",
        "total": "cells scheduled for execution in this batch",
        "label": "short description of the cell that started",
    },
    "phase_timing": {
        "phases": "mapping of loop phase name -> wall-clock nanoseconds",
    },
    "invariant_violation": {
        "invariant": "machine-readable invariant name (repro.check)",
        "message": "human-readable description of what broke",
        "details": "offending quantities (plain scalars/lists)",
    },
    "hemem_cooling": {
        "coolings": "halving passes triggered this quantum",
        "total_coolings": "cumulative halving passes this run",
    },
    "memtis_threshold": {
        "threshold": "capacity-fitted hot threshold over current counts",
        "n_hot": "pages at or above the threshold",
    },
    "memtis_split": {
        "n_split": "hugepages split by the one-shot early split",
    },
    "tpp_promotion": {
        "n_faults": "hint faults observed this quantum",
        "n_hot": "faults classified hot (ttf <= hot_ttf_ns)",
        "n_promoted": "pages promoted this quantum",
        "n_demoted": "pages queued for kswapd demotion this quantum",
        "hot_ttf_ns": "hot time-to-fault threshold after adaptation",
    },
    "placement_sample": {
        "tier_pages": "per-tier list of page counts bucketed by "
                      "access-probability decile (index 0 = hottest 10% "
                      "of pages)",
        "tier_bytes": "per-tier list of byte counts in the same "
                      "hotness-decile buckets",
        "flow_bytes": "tier x tier matrix of bytes migrated this "
                      "quantum (row = source tier, column = destination)",
        "ping_pong_pages": "pages with >= 2 migration direction "
                           "reversals inside the churn window",
        "wasted_bytes": "bytes moved this quantum by migrations that "
                        "reversed the page's previous move (ping-pong "
                        "waste)",
        "gap_packed": "audit quanta only: relative throughput shortfall "
                      "of the actual placement vs the hotness-packing "
                      "placement",
        "gap_balance": "audit quanta only: relative throughput "
                       "shortfall of the actual placement vs the "
                       "latency-balance placement",
        "p_actual": "audit quanta only: default-tier access share of "
                    "the actual placement",
        "p_packed": "audit quanta only: default-tier access share of "
                    "the hotness-packing placement",
        "p_balance": "audit quanta only: default-tier access share of "
                     "the latency-balance placement (capacity-clamped)",
        "throughput_actual": "audit quanta only: solved demand-read "
                             "bandwidth of the actual placement "
                             "(bytes/ns)",
        "throughput_packed": "audit quanta only: solved throughput of "
                             "the hotness-packing placement (bytes/ns)",
        "throughput_balance": "audit quanta only: solved throughput of "
                              "the latency-balance placement (bytes/ns)",
    },
}


def describe_schema() -> str:
    """Human-readable schema listing (used by documentation tests)."""
    lines = [f"trace schema v{TRACE_SCHEMA_VERSION}"]
    for etype in sorted(EVENT_SCHEMAS):
        lines.append(etype)
        for field_name, doc in EVENT_SCHEMAS[etype].items():
            lines.append(f"  {field_name}: {doc}")
    return "\n".join(lines)
