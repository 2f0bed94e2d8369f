"""Post-run report over a recorded JSONL trace.

``repro report trace.jsonl`` loads the events written by a traced run and
renders the dynamics the paper's evaluation cares about (§3.2, Fig. 9-10):
when the ComputeShift bracket converged, where wall-clock time went,
how much of the planned migration traffic the budget actually admitted,
and how well the controller balanced per-tier latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_SCHEMAS
from repro.obs.placement import summarize_placement_events
from repro.obs.profile import merge_phase_events
from repro.obs.tracer import PathLike, iter_events, load_events


@dataclass
class TraceSummary:
    """Aggregate view of one traced run.

    Attributes:
        meta: The ``run_start`` event's fields (empty if the trace has
            none).
        event_counts: Number of events per type.
        convergence_time_s: Simulated time after which ComputeShift never
            requested a shift again; None if it never settled (or the
            trace holds no ``compute_shift`` events).
        convergence_quantum: ``convergence_time_s`` expressed in runtime
            quanta (needs ``quantum_ms`` from ``run_start``).
        watermark_resets: Total watermark resets observed.
        phase_totals_ns: Summed per-phase wall time from ``phase_timing``
            events.
        planned_bytes: Total bytes tiering systems asked to move.
        executed_bytes: Total bytes the executor actually moved.
        moves_deferred: Moves dropped because a byte budget ran out.
        moves_skipped: Moves dropped for capacity reasons.
        clipped_quanta: Quanta where the budget clipped the plan.
        latency_balance_error: Mean relative |L_D - L_A| / L_D over the
            tail (last quarter) of ``compute_shift`` events; None without
            such events.
        final_bracket: Last observed (p_lo, p_hi) watermark bracket.
        invariant_violations: ``invariant_violation`` events recorded by
            a ``--check`` run (each with ``invariant``, ``message`` and
            the offending quantum's ``time_s``).
        runtime_counters: The loop's runtime-wide counter totals from
            the ``run_end`` event (empty if the trace has none).
        fleet_progress: The last ``run_progress`` event's fields —
            completed/total cells, wall time, completion throughput —
            for fleet-level traces (None otherwise).
        unknown_event_counts: Events whose kind is absent from
            :data:`~repro.obs.events.EVENT_SCHEMAS` — traces written by
            newer code, or by older code with since-retired kinds, must
            still summarize, so these are counted and skipped, never
            fatal.
        malformed_events: Events of a known kind whose payload could not
            be folded (e.g. ``phase_timing`` without a ``phases``
            mapping) — also skip-and-count.
        n_promoted: Total pages promoted by fault-driven systems
            (``tpp_promotion`` events).
        n_demoted: Total pages queued for kswapd demotion alongside
            those promotions.
        placement: Distilled placement observability
            (:func:`repro.obs.placement.summarize_placement_events`);
            None when the trace carries no ``placement_sample`` events.
    """

    meta: Dict = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    convergence_time_s: Optional[float] = None
    convergence_quantum: Optional[int] = None
    watermark_resets: int = 0
    phase_totals_ns: Dict[str, int] = field(default_factory=dict)
    planned_bytes: int = 0
    executed_bytes: int = 0
    moves_deferred: int = 0
    moves_skipped: int = 0
    clipped_quanta: int = 0
    latency_balance_error: Optional[float] = None
    final_bracket: Optional[tuple] = None
    invariant_violations: List[Dict] = field(default_factory=list)
    runtime_counters: Dict[str, int] = field(default_factory=dict)
    fleet_progress: Optional[Dict] = None
    unknown_event_counts: Dict[str, int] = field(default_factory=dict)
    malformed_events: int = 0
    n_promoted: int = 0
    n_demoted: int = 0
    placement: Optional[Dict] = None

    @property
    def migration_efficiency(self) -> Optional[float]:
        """Executed / planned bytes; None when nothing was planned."""
        if self.planned_bytes <= 0:
            return None
        return self.executed_bytes / self.planned_bytes


def summarize_events(events: List[dict]) -> TraceSummary:
    """Reduce a list of trace events to a :class:`TraceSummary`."""
    if not events:
        raise ConfigurationError("trace contains no events")
    summary = TraceSummary()
    for event in events:
        etype = event.get("type", "<untyped>")
        summary.event_counts[etype] = (
            summary.event_counts.get(etype, 0) + 1
        )
        if etype not in EVENT_SCHEMAS:
            summary.unknown_event_counts[etype] = (
                summary.unknown_event_counts.get(etype, 0) + 1
            )

    meta_events = list(iter_events(events, "run_start"))
    if meta_events:
        summary.meta = {k: v for k, v in meta_events[0].items()
                        if k not in ("type", "time_s")}

    shift_events = list(iter_events(events, "compute_shift"))
    if shift_events:
        last_active = None
        for i, event in enumerate(shift_events):
            if event.get("dp", 0.0) > 0.0:
                last_active = i
        if last_active is None:
            # Never shifted: converged from the first observation.
            summary.convergence_time_s = float(shift_events[0]["time_s"])
        elif last_active < len(shift_events) - 1:
            summary.convergence_time_s = float(
                shift_events[last_active + 1]["time_s"]
            )
        tail = shift_events[-max(1, len(shift_events) // 4):]
        errors = []
        for event in tail:
            l_d = float(event.get("latency_default_ns", 0.0))
            l_a = float(event.get("latency_alternate_ns", 0.0))
            if l_d > 0:
                errors.append(abs(l_d - l_a) / l_d)
        if errors:
            summary.latency_balance_error = sum(errors) / len(errors)
        last = shift_events[-1]
        if "p_lo" in last and "p_hi" in last:
            summary.final_bracket = (float(last["p_lo"]),
                                     float(last["p_hi"]))

    quantum_ms = summary.meta.get("quantum_ms")
    if summary.convergence_time_s is not None and quantum_ms:
        summary.convergence_quantum = int(
            round(summary.convergence_time_s / (quantum_ms / 1e3))
        )

    # "init" announcements record the bracket's [0, 1] starting state;
    # only dynamic (Fig. 4c) resets count toward the reset total.
    summary.watermark_resets = sum(
        1 for e in iter_events(events, "watermark_reset")
        if e.get("side") != "init"
    )

    for event in iter_events(events, "migration_executed"):
        planned = int(event.get("planned_bytes", 0))
        executed = int(event.get("executed_bytes", 0))
        summary.planned_bytes += planned
        summary.executed_bytes += executed
        summary.moves_deferred += int(event.get("moves_deferred", 0))
        summary.moves_skipped += int(event.get("moves_skipped", 0))
        if int(event.get("moves_deferred", 0)) > 0:
            summary.clipped_quanta += 1

    for event in iter_events(events, "tpp_promotion"):
        summary.n_promoted += int(event.get("n_promoted", 0))
        summary.n_demoted += int(event.get("n_demoted", 0))

    summary.placement = summarize_placement_events(events)

    summary.invariant_violations = list(
        iter_events(events, "invariant_violation")
    )

    end_events = list(iter_events(events, "run_end"))
    if end_events:
        counters = end_events[-1].get("counters")
        if isinstance(counters, dict):
            summary.runtime_counters = {
                name: int(value) for name, value in counters.items()
            }

    progress_events = list(iter_events(events, "run_progress"))
    if progress_events:
        last = progress_events[-1]
        summary.fleet_progress = {
            k: v for k, v in last.items() if k not in ("type", "time_s")
        }

    # Tolerate malformed phase_timing payloads: a report must always
    # render, so fold what parses and count the rest.
    well_formed = []
    for event in iter_events(events, "phase_timing"):
        if isinstance(event.get("phases"), dict):
            well_formed.append(event)
        else:
            summary.malformed_events += 1
    summary.phase_totals_ns = merge_phase_events(well_formed)
    return summary


def _format_bytes(n: int) -> str:
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f} GiB"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.2f} KiB"
    return f"{n} B"


def format_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the CLI's text report."""
    lines: List[str] = []
    meta = summary.meta
    if meta:
        lines.append(
            f"run           : {meta.get('system', '?')} / "
            f"{meta.get('workload', '?')} "
            f"(quantum {meta.get('quantum_ms', '?')} ms, "
            f"{meta.get('n_tiers', '?')} tiers)"
        )
    total_events = sum(summary.event_counts.values())
    counts = ", ".join(
        f"{name}={count}"
        for name, count in sorted(summary.event_counts.items())
    )
    lines.append(f"events        : {total_events} ({counts})")
    if summary.unknown_event_counts:
        skipped = ", ".join(
            f"{name}={count}" for name, count in
            sorted(summary.unknown_event_counts.items())
        )
        lines.append(
            f"unknown kinds : {sum(summary.unknown_event_counts.values())}"
            f" event(s) skipped ({skipped}) — recorded by another "
            f"schema version?"
        )
    if summary.malformed_events:
        lines.append(
            f"malformed     : {summary.malformed_events} event(s) "
            f"skipped (unparseable payload)"
        )

    if summary.invariant_violations:
        lines.append("-- INVARIANT VIOLATIONS --")
        for violation in summary.invariant_violations:
            lines.append(
                f"{violation.get('invariant', '?'):<28} "
                f"t={float(violation.get('time_s', 0.0)):.3f}s  "
                f"{violation.get('message', '')}"
            )

    lines.append("-- convergence --")
    if summary.convergence_time_s is not None:
        quantum = (f" (quantum {summary.convergence_quantum})"
                   if summary.convergence_quantum is not None else "")
        lines.append(
            f"converged at  : {summary.convergence_time_s:.3f} s"
            f"{quantum}"
        )
    elif summary.event_counts.get("compute_shift"):
        lines.append("converged at  : not converged within the trace")
    else:
        lines.append("converged at  : n/a (no compute_shift events)")
    lines.append(f"watermark resets: {summary.watermark_resets}")
    if summary.final_bracket is not None:
        lo, hi = summary.final_bracket
        lines.append(f"final bracket : [{lo:.4f}, {hi:.4f}]")
    if summary.latency_balance_error is not None:
        lines.append(
            "latency balance error (tail): "
            f"{summary.latency_balance_error:.2%}"
        )

    lines.append("-- migration efficiency --")
    efficiency = summary.migration_efficiency
    if efficiency is None:
        lines.append("no migrations planned")
    else:
        lines.append(
            f"planned       : {_format_bytes(summary.planned_bytes)}"
        )
        lines.append(
            f"executed      : {_format_bytes(summary.executed_bytes)} "
            f"({efficiency:.1%} of planned)"
        )
        lines.append(
            f"clipped       : {summary.clipped_quanta} quanta hit the "
            f"budget ({summary.moves_deferred} moves deferred, "
            f"{summary.moves_skipped} skipped)"
        )
    if summary.event_counts.get("tpp_promotion"):
        lines.append(
            f"fault-driven  : {summary.n_promoted} page(s) promoted, "
            f"{summary.n_demoted} queued for kswapd demotion"
        )

    placement = summary.placement
    if placement is not None:
        lines.append("-- placement --")
        lines.append(
            f"samples       : {placement.get('n_samples', 0)} "
            f"({placement.get('n_audits', 0)} audited)"
        )
        tier_bytes = placement.get("tier_bytes_last")
        if tier_bytes:
            occupancy = ", ".join(
                f"tier{i}={_format_bytes(int(total))}"
                for i, total in enumerate(tier_bytes)
            )
            lines.append(f"occupancy     : {occupancy}")
        lines.append(
            "flows         : "
            f"{_format_bytes(int(placement.get('flow_bytes_total', 0)))}"
            f" cross-tier ("
            f"{_format_bytes(int(placement.get('wasted_migration_bytes', 0)))}"
            f" ping-ponged, peak "
            f"{placement.get('ping_pong_pages_peak', 0)} page(s)/quantum)"
        )
        gap_first = placement.get("gap_balance_first")
        gap_last = placement.get("gap_balance_last")
        if gap_last is not None:
            first = (f"{gap_first:.1%}" if gap_first is not None
                     else "?")
            lines.append(
                f"misplacement  : gap vs latency-balance {first} -> "
                f"{gap_last:.1%} (first -> last audit)"
            )
        gap_packed = placement.get("gap_packed_last")
        if gap_packed is not None:
            lines.append(
                f"              : gap vs hotness-packing "
                f"{gap_packed:.1%} (last audit)"
            )

    if summary.fleet_progress:
        progress = summary.fleet_progress
        lines.append("-- fleet progress --")
        lines.append(
            f"cells         : {progress.get('completed', '?')}/"
            f"{progress.get('total', '?')} in "
            f"{float(progress.get('wall_elapsed_s', 0.0)):.1f} s wall "
            f"({float(progress.get('cells_per_s', 0.0)):.2f} cells/s)"
        )

    if summary.runtime_counters:
        lines.append("-- runtime counters --")
        for name in sorted(summary.runtime_counters):
            lines.append(
                f"{name:<20} {summary.runtime_counters[name]:>14,}"
            )

    lines.append("-- phase-time breakdown --")
    if not summary.phase_totals_ns:
        lines.append("no phase_timing events (run with --profile)")
    else:
        grand = sum(summary.phase_totals_ns.values())
        order = sorted(summary.phase_totals_ns,
                       key=lambda k: -summary.phase_totals_ns[k])
        for name in order:
            ns = summary.phase_totals_ns[name]
            share = ns / grand if grand else 0.0
            lines.append(f"{name:<20} {ns / 1e6:>10.2f} ms  {share:>6.1%}")
    return "\n".join(lines)


def tenant_names_of(events: List[dict]) -> List[str]:
    """Tenant labels present in a trace, in first-appearance order.

    Empty for single-app traces — only colocated runs label events
    with ``tenant`` (see :class:`~repro.obs.tracer.TenantTracer`).
    """
    names: List[str] = []
    seen = set()
    for event in events:
        tenant = event.get("tenant")
        if tenant is not None and tenant not in seen:
            seen.add(tenant)
            names.append(tenant)
    return names


def tenant_view(events: List[dict], tenant: str) -> List[dict]:
    """One tenant's view of a colocated trace: its own labeled events
    plus the unlabeled machine-scoped ones (run_start, solver, ...)."""
    return [e for e in events if e.get("tenant", tenant) == tenant]


def report_from_file(path: PathLike) -> str:
    """Load a JSONL trace and return the formatted report text.

    The report ends with the run-health diagnostics section — the same
    detectors ``repro diagnose`` runs (:mod:`repro.obs.diagnose`). For
    a colocated trace, a per-tenant section follows for each tenant:
    its view of the trace (own labeled events plus the shared machine
    context) run through the same summary and diagnostics machinery.
    """
    from repro.obs.diagnose import diagnose_timeline, format_diagnostics
    from repro.obs.timeline import build_timeline

    events = load_events(path)

    def render(view: List[dict]) -> str:
        text = format_summary(summarize_events(view))
        timeline = build_timeline(view)
        if timeline.samples:
            diagnostics = diagnose_timeline(timeline)
            text += "\n" + format_diagnostics(diagnostics,
                                              timeline=timeline)
        return text

    text = render(events)
    for tenant in tenant_names_of(events):
        text += (f"\n\n== tenant: {tenant} ==\n"
                 + render(tenant_view(events, tenant)))
    return text


__all__ = [
    "TraceSummary",
    "format_summary",
    "report_from_file",
    "summarize_events",
    "tenant_names_of",
    "tenant_view",
]
