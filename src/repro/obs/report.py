"""Post-run report over a recorded JSONL trace.

``repro report trace.jsonl`` loads the events written by a traced run and
renders the dynamics the paper's evaluation cares about (§3.2, Fig. 9-10):
how the ComputeShift bracket moved, where wall-clock time went, how much
of the planned migration traffic the budget actually admitted, where the
pages live, and — through the diagnostics section — when each epoch
converged. Every number is read off the trace's
:class:`~repro.obs.timeline.Timeline`, the same fold ``repro diagnose``,
the Chrome-trace export and the exec layer's cell payloads read.
"""

from __future__ import annotations

from typing import List

from repro.obs.diagnose import diagnose_timeline, format_diagnostics
from repro.obs.placement import placement_summary
from repro.obs.timeline import Timeline, split_timelines
from repro.obs.tracer import PathLike, load_events


def _format_bytes(n: int) -> str:
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f} GiB"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.2f} KiB"
    return f"{n} B"


def _controller_lines(timeline: Timeline) -> List[str]:
    """The watermark bracket's dynamics and the tail latency imbalance."""
    if not timeline.answers_controller:
        return ["controller    : answered per tenant (colocated trace)"]
    shifts = [s for s in timeline.samples if s.p is not None]
    if not shifts:
        return ["controller    : n/a (no compute_shift events)"]
    lines = [f"watermark resets: {timeline.total('watermark_resets')}"]
    brackets = [s for s in shifts
                if s.p_lo is not None and s.p_hi is not None]
    if brackets:
        lines.append(f"final bracket : [{brackets[-1].p_lo:.4f}, "
                     f"{brackets[-1].p_hi:.4f}]")
    imbalance = [s.imbalance for s in shifts if s.imbalance is not None]
    tail = imbalance[-max(1, len(imbalance) // 4):]
    if tail:
        lines.append("latency imbalance (tail): "
                     f"{sum(tail) / len(tail):.2%} |L_D - L_A| / L_A")
    return lines


def format_summary(timeline: Timeline) -> str:
    """Render a :class:`~repro.obs.timeline.Timeline` as the CLI's text
    report (everything but the diagnostics section)."""
    lines: List[str] = []
    meta = timeline.meta
    if meta:
        lines.append(
            f"run           : {meta.get('system', '?')} / "
            f"{meta.get('workload', '?')} "
            f"(quantum {meta.get('quantum_ms', '?')} ms, "
            f"{meta.get('n_tiers', '?')} tiers)"
        )
    total_events = sum(timeline.event_counts.values())
    counts = ", ".join(
        f"{name}={count}"
        for name, count in sorted(timeline.event_counts.items())
    )
    lines.append(f"events        : {total_events} ({counts})")
    if timeline.unknown_event_counts:
        skipped = ", ".join(
            f"{name}={count}" for name, count in
            sorted(timeline.unknown_event_counts.items())
        )
        lines.append(
            f"unknown kinds : {sum(timeline.unknown_event_counts.values())}"
            f" event(s) skipped ({skipped}) — recorded by another "
            f"schema version?"
        )
    if timeline.malformed_events:
        lines.append(
            f"malformed     : {timeline.malformed_events} event(s) "
            f"skipped (unparseable payload)"
        )

    if timeline.invariant_violations:
        lines.append("-- INVARIANT VIOLATIONS --")
        for violation in timeline.invariant_violations:
            lines.append(
                f"{violation.get('invariant', '?'):<28} "
                f"t={float(violation.get('time_s', 0.0)):.3f}s  "
                f"{violation.get('message', '')}"
            )

    lines.append("-- controller --")
    lines.extend(_controller_lines(timeline))

    lines.append("-- migration efficiency --")
    planned = timeline.total("planned_bytes")
    executed = timeline.total("executed_bytes")
    if planned <= 0:
        lines.append("no migrations planned")
    else:
        clipped = sum(1 for s in timeline.samples if s.moves_deferred)
        lines.append(f"planned       : {_format_bytes(planned)}")
        lines.append(
            f"executed      : {_format_bytes(executed)} "
            f"({executed / planned:.1%} of planned)"
        )
        lines.append(
            f"clipped       : {clipped} quanta hit the budget "
            f"({timeline.total('moves_deferred')} moves deferred, "
            f"{timeline.total('moves_skipped')} skipped)"
        )
    if timeline.event_counts.get("tpp_promotion"):
        lines.append(
            f"fault-driven  : {timeline.n_promoted} page(s) promoted, "
            f"{timeline.n_demoted} queued for kswapd demotion"
        )

    placement = placement_summary(timeline)
    if placement is not None:
        lines.append("-- placement --")
        lines.append(f"samples       : {placement['n_samples']} "
                     f"({placement['n_audits']} audited)")
        occupancy = ", ".join(
            f"tier{i}={_format_bytes(total)}"
            for i, total in enumerate(placement["tier_bytes_last"])
        )
        lines.append(f"occupancy     : {occupancy}")
        lines.append(
            "flows         : "
            f"{_format_bytes(placement['flow_bytes_total'])} cross-tier ("
            f"{_format_bytes(placement['wasted_migration_bytes'])}"
            f" ping-ponged, peak {placement['ping_pong_pages_peak']} "
            f"page(s)/quantum)"
        )
        if placement["n_audits"]:
            lines.append(
                f"misplacement  : gap vs latency-balance "
                f"{placement['gap_balance_first']:.1%} -> "
                f"{placement['gap_balance_last']:.1%} "
                f"(first -> last audit)"
            )
            gap_packed = placement["gap_packed_last"]
            if gap_packed is not None:
                lines.append(
                    f"              : gap vs hotness-packing "
                    f"{gap_packed:.1%} (last audit)"
                )

    if timeline.progress:
        progress = timeline.progress
        lines.append("-- fleet progress --")
        lines.append(
            f"cells         : {progress.get('completed', '?')}/"
            f"{progress.get('total', '?')} in "
            f"{float(progress.get('wall_elapsed_s', 0.0)):.1f} s wall "
            f"({float(progress.get('cells_per_s', 0.0)):.2f} cells/s)"
        )

    if timeline.runtime_counters:
        lines.append("-- runtime counters --")
        for name in sorted(timeline.runtime_counters):
            lines.append(
                f"{name:<20} {timeline.runtime_counters[name]:>14,}"
            )

    lines.append("-- phase-time breakdown --")
    phase_totals = timeline.phase_totals_ns
    if not phase_totals:
        lines.append("no phase_timing events (run with --profile)")
    else:
        grand = sum(phase_totals.values())
        for name in sorted(phase_totals, key=lambda k: -phase_totals[k]):
            ns = phase_totals[name]
            share = ns / grand if grand else 0.0
            lines.append(f"{name:<20} {ns / 1e6:>10.2f} ms  {share:>6.1%}")
    return "\n".join(lines)


def report_from_file(path: PathLike) -> str:
    """Load a JSONL trace and return the formatted report text.

    The report ends with the run-health diagnostics section — the same
    detectors ``repro diagnose`` runs (:mod:`repro.obs.diagnose`), and
    the report's one answer to "when did each epoch converge". For a
    colocated trace the machine section carries no controller facts,
    and a section per tenant follows: its timeline (own labeled events
    plus the shared machine context) through the same summary and
    diagnostics.
    """
    def render(timeline: Timeline) -> str:
        text = format_summary(timeline)
        if timeline.samples and timeline.answers_controller:
            text += "\n" + format_diagnostics(diagnose_timeline(timeline),
                                              timeline=timeline)
        return text

    machine, tenants = split_timelines(load_events(path))
    text = render(machine)
    for name, timeline in tenants.items():
        text += f"\n\n== tenant: {name} ==\n" + render(timeline)
    return text


__all__ = [
    "format_summary",
    "report_from_file",
]
