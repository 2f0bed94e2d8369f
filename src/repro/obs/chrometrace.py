"""Chrome Trace Event Format export of recorded traces.

``repro diagnose <trace> --chrome-trace out.json`` converts a JSONL
trace into the JSON Object Format of the Trace Event specification, so
a run opens directly in ``chrome://tracing`` or Perfetto:

* **quantum spans** — one complete (``"ph": "X"``) event per simulated
  quantum on the ``quanta`` track, in simulated microseconds;
* **phase spans** — the profiler's per-quantum wall-clock phase laps
  (``phase_timing`` events, needs ``--profile``) laid end-to-end on a
  wall-clock-scaled process so relative phase cost is visible;
* **instant markers** (``"ph": "i"``) — watermark resets, each
  epoch's convergence point, hot-set shifts, contention changes, and
  invariant violations on the simulated track;
* **counter tracks** (``"ph": "C"``) — per-tier loaded latency, the
  controller's ``p``, and migration bytes per quantum.

A colocated trace gets one ``p`` track and one set of reset and
convergence markers per tenant, labeled ``[tenant]``.

The two processes deliberately use different time bases (simulated vs
wall): the Trace Event Format has no notion of dual clocks, and pids
keep the tracks separate and individually zoomable.

:class:`~repro.obs.profile.PhaseProfiler` spans (the nested push/pop
API) export through :func:`profiler_chrome_events` on their own wall
process — that contract is pinned by ``tests/obs/test_profile.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.diagnose import DiagnosticsConfig, diagnose_timeline
from repro.obs.timeline import Timeline, split_timelines
from repro.obs.tracer import PathLike

#: Process ids (Trace Event Format groups tracks by pid/tid).
PID_SIMULATED = 1
PID_WALL = 2

_METADATA = (
    {"name": "process_name", "ph": "M", "pid": PID_SIMULATED, "tid": 0,
     "args": {"name": "simulated time (quanta, markers, counters)"}},
    {"name": "process_name", "ph": "M", "pid": PID_WALL, "tid": 0,
     "args": {"name": "wall-clock time (loop phases)"}},
)


def _instant(name: str, ts_us: float, args: Dict) -> dict:
    return {"name": name, "ph": "i", "s": "t", "ts": ts_us,
            "pid": PID_SIMULATED, "tid": 0, "args": args}


def _counter(name: str, ts_us: float, values: Dict) -> dict:
    return {"name": name, "ph": "C", "ts": ts_us,
            "pid": PID_SIMULATED, "tid": 0, "args": values}


def _controller_events(timeline: Timeline, label: str,
                       config: Optional[DiagnosticsConfig]) -> List[dict]:
    """One controller's tracks: its ``p`` counter, its watermark resets
    and a marker where each epoch converged (diagnose's definition)."""
    suffix = f" [{label}]" if label else ""
    scope = {"tenant": label} if label else {}
    out: List[dict] = []
    for sample in timeline.samples:
        ts_us = sample.time_s * 1e6
        if sample.p is not None:
            out.append(_counter(f"p (default-tier share){suffix}", ts_us,
                                {"p": sample.p}))
        for side in sample.reset_sides:
            out.append(_instant(
                f"watermark reset ({side}){suffix}", ts_us,
                dict(scope, side=side, quantum=sample.index),
            ))
    quanta = diagnose_timeline(timeline, config).summary.convergence_quanta
    for epoch, converged_in in zip(timeline.epochs, quanta):
        if converged_in is None:
            continue
        sample = timeline.samples[epoch.start + converged_in]
        out.append(_instant(
            f"converged (epoch {epoch.index}){suffix}",
            sample.time_s * 1e6,
            dict(scope, epoch=epoch.index, quanta=converged_in),
        ))
    return out


def chrome_trace_events(
        events: List[dict],
        split: Optional[Tuple[Timeline, Dict[str, Timeline]]] = None,
        config: Optional[DiagnosticsConfig] = None,
) -> List[dict]:
    """Convert trace events to Trace Event Format event dicts.

    Args:
        events: Events as loaded by
            :func:`~repro.obs.tracer.load_events`.
        split: The trace's machine and per-tenant timelines
            (:func:`~repro.obs.timeline.split_timelines`; folded from
            ``events`` when omitted). A colocated trace gets one set of
            controller tracks per tenant.
        config: Diagnostics thresholds behind the convergence markers
            (:data:`~repro.obs.diagnose.DEFAULT_CONFIG` when omitted).
    """
    timeline, tenants = split or split_timelines(events)
    out: List[dict] = list(_METADATA)
    quantum_us = (timeline.quantum_s * 1e6
                  if timeline.quantum_s else None)

    for sample in timeline.samples:
        ts_us = sample.time_s * 1e6
        if quantum_us is not None:
            out.append({
                "name": f"quantum {sample.index}", "ph": "X",
                "ts": ts_us, "dur": quantum_us,
                "pid": PID_SIMULATED, "tid": 1,
                "args": {
                    "index": sample.index,
                    "executed_bytes": sample.executed_bytes,
                    "solver_iterations": sample.solver_iterations,
                },
            })
        if sample.latencies_ns is not None:
            out.append(_counter(
                "loaded latency (ns)", ts_us,
                {f"tier{i}": value
                 for i, value in enumerate(sample.latencies_ns)},
            ))
        if sample.executed_bytes or sample.planned_bytes:
            out.append(_counter(
                "migration bytes", ts_us,
                {"planned": sample.planned_bytes,
                 "executed": sample.executed_bytes},
            ))
        if sample.occupancy_bytes is not None:
            out.append(_counter(
                "tier occupancy (bytes)", ts_us,
                {f"tier{i}": int(sum(row))
                 for i, row in enumerate(sample.occupancy_bytes)},
            ))
            # A second track for the hottest decile shows packing vs
            # balance directly: packed runs pin it to the default tier.
            out.append(_counter(
                "hottest-decile bytes", ts_us,
                {f"tier{i}": int(row[0])
                 for i, row in enumerate(sample.occupancy_bytes)},
            ))
        if sample.flow_bytes is not None:
            flows = {
                f"t{i}->t{j}": int(value)
                for i, row in enumerate(sample.flow_bytes)
                for j, value in enumerate(row)
                if i != j and value
            }
            if flows:
                out.append(_instant(
                    "migration flow", ts_us,
                    dict(flows, quantum=sample.index),
                ))
        if sample.gap_balance is not None:
            out.append(_counter(
                "misplacement gap", ts_us,
                {"vs balance": sample.gap_balance,
                 "vs packed": sample.gap_packed},
            ))
        if sample.ping_pong_pages:
            out.append(_instant(
                "ping-pong churn", ts_us,
                {"pages": sample.ping_pong_pages,
                 "wasted_bytes": sample.wasted_migration_bytes,
                 "quantum": sample.index},
            ))
        if sample.workload_shift:
            out.append(_instant("hot-set shift", ts_us,
                                {"quantum": sample.index}))
        if sample.contention_change:
            out.append(_instant(
                "contention change", ts_us,
                {"quantum": sample.index,
                 "intensity": sample.contention},
            ))

    controllers = tenants or {"": timeline}
    for label, controller in controllers.items():
        out.extend(_controller_events(controller, label, config))

    for violation in timeline.invariant_violations:
        out.append(_instant(
            f"invariant violation: {violation.get('invariant', '?')}",
            float(violation.get("time_s", 0.0)) * 1e6,
            {"message": violation.get("message", "")},
        ))

    # Wall-clock phase spans: lay each quantum's profiled laps
    # end-to-end so the track shows where wall time actually went.
    wall_ns = 0
    for sample in timeline.samples:
        for phase, ns in sample.phases_ns.items():
            out.append({
                "name": phase, "ph": "X",
                "ts": wall_ns / 1e3, "dur": int(ns) / 1e3,
                "pid": PID_WALL, "tid": 1,
                "args": {"quantum": sample.index},
            })
            wall_ns += int(ns)
    return out


def profiler_chrome_events(profiler) -> List[dict]:
    """Trace Event Format events for a profiler's recorded spans.

    Spans come from :meth:`~repro.obs.profile.PhaseProfiler.span` /
    ``push``/``pop``; nesting depth maps to track depth implicitly via
    Chrome's stacking of overlapping ``X`` events on one tid. Unclosed
    spans are auto-closed by ``drain_spans`` and carry an
    ``"unclosed": true`` arg.
    """
    events: List[dict] = [dict(_METADATA[1])]
    origin: Optional[int] = None
    for span in profiler.drain_spans():
        if origin is None:
            origin = span.start_ns
        args = {"depth": span.depth}
        if span.unclosed:
            args["unclosed"] = True
        events.append({
            "name": span.name, "ph": "X",
            "ts": (span.start_ns - origin) / 1e3,
            "dur": (span.end_ns - span.start_ns) / 1e3,
            "pid": PID_WALL, "tid": 1, "args": args,
        })
    return events


def export_chrome_trace(
        events: List[dict], path: PathLike,
        split: Optional[Tuple[Timeline, Dict[str, Timeline]]] = None,
        config: Optional[DiagnosticsConfig] = None,
) -> Path:
    """Write the Trace Event Format JSON object for a trace.

    The output is the JSON Object Format (``{"traceEvents": [...]}``),
    which both ``chrome://tracing`` and Perfetto accept.
    """
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(events, split=split,
                                           config=config),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


__all__ = [
    "PID_SIMULATED",
    "PID_WALL",
    "chrome_trace_events",
    "export_chrome_trace",
    "profiler_chrome_events",
]
