"""Observability: structured tracing, counters, phase profiling, reports.

The simulation hot path is instrumented with guarded emit sites
(``if tracer.enabled: tracer.emit(...)``); with the default
:data:`~repro.obs.tracer.NULL_TRACER` each site costs one attribute
check. A real :class:`~repro.obs.tracer.Tracer` records schema-validated
events (see :mod:`repro.obs.events`) into a ring buffer and optionally a
JSONL file that ``repro report trace.jsonl`` turns into a run report.

On top of recorded traces sits the run-health diagnostics engine:
:mod:`repro.obs.timeline` folds events into typed per-quantum samples,
:mod:`repro.obs.diagnose` judges them with convergence / oscillation /
reset-storm / thrash detectors (``repro diagnose trace.jsonl``), and
:mod:`repro.obs.chrometrace` exports the same timeline as Chrome Trace
Event Format JSON for ``chrome://tracing`` / Perfetto.

Names are exported lazily (PEP 562): importing :mod:`repro.obs.tracer`
from the simulation loop loads neither the diagnostics engine nor the
report and export modules.
"""

from __future__ import annotations

import importlib

#: Exported names by the submodule that defines them.
_EXPORTS = {
    "chrometrace": ("export_chrome_trace",),
    "diagnose": ("DiagnosticsSummary", "diagnose_events",
                 "diagnose_timeline", "format_diagnostics"),
    "events": ("EVENT_SCHEMAS", "TRACE_SCHEMA_VERSION", "describe_schema"),
    "profile": ("Counters", "PhaseProfiler", "merge_phase_events"),
    "report": ("TraceSummary", "format_summary", "report_from_file",
               "summarize_events"),
    "timeline": ("Timeline", "build_timeline"),
    "tracer": ("NULL_TRACER", "NullTracer", "Tracer", "iter_events",
               "load_events"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
