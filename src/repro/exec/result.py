"""Serializable results of executing a :class:`~repro.exec.spec.RunSpec`.

A :class:`CellResult` is the JSON-safe summary every figure assembles
its result dataclasses from. Steady cells carry tail statistics; trace
cells additionally carry per-second and per-quantum series. Keeping the
payload plain (floats, tuples, dicts) is what makes the on-disk cache
and the process-pool fan-out possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TraceSeries:
    """Time series kept for trace-mode cells.

    Per-second aggregates (the paper's plotting granularity) plus the
    raw per-quantum throughput for analyses that need full resolution
    (tail variation, convergence detection).
    """

    times_s: Tuple[float, ...]
    throughput: Tuple[float, ...]
    migration_bytes: Tuple[float, ...]
    quantum_times_s: Tuple[float, ...]
    quantum_throughput: Tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "times_s": list(self.times_s),
            "throughput": list(self.throughput),
            "migration_bytes": list(self.migration_bytes),
            "quantum_times_s": list(self.quantum_times_s),
            "quantum_throughput": list(self.quantum_throughput),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSeries":
        return cls(
            times_s=tuple(data["times_s"]),
            throughput=tuple(data["throughput"]),
            migration_bytes=tuple(data["migration_bytes"]),
            quantum_times_s=tuple(data["quantum_times_s"]),
            quantum_throughput=tuple(data["quantum_throughput"]),
        )

    @classmethod
    def from_metrics(cls, metrics) -> "TraceSeries":
        """Aggregate a :class:`MetricsRecorder` into per-second series
        (mean throughput, summed migration bytes per second)."""
        times = metrics.time_s
        seconds = np.floor(times).astype(int)
        unique = np.unique(seconds)
        throughput = metrics.throughput
        migration = metrics.migration_bytes
        return cls(
            times_s=tuple(float(s) for s in unique),
            throughput=tuple(float(throughput[seconds == s].mean())
                             for s in unique),
            migration_bytes=tuple(float(migration[seconds == s].sum())
                                  for s in unique),
            quantum_times_s=tuple(float(t) for t in times),
            quantum_throughput=tuple(float(t) for t in throughput),
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one executed spec.

    Attributes:
        mode: The spec's run mode.
        throughput: Steady-state (or best-case) throughput in GB/s; for
            trace cells, the mean over the last quarter of the run.
        converged: Steady mode's settling flag (None otherwise).
        duration_s: Simulated duration (0 for best-case cells).
        tail_latencies_ns: Per-tier CPU-observed latency, mean over the
            last quarter of the run (empty for best-case cells).
        tail_default_share: Default tier's share of application wire
            bandwidth over the tail; for best-case cells, the oracle
            placement's share.
        cpu_work: The tiering system's CPU-work counters at the end of
            the run (empty for best-case cells).
        series: Trace-mode time series (None otherwise).
        diagnostics: Run-health summary dict
            (:meth:`repro.obs.diagnose.DiagnosticsSummary.to_dict`) when
            the cell's options said ``diagnose`` (``--diagnose``); None
            otherwise. Results written before the
            field existed load as None.
        tenants: For colocated cells, per-tenant summaries keyed by
            tenant name — each a dict with ``throughput``,
            ``tail_latencies_ns``, ``tail_default_share``, ``cpu_work``
            and ``migration_bytes_total``. None for single-tenant cells
            (and for results written before the field existed).
        placement: Placement-observability summary
            (:func:`repro.obs.placement.placement_payload`) when the
            cell's options set ``placement_audit``
            (``--placement-audit``); None otherwise — and, like
            ``diagnostics``, omitted from the serialized form so cache
            shapes and golden fixtures are untouched.
    """

    mode: str
    throughput: float
    converged: Optional[bool]
    duration_s: float
    tail_latencies_ns: Tuple[float, ...]
    tail_default_share: float
    cpu_work: Dict[str, float]
    series: Optional[TraceSeries] = None
    diagnostics: Optional[dict] = None
    tenants: Optional[Dict[str, dict]] = None
    placement: Optional[dict] = None

    def to_dict(self) -> dict:
        data = {
            "mode": self.mode,
            "throughput": self.throughput,
            "converged": self.converged,
            "duration_s": self.duration_s,
            "tail_latencies_ns": list(self.tail_latencies_ns),
            "tail_default_share": self.tail_default_share,
            "cpu_work": dict(self.cpu_work),
            "series": self.series.to_dict() if self.series else None,
        }
        # Omitted when absent so undiagnosed payloads (and the golden
        # fixtures pinning them) keep their pre-diagnostics shape; the
        # same applies to single-tenant payloads and ``tenants``.
        if self.diagnostics is not None:
            data["diagnostics"] = self.diagnostics
        if self.tenants is not None:
            data["tenants"] = self.tenants
        if self.placement is not None:
            data["placement"] = self.placement
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        series = data.get("series")
        return cls(
            mode=data["mode"],
            throughput=float(data["throughput"]),
            converged=data.get("converged"),
            duration_s=float(data["duration_s"]),
            tail_latencies_ns=tuple(data["tail_latencies_ns"]),
            tail_default_share=float(data["tail_default_share"]),
            cpu_work={k: float(v)
                      for k, v in data.get("cpu_work", {}).items()},
            series=TraceSeries.from_dict(series) if series else None,
            diagnostics=data.get("diagnostics"),
            tenants=data.get("tenants"),
            placement=data.get("placement"),
        )
