"""Counters and monotonic-clock phase profiling.

:class:`Counters` is a tiny named-counter registry (the tiering systems'
``account`` calls cover per-system CPU work; this one is for runtime-wide
totals). :class:`PhaseProfiler` measures wall time spent in each phase of
the simulation loop with ``time.perf_counter_ns`` — a monotonic clock —
using a lap-style interface so one quantum costs one clock read per
phase boundary. A disabled profiler's ``start``/``lap`` return
immediately after a single attribute check, mirroring the null tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PhaseSpan:
    """One recorded (possibly nested) phase interval.

    ``depth`` is the nesting level at entry (0 = top level); re-entrant
    pushes of the same name record distinct spans at increasing depth.
    ``unclosed`` marks spans that were still open when the spans were
    drained — they are auto-closed at drain time so an exporter never
    sees a half-open interval.
    """

    name: str
    start_ns: int
    end_ns: int
    depth: int
    unclosed: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Counters:
    """Named monotonically-increasing integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``."""
        self._counts[name] = self._counts.get(name, 0) + int(amount)

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)


class PhaseProfiler:
    """Lap-timer over the loop's phases.

    Usage::

        prof.start()                  # once per quantum
        ...workload advance...
        prof.lap("workload_advance")  # returns ns since start/last lap
        ...solve...
        prof.lap("equilibrium_solve")

    Per-phase totals and call counts accumulate across quanta;
    :meth:`summary` renders them for the end-of-run report.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._totals: Dict[str, list] = {}
        self._mark = 0
        self._spans: List[PhaseSpan] = []
        self._open: List[list] = []

    def start(self) -> None:
        """Begin a measurement window (call at the top of each quantum)."""
        if not self.enabled:
            return
        self._mark = perf_counter_ns()

    def lap(self, phase: str) -> int:
        """Close the current phase; returns its duration in ns (0 when
        disabled)."""
        if not self.enabled:
            return 0
        now = perf_counter_ns()
        elapsed = now - self._mark
        self._mark = now
        entry = self._totals.get(phase)
        if entry is None:
            self._totals[phase] = [elapsed, 1]
        else:
            entry[0] += elapsed
            entry[1] += 1
        return elapsed

    # -- nested spans (the Chrome-trace exporter's contract) -----------

    def push(self, name: str) -> None:
        """Open a nested span. Re-entrant: pushing a name already on the
        stack records a second, deeper span of the same name."""
        if not self.enabled:
            return
        self._open.append([name, perf_counter_ns(), len(self._open)])

    def pop(self) -> int:
        """Close the innermost open span; returns its duration in ns
        (0 when disabled).

        Raises:
            ConfigurationError: If no span is open.
        """
        if not self.enabled:
            return 0
        if not self._open:
            raise ConfigurationError("pop() without a matching push()")
        name, start, depth = self._open.pop()
        end = perf_counter_ns()
        self._spans.append(PhaseSpan(name=name, start_ns=start,
                                     end_ns=end, depth=depth))
        entry = self._totals.get(name)
        if entry is None:
            self._totals[name] = [end - start, 1]
        else:
            entry[0] += end - start
            entry[1] += 1
        return end - start

    @contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`push`/:meth:`pop`."""
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def drain_spans(self) -> List[PhaseSpan]:
        """Return all recorded spans (start order) and clear them.

        Spans still open — a run that ended mid-phase — are auto-closed
        at the current clock and flagged ``unclosed``; their totals are
        charged like any other span so ``phases`` stays consistent with
        what the exporter renders.
        """
        now = perf_counter_ns()
        while self._open:
            name, start, depth = self._open.pop()
            self._spans.append(PhaseSpan(name=name, start_ns=start,
                                         end_ns=now, depth=depth,
                                         unclosed=True))
            entry = self._totals.get(name)
            if entry is None:
                self._totals[name] = [now - start, 1]
            else:
                entry[0] += now - start
                entry[1] += 1
        spans = sorted(self._spans, key=lambda s: (s.start_ns, s.depth))
        self._spans = []
        return spans

    @property
    def open_depth(self) -> int:
        """Number of currently-open nested spans."""
        return len(self._open)

    @property
    def phases(self) -> Dict[str, int]:
        """Total ns per phase so far."""
        return {name: entry[0] for name, entry in self._totals.items()}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals: ``{phase: {total_ns, count, mean_ns}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for name, (total, count) in self._totals.items():
            out[name] = {
                "total_ns": int(total),
                "count": int(count),
                "mean_ns": total / count if count else 0.0,
            }
        return out

    def format_summary(self, wall_ns: int) -> str:
        """Fixed-width text table of the phase breakdown.

        Shares are of ``wall_ns``, the measured wall time of the
        profiled run; an ``unattributed`` row (wall time no phase
        covers) and a ``total (wall)`` row close the table, so the rows
        visibly add up to the run.
        """
        summary = self.summary()
        if not summary:
            return "no phases profiled"
        lines = [f"{'phase':<20} {'total ms':>10} {'mean us':>10} "
                 f"{'share':>7}"]

        def row(name: str, total_ns: float, mean: str) -> str:
            share = total_ns / wall_ns if wall_ns else 0.0
            return (f"{name:<20} {total_ns / 1e6:>10.2f} {mean:>10} "
                    f"{share:>6.1%}")

        order = sorted(summary, key=lambda k: -summary[k]["total_ns"])
        for name in order:
            s = summary[name]
            lines.append(row(name, s["total_ns"],
                             f"{s['mean_ns'] / 1e3:.2f}"))
        phased_ns = sum(s["total_ns"] for s in summary.values())
        lines.append(row("unattributed", wall_ns - phased_ns, ""))
        lines.append(row("total (wall)", wall_ns, ""))
        return "\n".join(lines)

    def reset(self) -> None:
        """Clear all accumulated phase totals and spans."""
        self._totals.clear()
        self._mark = 0
        self._spans.clear()
        self._open.clear()


__all__ = ["Counters", "PhaseProfiler", "PhaseSpan"]
