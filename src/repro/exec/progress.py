"""Live fleet progress for Runner batches.

``repro figure all --jobs 8`` used to run for minutes with no output at
all; :class:`FleetProgress` gives the fan-out a heartbeat. As cells
finish it renders completion count, percentage, completion throughput
and an ETA to stderr — a single in-place refreshed line on a TTY, one
line per cell otherwise (CI logs stay grep-able) — and mirrors every
update as a ``run_progress`` trace event so fleet-level dynamics are
recorded in the same JSONL stream as everything else.

Progress is presentation only: it never touches specs or results, so a
run with a reporter is bit-identical to one without.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Optional, TextIO

from repro.obs.tracer import NULL_TRACER

#: Elapsed-time floor for throughput/ETA math. Sub-millisecond cells
#: (tiny grids, warm caches) would otherwise divide by a near-zero
#: elapsed and report astronomically large cells/s and garbage ETAs on
#: the first cell; a clamped rate is merely optimistic for a few
#: milliseconds and correct thereafter.
MIN_RATE_ELAPSED_S = 1e-3


def _format_eta(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 100:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 100:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class FleetProgress:
    """Per-cell start/finish reporting with throughput and ETA.

    Args:
        stream: Output stream (default stderr). TTY detection decides
            between in-place refresh and line-per-event output.
        tracer: Optional tracer receiving ``run_progress`` events.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 tracer=None, clock=time.monotonic) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._clock = clock
        self._isatty = bool(getattr(self._stream, "isatty",
                                    lambda: False)())
        self._total = 0
        self._completed = 0
        self._started_at = 0.0
        self._last_width = 0
        self._active = False

    # -- Runner hooks ----------------------------------------------------

    def begin(self, total: int) -> None:
        """Start a batch of ``total`` cells (cache hits excluded)."""
        self._total = int(total)
        self._completed = 0
        self._started_at = self._clock()
        self._active = total > 0

    def cell_start(self, label: str) -> None:
        """A cell began executing (serial and parallel paths alike; the
        Runner reports a pooled cell's start at submission time, which
        coincides with its actual start because the submission window
        never exceeds the worker count)."""
        if not self._active:
            return
        if self._tracer.enabled:
            self._tracer.emit(
                "cell_start",
                completed=self._completed,
                total=self._total,
                label=label,
            )
        if not self._isatty:
            return
        self._render(f"[{self._completed + 1}/{self._total}] "
                     f"running {label}")

    def cell_done(self, label: str) -> None:
        """A cell finished; refresh the line and trace the progress."""
        if not self._active:
            return
        self._completed += 1
        elapsed = max(self._clock() - self._started_at,
                      MIN_RATE_ELAPSED_S)
        rate = self._completed / elapsed
        remaining = self._total - self._completed
        eta_s = remaining / rate if rate > 0 else None
        if eta_s is not None and not math.isfinite(eta_s):
            eta_s = None
        if self._tracer.enabled:
            self._tracer.emit(
                "run_progress",
                completed=self._completed,
                total=self._total,
                label=label,
                wall_elapsed_s=elapsed,
                cells_per_s=rate,
                eta_s=eta_s,
            )
        percent = self._completed / self._total
        message = (f"[{self._completed}/{self._total}] {percent:>4.0%} "
                   f"{label}  {rate:.2f} cells/s")
        if remaining and eta_s is not None:
            message += f"  eta {_format_eta(eta_s)}"
        self._render(message, newline=not self._isatty)

    def finish(self) -> None:
        """Close the batch (terminates the TTY refresh line).

        Idempotent: the Runner calls it from a ``finally`` so even a
        batch that raises mid-run terminates the line, and a second
        call (or one with no batch active) is a no-op.
        """
        if self._active and self._isatty and self._last_width:
            self._stream.write("\n")
            self._stream.flush()
        self._last_width = 0
        self._active = False

    # -- rendering -------------------------------------------------------

    def _render(self, message: str, newline: bool = False) -> None:
        if self._isatty:
            # Pad over the previous line so a shorter update fully
            # overwrites a longer one.
            padding = " " * max(0, self._last_width - len(message))
            self._stream.write(f"\r{message}{padding}")
            self._last_width = len(message)
        else:
            self._stream.write(message + ("\n" if newline else ""))
        self._stream.flush()


__all__ = ["FleetProgress", "MIN_RATE_ELAPSED_S"]
