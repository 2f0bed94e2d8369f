"""TPP-style page-table scanning and hint faults (§4.3).

TPP periodically scans process page tables, marking pages with a special
protection bit; the next access to a marked page takes a *hint fault*. The
time between marking and faulting (time-to-fault) is TPP's hotness signal,
and Colloid-on-TPP converts it to an access-probability estimate via
``p = 1 / (dt * r)`` where ``r`` is the tier's request rate.

Physically, a page with access probability ``p`` under total request rate
``R`` is touched as a Poisson process of rate ``p * R``, so its
time-to-fault is exponentially distributed with mean ``1 / (p * R)`` —
precisely the relation §4.3 derives. The tracker samples a fault due-time
at marking and delivers the fault in the quantum where it lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import isfinite
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultEvent:
    """One hint fault delivered to the tiering system.

    Attributes:
        page: Index of the faulting page.
        time_to_fault_ns: Elapsed time between marking and the fault.
    """

    page: int
    time_to_fault_ns: float


class HintFaultTracker:
    """Scans pages round-robin and generates hint faults.

    The scan rate bounds how quickly hotness information refreshes — the
    reason TPP converges orders of magnitude slower than PEBS-based systems
    after access-pattern changes (§5.2).

    A quantum costs what it scans and faults, not what the address space
    holds. A page's access rate is its probability times the request
    rate, multiplied out only for the pages that arm a fault. Two
    structures are kept up to date instead of re-derived: the
    ascending list of marked pages without a due time (the last scan's
    fresh marks plus pages whose rate was not positive) and a heap of
    ``(due_ns, page)`` for the marked pages that have one. The pending
    pages with a positive rate draw their waits from one
    ``standard_exponential`` call, in ascending page order, each scaled
    by ``1 / rate``: numpy's ``exponential(scale)`` is ``scale *
    standard_exponential`` drawn element by element, so the waits and the
    stream are those of one scalar ``exponential`` per page, or of a
    single array draw over the same pages.
    """

    def __init__(self, n_pages: int, scan_pages_per_quantum: int,
                 rng: np.random.Generator) -> None:
        if n_pages <= 0:
            raise ConfigurationError("n_pages must be positive")
        if scan_pages_per_quantum <= 0:
            raise ConfigurationError("scan rate must be positive")
        self._n_pages = n_pages
        self._scan_rate = int(scan_pages_per_quantum)
        self._rng = rng
        self._scan_cursor = 0
        self._marked = bytearray(n_pages)
        self._mark_time = [0.0] * n_pages
        self._pending: List[int] = []
        self._due: List[Tuple[float, int]] = []

    @property
    def marked_pages(self) -> np.ndarray:
        """Indices of currently marked (fault-armed) pages."""
        return np.flatnonzero(np.frombuffer(self._marked, dtype=np.uint8))

    def quantum(self, access_probs: np.ndarray, request_rate: float,
                now_ns: float, quantum_ns: float) -> List[FaultEvent]:
        """Advance one quantum: deliver due faults, then scan more pages.

        Args:
            access_probs: True per-page access probabilities during this
                quantum.
            request_rate: Total requests/ns; page ``i``'s access rate,
                the physical clock of its armed fault, is
                ``access_probs[i] * request_rate``.
            now_ns: Time at the *start* of the quantum.
            quantum_ns: Quantum duration.

        Returns:
            Fault events that fired during the quantum, in page order,
            with their time-to-fault measurements.
        """
        if access_probs.shape != (self._n_pages,):
            raise ConfigurationError("access probability shape mismatch")
        end = now_ns + quantum_ns
        marked = self._marked
        mark_time = self._mark_time
        due = self._due

        # Arm due-times for pages marked but not yet scheduled (rate may
        # have been zero, or the page was just marked last quantum). The
        # rate is the numpy scalar product ``access_probs * request_rate``
        # would hold, so ``1.0 / rate`` keeps its dtype.
        waiting = []
        armed = []
        for page in self._pending:
            rate = access_probs[page] * request_rate
            if rate > 0:
                armed.append((page, float(1.0 / rate)))
            else:
                waiting.append(page)
        if armed:
            draws = self._rng.standard_exponential(len(armed)).tolist()
            for (page, scale), draw in zip(armed, draws):
                at = now_ns + scale * draw
                if isfinite(at):
                    heappush(due, (at, page))
                else:
                    waiting.append(page)

        fired = []
        while due and due[0][0] <= end:
            at, page = heappop(due)
            fired.append((page, at))
        fired.sort()
        events = []
        for page, at in fired:
            events.append(FaultEvent(page=page,
                                     time_to_fault_ns=at - mark_time[page]))
            marked[page] = 0

        # Scan the next window of pages (round-robin over the address
        # space), marking any that are not already marked.
        n = self._n_pages
        start = self._scan_cursor
        stop = start + min(self._scan_rate, n)
        self._scan_cursor = stop % n
        for page in range(start, stop):
            if page >= n:
                page -= n
            if not marked[page]:
                marked[page] = 1
                mark_time[page] = end
                waiting.append(page)
        waiting.sort()
        self._pending = waiting
        return events
