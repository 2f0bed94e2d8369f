"""Placement observability: where do the pages actually live?

The paper's central claim is placement-level (§2–§3): under contention,
packing the hottest pages into the default tier is far from optimal, and
Colloid wins by balancing loaded latencies instead. Every other
observability layer in this repo is quantum- or fleet-granular; this
module turns the simulator's ground-truth page state into first-class
telemetry with three lenses:

1. **Occupancy ledger** — per-tier page/byte counts bucketed by
   access-probability decile, sampled each quantum. Shows at a glance
   whether the hot deciles sit in the default tier (packing) or are
   deliberately spread (balance).
2. **Migration flow tracker** — a tier×tier flow matrix per quantum plus
   per-page churn accounting, surfacing ping-pong pages (pages whose
   migrations reverse direction repeatedly inside a sliding window) and
   the bytes those reversals waste.
3. **Misplacement-gap audit** — every K quanta, solve the current
   equilibrium for two reference placements (the *hotness-packing*
   placement HeMem-style systems chase and the *latency-balance*
   placement Colloid chases) and report the actual placement's relative
   throughput shortfall versus both. "Colloid converges to balance,
   HeMem stays packed" becomes one number per audit.

Everything is emitted as ``placement_sample`` trace events through the
run's tracer; the timeline/diagnose/report/chrometrace layers consume
the events. The audit is strictly read-only: it uses a private
equilibrium solver and private warm-start state supplied by the loop, so
an audited run is bit-identical to an unaudited one.

The audit is the ``placement_audit`` field of
:class:`~repro.options.RunOptions` (the audit period in quanta, or None
for off); the CLI's ``--placement-audit`` sets it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracer import JsonList
from repro.options import DEFAULT_AUDIT_PERIOD_QUANTA

#: Number of hotness buckets in the occupancy ledger.
N_HOTNESS_DECILES = 10

#: Sliding window (in quanta) over which migration direction reversals
#: count toward ping-pong classification.
DEFAULT_CHURN_WINDOW_QUANTA = 50

#: Reversals inside the window that make a page a ping-pong page.
PING_PONG_MIN_REVERSALS = 2

#: The moves of a quantum that moved nothing.
_NO_MOVES = np.empty(0, dtype=np.int64)


# -- occupancy ledger ------------------------------------------------------


def hotness_deciles(access_probs: np.ndarray) -> np.ndarray:
    """Assign every page a hotness decile (0 = hottest 10% of pages).

    Pages are ranked by access probability (stable sort, so ties keep
    index order and the bucketing is deterministic); decile ``d`` holds
    ranks ``[d*n/10, (d+1)*n/10)``.
    """
    probs = np.asarray(access_probs, dtype=float)
    n = len(probs)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-probs, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return (ranks * N_HOTNESS_DECILES) // n


def occupancy_ledger(
    placement, deciles: np.ndarray
) -> Tuple[List[List[int]], List[List[int]]]:
    """Per-tier page/byte counts bucketed by hotness decile.

    Args:
        placement: A :class:`~repro.pages.placement.PlacementState`.
        deciles: Per-page decile assignment from :func:`hotness_deciles`.

    Returns:
        ``(tier_pages, tier_bytes)`` — each a list of ``n_tiers`` lists
        of :data:`N_HOTNESS_DECILES` counts. Unplaced pages are not
        counted.
    """
    counts, weights = _occupancy_arrays(placement, deciles)
    return counts.tolist(), weights.tolist()


def _occupancy_arrays(
    placement, deciles: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized core of :func:`occupancy_ledger`.

    One combined ``tier * deciles + decile`` bincount instead of a
    boolean mask per tier — this runs on every sampled quantum, so the
    per-pass count matters. Returns ``(counts, bytes)`` as
    ``(n_tiers, N_HOTNESS_DECILES)`` int64 arrays.
    """
    pages = placement.pages
    tiers = pages.tier
    sizes = pages.sizes_bytes
    n_tiers = placement.n_tiers
    placed = tiers >= 0
    if not placed.all():
        tiers = tiers[placed]
        deciles = deciles[placed]
        sizes = sizes[placed]
    index = tiers.astype(np.int64) * N_HOTNESS_DECILES + deciles
    n_buckets = n_tiers * N_HOTNESS_DECILES
    counts = np.bincount(index, minlength=n_buckets)
    weights = np.bincount(index, weights=sizes.astype(float),
                          minlength=n_buckets)
    shape = (n_tiers, N_HOTNESS_DECILES)
    return (counts[:n_buckets].reshape(shape),
            weights[:n_buckets].astype(np.int64).reshape(shape))


# -- migration flow tracker ------------------------------------------------


def flow_matrix(
    n_tiers: int,
    src_tiers: np.ndarray,
    dst_tiers: np.ndarray,
    sizes_bytes: np.ndarray,
) -> np.ndarray:
    """Tier×tier matrix of migrated bytes (row = source, col = dest)."""
    flows = np.zeros((n_tiers, n_tiers), dtype=np.int64)
    if len(src_tiers):
        np.add.at(flows, (np.asarray(src_tiers, dtype=np.int64),
                          np.asarray(dst_tiers, dtype=np.int64)),
                  np.asarray(sizes_bytes, dtype=np.int64))
    return flows


class FlowTracker:
    """Per-page churn accounting over a sliding window of quanta.

    Each applied move is compared against the page's previous move: a
    move that exactly reverses it (``src == prev_dst and
    dst == prev_src``) is a *reversal*, and its bytes are wasted — the
    earlier copy bought nothing. Pages with
    :data:`PING_PONG_MIN_REVERSALS` or more reversals inside the window
    are ping-pong pages.
    """

    def __init__(self, window_quanta: int = DEFAULT_CHURN_WINDOW_QUANTA,
                 min_reversals: int = PING_PONG_MIN_REVERSALS) -> None:
        if window_quanta < 1:
            raise ConfigurationError("churn window must be >= 1 quantum")
        self.window_quanta = int(window_quanta)
        self.min_reversals = int(min_reversals)
        #: page -> (last src, last dst) of its most recent move.
        self._last_move: Dict[int, Tuple[int, int]] = {}
        #: page -> list of quantum indices of its reversals (pruned).
        self._reversals: Dict[int, List[int]] = {}
        self._quantum = -1
        self.total_wasted_bytes = 0

    def observe(
        self,
        moved_pages: np.ndarray,
        src_tiers: np.ndarray,
        dst_tiers: np.ndarray,
        sizes_bytes: np.ndarray,
    ) -> Tuple[int, int]:
        """Fold one quantum's applied moves into the churn state.

        Returns:
            ``(ping_pong_pages, wasted_bytes)`` — ping-pong pages with a
            reversal landing inside the current window, and the bytes
            this quantum's reversal moves wasted.
        """
        self._quantum += 1
        now = self._quantum
        horizon = now - self.window_quanta
        wasted = 0
        if len(moved_pages):
            for page, src, dst, size in zip(
                    np.asarray(moved_pages).tolist(),
                    np.asarray(src_tiers).tolist(),
                    np.asarray(dst_tiers).tolist(),
                    np.asarray(sizes_bytes).tolist()):
                previous = self._last_move.get(page)
                if previous is not None and previous == (dst, src):
                    history = self._reversals.setdefault(page, [])
                    history.append(now)
                    wasted += size
                self._last_move[page] = (src, dst)
        self.total_wasted_bytes += wasted

        ping_pong = 0
        stale: List[int] = []
        for page, history in self._reversals.items():
            while history and history[0] <= horizon:
                history.pop(0)
            if not history:
                stale.append(page)
            elif len(history) >= self.min_reversals:
                ping_pong += 1
        for page in stale:
            del self._reversals[page]
        return ping_pong, wasted


# -- misplacement-gap audit ------------------------------------------------


def pack_hottest_p(
    access_probs: np.ndarray,
    page_sizes: np.ndarray,
    default_capacity: int,
) -> float:
    """Default-tier access share of the hotness-packing placement.

    Greedily packs the hottest pages (stable hotness order, as
    :mod:`repro.pages.oracle` does for skewed distributions) into the
    default tier until its capacity is exhausted; the packed pages'
    summed access probability is the split a packing-driven system is
    chasing.
    """
    probs = np.asarray(access_probs, dtype=float)
    sizes = np.asarray(page_sizes, dtype=np.int64)
    if probs.shape != sizes.shape:
        raise ConfigurationError("probability/size shapes must match")
    order = np.argsort(-probs, kind="stable")
    fit = int(np.searchsorted(np.cumsum(sizes[order]),
                              int(default_capacity), side="right"))
    return float(probs[order[:fit]].sum())


def balance_p(
    evaluate: Callable[[float], Tuple[np.ndarray, float]],
    lo: float = 0.0,
    hi: float = 1.0,
    tolerance: float = 1e-3,
    max_iterations: int = 40,
) -> float:
    """Locate the latency-balance split by bisection on the latency gap.

    ``evaluate(p)`` must return ``(latencies_ns, throughput)`` for the
    split ``[p, 1 - p]``; the gap ``L_D(p) - L_A(p)`` is monotone
    increasing in ``p`` (more default-tier traffic loads the default
    tier and unloads the alternate), so bisection converges. Same
    structure as :func:`repro.core.shift.find_equilibrium_p`, but over
    an arbitrary evaluation callback so colocated audits can hold the
    other tenants' splits fixed.
    """

    def gap(p: float) -> float:
        latencies, _ = evaluate(p)
        return float(latencies[0] - latencies[1])

    if gap(lo) >= 0.0:
        return lo
    if gap(hi) <= 0.0:
        return hi
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    return (lo + hi) / 2.0


def _relative_gap(reference: float, actual: float) -> float:
    """Relative throughput shortfall of ``actual`` vs ``reference``.

    Zero when the actual placement matches or beats the reference (the
    references are heuristics, not upper bounds — balance can beat
    packing and vice versa, and the audit only reports *shortfall*).
    """
    if reference <= 0:
        return 0.0
    return max(0.0, (reference - actual) / reference)


class PlacementObserver:
    """Per-quantum placement telemetry bound to one (tenant's) loop.

    The owning loop calls :meth:`observe_quantum` after migration
    execution each quantum. The observer emits one ``placement_sample``
    trace event per quantum through the supplied tracer; on audit quanta
    (every ``audit_period``) it additionally runs the misplacement-gap
    audit through the loop-supplied ``evaluate`` callback, which must be
    backed by a *private* solver so observation never perturbs the run.
    """

    def __init__(
        self,
        n_tiers: int,
        tracer,
        audit_period: int = DEFAULT_AUDIT_PERIOD_QUANTA,
        churn_window_quanta: int = DEFAULT_CHURN_WINDOW_QUANTA,
    ) -> None:
        if n_tiers < 1:
            raise ConfigurationError("need at least one tier")
        self.n_tiers = int(n_tiers)
        self.tracer = tracer
        self.audit_period = int(audit_period)
        if self.audit_period < 1:
            raise ConfigurationError("audit period must be >= 1")
        self.flows = FlowTracker(window_quanta=churn_window_quanta)
        # The flow matrix of a quantum that moved nothing, shared by
        # every event that reports one.
        self._no_flows = JsonList([0] * self.n_tiers
                                  for __ in range(self.n_tiers))
        self._quantum = -1
        self.audits_run = 0
        # Decile/packing caches: hotness depends only on the probability
        # array, which dynamic workloads rebuild (or report as shifted)
        # when the hot set moves — so ranks are reused across the quanta
        # in between instead of re-sorting every sample.
        self._cached_probs: Optional[np.ndarray] = None
        self._cached_deciles: Optional[np.ndarray] = None
        # Occupancy reuse across quanta where no page moved or resized
        # (keyed on PageArray.version + the decile assignment).
        self._occupancy_version: Optional[int] = None
        self._occupancy_cache: Optional[
            Tuple[JsonList, JsonList]] = None
        self._cached_p_packed: Optional[float] = None
        self._packed_sizes: Optional[np.ndarray] = None
        self._packed_capacity: Optional[int] = None
        # Last audit result, keyed on everything the gaps depend on
        # (see :meth:`_audit`); in steady state successive audits are
        # byte-identical and skip the solver entirely.
        self._audit_memo: Optional[Tuple[object, Dict[str, float]]] = None

    def audit_due(self) -> bool:
        """Whether the *next* observed quantum is an audit quantum."""
        return (self._quantum + 1) % self.audit_period == 0

    def observe_quantum(
        self,
        access_probs: np.ndarray,
        placement,
        result,
        p_actual: float,
        evaluate: Optional[
            Callable[[float], Tuple[np.ndarray, float]]] = None,
        probs_changed: Optional[bool] = None,
        audit_key: Optional[object] = None,
    ) -> None:
        """Fold one quantum into the ledger/flows and maybe audit.

        Args:
            access_probs: The workload's current per-page access
                probabilities.
            placement: The (tenant's) live placement state (read only).
            result: The quantum's
                :class:`~repro.pages.migration.MigrationResult`.
            p_actual: Default-tier access share of the actual placement.
            evaluate: Private-solver callback ``p -> (latencies_ns,
                throughput)``; None disables the audit (ledger and flows
                still sample). Called only on audit quanta. The audit
                solves the *actual* split through the same callback, so
                all three throughputs compare steady-state placements
                without transient migration traffic.
            probs_changed: Loop-supplied hint that ``access_probs``
                changed since the previous quantum (the workload's
                ``advance`` return). ``False`` lets the observer reuse
                the cached hotness deciles; ``None`` (unknown) or
                ``True`` recomputes them.
            audit_key: Hashable fingerprint of everything that shapes
                the equilibrium behind ``evaluate`` besides the probed
                split — the app core group, the antagonist, and (under
                colocation) the other tenants' splits. When supplied,
                audits whose inputs match the previous audit reuse its
                result without solving. ``None`` disables the memo.
        """
        audit_quantum = self.audit_due()
        self._quantum += 1

        moved_pages = getattr(result, "moved_pages", None)
        if moved_pages is None or not len(moved_pages):
            # Most quanta move nothing: an all-zero flow matrix, and the
            # churn window only ages.
            flows = self._no_flows
            ping_pong, wasted = self.flows.observe(_NO_MOVES, _NO_MOVES,
                                                   _NO_MOVES, _NO_MOVES)
        else:
            moved_src = result.moved_src_tiers
            moved_dst = result.moved_dst_tiers
            moved_sizes = placement.pages.sizes_bytes[moved_pages]
            flows = flow_matrix(self.n_tiers, moved_src, moved_dst,
                                moved_sizes)
            ping_pong, wasted = self.flows.observe(
                moved_pages, moved_src, moved_dst, moved_sizes
            )

        if (probs_changed is False
                and self._cached_deciles is not None
                and access_probs is self._cached_probs):
            deciles = self._cached_deciles
        else:
            deciles = hotness_deciles(access_probs)
            self._cached_probs = access_probs
            self._cached_deciles = deciles
            self._cached_p_packed = None
            self._occupancy_version = None

        version = getattr(placement.pages, "version", None)
        if (version is not None
                and version == self._occupancy_version
                and self._occupancy_cache is not None):
            tier_pages, tier_bytes = self._occupancy_cache
        else:
            # Converted once per recount and shared by the events of
            # the quanta that reuse it.
            tier_pages, tier_bytes = (
                JsonList(counts.tolist())
                for counts in _occupancy_arrays(placement, deciles))
            self._occupancy_cache = (tier_pages, tier_bytes)
            self._occupancy_version = version

        audit = None
        if (audit_quantum and evaluate is not None
                and self.n_tiers == 2):
            audit = self._audit(access_probs, placement, p_actual,
                                evaluate, audit_key=audit_key)
            self.audits_run += 1

        if self.tracer.enabled:
            self.tracer.emit(
                "placement_sample",
                tier_pages=tier_pages,
                tier_bytes=tier_bytes,
                flow_bytes=flows,
                ping_pong_pages=ping_pong,
                wasted_bytes=wasted,
                **(audit or {}),
            )

    def _audit(
        self,
        access_probs: np.ndarray,
        placement,
        p_actual: float,
        evaluate: Callable[[float], Tuple[np.ndarray, float]],
        audit_key: Optional[object] = None,
    ) -> Dict[str, float]:
        """Solve the reference placements and report the gaps."""
        sizes = placement.pages.sizes_bytes
        capacity = placement.capacity_bytes(0)
        if (self._cached_p_packed is None
                or sizes is not self._packed_sizes
                or capacity != self._packed_capacity):
            self._cached_p_packed = pack_hottest_p(
                access_probs, sizes, capacity
            )
            self._packed_sizes = sizes
            self._packed_capacity = capacity
        p_packed = self._cached_p_packed
        # The gaps are a pure function of (equilibrium regime, actual
        # split, packing split): probabilities only reach the solver
        # through those two splits. A matching fingerprint therefore
        # guarantees a byte-identical result.
        memo_key = ((audit_key, float(p_actual), p_packed)
                    if audit_key is not None else None)
        if (memo_key is not None and self._audit_memo is not None
                and self._audit_memo[0] == memo_key):
            return self._audit_memo[1]
        _, thr_actual = evaluate(float(p_actual))
        # Full-interval bisection probes a deterministic grid (0, 1,
        # 0.5, ...), so within one contention regime every audit after
        # the first is absorbed by the private solver's memoization; a
        # bracket seeded near the last balance point would drift by the
        # bisection tolerance each audit and defeat the cache.
        p_raw = balance_p(evaluate)
        # The balance point may want more default-tier share than the
        # capacity can host; the achievable balance placement is clamped
        # to the packing share (the maximum share any placement reaches).
        p_bal = min(p_raw, p_packed)
        _, thr_packed = evaluate(p_packed)
        _, thr_balance = evaluate(p_bal)
        audit = {
            "gap_packed": _relative_gap(thr_packed, thr_actual),
            "gap_balance": _relative_gap(thr_balance, thr_actual),
            "p_actual": float(p_actual),
            "p_packed": float(p_packed),
            "p_balance": float(p_bal),
            "throughput_actual": float(thr_actual),
            "throughput_packed": float(thr_packed),
            "throughput_balance": float(thr_balance),
        }
        if memo_key is not None:
            self._audit_memo = (memo_key, audit)
        return audit


# -- trace-side summary ----------------------------------------------------


def summarize_placement_events(
    events: Sequence[dict]) -> Optional[dict]:
    """Distill ``placement_sample`` events into a JSON-safe summary.

    Used for the ``placement`` payload on
    :class:`~repro.exec.result.CellResult` and the placement section of
    ``repro report``. Returns None when the trace carries no placement
    samples.
    """
    samples = [e for e in events if e.get("type") == "placement_sample"]
    if not samples:
        return None
    audits = [e for e in samples if "gap_balance" in e]
    ping_peak = 0
    wasted_total = 0
    moved_total = 0
    for event in samples:
        ping_peak = max(ping_peak, int(event.get("ping_pong_pages", 0)))
        wasted_total += int(event.get("wasted_bytes", 0))
        flows = event.get("flow_bytes") or []
        for i, row in enumerate(flows):
            for j, value in enumerate(row):
                if i != j:
                    moved_total += int(value)
    summary: Dict[str, object] = {
        "n_samples": len(samples),
        "n_audits": len(audits),
        "ping_pong_pages_peak": ping_peak,
        "wasted_migration_bytes": wasted_total,
        "flow_bytes_total": moved_total,
    }
    last = samples[-1]
    tier_bytes = last.get("tier_bytes")
    if tier_bytes:
        summary["tier_bytes_last"] = [
            int(sum(row)) for row in tier_bytes
        ]
    if audits:
        summary["gap_balance_first"] = float(audits[0]["gap_balance"])
        summary["gap_balance_last"] = float(audits[-1]["gap_balance"])
        summary["gap_packed_first"] = float(audits[0]["gap_packed"])
        summary["gap_packed_last"] = float(audits[-1]["gap_packed"])
    return summary


def placement_payload(events: Sequence[dict]) -> Optional[dict]:
    """Machine-level summary plus per-tenant breakdowns.

    Single-app traces return the plain summary; tenant-labeled traces
    additionally carry a ``tenants`` mapping of per-tenant summaries.
    """
    summary = summarize_placement_events(events)
    if summary is None:
        return None
    tenants: Dict[str, dict] = {}
    names = sorted({e["tenant"] for e in events
                    if e.get("type") == "placement_sample"
                    and "tenant" in e})
    for name in names:
        scoped = summarize_placement_events(
            [e for e in events if e.get("tenant") == name]
        )
        if scoped is not None:
            tenants[name] = scoped
    if tenants:
        summary["tenants"] = tenants
    return summary


__all__ = [
    "DEFAULT_AUDIT_PERIOD_QUANTA",
    "DEFAULT_CHURN_WINDOW_QUANTA",
    "FlowTracker",
    "N_HOTNESS_DECILES",
    "PING_PONG_MIN_REVERSALS",
    "PlacementObserver",
    "balance_p",
    "flow_matrix",
    "hotness_deciles",
    "occupancy_ledger",
    "pack_hottest_p",
    "placement_payload",
    "summarize_placement_events",
]
