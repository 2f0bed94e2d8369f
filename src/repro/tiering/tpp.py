"""TPP reimplementation (§4.3 context).

TPP (ASPLOS '23, upstreamed in Linux) tracks hotness with page-table scans
and hint faults: a scanner marks pages, the next access faults, and the
time between marking and faulting (time-to-fault) is the hotness signal —
short time-to-fault means hot. Promotion is synchronous on the hint fault;
demotion is asynchronous via ``kswapd`` when the default tier crosses
capacity watermarks, picking from the inactive list (least recently
accessed pages).

Convergence is much slower than the PEBS systems (§5.2: hundreds of
seconds) because hotness refreshes only as fast as the scanner covers the
address space; the ``scan_fraction_per_quantum`` knob controls that here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.pages.migration import MigrationPlan
from repro.pages.placement import PlacementState
from repro.tiering.base import QuantumContext, QuantumDecision, TieringSystem
from repro.tracking.hintfaults import HintFaultTracker


class TppSystem(TieringSystem):
    """Hint-fault driven promotion with kswapd watermark demotion."""

    name = "tpp"

    def __init__(
        self,
        scan_fraction_per_quantum: float = 0.002,
        initial_hot_ttf_ns: float = 5e6,
        high_watermark: float = 0.99,
        low_watermark: float = 0.97,
        ttf_adapt_rate: float = 0.05,
        seed: int = 17,
    ) -> None:
        super().__init__()
        if not 0 < scan_fraction_per_quantum <= 1:
            raise ConfigurationError("scan fraction must be in (0, 1]")
        if not 0 < low_watermark <= high_watermark <= 1:
            raise ConfigurationError(
                "need 0 < low_watermark <= high_watermark <= 1"
            )
        self.scan_fraction = float(scan_fraction_per_quantum)
        self.hot_ttf_ns = float(initial_hot_ttf_ns)
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self.ttf_adapt_rate = float(ttf_adapt_rate)
        self._seed = int(seed)
        self._tracker: Optional[HintFaultTracker] = None
        self._last_access_s: Optional[np.ndarray] = None
        self._last_ttf_ns: Optional[np.ndarray] = None

    def attach(self, placement: PlacementState) -> None:
        super().attach(placement)
        n = placement.pages.n_pages
        scan_rate = max(1, int(self.scan_fraction * n))
        self._tracker = HintFaultTracker(
            n_pages=n,
            scan_pages_per_quantum=scan_rate,
            rng=np.random.default_rng(self._seed),
        )
        self._last_access_s = np.zeros(n)
        # Last observed time-to-fault per page: the inactive-list proxy.
        # Never-faulted pages are maximally cold (infinite), matching the
        # kernel's preference for reclaiming never-referenced pages.
        self._last_ttf_ns = np.full(n, np.inf)

    @property
    def tracker(self) -> HintFaultTracker:
        """The hint-fault substrate (exposed for Colloid-on-TPP)."""
        if self._tracker is None:
            raise ConfigurationError("system not attached yet")
        return self._tracker

    def collect_faults(self, ctx: QuantumContext):
        """Run the scanner/fault machinery for this quantum."""
        feed = ctx.feed
        events = self.tracker.quantum(
            access_probs=feed.access_probs,
            request_rate=feed.request_rate,
            now_ns=ctx.time_s * 1e9,
            quantum_ns=ctx.quantum_ns,
        )
        for event in events:
            self._last_access_s[event.page] = ctx.time_s
            self._last_ttf_ns[event.page] = event.time_to_fault_ns
        self.account("hint_faults", len(events))
        self.account("pages_scanned", self.tracker._scan_rate)
        return events

    def _adapt_threshold(self, n_hot_faults: int, n_faults: int) -> None:
        """Adapt the hot time-to-fault threshold (TPP's dynamic threshold).

        Aim for a healthy fraction of faults classifying as hot: too few
        hot faults starves promotion, too many promotes the whole working
        set.
        """
        if n_faults == 0:
            return
        hot_fraction = n_hot_faults / n_faults
        if hot_fraction < 0.3:
            self.hot_ttf_ns *= 1.0 + self.ttf_adapt_rate
        elif hot_fraction > 0.7:
            self.hot_ttf_ns *= 1.0 - self.ttf_adapt_rate

    def coldness(self) -> np.ndarray:
        """Per-page coldness ranking: colder pages sort first when negated.

        The inactive-list proxy combines the last observed time-to-fault
        (long means cold) with recency as a tiebreaker; never-faulted
        pages are treated as coldest.
        """
        return self._last_ttf_ns

    def kswapd_demotions(self, placement: PlacementState) -> np.ndarray:
        """Demote the coldest default-tier pages above the high watermark."""
        capacity = placement.capacity_bytes(0)
        if placement.used_bytes(0) <= self.high_watermark * capacity:
            return np.empty(0, dtype=np.int64)
        target_free = int((1.0 - self.low_watermark) * capacity)
        need = target_free - placement.free_bytes(0)
        if need <= 0:
            return np.empty(0, dtype=np.int64)
        return self.coldest_first(placement.pages.pages_in_tier(0),
                                  placement.pages.sizes_bytes, need)

    def coldest_first(self, candidates: np.ndarray, sizes: np.ndarray,
                      need: int) -> np.ndarray:
        """The coldest ``candidates`` whose sizes first reach ``need``
        bytes (all of them if they never do).

        Coldest first means longest time-to-fault, with the oldest access
        breaking ties, then candidate order: exactly the prefix of
        ``candidates[np.lexsort((last_access, -ttf))]``. Only the head
        ``need`` reaches is sorted: ``np.partition`` finds a cut-off key,
        every candidate at or below it is lexsorted (ties at the cut-off,
        ``inf`` time-to-fault among them, sort as in the full order), and
        the cut-off moves out until those candidates hold ``need`` bytes.
        """
        n = len(candidates)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        key = -self._last_ttf_ns[candidates]
        # A first guess from the first candidate's size; a wrong guess
        # costs another round, never a different answer.
        k = 2 * -(-need // int(sizes[candidates[0]])) + 8
        while k < n:
            kth = np.partition(key, k - 1)[k - 1]
            if kth != kth:  # NaN ranks last and compares unequal
                break
            head = candidates[key <= kth]
            head = head[np.lexsort((self._last_access_s[head],
                                    -self._last_ttf_ns[head]))]
            cum = np.cumsum(sizes[head])
            if cum[-1] >= need:
                taken = int(np.searchsorted(cum, need, side="left")) + 1
                return head[:taken]
            k = 2 * len(head)
        order = candidates[np.lexsort((self._last_access_s[candidates],
                                       key))]
        cum = np.cumsum(sizes[order])
        return order[:int(np.searchsorted(cum, need, side="left")) + 1]

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        events = self.collect_faults(ctx)
        placement = ctx.placement
        tier = placement.pages.tier

        # Synchronous promotion on hint faults for hot alternate-tier pages.
        hot_ttf_ns = self.hot_ttf_ns
        promotions = []
        n_hot = 0
        for event in events:
            if event.time_to_fault_ns <= hot_ttf_ns:
                n_hot += 1
                if tier[event.page] != 0:
                    promotions.append(event.page)
        self._adapt_threshold(n_hot, len(events))
        demotions = self.kswapd_demotions(placement)
        if ctx.tracer.enabled and events:
            ctx.tracer.emit(
                "tpp_promotion",
                n_faults=len(events),
                n_hot=n_hot,
                n_promoted=len(promotions),
                n_demoted=len(demotions),
                hot_ttf_ns=self.hot_ttf_ns,
            )
        self.account("plans", 1)
        return QuantumDecision(plan=tpp_plan(demotions, promotions, 0))


def tpp_plan(demotions: np.ndarray, pages: list,
             dst: int) -> MigrationPlan:
    """Demotions to tier 1 first, then the per-fault moves of ``pages``
    to ``dst``, in order.

    The moves are the few faults of one quantum, so they arrive as a
    Python list; an empty part adds no array work.
    """
    if not pages:
        if not len(demotions):
            return MigrationPlan.empty()
        return MigrationPlan(demotions,
                             np.ones(len(demotions), dtype=np.int64))
    moves = np.array(pages, dtype=np.int64)
    if len(demotions):
        moves = np.concatenate([demotions, moves])
    dsts = np.full(len(moves), dst, dtype=np.int64)
    dsts[:len(demotions)] = 1
    return MigrationPlan(moves, dsts)
