"""MEMTIS reimplementation (§4.2 context).

MEMTIS (SOSP '23) differs from HeMem in four ways the paper calls out:

1. a *dynamic* PEBS sampling rate bounding CPU overhead;
2. a *dynamic* hot threshold derived from the measured access distribution
   (the hottest pages that fit the default tier);
3. promotion/demotion on separate per-tier ``kmigrated`` threads with a
   500 ms quantum;
4. hugepage split/coalesce. Splitting decisions taken before steady state
   cannot be undone quickly (coalescing scans virtual address space), and
   the paper measures ~10% degradation on GUPS at 0x contention from
   unnecessary splits. We model the mechanism at page granularity: MEMTIS
   "splits" hot hugepages early in the run, and split pages impose extra
   TLB pressure expressed through :meth:`throughput_scale`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.pages.placement import PlacementState
from repro.tiering.base import (
    QuantumContext,
    QuantumDecision,
    TieringSystem,
    pack_hottest_plan,
)
from repro.tracking.histogram import capacity_hot_threshold
from repro.tracking.pebs import AdaptivePebsSampler

#: Throughput penalty when a fraction of hot traffic hits split pages;
#: calibrated to MEMTIS's ~10% gap at 0x contention (Figure 1).
SPLIT_TLB_PENALTY = 0.10


class MemtisSystem(TieringSystem):
    """Histogram-thresholded tiering with 500 ms kmigrated quanta."""

    name = "memtis"

    def __init__(
        self,
        action_period_s: float = 0.5,
        target_samples_per_quantum: int = 4096,
        demotion_watermark: float = 0.01,
        split_fraction: float = 0.35,
        split_warmup_s: float = 1.0,
        enable_splitting: bool = True,
        coalesce_pages_per_s: float = 2.0,
    ) -> None:
        super().__init__()
        if action_period_s <= 0:
            raise ConfigurationError("action period must be positive")
        if not 0 <= demotion_watermark < 1:
            raise ConfigurationError("watermark must be in [0, 1)")
        if not 0 <= split_fraction <= 1:
            raise ConfigurationError("split fraction must be in [0, 1]")
        if coalesce_pages_per_s < 0:
            raise ConfigurationError("coalesce rate must be non-negative")
        self.action_period_s = float(action_period_s)
        self.demotion_watermark = float(demotion_watermark)
        self.split_fraction = float(split_fraction)
        self.split_warmup_s = float(split_warmup_s)
        self.enable_splitting = bool(enable_splitting)
        #: MEMTIS coalesces split hugepages with a background thread that
        #: scans the virtual address space — far slower than the split
        #: path (§2.2: "significantly longer than the time it takes for
        #: this workload to reach steady-state"), which is why premature
        #: splits are effectively permanent within a run.
        self.coalesce_pages_per_s = float(coalesce_pages_per_s)
        self._coalesce_credit = 0.0
        self._last_coalesce_s = 0.0
        self._sampler = AdaptivePebsSampler(
            target_samples_per_quantum=target_samples_per_quantum
        )
        self._counts: Optional[np.ndarray] = None
        self._split: Optional[np.ndarray] = None
        self._did_split = False
        # throughput_scale() of the current split mask, refreshed where
        # the mask changes instead of reduced over every page each
        # quantum.
        self._scale = 1.0
        self._last_action_s = -np.inf
        self._decay = 0.98  # slow exponential ageing of counts

    def attach(self, placement: PlacementState) -> None:
        super().attach(placement)
        n = placement.pages.n_pages
        self._counts = np.zeros(n)
        self._split = np.zeros(n, dtype=bool)
        self._did_split = False
        self._scale = 1.0
        self._last_action_s = -np.inf

    @property
    def counts(self) -> np.ndarray:
        """Per-page (aged) access counts."""
        if self._counts is None:
            raise ConfigurationError("system not attached yet")
        return self._counts

    @property
    def split_pages(self) -> np.ndarray:
        """Mask of pages MEMTIS has split into base pages (read-only:
        :meth:`throughput_scale` tracks MEMTIS's own changes to it)."""
        if self._split is None:
            raise ConfigurationError("system not attached yet")
        return self._split

    def update_tracking(self, ctx: QuantumContext) -> None:
        """Adaptive PEBS sampling plus slow count ageing."""
        samples = self._sampler.collect(ctx.feed)
        self._counts *= self._decay
        self._counts += samples
        self.account("pebs_samples", self._sampler.last_samples)

    def hot_threshold(self, placement: PlacementState) -> float:
        """Capacity-fitted hot threshold over the current counts."""
        return capacity_hot_threshold(
            self.counts,
            placement.pages.sizes_bytes,
            placement.capacity_bytes(0),
        )

    def _maybe_split(self, ctx: QuantumContext) -> None:
        """One-shot early hugepage splitting of the hottest pages.

        Fires once the warmup period elapses, typically *before* the
        workload reaches steady state — reproducing the premature-split
        behaviour and the inability to coalesce back (§2.2).
        """
        if (not self.enable_splitting or self._did_split
                or ctx.time_s < self.split_warmup_s):
            return
        self._did_split = True
        order = np.argsort(-self.counts, kind="stable")
        n_split = int(self.split_fraction * len(order))
        self._split[order[:n_split]] = True
        self._refresh_scale()
        self.account("hugepage_splits", n_split)
        if ctx.tracer.enabled:
            ctx.tracer.emit("memtis_split", n_split=n_split)

    def _coalesce(self, ctx: QuantumContext) -> None:
        """Slowly repair split pages, modelling MEMTIS's VA-space scan."""
        elapsed = ctx.time_s - self._last_coalesce_s
        self._last_coalesce_s = ctx.time_s
        if not self._split.any() or self.coalesce_pages_per_s == 0:
            return
        self._coalesce_credit += elapsed * self.coalesce_pages_per_s
        n = int(self._coalesce_credit)
        if n <= 0:
            return
        self._coalesce_credit -= n
        split_idx = np.nonzero(self._split)[0]
        self._split[split_idx[:n]] = False
        self._refresh_scale()
        self.account("hugepage_coalesces", min(n, len(split_idx)))

    def _refresh_scale(self) -> None:
        if not self._split.any():
            self._scale = 1.0
            return
        frac = float(self._split.mean())
        self._scale = 1.0 - SPLIT_TLB_PENALTY * (
            frac / max(self.split_fraction, 1e-9))

    def throughput_scale(self) -> float:
        """TLB-pressure penalty proportional to the split fraction."""
        return self._scale

    def make_plan(self, ctx: QuantumContext) -> QuantumDecision:
        """Hot pages (count >= dynamic threshold) packed into default tier."""
        placement = ctx.placement
        threshold = self.hot_threshold(placement)
        hot = self.counts >= threshold if np.isfinite(threshold) else (
            np.zeros(len(self.counts), dtype=bool)
        )
        if ctx.tracer.enabled:
            ctx.tracer.emit(
                "memtis_threshold",
                threshold=float(threshold) if np.isfinite(threshold)
                else None,
                n_hot=int(hot.sum()),
            )
        slack = int(self.demotion_watermark * placement.capacity_bytes(0))
        plan = pack_hottest_plan(
            placement=placement,
            hotness=self.counts,
            hot_mask=hot,
            max_bytes=2**62,
            free_slack_bytes=slack,
        )
        self.account("plans", 1)
        return QuantumDecision(plan=plan)

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        self.update_tracking(ctx)
        self._maybe_split(ctx)
        self._coalesce(ctx)
        if ctx.time_s - self._last_action_s < self.action_period_s:
            return QuantumDecision.idle()
        self._last_action_s = ctx.time_s
        return self.make_plan(ctx)
