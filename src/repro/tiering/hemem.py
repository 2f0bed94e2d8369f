"""HeMem reimplementation (§4.1 context).

HeMem (SOSP '21) tracks per-page access frequencies with PEBS samples read
by a polling thread, classifies pages as hot when their frequency count
exceeds a fixed threshold, cools counts by halving when any count reaches
``COOLING_THRESHOLD``, and migrates asynchronously on a 10 ms quantum —
packing as many hot pages as possible into the default tier.

The pieces Colloid later reuses are deliberately separated:
:meth:`HememSystem.update_tracking` (PEBS + cooling) and
:meth:`HememSystem.make_plan` (the hottest-pages placement policy).
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
from repro.tracking.cooling import DEFAULT_COOLING_THRESHOLD, CoolingCounters
from repro.tracking.pebs import PebsSampler

#: HeMem deems a page hot once its frequency count reaches this value.
DEFAULT_HOT_THRESHOLD = 2.0


class HememSystem(TieringSystem):
    """PEBS-sampled hot/cold tiering with a 10 ms migration quantum."""

    name = "hemem"

    def __init__(
        self,
        sample_period: int = 199,
        hot_threshold: float = DEFAULT_HOT_THRESHOLD,
        cooling_threshold: int = DEFAULT_COOLING_THRESHOLD,
        action_period_s: float = 0.01,
    ) -> None:
        super().__init__()
        if hot_threshold <= 0:
            raise ConfigurationError("hot threshold must be positive")
        if action_period_s <= 0:
            raise ConfigurationError("action period must be positive")
        self.hot_threshold = float(hot_threshold)
        self.action_period_s = float(action_period_s)
        self._sampler = PebsSampler(sample_period)
        self._cooling_threshold = int(cooling_threshold)
        self._counters: Optional[CoolingCounters] = None
        self._last_action_s = -np.inf

    def attach(self, placement: PlacementState) -> None:
        super().attach(placement)
        self._counters = CoolingCounters(
            placement.pages.n_pages, self._cooling_threshold
        )
        self._last_action_s = -np.inf

    @property
    def counters(self) -> CoolingCounters:
        """The frequency counters (exposed for Colloid's binned finder)."""
        if self._counters is None:
            raise ConfigurationError("system not attached yet")
        return self._counters

    def update_tracking(self, ctx: QuantumContext) -> None:
        """Fold this quantum's PEBS samples into the frequency counters."""
        samples = self._sampler.collect(ctx.feed)
        coolings_before = self.counters.coolings
        self.counters.add_samples(samples)
        self.account("pebs_samples", self._sampler.last_samples)
        if ctx.tracer.enabled and self.counters.coolings > coolings_before:
            ctx.tracer.emit(
                "hemem_cooling",
                coolings=self.counters.coolings - coolings_before,
                total_coolings=self.counters.coolings,
            )

    def hot_mask(self) -> np.ndarray:
        """Pages currently classified hot (count >= threshold)."""
        return self.counters.counts >= self.hot_threshold

    def make_plan(self, ctx: QuantumContext) -> QuantumDecision:
        """Baseline placement: pack the hottest pages into the default tier."""
        counts = self.counters.counts
        plan = pack_hottest_plan(
            placement=ctx.placement,
            hotness=counts,
            hot_mask=self.hot_mask(),
            max_bytes=2**62,  # the executor's static limit is the cap
        )
        self.account("plans", 1)
        return QuantumDecision(plan=plan)

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        self.update_tracking(ctx)
        if ctx.time_s - self._last_action_s < self.action_period_s:
            return QuantumDecision.idle()
        self._last_action_s = ctx.time_s
        return self.make_plan(ctx)
