"""Colloid integrations with the three base systems (§4).

Each integration subclasses its baseline and replaces *only* the placement
policy — tracking, cadence, cooling, splitting, and kswapd behaviour are
inherited unchanged, mirroring how the paper's implementations reuse the
underlying systems' mechanisms (520/411/~315 LoC on top of HeMem/MEMTIS/
TPP respectively).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.controller import ColloidController, ColloidDecision
from repro.core.finder import BinnedPageFinder, HotListPageFinder
from repro.core.measurement import DEFAULT_EWMA_ALPHA, LatencyMonitor
from repro.core.shift import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ShiftComputer,
    trace_shift,
)
from repro.errors import ConfigurationError
from repro.tiering.base import QuantumContext, QuantumDecision
from repro.tiering.hemem import HememSystem
from repro.tiering.memtis import MemtisSystem
from repro.tiering.tpp import TppSystem, tpp_plan


class _ColloidMixin:
    """Shared controller plumbing for the three integrations."""

    def _init_colloid(self, delta: float, epsilon: float,
                      ewma_alpha: float) -> None:
        self._delta = delta
        self._epsilon = epsilon
        self._ewma_alpha = ewma_alpha
        self._controller: Optional[ColloidController] = None
        self.last_decision: Optional[ColloidDecision] = None

    def on_configure(self, machine, static_limit_bytes: int,
                     quantum_ns: float) -> None:
        monitor = LatencyMonitor(
            [t.unloaded_latency_ns for t in machine.tiers],
            ewma_alpha=self._ewma_alpha,
        )
        shift = ShiftComputer(delta=self._delta, epsilon=self._epsilon)
        self._controller = ColloidController(
            monitor=monitor, shift=shift,
            static_limit_bytes=static_limit_bytes,
        )

    @property
    def controller(self) -> ColloidController:
        """The Algorithm 1 engine (available after ``on_configure``)."""
        if self._controller is None:
            raise ConfigurationError(
                "Colloid system not configured (runtime calls on_configure)"
            )
        return self._controller


class HememColloidSystem(_ColloidMixin, HememSystem):
    """HeMem + Colloid (§4.1): binned frequency lists for page finding."""

    name = "hemem+colloid"

    def __init__(self, delta: float = DEFAULT_DELTA,
                 epsilon: float = DEFAULT_EPSILON,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA,
                 n_bins: int = 5, **hemem_kwargs) -> None:
        HememSystem.__init__(self, **hemem_kwargs)
        self._init_colloid(delta, epsilon, ewma_alpha)
        self._n_bins = int(n_bins)
        self._finder: Optional[BinnedPageFinder] = None

    def attach(self, placement) -> None:
        HememSystem.attach(self, placement)
        self._finder = BinnedPageFinder(
            cooling_threshold=self.counters.cooling_threshold,
            n_bins=self._n_bins,
        )

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        self.update_tracking(ctx)
        self.controller.observe(ctx)
        if ctx.time_s - self._last_action_s < self.action_period_s:
            return QuantumDecision.idle()
        self._last_action_s = ctx.time_s
        # The probability estimates, computed once if a page search or
        # make-room needs them (a holding decision needs neither).
        estimates = []

        def probabilities() -> np.ndarray:
            if not estimates:
                estimates.append(self.counters.access_probabilities())
            return estimates[0]

        def find(src_tier: int, dp: float, budget: int) -> np.ndarray:
            return self._finder.find(
                self.counters.counts, ctx.placement, src_tier, dp, budget,
                probs=probabilities(),
            )

        decision = self.controller.decide(
            ctx, find, coldness=probabilities,
            period_ns=self.action_period_s * 1e9,
        )
        self.last_decision = decision
        self.account("plans", 1)
        return QuantumDecision(plan=decision.plan,
                               budget_bytes=decision.budget_bytes)


class MemtisColloidSystem(_ColloidMixin, MemtisSystem):
    """MEMTIS + Colloid (§4.2): hot-list scan for page finding.

    Implemented on the alternate-tier kmigrated cadence (the 500 ms action
    period inherited from MEMTIS); the default-tier kmigrated's
    capacity-pressure demotions survive as the controller's make-room
    demotions. Hugepage split behaviour is inherited unchanged.
    """

    name = "memtis+colloid"

    def __init__(self, delta: float = DEFAULT_DELTA,
                 epsilon: float = DEFAULT_EPSILON,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA,
                 **memtis_kwargs) -> None:
        MemtisSystem.__init__(self, **memtis_kwargs)
        self._init_colloid(delta, epsilon, ewma_alpha)
        self._finder = HotListPageFinder()

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        self.update_tracking(ctx)
        self._maybe_split(ctx)
        self._coalesce(ctx)
        self.controller.observe(ctx)
        if ctx.time_s - self._last_action_s < self.action_period_s:
            return QuantumDecision.idle()
        self._last_action_s = ctx.time_s
        threshold = self.hot_threshold(ctx.placement)

        def find(src_tier: int, dp: float, budget: int) -> np.ndarray:
            return self._finder.find(
                self.counts, threshold, ctx.placement, src_tier, dp, budget
            )

        total = self.counts.sum()
        coldness = self.counts / total if total > 0 else (
            np.full(len(self.counts), 1.0 / len(self.counts))
        )
        decision = self.controller.decide(
            ctx, find, coldness=coldness,
            period_ns=self.action_period_s * 1e9,
        )
        self.last_decision = decision
        self.account("plans", 1)
        return QuantumDecision(plan=decision.plan,
                               budget_bytes=decision.budget_bytes)


class TppColloidSystem(_ColloidMixin, TppSystem):
    """TPP + Colloid (§4.3): per-fault probability estimates.

    Hint faults are enabled on default-tier pages too (vanilla TPP only
    faults alternate-tier pages for promotion); on each fault the page's
    access probability is estimated as ``p = 1 / (dt * r)`` where ``dt``
    is the measured time-to-fault and ``r`` the request rate of the page's
    tier, and the page is migrated iff the latency comparison says so and
    its estimate fits in the remaining ``dp``. Cold-page demotion via
    kswapd continues unchanged.
    """

    name = "tpp+colloid"

    def __init__(self, delta: float = DEFAULT_DELTA,
                 epsilon: float = DEFAULT_EPSILON,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA,
                 **tpp_kwargs) -> None:
        TppSystem.__init__(self, **tpp_kwargs)
        self._init_colloid(delta, epsilon, ewma_alpha)

    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        events = self.collect_faults(ctx)
        controller = self.controller
        controller.observe(ctx)
        monitor = controller.monitor
        l_d, l_a, p, total_rate = monitor.balance()
        dp = controller.shift.compute(p, l_d, l_a)
        if ctx.tracer.enabled:
            trace_shift(ctx.tracer, controller.shift, p, dp, l_d, l_a)

        placement = ctx.placement
        tier = placement.pages.tier
        sizes = placement.pages.sizes_bytes
        # The quantum's few faults are handled in Python scalars; every
        # move goes the same way, so one destination serves them all.
        moved: list = []
        dst = 0
        promo_bytes = 0
        if dp > 0 and events:
            from repro.core.limit import dynamic_migration_limit
            budget = dynamic_migration_limit(
                dp, total_rate, ctx.quantum_ns,
                controller.static_limit_bytes,
            )
            mode_promotion = l_d < l_a
            src_tier = 1 if mode_promotion else 0
            dst = 0 if mode_promotion else 1
            r = monitor.smoothed_rate(src_tier)
            acc_p, acc_b = 0.0, 0
            for event in events:
                page = event.page
                if tier[page] != src_tier:
                    continue
                if r <= 0 or event.time_to_fault_ns <= 0:
                    continue
                estimate = min(1.0, 1.0 / (event.time_to_fault_ns * r))
                size = int(sizes[page])
                if acc_p + estimate > dp or acc_b + size > budget:
                    continue
                moved.append(page)
                acc_p += estimate
                acc_b += size
            if mode_promotion:
                promo_bytes = acc_b
        # kswapd capacity demotion continues as in vanilla TPP; it also
        # provides make-room space for synchronous promotions.
        demotions = self.kswapd_demotions(placement)
        extra_need = promo_bytes - placement.free_bytes(0)
        if len(demotions):
            extra_need -= int(sizes[demotions].sum())
        if extra_need > 0:
            candidates = np.setdiff1d(
                placement.pages.pages_in_tier(0),
                np.concatenate([demotions,
                                np.array(moved, dtype=np.int64)]),
            )
            demotions = np.concatenate([
                demotions,
                self.coldest_first(candidates, sizes, extra_need),
            ])
        if ctx.tracer.enabled and events:
            ctx.tracer.emit(
                "tpp_promotion",
                n_faults=len(events),
                n_hot=sum(1 for e in events
                          if e.time_to_fault_ns <= self.hot_ttf_ns),
                n_promoted=len(moved) if dst == 0 else 0,
                n_demoted=len(demotions),
                hot_ttf_ns=self.hot_ttf_ns,
            )
        self.account("plans", 1)
        return QuantumDecision(plan=tpp_plan(demotions, moved, dst))


def with_colloid(base: str, **kwargs):
    """Factory: build a Colloid-enabled system by base-system name.

    Args:
        base: One of ``"hemem"``, ``"memtis"``, ``"tpp"``.
        kwargs: Forwarded to the integration's constructor.
    """
    factories = {
        "hemem": HememColloidSystem,
        "memtis": MemtisColloidSystem,
        "tpp": TppColloidSystem,
    }
    if base not in factories:
        raise ConfigurationError(
            f"unknown base system {base!r}; expected one of "
            f"{sorted(factories)}"
        )
    return factories[base](**kwargs)
