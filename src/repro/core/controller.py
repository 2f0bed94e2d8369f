"""Algorithm 1: the end-to-end Colloid decision loop (§3.2).

Each quantum the controller:

1. reads per-tier occupancy/rate counters, updates the EWMA monitor, and
   computes latencies via Little's Law (lines 1-3);
2. computes the measured default-tier probability share ``p`` (line 4);
3. picks promotion or demotion mode from the latency comparison
   (lines 5-8);
4. runs Algorithm 2 for the desired shift ``dp`` (line 9);
5. computes the dynamic migration limit (line 10);
6. invokes the system-specific page-finding procedure and builds the
   migration plan (lines 10-14), prepending coldest-page demotions when a
   promotion needs default-tier capacity (the underlying systems' own
   pressure-demotion behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.limit import dynamic_migration_limit
from repro.core.measurement import LatencyMonitor
from repro.core.shift import ShiftComputer, trace_shift
from repro.errors import ConfigurationError
from repro.pages.migration import MigrationPlan
from repro.pages.placement import PlacementState
from repro.pages.selection import stable_top_k
from repro.tiering.base import QuantumContext

#: Signature of a page-finding procedure: (src_tier, dp, byte_budget) ->
#: selected page indices in the source tier.
PageFinderFn = Callable[[int, float, int], np.ndarray]


@dataclass(frozen=True)
class ColloidDecision:
    """Algorithm 1's output plus telemetry for the experiment traces."""

    plan: MigrationPlan
    budget_bytes: Optional[int]
    mode: str                  # "promotion", "demotion", or "hold"
    dp: float
    p: float
    latency_default_ns: float
    latency_alternate_ns: float

    @classmethod
    def hold(cls, p: float, l_d: float, l_a: float) -> "ColloidDecision":
        """No action this quantum (balanced, or dp == 0)."""
        return cls(plan=MigrationPlan.empty(), budget_bytes=0, mode="hold",
                   dp=0.0, p=p, latency_default_ns=l_d,
                   latency_alternate_ns=l_a)


def interleave_plans(first: MigrationPlan,
                     second: MigrationPlan) -> MigrationPlan:
    """Alternate two plans' moves so both progress under a byte budget.

    Used to pair make-room demotions with promotions: starting with a
    demotion guarantees the next promotion has space, and alternating
    means a budget cut mid-plan leaves a balanced prefix applied.
    """
    n1, n2 = len(first), len(second)
    pages = np.empty(n1 + n2, dtype=np.int64)
    dsts = np.empty(n1 + n2, dtype=np.int64)
    common = min(n1, n2)
    if common:
        pages[0:2 * common:2] = first.page_indices[:common]
        dsts[0:2 * common:2] = first.dst_tiers[:common]
        pages[1:2 * common:2] = second.page_indices[:common]
        dsts[1:2 * common:2] = second.dst_tiers[:common]
    if n1 > common:
        pages[2 * common:] = first.page_indices[common:]
        dsts[2 * common:] = first.dst_tiers[common:]
    elif n2 > common:
        pages[2 * common:] = second.page_indices[common:]
        dsts[2 * common:] = second.dst_tiers[common:]
    return MigrationPlan(pages, dsts)


class ColloidController:
    """Reusable Algorithm 1 engine shared by the three integrations."""

    def __init__(self, monitor: LatencyMonitor, shift: ShiftComputer,
                 static_limit_bytes: int) -> None:
        if static_limit_bytes <= 0:
            raise ConfigurationError("static limit must be positive")
        self.monitor = monitor
        self.shift = shift
        self.static_limit_bytes = int(static_limit_bytes)

    def observe(self, ctx: QuantumContext) -> None:
        """Feed this quantum's CHA sample into the latency monitor.

        Kept separate from :meth:`decide` because systems with action
        periods longer than the runtime quantum (MEMTIS) still sample
        counters every quantum.
        """
        self.monitor.update(ctx.cha)

    def decide(self, ctx: QuantumContext, find_pages: PageFinderFn,
               coldness: np.ndarray,
               period_ns: Optional[float] = None) -> ColloidDecision:
        """Run lines 3-14 of Algorithm 1 for this quantum.

        Args:
            ctx: The quantum context.
            find_pages: System-specific page-finding procedure.
            coldness: Per-page access-probability estimates used to pick
                the coldest pages when promotions need capacity.
            period_ns: The system's action period (MEMTIS acts every
                500 ms, not every runtime quantum); the dynamic migration
                limit and the static rate limit both scale with it.
                Defaults to the runtime quantum.
        """
        latencies = self.monitor.latencies_ns()
        l_d = float(latencies[0])
        l_a = float(latencies[1:].min())
        p = self.monitor.measured_p()
        dp = self.shift.compute(p, l_d, l_a)
        if ctx.tracer.enabled:
            trace_shift(ctx.tracer, self.shift, p, dp, l_d, l_a)
        if dp <= 0:
            return ColloidDecision.hold(p, l_d, l_a)

        if period_ns is None:
            period_ns = ctx.quantum_ns
        period_quanta = max(1.0, period_ns / ctx.quantum_ns)
        mode = "promotion" if l_d < l_a else "demotion"
        total_rate = float(self.monitor.smoothed_rates.sum())
        budget = dynamic_migration_limit(
            dp, total_rate, period_ns,
            int(self.static_limit_bytes * period_quanta),
        )
        if budget <= 0:
            return ColloidDecision.hold(p, l_d, l_a)

        src_tier = 1 if mode == "promotion" else 0
        dst_tier = 0 if mode == "promotion" else 1
        # In promotion mode half the byte budget pays for the make-room
        # demotions, so find at most half a budget's worth of promotions.
        find_budget = budget // 2 if mode == "promotion" else budget
        chosen = find_pages(src_tier, dp, max(find_budget, 1))
        if chosen.size == 0:
            return ColloidDecision.hold(p, l_d, l_a)
        moves = MigrationPlan(
            chosen, np.full(len(chosen), dst_tier, dtype=np.int64)
        )
        if mode == "promotion":
            moves = self._with_make_room(ctx.placement, moves, coldness)
        if ctx.tracer.enabled:
            ctx.tracer.emit(
                "colloid_decision",
                mode=mode,
                dp=dp,
                budget_bytes=int(budget),
                n_moves=len(moves),
            )
        return ColloidDecision(
            plan=moves,
            budget_bytes=budget,
            mode=mode,
            dp=dp,
            p=p,
            latency_default_ns=l_d,
            latency_alternate_ns=l_a,
        )

    def _with_make_room(self, placement: PlacementState,
                        promotions: MigrationPlan,
                        coldness: np.ndarray) -> MigrationPlan:
        """Prepend coldest-page demotions so promotions have capacity."""
        pages = placement.pages
        sizes = pages.sizes_bytes
        promoted = promotions.page_indices
        need = int(sizes[promoted].sum()) - placement.free_bytes(0)
        if need <= 0:
            return promotions
        in_default = pages.tier == 0
        in_default[promoted] = False
        default_pages = in_default.nonzero()[0]
        if default_pages.size == 0:
            return promotions
        # Every page holds at least the smallest page size, so the
        # coldest ceil(need / min size) pages always cover ``need``;
        # only that head of the coldness order is ranked.
        k = -(-need // pages.min_page_bytes)
        order = default_pages[stable_top_k(-coldness[default_pages], k)]
        # Demote the shortest prefix that covers ``need`` (all of the
        # head if it falls short).
        n = 0
        freed = 0
        for size in sizes[order].tolist():
            n += 1
            freed += size
            if freed >= need:
                break
        demotions = MigrationPlan(order[:n], np.ones(n, dtype=np.int64))
        return interleave_plans(demotions, promotions)
