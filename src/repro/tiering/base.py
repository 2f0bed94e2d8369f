"""Tiering-system interface and shared placement helpers.

A tiering system is driven once per runtime quantum with a
:class:`QuantumContext` — the observables a real system would have
(hardware counters, sampled/faulted access signals, its own page table
view) — and returns a :class:`QuantumDecision`: an ordered migration plan
plus an optional dynamic byte budget (used by Colloid's dynamic migration
limit; baselines use the static limit).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.memhw.cha import ChaSample
from repro.obs.tracer import NULL_TRACER
from repro.pages.migration import MigrationPlan
from repro.pages.placement import PlacementState
from repro.pages.selection import stable_top_k
from repro.tracking.feed import AccessFeed


class QuantumContext:
    """Everything a tiering system may observe during one quantum.

    ``tracer`` carries the runtime's observability hook; it defaults to
    the shared null tracer, so systems emit decision events with
    ``if ctx.tracer.enabled:`` guards and pay one attribute check when
    tracing is off.

    Each tenant's controller receives its own context: ``cha`` reflects
    the *machine* (total traffic of every tenant, the antagonist, and
    migrations — exactly what the hardware counters show), while
    ``placement`` and ``feed`` are scoped to the tenant's own pages; the
    placement's capacities are the tenant's grant.

    ``cha`` is the sample or a zero-argument reader of it
    (:meth:`~repro.memhw.cha.ChaCounters.window`), run on the first
    read: a system that never reads the counters never samples them.
    """

    __slots__ = ("time_s", "quantum_ns", "placement", "_cha", "feed",
                 "tracer")

    def __init__(self, time_s: float, quantum_ns: float,
                 placement: PlacementState,
                 cha: Union[ChaSample, Callable[[], ChaSample]],
                 feed: AccessFeed,
                 tracer: object = NULL_TRACER) -> None:
        self.time_s = time_s
        self.quantum_ns = quantum_ns
        self.placement = placement
        self._cha = cha
        self.feed = feed
        self.tracer = tracer

    @property
    def cha(self) -> ChaSample:
        """This quantum's CHA sample of the machine."""
        cha = self._cha
        if not isinstance(cha, ChaSample):
            cha = self._cha = cha()
        return cha


@dataclass
class QuantumDecision:
    """A tiering system's output for one quantum.

    Attributes:
        plan: Ordered page moves (demotions that free space first).
        budget_bytes: Optional per-quantum byte budget override; None
            means the executor's static limit applies.
    """

    plan: MigrationPlan
    budget_bytes: Optional[int] = None

    @classmethod
    def idle(cls) -> "QuantumDecision":
        """No migrations this quantum."""
        return cls(plan=MigrationPlan.empty())


class TieringSystem(abc.ABC):
    """Abstract tiering system driven by the runtime loop."""

    #: Human-readable name used in experiment tables.
    name: str = "tiering-system"

    #: How often the system takes placement actions, in seconds; None
    #: means every runtime quantum. The runtime sizes the migration
    #: token bucket's burst from this, so systems with long periods
    #: (MEMTIS's 500 ms kmigrated) can spend a period's worth of budget
    #: in one batch while per-quantum actors stay smooth.
    action_period_s: Optional[float] = None

    def __init__(self) -> None:
        self._cpu_work: Dict[str, int] = {}

    def attach(self, placement: PlacementState) -> None:
        """Bind to the experiment's placement state before the first
        quantum. Subclasses allocate per-page tracking here."""
        self._placement = placement

    def on_configure(self, machine, static_limit_bytes: int,
                     quantum_ns: float) -> None:
        """Receive run-level configuration from the runtime loop.

        Called once before the first quantum, after :meth:`attach`.
        Colloid integrations build their latency monitor (which needs the
        machine's unloaded latencies) and controller (which needs the
        static migration limit) here. Baselines ignore it.
        """

    @abc.abstractmethod
    def quantum(self, ctx: QuantumContext) -> QuantumDecision:
        """Observe one quantum and decide migrations."""

    def throughput_scale(self) -> float:
        """Multiplier on the application's effective parallelism.

        Models system-induced slowdowns that are not migration traffic —
        MEMTIS's hugepage splitting (extra TLB pressure) uses this. 1.0
        means no effect.
        """
        return 1.0

    def account(self, key: str, amount: int = 1) -> None:
        """Accumulate CPU-work accounting (used by the overheads model)."""
        self._cpu_work[key] = self._cpu_work.get(key, 0) + int(amount)

    @property
    def cpu_work(self) -> Dict[str, int]:
        """Accumulated CPU-work counters."""
        return dict(self._cpu_work)


def pack_hottest_plan(
    placement: PlacementState,
    hotness: np.ndarray,
    hot_mask: np.ndarray,
    max_bytes: int,
    free_slack_bytes: int = 0,
) -> MigrationPlan:
    """The baseline placement policy: hottest pages into the default tier.

    Builds an ordered plan that (a) promotes the hottest known-hot pages
    currently in alternate tiers into the default tier, and (b) first
    demotes the coldest non-hot default-tier pages as needed to make room.
    This is the common core of HeMem/MEMTIS/TPP placement the paper
    critiques: it never looks at loaded latency.

    The plan is ranked lazily (:class:`MigrationPlan`): demotions coldest
    first, then promotions hottest first, ties by page index, as a full
    stable sort orders them, but only the head the executor's budget
    reaches is ever sorted.

    Args:
        placement: Current placement state.
        hotness: Per-page hotness estimates (higher is hotter).
        hot_mask: Per-page eligibility for promotion.
        max_bytes: Cap on total plan bytes (a system's migration budget);
            the executor enforces its own limit too, but capping here
            keeps demotions and promotions paired.
        free_slack_bytes: Extra default-tier headroom to maintain beyond
            what the promotions need (kswapd-style watermark slack).
    """
    pages = placement.pages
    tier = pages.tier
    sizes = pages.sizes_bytes
    min_bytes = pages.min_page_bytes
    uniform = min_bytes == pages.max_page_bytes

    # Each page holds at least ``min_bytes``, which bounds how many
    # entries a byte target can take; with uniform sizes the bound is the
    # count, so neither segment is ranked here.
    promo_candidates = np.nonzero(hot_mask & (tier != 0))[0]
    promo_key = hotness[promo_candidates]
    n_promo = min(promo_candidates.size, max(max_bytes, 0) // min_bytes)
    if uniform:
        promo = MigrationPlan.ranked(promo_candidates, promo_key, n_promo, 0)
        promo_bytes = n_promo * min_bytes
    else:
        promo_bytes = int(sizes[promo_candidates].sum())
        if promo_bytes <= max_bytes:
            promo = MigrationPlan.ranked(promo_candidates, promo_key,
                                         promo_candidates.size, 0)
        else:
            order = promo_candidates[stable_top_k(promo_key, n_promo)]
            cum = np.cumsum(sizes[order])
            n_promo = int(np.searchsorted(cum, max_bytes, side="right"))
            promo_bytes = int(cum[n_promo - 1]) if n_promo else 0
            promo = MigrationPlan(order[:n_promo], np.zeros(n_promo))

    need = promo_bytes + free_slack_bytes - placement.free_bytes(0)
    if need <= 0:
        return promo
    demo_candidates = np.nonzero(~hot_mask & (tier == 0))[0]
    demo_key = -hotness[demo_candidates]  # coldest first
    n_demo = min(demo_candidates.size, -(-need // min_bytes))
    if uniform:
        demo = MigrationPlan.ranked(demo_candidates, demo_key, n_demo, 1)
    else:
        order = demo_candidates[stable_top_k(demo_key, n_demo)]
        cum = np.cumsum(sizes[order])
        n_demo = min(int(np.searchsorted(cum, need, side="left")) + 1,
                     n_demo)
        demo = MigrationPlan(order[:n_demo], np.ones(n_demo))
    return MigrationPlan.concat([demo, promo])
