"""Capacity-checked placement state.

:class:`PlacementState` pairs a :class:`repro.pages.pagestate.PageArray`
with per-tier capacities and enforces that no tier is ever over-committed.
It also computes the quantity at the heart of the paper: ``p``, the sum of
access probabilities of pages in the default tier (§3.1), given the true
access distribution.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.pages.pagestate import UNPLACED, PageArray


class PlacementState:
    """Tracks where every page lives and how full each tier is."""

    def __init__(self, pages: PageArray,
                 tier_capacities: Sequence[int]) -> None:
        if len(tier_capacities) < 1:
            raise ConfigurationError("need at least one tier capacity")
        capacities = np.asarray(tier_capacities, dtype=np.int64)
        if (capacities < 0).any():
            raise ConfigurationError("tier capacities must be non-negative")
        if capacities.sum() <= 0:
            raise ConfigurationError(
                "at least one tier capacity must be positive"
            )
        if pages.total_bytes > capacities.sum():
            raise CapacityError(
                f"working set ({pages.total_bytes} B) exceeds total "
                f"capacity ({int(capacities.sum())} B)"
            )
        self._pages = pages
        # Per-tier byte counts as Python ints, so a one-page move is
        # integer arithmetic rather than numpy calls on 2-3 elements.
        self._capacities = capacities.tolist()
        self._used = [0] * len(capacities)
        self._recount()

    def _recount(self) -> None:
        """Recompute per-tier usage from the page table."""
        tier = self._pages.tier
        sizes = self._pages.sizes_bytes
        for t in range(len(self._capacities)):
            self._used[t] = int(sizes[tier == t].sum())

    @property
    def pages(self) -> PageArray:
        """The underlying page table."""
        return self._pages

    @property
    def n_tiers(self) -> int:
        """Number of tiers."""
        return len(self._capacities)

    def capacity_bytes(self, tier: int) -> int:
        """Capacity of ``tier``."""
        return self._capacities[tier]

    def used_bytes(self, tier: int) -> int:
        """Bytes currently placed in ``tier``."""
        return self._used[tier]

    def free_bytes(self, tier: int) -> int:
        """Remaining capacity in ``tier``."""
        return self._capacities[tier] - self._used[tier]

    def move(self, page_indices: np.ndarray, dst_tier: int) -> None:
        """Move pages to ``dst_tier``, enforcing its capacity.

        Pages already in the destination are ignored. Raises
        :class:`CapacityError` (leaving state unchanged) if the batch does
        not fit.
        """
        if not 0 <= dst_tier < self.n_tiers:
            raise ConfigurationError(f"tier {dst_tier} out of range")
        idx = np.asarray(page_indices, dtype=np.int64)
        if idx.size == 0:
            return
        current = self._pages.tier[idx]
        moving = idx[current != dst_tier]
        if moving.size == 0:
            return
        sizes = self._pages.sizes_bytes[moving]
        incoming = int(sizes.sum())
        if self._used[dst_tier] + incoming > self._capacities[dst_tier]:
            raise CapacityError(
                f"moving {incoming} B to tier {dst_tier} would exceed its "
                f"capacity ({self.free_bytes(dst_tier)} B free)"
            )
        src_tiers = self._pages.tier[moving]
        for t in range(self.n_tiers):
            self._used[t] -= int(sizes[src_tiers == t].sum())
        self._pages.set_tier(moving, dst_tier)
        self._used[dst_tier] += incoming

    def move_page(self, page: int, dst_tier: int) -> None:
        """Move one page to ``dst_tier``: exactly ``move([page],
        dst_tier)`` in Python scalars.

        A page already in the destination is ignored; an unplaced page
        frees no tier's bytes. Raises :class:`CapacityError` (leaving
        state unchanged) if the page does not fit.
        """
        if not 0 <= dst_tier < len(self._capacities):
            raise ConfigurationError(f"tier {dst_tier} out of range")
        pages = self._pages
        src = int(pages.tier[page])
        if src == dst_tier:
            return
        size = int(pages.sizes_bytes[page])
        used = self._used
        if used[dst_tier] + size > self._capacities[dst_tier]:
            raise CapacityError(
                f"moving {size} B to tier {dst_tier} would exceed its "
                f"capacity ({self.free_bytes(dst_tier)} B free)"
            )
        if src != UNPLACED:
            used[src] -= size
        pages.set_tier(page, dst_tier)
        used[dst_tier] += size

    def fits(self, page_indices: np.ndarray, dst_tier: int) -> bool:
        """Whether moving the pages to ``dst_tier`` would respect capacity."""
        idx = np.asarray(page_indices, dtype=np.int64)
        if idx.size == 0:
            return True
        moving = idx[self._pages.tier[idx] != dst_tier]
        incoming = int(self._pages.sizes_bytes[moving].sum())
        return self._used[dst_tier] + incoming <= self._capacities[dst_tier]

    def default_tier_probability(self, access_probs: np.ndarray) -> float:
        """The paper's ``p``: summed access probability of default-tier pages.

        Args:
            access_probs: True per-page access probabilities (sum to 1).
        """
        if access_probs.shape != (self._pages.n_pages,):
            raise ConfigurationError("probability vector length mismatch")
        return float(access_probs[self._pages.tier == 0].sum())

    def tier_probabilities(self, access_probs: np.ndarray) -> np.ndarray:
        """Summed access probability per tier (the application's split)."""
        if access_probs.shape != (self._pages.n_pages,):
            raise ConfigurationError("probability vector length mismatch")
        split = np.zeros(self.n_tiers)
        tier = self._pages.tier
        # ``compress`` selects what boolean indexing does, in page order,
        # for less. Page sizes are positive, so when the tiers hold every
        # byte no page is unplaced: on two tiers, the pages outside tier
        # 0 are exactly tier 1's.
        if sum(self._used) == self._pages.total_bytes:
            if self.n_tiers == 2:
                in_default = tier == 0
                split[0] = access_probs.compress(in_default).sum()
                split[1] = access_probs.compress(~in_default).sum()
                return split
        else:
            unplaced = access_probs.compress(tier == UNPLACED).sum()
            if unplaced > 1e-12:
                raise ConfigurationError(
                    "accessed pages must be placed before solving"
                )
        for t in range(self.n_tiers):
            split[t] = access_probs.compress(tier == t).sum()
        return split


class CapacityArbiter:
    """Splits the machine's shared per-tier capacity between tenants.

    Colocated tenants each own a private :class:`PlacementState`, but the
    tiers underneath are one physical resource. The arbiter hands every
    tenant an explicit per-tier byte grant so the tenant-local capacity
    checks compose into the machine-level invariant: per tier, grants sum
    to at most the tier's capacity, so tenant placements can never
    over-commit the hardware no matter what their controllers do.

    Policy: each tier is divided proportionally to the tenant weights
    (working-set bytes by default) using largest-remainder rounding, then
    grants are shifted — deterministically, from the highest-index tiers
    first, so contention for the default tier stays proportional — until
    every tenant's total grant covers its working set. Infeasible demand
    (summed working sets exceed summed capacity) raises
    :class:`CapacityError`.
    """

    def __init__(self, tier_capacities: Sequence[int]) -> None:
        if len(tier_capacities) < 1:
            raise ConfigurationError("need at least one tier capacity")
        capacities = np.asarray(tier_capacities, dtype=np.int64)
        if (capacities < 0).any():
            raise ConfigurationError("tier capacities must be non-negative")
        self._capacities = capacities

    @property
    def n_tiers(self) -> int:
        """Number of tiers being arbitrated."""
        return len(self._capacities)

    def grant(self, working_sets: Sequence[int],
              weights: Optional[Sequence[float]] = None,
              ) -> "list[tuple[int, ...]]":
        """Compute per-tenant, per-tier byte grants.

        Args:
            working_sets: Total bytes each tenant must be able to place
                (its page array's ``total_bytes``).
            weights: Optional share weights; defaults to the working
                sets, i.e. capacity proportional to footprint. All-zero
                weights fall back to an equal split.

        Returns:
            One tuple of per-tier grants per tenant, in input order.
            Per tier the grants sum to exactly the tier capacity, and
            each tenant's grants sum to at least its working set.

        Raises:
            CapacityError: If the summed working sets exceed the summed
                tier capacities (no feasible grant exists).
            ConfigurationError: On malformed inputs.
        """
        n_tenants = len(working_sets)
        if n_tenants < 1:
            raise ConfigurationError("need at least one tenant")
        ws = np.asarray(working_sets, dtype=np.int64)
        if (ws < 0).any():
            raise ConfigurationError("working sets must be non-negative")
        total_capacity = int(self._capacities.sum())
        if int(ws.sum()) > total_capacity:
            raise CapacityError(
                f"tenant working sets ({int(ws.sum())} B) exceed total "
                f"capacity ({total_capacity} B)"
            )
        if weights is None:
            w = ws.astype(float)
        else:
            if len(weights) != n_tenants:
                raise ConfigurationError(
                    "weights must have one entry per tenant"
                )
            w = np.asarray(weights, dtype=float)
            if (w < 0).any() or not np.isfinite(w).all():
                raise ConfigurationError(
                    "weights must be finite and non-negative"
                )
        if w.sum() <= 0:
            w = np.ones(n_tenants)
        shares = w / w.sum()

        # Largest-remainder proportional split of every tier.
        grants = np.zeros((n_tenants, self.n_tiers), dtype=np.int64)
        for t in range(self.n_tiers):
            exact = shares * float(self._capacities[t])
            floors = np.floor(exact).astype(np.int64)
            leftover = int(self._capacities[t]) - int(floors.sum())
            # Ties broken by tenant index for determinism (stable sort
            # on the negated remainder).
            order = np.argsort(-(exact - floors), kind="stable")
            floors[order[:leftover]] += 1
            grants[:, t] = floors

        # Shift surplus to shortfall tenants until every tenant can hold
        # its working set. Surpluses cover shortfalls whenever the total
        # demand fits (checked above). Highest-index tiers donate first
        # so the default tier keeps its proportional split.
        totals = grants.sum(axis=1)
        for i in range(n_tenants):
            need = int(ws[i] - totals[i])
            if need <= 0:
                continue
            for j in range(n_tenants):
                if need <= 0:
                    break
                surplus = int(totals[j] - ws[j])
                if j == i or surplus <= 0:
                    continue
                for t in range(self.n_tiers - 1, -1, -1):
                    if need <= 0 or surplus <= 0:
                        break
                    take = min(need, surplus, int(grants[j, t]))
                    if take <= 0:
                        continue
                    grants[j, t] -= take
                    grants[i, t] += take
                    totals[j] -= take
                    totals[i] += take
                    need -= take
                    surplus -= take
        return [tuple(int(b) for b in row) for row in grants]


def fill_default_first(placement: PlacementState,
                       order: Optional[np.ndarray] = None) -> None:
    """Initial placement: pack pages into the default tier, overflow onward.

    This mirrors first-touch allocation on a freshly booted tiered system
    (and the paper's initial condition: the workload buffer is allocated
    while the default tier has free capacity). ``order`` optionally gives
    the allocation order (defaults to page index order).
    """
    pages = placement.pages
    if order is None:
        order = np.arange(pages.n_pages)
    sizes = pages.sizes_bytes[order]
    cumulative = np.cumsum(sizes)
    start = 0
    for tier in range(placement.n_tiers):
        free = placement.free_bytes(tier)
        # Largest prefix of the remaining pages that fits in this tier.
        offset = cumulative[start - 1] if start > 0 else 0
        fit = int(np.searchsorted(cumulative, offset + free, side="right"))
        if fit > start:
            placement.move(order[start:fit], tier)
            start = fit
        if start >= len(order):
            return
    if start < len(order):
        raise CapacityError("pages did not fit across all tiers")
