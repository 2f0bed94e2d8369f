"""Best-case placement oracle.

Reproduces the paper's methodology for the "best-case" bars (§2.1): place
0-100% of the hot set in the default tier (in 10% increments) using manual
binding, put the remaining hot pages in the alternate tier, fill any
remaining default-tier capacity with randomly chosen cold pages, and report
the highest throughput across these placements.

The oracle works directly on access-probability vectors — it never mutates
a live :class:`~repro.pages.placement.PlacementState` — and solves the
hardware equilibrium for each candidate placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver, MultiEquilibrium


@dataclass(frozen=True)
class PlacementPoint:
    """One evaluated manual placement."""

    hot_fraction: float
    default_probability: float
    throughput: float
    equilibrium: MultiEquilibrium


@dataclass(frozen=True)
class BestCaseResult:
    """Outcome of a best-case sweep.

    Attributes:
        best: The highest-throughput placement point.
        points: All evaluated points, in sweep order.
    """

    best: PlacementPoint
    points: Tuple[PlacementPoint, ...]

    @property
    def throughput(self) -> float:
        """Best-case application throughput (bytes/ns of demand reads)."""
        return self.best.throughput


def _default_probability_for_fraction(
    fraction: float,
    access_probs: np.ndarray,
    hot_mask: np.ndarray,
    page_sizes: np.ndarray,
    default_capacity: int,
    rng: np.random.Generator,
) -> float:
    """Access probability landing on the default tier for one placement.

    Hot pages are chosen uniformly (the hot set is uniform in GUPS, so any
    subset of the right size is equivalent; for skewed workloads the
    *hottest* prefix is used, which can only improve the best case).
    """
    hot_idx = np.nonzero(hot_mask)[0]
    cold_idx = np.nonzero(~hot_mask)[0]
    # Hottest-first within the hot set makes the oracle exact for skewed
    # distributions too.
    hot_order = hot_idx[np.argsort(-access_probs[hot_idx], kind="stable")]
    n_hot_default = int(round(fraction * len(hot_order)))
    chosen_hot = hot_order[:n_hot_default]
    hot_bytes = int(page_sizes[chosen_hot].sum())
    if hot_bytes > default_capacity:
        # This fraction of the hot set does not fit; mark infeasible.
        return float("nan")
    p = float(access_probs[chosen_hot].sum())
    remaining = default_capacity - hot_bytes
    if remaining > 0 and len(cold_idx) > 0:
        cold_order = rng.permutation(cold_idx)
        cold_sizes = page_sizes[cold_order]
        fit = int(np.searchsorted(np.cumsum(cold_sizes), remaining,
                                  side="right"))
        p += float(access_probs[cold_order[:fit]].sum())
    return p


def best_case_sweep(
    solver: EquilibriumSolver,
    app: CoreGroup,
    access_probs: np.ndarray,
    hot_mask: np.ndarray,
    page_sizes: np.ndarray,
    default_capacity: int,
    pinned: Sequence[Tuple[CoreGroup, int]] = (),
    fractions: Optional[Sequence[float]] = None,
    rng: Optional[np.random.Generator] = None,
    chain_warm_starts: bool = True,
) -> BestCaseResult:
    """Evaluate manual placements and return the best (§2.1 methodology).

    Only two-tier machines are supported (the paper's sweep is over the
    fraction of the hot set in the default tier).

    Adjacent sweep points pose nearly identical systems, so by default
    each solve is warm-started from the previous point's equilibrium
    (``chain_warm_starts``); the fixed point is unique, so this only
    collapses iteration counts.
    """
    if solver.n_tiers != 2:
        raise ConfigurationError("the hot-fraction sweep is two-tier only")
    if fractions is None:
        fractions = np.linspace(0.0, 1.0, 11)
    if rng is None:
        rng = np.random.default_rng(42)
    probs = np.asarray(access_probs, dtype=float)
    mask = np.asarray(hot_mask, dtype=bool)
    sizes = np.asarray(page_sizes, dtype=np.int64)
    if not probs.shape == mask.shape == sizes.shape:
        raise ConfigurationError("probability/mask/size shapes must match")

    points: List[PlacementPoint] = []
    warm = None
    for fraction in fractions:
        p = _default_probability_for_fraction(
            float(fraction), probs, mask, sizes, default_capacity, rng
        )
        if np.isnan(p):
            continue
        eq = solver.solve(app, [p, 1.0 - p], pinned=pinned,
                          initial_latencies=warm)
        if chain_warm_starts:
            warm = eq.latencies_ns
        points.append(
            PlacementPoint(
                hot_fraction=float(fraction),
                default_probability=p,
                throughput=eq.apps[0].read_rate,
                equilibrium=eq,
            )
        )
    if not points:
        raise ConfigurationError("no feasible placement in the sweep")
    best = max(points, key=lambda pt: pt.throughput)
    return BestCaseResult(best=best, points=tuple(points))


def sweep_hot_fraction(
    solver: EquilibriumSolver,
    app: CoreGroup,
    p_values: Sequence[float],
    pinned: Sequence[Tuple[CoreGroup, int]] = (),
) -> List[Tuple[float, float]]:
    """Raw sweep over default-tier probabilities.

    Returns ``(p, throughput)`` pairs — a lower-level helper used by
    analysis code and tests to visualize the throughput-vs-``p`` curve
    and locate the equilibrium point ``p*``. Solves are warm-started
    from the previous point's equilibrium.
    """
    results = []
    warm = None
    for p in p_values:
        if not 0 <= p <= 1:
            raise ConfigurationError("p values must be in [0, 1]")
        eq = solver.solve(app, [p, 1.0 - p], pinned=pinned,
                          initial_latencies=warm)
        warm = eq.latencies_ns
        results.append((float(p), eq.apps[0].read_rate))
    return results
