"""Probability-budgeted page selection.

Shared machinery for policies that move "up to delta-p worth" of access
probability between tiers: Colloid's page-finding procedures (§3.2, §4) and
the rate-balancing related-work baselines. Given per-page probability
estimates and a candidate set, select pages whose summed probability stays
within a budget and whose summed size stays within a byte budget.

:func:`stable_top_k` ranks only the first k pages of a hotness order, for
plan builders and selections whose byte budget reaches a handful of pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: At or below this many keys a full stable sort is as fast as
#: partitioning, so :func:`stable_top_k` just sorts.
_TOP_K_SORT_MAX_N = 1024

#: Up to this many picks, :func:`stable_top_k` finds each float key with
#: one ``argmax`` pass instead of sorting.
_TOP_K_SCAN_MAX_K = 4

#: Heads up to this long are walked one page at a time in plain Python;
#: longer ones take the cumulative-sum prefix first.
_SCALAR_WALK_MAX_N = 16


def stable_top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest keys, largest first, ties by index.

    Exactly ``np.argsort(-keys, kind="stable")[:k]``, but only the first
    ``k`` positions are sorted. A handful of float keys are picked by
    repeated ``argmax`` (which returns the first of tied maxima).
    Otherwise ``np.partition`` finds the k-th key, every strictly larger
    key is taken, then the tied ones in index order, and only those are
    stable-sorted.
    """
    keys = np.asarray(keys)
    n = keys.size
    k = max(0, min(int(k), n))
    if 0 < k <= _TOP_K_SCAN_MAX_K and k < n and keys.dtype.kind == "f":
        head = _scan_top_k(keys, k)
        if head is not None:
            return head
    neg = -keys
    if k == n or n <= _TOP_K_SORT_MAX_N:
        return np.argsort(neg, kind="stable")[:k]
    if k == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(neg, k - 1)[k - 1]
    if kth != kth:  # NaN ranks last and compares unequal to itself
        return np.argsort(neg, kind="stable")[:k]
    better = np.flatnonzero(neg < kth)
    tied = np.flatnonzero(neg == kth)[:k - better.size]
    # Every tied key sorts after every strictly better one, and both
    # parts are in index order, so a stable sort of the concatenation
    # breaks ties by index.
    chosen = np.concatenate([better, tied])
    return chosen[np.argsort(neg[chosen], kind="stable")]


def _scan_top_k(keys: np.ndarray, k: int):
    """The first ``k`` of the stable descending order by repeated
    ``argmax``, or None once a NaN or ``-inf`` key comes up: a taken key
    is masked with ``-inf``, and a stable sort ranks NaN last where
    ``argmax`` finds it first."""
    work = keys
    picked = []
    while True:
        i = int(work.argmax())
        if not work[i] > -np.inf:
            return None
        picked.append(i)
        if len(picked) == k:
            return np.array(picked, dtype=np.intp)
        if work is keys:
            work = keys.copy()
        work[i] = -np.inf


def select_pages_by_probability(
    prob_estimates: np.ndarray,
    sizes_bytes: np.ndarray,
    candidates: np.ndarray,
    dp_budget: float,
    byte_budget: int,
    hottest_first: bool = True,
) -> np.ndarray:
    """Pick candidate pages under probability and byte budgets.

    Greedy in the given hotness order: a page is taken iff adding it keeps
    both the cumulative probability within ``dp_budget`` and the
    cumulative bytes within ``byte_budget``; pages that individually
    overshoot are skipped (so a small ``dp_budget`` naturally selects
    cooler pages — the behaviour Colloid's binned iteration produces).

    Hottest-first, only a head of the hotness order is ranked (see
    :func:`walk_hottest_first`).

    Args:
        prob_estimates: Per-page access-probability estimates (non-negative).
        sizes_bytes: Per-page sizes.
        candidates: Indices eligible for selection.
        dp_budget: Maximum summed probability.
        byte_budget: Maximum summed bytes.
        hottest_first: Consider candidates hottest-first (True) or in the
            given order (False).

    Returns:
        Selected page indices, in consideration order.
    """
    if dp_budget < 0 or byte_budget < 0:
        raise ConfigurationError("budgets must be non-negative")
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size == 0 or dp_budget == 0 or byte_budget == 0:
        return np.empty(0, dtype=np.int64)
    limit_p = dp_budget + 1e-15
    probs = prob_estimates[cand]
    sizes = sizes_bytes[cand]
    # The running totals only grow (probabilities are non-negative and
    # float addition is monotone), so a page that does not fit on its
    # own is never taken. Dropping such pages leaves the walk over the
    # rest, in the same relative order, unchanged.
    keep = ((probs <= limit_p) & (sizes <= byte_budget)).nonzero()[0]
    if keep.size < cand.size:
        cand, probs, sizes = cand[keep], probs[keep], sizes[keep]
    if cand.size == 0:
        return np.empty(0, dtype=np.int64)
    if not hottest_first:
        return cand[_greedy(probs, sizes, limit_p, byte_budget)[0]]
    return cand[walk_hottest_first(probs, sizes, limit_p, byte_budget)]


def walk_hottest_first(probs: np.ndarray, sizes: np.ndarray,
                       limit_p: float, byte_budget: int) -> np.ndarray:
    """Positions the greedy walk takes over the stable hotness order.

    The walk visits ``probs`` largest first, ties by position, and takes
    a page iff it fits on top of every page taken before it: summed
    probability at most ``limit_p`` and summed size at most
    ``byte_budget``. Only a head of the order is ranked
    (:func:`stable_top_k`): first as many pages as the byte budget could
    hold, doubled until the walk over the head provably takes every page
    the walk over the full order would. Pages that cannot fit on their
    own may be left in; they are never taken.
    """
    # The walk over the first k pages of the stable hotness order is the
    # full walk cut off at k. It can stop there once the head is the
    # whole order, or once no remaining page fits: every one is at least
    # ``min_size`` bytes and ``min_p`` probability.
    m = probs.size
    if m == 0:
        return np.empty(0, dtype=np.intp)
    min_size = int(sizes.min())
    k = min(m, byte_budget // max(min_size, 1))
    min_p = None
    while True:
        head = stable_top_k(probs, k)
        taken, acc_p, acc_b = _greedy(probs[head], sizes[head], limit_p,
                                      byte_budget)
        if k == m or byte_budget - acc_b < min_size:
            return head[taken]
        if min_p is None:
            min_p = float(probs.min())
        if acc_p + min_p > limit_p:
            return head[taken]
        k = min(m, 2 * k)


def _greedy(probs: np.ndarray, sizes: np.ndarray, limit_p: float,
            byte_budget: int):
    """The greedy walk in the given order: a page is taken iff it fits
    on top of every page taken before it.

    Returns the taken positions and their summed probability and bytes,
    summed in walk order.
    """
    if probs.size <= _SCALAR_WALK_MAX_N:
        taken = []
        acc_p = 0.0
        acc_b = 0
        for i, (p, b) in enumerate(zip(probs.tolist(), sizes.tolist())):
            if acc_p + p <= limit_p and acc_b + b <= byte_budget:
                taken.append(i)
                acc_p += p
                acc_b += b
        return np.array(taken, dtype=np.intp), acc_p, acc_b
    # The longest prefix that fits both budgets outright; only past the
    # first overshooting page do we fall back to the skip-and-continue
    # scan.
    cum_p = np.cumsum(probs)
    cum_b = np.cumsum(sizes)
    fits = (cum_p <= limit_p) & (cum_b <= byte_budget)
    if fits.all():
        return np.arange(probs.size), float(cum_p[-1]), int(cum_b[-1])
    prefix = int(np.argmin(fits))  # first index that does not fit
    acc_p = float(cum_p[prefix - 1]) if prefix > 0 else 0.0
    acc_b = int(cum_b[prefix - 1]) if prefix > 0 else 0
    # Past the prefix, a page that does not fit on top of the totals at
    # the first overshoot never fits later: one vectorized pass drops
    # those pages, and the scan runs over the survivors only, updating
    # the totals in consideration order.
    tail_p = probs[prefix:]
    tail_b = sizes[prefix:]
    keep = np.nonzero((acc_p + tail_p <= limit_p)
                      & (acc_b + tail_b <= byte_budget))[0]
    taken = []
    for i, p, b in zip(keep.tolist(), tail_p[keep].tolist(),
                       tail_b[keep].tolist()):
        if acc_p + p <= limit_p and acc_b + b <= byte_budget:
            taken.append(prefix + i)
            acc_p += p
            acc_b += b
    positions = np.concatenate([np.arange(prefix),
                                np.array(taken, dtype=np.intp)])
    return positions, acc_p, acc_b
