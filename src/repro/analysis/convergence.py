"""Convergence-time detection for the §5.2 experiments.

After a disturbance at a known time, the convergence time is how long the
instantaneous throughput takes to reach — and *stay* within — a tolerance
band around its final steady-state value.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


def convergence_time_s(
    times_s: Sequence[float],
    values: Sequence[float],
    disturbance_time_s: float,
    tolerance: float = 0.05,
    settle_fraction: float = 0.2,
) -> Optional[float]:
    """Time from the disturbance until the series settles.

    A throughput band (Fig. 9), not controller convergence (see "Three
    meanings of converged" in docs/OBSERVABILITY.md).

    The final value is estimated from the last ``settle_fraction`` of the
    post-disturbance samples; the convergence point is the earliest sample
    after the disturbance from which *all* subsequent samples stay within
    ``tolerance`` (relative) of that final value.

    Returns:
        Seconds from the disturbance to settling, or None if the series
        never settles within the recorded window.
    """
    if not 0 < tolerance < 1:
        raise ConfigurationError("tolerance must be in (0, 1)")
    if not 0 < settle_fraction <= 1:
        raise ConfigurationError("settle_fraction must be in (0, 1]")
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.size == 0:
        raise ConfigurationError("times and values must align, non-empty")
    after = t >= disturbance_time_s
    if not after.any():
        raise ConfigurationError("disturbance time beyond the series")
    t_after = t[after]
    v_after = v[after]
    n_tail = max(1, int(len(v_after) * settle_fraction))
    final = float(v_after[-n_tail:].mean())
    if final == 0:
        return None
    within = np.abs(v_after - final) <= tolerance * abs(final)
    # Earliest index from which all subsequent samples stay within band:
    # walk the reversed cumulative AND.
    all_within_from = np.flip(np.logical_and.accumulate(np.flip(within)))
    idx = np.nonzero(all_within_from)[0]
    if idx.size == 0:
        return None
    return float(t_after[idx[0]] - disturbance_time_s)
