"""Latency-load curves and traffic-mix effective bandwidth.

The paper's core empirical observation (§2.2, §3.1) is that a tier's loaded
access latency inflates well before its theoretical bandwidth saturates,
because of queueing within the CPU-to-memory datapath (memory-controller
queues, bank conflicts, link serialization). We model each tier with the
standard open-queueing shape

    ``L(u) = L0 + w_q * u**gamma / (1 - u)``

where ``u`` is the tier's *effective* utilization: total traffic divided by
the traffic-mix-dependent achievable bandwidth. The achievable bandwidth is
lower for random traffic (row-buffer misses) and for write-heavy mixes (bus
turnarounds), per [54] and the DRAM-scheduling literature the paper cites.

The curve is clamped smoothly near ``u = 1``: beyond ``U_CAP`` it continues
linearly with the slope at the cap, which keeps the closed-loop fixed point
well defined even when offered load transiently exceeds capacity (the
closed-loop solver then settles at the latency that throttles demand to the
achievable bandwidth, exactly what real line-fill-buffer backpressure does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.memhw.tier import MemoryTierSpec

#: Utilization beyond which the curve is linearized to keep it finite.
U_CAP = 0.985


@dataclass(frozen=True)
class TrafficClass:
    """One stream of memory traffic hitting a tier during a quantum.

    Attributes:
        bandwidth: Traffic volume in bytes/ns (demand reads plus eventual
            writebacks — everything that occupies the interconnect).
        randomness: 0.0 for fully sequential, 1.0 for fully random access.
        read_fraction: Fraction of the traffic that is reads, in [0, 1].
    """

    bandwidth: float
    randomness: float = 1.0
    read_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ConfigurationError("traffic bandwidth must be non-negative")
        if not 0 <= self.randomness <= 1:
            raise ConfigurationError("randomness must be in [0, 1]")
        if not 0 <= self.read_fraction <= 1:
            raise ConfigurationError("read_fraction must be in [0, 1]")


def effective_bandwidth(tier: MemoryTierSpec,
                        traffic: Sequence[TrafficClass]) -> float:
    """Achievable bandwidth of ``tier`` for the given traffic mix.

    The pattern efficiency interpolates between the tier's sequential and
    random efficiencies, weighted by each class's share of total traffic.
    The read/write penalty scales with the write share of traffic (a 1:1
    mix pays the tier's full ``rw_penalty``).

    With no traffic at all the sequential efficiency applies (the value is
    then irrelevant to latency anyway, since utilization is zero).
    """
    total = sum(t.bandwidth for t in traffic)
    if total <= 0:
        mean_randomness = 0.0
        write_share = 0.0
    else:
        mean_randomness = sum(t.bandwidth * t.randomness for t in traffic) / total
        write_share = sum(
            t.bandwidth * (1.0 - t.read_fraction) for t in traffic
        ) / total
    pattern_eff = (
        tier.efficiency_sequential
        + mean_randomness * (tier.efficiency_random - tier.efficiency_sequential)
    )
    # write_share of 0.5 corresponds to a 1:1 read/write mix -> full penalty.
    rw_eff = 1.0 - tier.rw_penalty * min(1.0, 2.0 * write_share)
    return tier.theoretical_bandwidth * pattern_eff * rw_eff


class LatencyCurve:
    """Loaded-latency model ``L(u)`` for a single tier.

    Instances are cheap and stateless; they are constructed from a
    :class:`MemoryTierSpec` and evaluated at utilizations computed by the
    fixed-point solver.
    """

    def __init__(self, tier: MemoryTierSpec) -> None:
        self._tier = tier
        self._l0 = tier.unloaded_latency_ns
        self._wq = tier.queueing_scale_ns
        self._gamma = tier.curve_exponent
        # Pre-compute the linear extension beyond U_CAP: value and slope of
        # the analytic curve at the cap.
        cap_term = U_CAP**self._gamma / (1.0 - U_CAP)
        self._cap_value = self._l0 + self._wq * cap_term
        # d/du [u^g / (1-u)] = (g*u^(g-1)*(1-u) + u^g) / (1-u)^2
        numerator = (
            self._gamma * U_CAP ** (self._gamma - 1.0) * (1.0 - U_CAP)
            + U_CAP**self._gamma
        )
        self._cap_slope = self._wq * numerator / (1.0 - U_CAP) ** 2

    @property
    def tier(self) -> MemoryTierSpec:
        """The tier this curve models."""
        return self._tier

    @property
    def unloaded_latency_ns(self) -> float:
        """Latency at zero utilization."""
        return self._l0

    def latency_ns(self, utilization: float) -> float:
        """Loaded latency at the given effective utilization.

        Negative utilizations are treated as zero. Utilizations above
        ``U_CAP`` follow the linear extension described in the module
        docstring.
        """
        u = max(0.0, utilization)
        if u <= U_CAP:
            return self._l0 + self._wq * u**self._gamma / (1.0 - u)
        return self._cap_value + self._cap_slope * (u - U_CAP)

    def utilization_for_latency(self, latency_ns: float) -> float:
        """Inverse of :meth:`latency_ns` (monotone, solved by bisection).

        Useful in tests and in the best-case oracle's analytics. Returns
        0.0 for latencies at or below the unloaded latency.
        """
        if latency_ns <= self._l0:
            return 0.0
        lo, hi = 0.0, 1.0
        # Expand hi beyond the cap if needed (linear region).
        while self.latency_ns(hi) < latency_ns:
            hi *= 2.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.latency_ns(mid) < latency_ns:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


def total_bandwidth(traffic: Iterable[TrafficClass]) -> float:
    """Sum of the bandwidths of a collection of traffic classes."""
    return sum(t.bandwidth for t in traffic)


def tier_load(tier: MemoryTierSpec,
              traffic: Sequence[TrafficClass]) -> float:
    """Traffic volume that counts against ``tier``'s bandwidth (bytes/ns).

    For a simplex tier (DDR channels) every byte of wire traffic competes
    for the same channels, so the load is the plain sum. For a duplex
    link-attached tier (UPI/CXL) reads and writebacks travel in opposite
    directions with independent bandwidth; the load is the traffic of the
    busier direction, compared against the per-direction bandwidth.
    """
    if not tier.duplex:
        return total_bandwidth(traffic)
    reads = sum(t.bandwidth * t.read_fraction for t in traffic)
    writes = sum(t.bandwidth * (1.0 - t.read_fraction) for t in traffic)
    return max(reads, writes)
