"""Closed-loop rate/latency equilibrium solver.

Given a machine (tiers + latency curves), an application core group whose
traffic splits across tiers according to the current page placement, any
pinned core groups (the antagonist), and per-tier copy streams (page
migrations), this module solves the coupled system

    per-core demand rate  =  N * 64 / L_avg          (closed loop, §3.1)
    tier utilization      =  wire traffic / B_eff(mix)
    tier latency          =  curve(utilization)
    L_avg                 =  sum_i  p_i * L_i

for the tier latencies ``L``. One sweep of these relations is a map
``G`` from tier latencies to tier latencies. The curves are monotone
increasing in utilization and demand is monotone decreasing in latency,
so ``G`` has a unique fixed point.

The solver finds it by a safeguarded quasi-Newton iteration on
``F(L) = G(L) - L``. Steps use an n-by-n inverse Jacobian, so the same
code serves two- and three-tier machines. A warm solve seeded with
exactly the output of the solver's last computed solve starts from that
solve's inverse Jacobian; any other solve probes one by forward
differences, one extra sweep per tier. A good-Broyden rank-one update
refines it after every accepted step. A step is taken only when it lands
on finite, positive latencies. A step from a carried or updated Jacobian
that misses (raises the residual, or is not positive) is undone and
retried with a freshly probed one. A step from a fresh Jacobian that
raises the residual is undone, and the solve finishes from the point
before it with damped fixed-point updates, whose damping halves whenever
the residual grows. A cold solve never reads what earlier solves left
behind. Every count of iterations — the sweep budget,
:attr:`MultiEquilibrium.iterations` — is in sweeps, Jacobian probes included.

This is the analytic stand-in for the physical testbed: the paper's own
performance analysis (§2.2) uses exactly these relations to explain its
measurements.

The solve is one of the simulation loop's largest costs, so these fast
paths keep it nearly free in steady state (§2.2: the system sits at a
steady state between quanta):

* **Warm starts** — ``solve(..., initial_latencies=...)`` seeds the
  iteration with a nearby known equilibrium (the previous quantum's, or
  the previous point of a sweep) instead of the unloaded latencies. The
  fixed point is unique, so the answer is the same within the solver
  tolerance; only the sweep count collapses.
* **Memoization** — an exact-key LRU cache on the solver returns the
  previously computed :class:`MultiEquilibrium` in O(1) when a quantum
  re-poses the identical system (same app groups, splits, pinned
  groups, and copy streams; the tier specs are fixed per solver
  instance). Cached results are shared objects: treat an equilibrium as
  immutable. Disable with ``--no-solver-cache`` (the ``solver_cache``
  field of :class:`~repro.options.RunOptions`). A solve passed the last
  solve's very core groups, read-only splits (the loop's cached tier
  splits) and pinned groups, and copy streams equal to its streams (or
  none, as it had none), is its hit with no key built; it still
  refreshes the LRU order, counts the hit and checks a foreign
  ``initial_latencies``. ``validate_cache_hits`` turns it off.
* **Terms built once** — a core group's key (its class and field
  values, which compare equal exactly when the groups do, hashed in C
  rather than by the dataclass ``__hash__``) and coefficients are built
  once per group object; the normalized split and its key bytes once
  per distinct value of a float array split (a new split object with
  the values of an earlier one, as when pages move back and forth, is
  not normalized again); and the pinned groups' key and sweep entries
  once per tuple of pairs, while the caller passes that very tuple
  again. Copy streams are plain ``(bandwidth, randomness,
  read_fraction)`` tuples, so they enter the key as they are.
* **Own seeds** — the ``latencies_ns`` array a solver returned last
  (read-only, checked finite and positive when it was computed) seeds
  the next solve without being converted or checked again; any other
  seed is validated.
* **A scalar sweep** — per-solve constants (copy-stream aggregates,
  core-group demand coefficients, tier mix efficiencies) are hoisted
  into Python floats once per solve, and each sweep is a short loop over
  the tiers that evaluates each tier's :class:`LatencyCurve` on a float.
  With two or three tiers this is several times cheaper than numpy calls
  on tiny arrays. Floating-point addition order is preserved (copy
  streams, then the application groups in input order, then pinned
  groups), so the per-tier sums are those the per-tier traffic lists
  always gave.
* **A two-tier step path** — on two tiers, which is every paper
  machine, the sweep, the convergence residual, the Newton point, the
  damped update and the Broyden update run as straight-line floats
  instead of loops, lists and builtin ``sum``/``max``/``min``. They do
  the general code's float operations in its order (a two-term ``sum``
  is ``(0.0 + a) + b``; ``max`` and ``min`` keep their first value on
  ties and against a NaN), so every result is the same bit for bit;
  ``tests/memhw/test_solver_two_tier.py`` checks each helper against the
  general code, signed zeros and NaNs included. Three or more tiers keep
  the general code: from CPython 3.12 builtin ``sum`` compensates float
  sums, which an unrolled sum would not match.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields
from itertools import chain
from operator import is_, mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.memhw.corestate import CoreGroup
from repro.memhw.latency import LatencyCurve
from repro.memhw.tier import MemoryTierSpec
from repro.options import RunOptions
from repro.units import CACHELINE_BYTES

#: Sweep budget of one solve, Jacobian probes included.
_MAX_ITERATIONS = 2000
#: Convergence criterion on the max relative latency change per sweep.
#: Public so the invariant checker can bound cached-equilibrium residuals
#: against the same tolerance the solver converged with.
SOLVER_RELATIVE_TOLERANCE = 1e-10
_INITIAL_DAMPING = 0.5
_MIN_DAMPING = 1e-3
#: Relative forward-difference step of the Jacobian probes.
_JACOBIAN_STEP = 1e-7

#: Default capacity of the per-solver memoization cache (solves).
DEFAULT_SOLVE_CACHE_SIZE = 512
#: Capacity of the per-object core-group and split memos (cleared when
#: full).
_MEMO_SIZE = 64

#: One copy stream on one tier: ``(bandwidth, randomness,
#: read_fraction)`` — bytes/ns of interconnect traffic, 0.0 (sequential)
#: to 1.0 (random), and the share of it that is reads, in [0, 1].
CopyStream = Tuple[float, float, float]

@dataclass(frozen=True)
class AppEquilibrium:
    """One application's share of a multi-app equilibrium.

    Attributes:
        avg_latency_ns: Placement-weighted latency this application sees.
        read_rate: Demand-read bandwidth (bytes/ns) of this application.
        split: The traffic split this application was solved with.
        tier_read_rate: This application's demand reads per tier
            (bytes/ns).
    """

    avg_latency_ns: float
    read_rate: float
    split: np.ndarray
    tier_read_rate: np.ndarray


@dataclass(frozen=True)
class MultiEquilibrium:
    """Solved steady-state of the memory system shared by N applications.

    The aggregate fields describe the hardware (what the CHA observes);
    :attr:`apps` carries each application's own view, in the order the
    applications were passed to :meth:`EquilibriumSolver.solve_multi`
    (one entry for :meth:`EquilibriumSolver.solve`).
    Instances may be shared by the solver's memoization cache — treat
    them (including the array attributes) as immutable.
    """

    latencies_ns: np.ndarray
    apps: Tuple[AppEquilibrium, ...]
    tier_wire_traffic: np.ndarray
    tier_read_request_rate: np.ndarray
    utilizations: np.ndarray
    effective_bandwidths: np.ndarray
    #: Fixed-point sweeps used, Jacobian probes included.
    iterations: int

    @property
    def total_read_rate(self) -> float:
        """Summed demand-read bandwidth across all applications."""
        return float(sum(app.read_rate for app in self.apps))

    @property
    def measured_p(self) -> float:
        """Traffic share of tier 0 as the CHA would measure it.

        This is ``R_D / (R_D + R_A)`` over *all* read requests, which is
        what Algorithm 1 computes from the counters. It includes every
        application's, the antagonist's and migration traffic, exactly
        as on real hardware.
        """
        rates = self.tier_read_request_rate.tolist()
        total = tier_sum(rates)
        if total <= 0:
            return 0.0
        return rates[0] / total


def tier_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a per-tier float sequence, bit for bit.

    Two values (the two-tier machine) are added in Python, skipping
    numpy's per-call cost: ``(0.0 + a) + b`` is what every numpy version
    computes for two elements, signed zeros included. Other lengths go
    through numpy, whose summation order for them differs between
    versions.
    """
    if len(values) == 2:
        return (0.0 + values[0]) + values[1]
    return float(np.sum(values))


def _relative_residual(new_latencies: Sequence[float],
                       latencies: Sequence[float]) -> float:
    """Max relative change of one sweep: the convergence measure.

    Two tiers are straight-line floats, bit for bit what
    :func:`_relative_residual_n` gives: ``max`` keeps its first value on
    ties and against a NaN.
    """
    if len(latencies) == 2:
        first = abs(new_latencies[0] - latencies[0]) / latencies[0]
        second = abs(new_latencies[1] - latencies[1]) / latencies[1]
        return second if second > first else first
    return _relative_residual_n(new_latencies, latencies)


def _relative_residual_n(new_latencies: Sequence[float],
                         latencies: Sequence[float]) -> float:
    return max(abs(new - old) / old
               for new, old in zip(new_latencies, latencies))


def _damped_point(latencies: List[float], new_latencies: List[float],
                  damping: float) -> List[float]:
    """The damped fixed-point update ``L + d (G(L) - L)``."""
    if len(latencies) == 2:
        old0, old1 = latencies
        new0, new1 = new_latencies
        return [old0 + damping * (new0 - old0),
                old1 + damping * (new1 - old1)]
    return _damped_point_n(latencies, new_latencies, damping)


def _damped_point_n(latencies: List[float], new_latencies: List[float],
                    damping: float) -> List[float]:
    return [old + damping * (new - old)
            for old, new in zip(latencies, new_latencies)]


def _newton_point_n(latencies: List[float], new_latencies: List[float],
                    inverse: List[List[float]]) -> Optional[List[float]]:
    residual = [old - new for old, new in zip(latencies, new_latencies)]
    candidate = [old + sum(map(mul, row, residual))
                 for old, row in zip(latencies, inverse)]
    # A NaN or infinity makes the sum non-finite.
    if min(candidate) > 0.0 and math.isfinite(sum(candidate)):
        return candidate
    return None


def _coefficients(group: CoreGroup) -> tuple:
    """A core group's per-solve constants: ``(has cores, demand,
    traffic multiplier, randomness, wire read fraction, its complement)``.

    ``demand`` is ``N * mlp * 64``: ``demand / L`` is
    :meth:`CoreGroup.demand_read_rate` float for float.
    """
    return (group.n_cores > 0,
            group.n_cores * group.mlp * CACHELINE_BYTES,
            group.traffic_multiplier(), group.randomness,
            group.wire_read_fraction(), 1.0 - group.wire_read_fraction())


def _group_key(group: CoreGroup) -> tuple:
    """A core group's memoization key: its class and compared field
    values, equal exactly when the dataclass ``__eq__`` says the groups
    are."""
    return (type(group), *[getattr(group, f.name) for f in fields(group)
                           if f.compare])


def _copy_streams(extra_traffic, n: int) -> tuple:
    """The per-tier copy streams as a tuple of tuples (their key form),
    each stream checked to be a :data:`CopyStream` in its domain."""
    if len(extra_traffic) != n:
        raise ConfigurationError(
            "extra_traffic must have one entry per tier"
        )
    streams = tuple([tuple(tier_streams) for tier_streams in extra_traffic])
    for tier_streams in streams:
        for stream in tier_streams:
            if type(stream) is not tuple or len(stream) != 3:
                raise ConfigurationError(
                    "a copy stream is a (bandwidth, randomness, "
                    f"read_fraction) tuple, got {stream!r}"
                )
            bandwidth, randomness, read_fraction = stream
            # A NaN bandwidth passes, as it always did; its solve
            # overflows and raises.
            if (bandwidth < 0 or not 0 <= randomness <= 1
                    or not 0 <= read_fraction <= 1):
                raise ConfigurationError(
                    "a copy stream needs a non-negative bandwidth and a "
                    f"randomness and read fraction in [0, 1], got {stream!r}"
                )
    return streams


class _SolveProblem:
    """Per-solve constants of the fixed-point map, as Python floats.

    Everything that does not change across iterations is aggregated here
    once, so each sweep is a short loop of float arithmetic. The
    copy-stream aggregates are accumulated in the per-tier stream order
    (and the application and pinned contributions added after, in that
    order), so float addition order — and hence the computed sums —
    matches the historical per-tier list construction. With several
    application groups the additions run in input order.

    ``apps`` holds the sweep entry ``(split values, *coefficients)`` of
    each application and ``pinned`` the entry ``(tier index,
    *coefficients[1:])`` of each pinned group with cores, with the
    coefficients of :func:`_coefficients`; ``extra`` holds the per-tier
    copy streams, or is None for none, whose aggregates are ``zeros``
    (shared: sweeps copy them).
    """

    __slots__ = ("apps", "pinned", "extra_total", "extra_rand",
                 "extra_write", "extra_read", "extra_req")

    def __init__(self, apps: tuple, pinned: tuple,
                 extra: Optional[Tuple[Tuple[CopyStream, ...], ...]],
                 zeros: List[float]) -> None:
        self.apps = apps
        self.pinned = pinned
        if extra is None:
            self.extra_total = self.extra_rand = self.extra_write = \
                self.extra_read = self.extra_req = zeros
            return
        self.extra_total, self.extra_rand, self.extra_write = [], [], []
        self.extra_read, self.extra_req = [], []
        for tier_streams in extra:
            total = rand = write = read = req = 0.0
            for bandwidth, randomness, read_fraction in tier_streams:
                total += bandwidth
                rand += bandwidth * randomness
                write += bandwidth * (1.0 - read_fraction)
                read += bandwidth * read_fraction
                req += bandwidth * read_fraction / CACHELINE_BYTES
            self.extra_total.append(total)
            self.extra_rand.append(rand)
            self.extra_write.append(write)
            self.extra_read.append(read)
            self.extra_req.append(req)


def _broyden_update(inverse: List[List[float]], latencies: List[float],
                    new_latencies: List[float], candidate: List[float],
                    candidate_new: List[float]) -> List[List[float]]:
    """Good-Broyden rank-one update of an inverse Jacobian.

    The accepted step moves latency from ``latencies`` (whose sweep gave
    ``new_latencies``) to ``candidate`` (whose sweep gave
    ``candidate_new``). The updated ``H`` maps the change of ``F`` that
    step caused to the step (Sherman–Morrison form, no matrix
    inversion). A degenerate step leaves ``H`` as it is.

    Two tiers are straight-line floats, bit for bit what
    :func:`_broyden_update_n` gives.
    """
    if len(latencies) == 2:
        cand0, cand1 = candidate
        old0, old1 = latencies
        step0 = cand0 - old0
        step1 = cand1 - old1
        change0 = (candidate_new[0] - cand0) - (new_latencies[0] - old0)
        change1 = (candidate_new[1] - cand1) - (new_latencies[1] - old1)
        (h00, h01), (h10, h11) = inverse
        h_change0 = (0.0 + h00 * change0) + h01 * change1
        h_change1 = (0.0 + h10 * change0) + h11 * change1
        denominator = (0.0 + step0 * h_change0) + step1 * h_change1
        if denominator == 0.0 or not math.isfinite(denominator):
            return inverse
        step_h0 = (0.0 + step0 * h00) + step1 * h10
        step_h1 = (0.0 + step0 * h01) + step1 * h11
        scale0 = (step0 - h_change0) / denominator
        scale1 = (step1 - h_change1) / denominator
        return [[h00 + scale0 * step_h0, h01 + scale0 * step_h1],
                [h10 + scale1 * step_h0, h11 + scale1 * step_h1]]
    return _broyden_update_n(
        inverse,
        [c - old for c, old in zip(candidate, latencies)],
        [(cn - c) - (new - old) for cn, c, new, old in zip(
            candidate_new, candidate, new_latencies, latencies)],
    )


def _broyden_update_n(inverse: List[List[float]], step: List[float],
                      change: List[float]) -> List[List[float]]:
    """:func:`_broyden_update` for any tier count: ``step`` is the
    accepted move in latency and ``change`` the change of ``F`` it
    caused."""
    h_change = [sum(map(mul, row, change)) for row in inverse]
    denominator = sum(map(mul, step, h_change))
    if denominator == 0.0 or not math.isfinite(denominator):
        return inverse
    step_h = [sum(map(mul, step, column)) for column in zip(*inverse)]
    return [[h + scale * sh for h, sh in zip(row, step_h)]
            for row, scale in zip(inverse, [
                (s - hc) / denominator for s, hc in zip(step, h_change)])]


class EquilibriumSolver:
    """Reusable solver bound to a fixed set of tiers.

    Construction precomputes the per-tier latency curves and mix
    coefficients; :meth:`solve` may then be called many times per
    simulation quantum.

    Args:
        tiers: The memory tiers (fixed for the solver's lifetime; they
            are therefore not part of the memoization key).
        cache_size: LRU capacity of the solve memoization cache.
        use_cache: Explicitly enable/disable memoization; ``None``
            (default) takes the environment default
            (:meth:`repro.options.RunOptions.from_env`). Solvers a cell
            builds pass the cell's option.
        validate_cache_hits: When True, every cache hit re-evaluates one
            fixed-point sweep at the cached latencies and records the
            residual in :attr:`last_hit_residual` — the invariant
            checker's hook for verifying that cached equilibria still
            satisfy the fixed point. Off by default (it costs one sweep
            per hit).
    """

    def __init__(self, tiers: Sequence[MemoryTierSpec],
                 cache_size: int = DEFAULT_SOLVE_CACHE_SIZE,
                 use_cache: Optional[bool] = None,
                 validate_cache_hits: bool = False) -> None:
        if not tiers:
            raise ConfigurationError("at least one tier is required")
        self._tiers: Tuple[MemoryTierSpec, ...] = tuple(tiers)
        self._unloaded = [t.unloaded_latency_ns for t in self._tiers]
        # Per-tier sweep constants: (curve, sequential efficiency,
        # random-minus-sequential efficiency, rw penalty, theoretical
        # bandwidth, duplex).
        self._tier_consts = tuple(
            (LatencyCurve(t).latency_ns, t.efficiency_sequential,
             t.efficiency_random - t.efficiency_sequential, t.rw_penalty,
             t.theoretical_bandwidth, t.duplex)
            for t in self._tiers
        )
        # Output and inverse Jacobian of the last computed solve: a warm
        # solve seeded with exactly that output starts from this inverse.
        self._carried_seed: Optional[List[float]] = None
        self._carried_inverse: Optional[List[List[float]]] = None
        if cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        # MultiEquilibrium entries, keyed by the normalized inputs.
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._cache_size = int(cache_size)
        # The last solve's (input objects, key, equilibrium) while they
        # can be recognized by identity (see :meth:`_solve`).
        self._last_solve: Optional[tuple] = None
        # The latencies array this solver returned last (every computed
        # output is a valid seed) and its values as a list once needed.
        self._own_seed: Optional[np.ndarray] = None
        self._own_warm: Optional[List[float]] = None
        # Per core group object, its key and coefficients (each entry
        # holds its group, so the id stays its own); per (whether the
        # group has cores, float split bytes), the normalized split; the
        # last tuple of pinned pairs and its terms.
        self._group_memo: dict = {}
        self._split_memo: dict = {}
        self._pinned_memo: Optional[tuple] = None
        self._zeros = [0.0] * len(self._tiers)
        self._no_extra_key = ((),) * len(self._tiers)
        if use_cache is None:
            use_cache = RunOptions.from_env().solver_cache
        self._cache_enabled = bool(use_cache)
        self._validate_cache_hits = bool(validate_cache_hits)
        #: Whether the most recent :meth:`solve` was served from the cache.
        self.last_was_cache_hit = False
        #: Fixed-point residual of the most recent validated cache hit
        #: (None unless ``validate_cache_hits`` and the last solve hit).
        self.last_hit_residual: Optional[float] = None
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def tiers(self) -> Tuple[MemoryTierSpec, ...]:
        """The tier specifications this solver was built with."""
        return self._tiers

    @property
    def n_tiers(self) -> int:
        """Number of tiers."""
        return len(self._tiers)

    @property
    def cache_enabled(self) -> bool:
        """Whether this instance memoizes solves."""
        return self._cache_enabled

    def clear_cache(self) -> None:
        """Drop every memoized solve."""
        self._cache.clear()
        self._last_solve = None

    def solve(
        self,
        app: CoreGroup,
        split: Sequence[float],
        pinned: Sequence[Tuple[CoreGroup, int]] = (),
        extra_traffic: Optional[Sequence[Sequence[CopyStream]]] = None,
        initial_latencies: Optional[Sequence[float]] = None,
    ) -> MultiEquilibrium:
        """Solve for the steady state of one application.

        Args:
            app: The application core group.
            split: Fraction of application accesses served by each tier;
                must be non-negative and sum to 1 (within tolerance) when
                the application has any cores.
            pinned: (group, tier index) pairs whose traffic goes entirely
                to one tier (the antagonist).
            extra_traffic: Optional per-tier open-loop copy streams
                (page-migration reads/writes): for each tier, a sequence
                of :data:`CopyStream` tuples. Each is checked: bandwidth
                non-negative, randomness and read fraction in [0, 1].
            initial_latencies: Optional warm start — per-tier latencies
                to seed the iteration with (typically a nearby known
                equilibrium, e.g. the previous quantum's). The fixed
                point is unique, so this changes only the sweep count,
                not the answer (within the solver tolerance). It
                is deliberately *not* part of the memoization key.

        Returns:
            The solved :class:`MultiEquilibrium`, exactly what
            :meth:`solve_multi` returns for ``[(app, split)]``: the
            application's own fields are ``apps[0]``. With memoization
            enabled an identical configuration returns the cached
            instance — treat it as immutable.

        Raises:
            ConfigurationError: On malformed inputs.
            ConvergenceError: If the iteration does not settle within
                its sweep budget, or a sweep overflows (a non-finite
                latency is never returned).
        """
        return self._solve(((app, split),), pinned, extra_traffic,
                           initial_latencies)

    def solve_multi(
        self,
        apps: Sequence[Tuple[CoreGroup, Sequence[float]]],
        pinned: Sequence[Tuple[CoreGroup, int]] = (),
        extra_traffic: Optional[Sequence[Sequence[CopyStream]]] = None,
        initial_latencies: Optional[Sequence[float]] = None,
    ) -> MultiEquilibrium:
        """Solve one shared steady state for several application groups.

        Every group closes its own rate/latency loop through its own
        placement split, but all of them load the same tiers — this is
        the colocation coupling: tier latencies (and therefore what the
        CHA observes) reflect *total* traffic, while each application's
        demand follows only its own placement-weighted latency.

        Args:
            apps: ``(core_group, split)`` pairs, one per application, in
                a stable order (the order tenants are declared). Each
                split obeys the same rules as :meth:`solve`'s.
            pinned: As in :meth:`solve`.
            extra_traffic: As in :meth:`solve` — typically every
                tenant's copy streams, in tenant order.
            initial_latencies: As in :meth:`solve`.

        Returns:
            A :class:`MultiEquilibrium` whose ``apps`` tuple is in input
            order. Both methods run one solve path and share one
            memoization cache: for a single application, :meth:`solve`
            returns exactly this result.
        """
        return self._solve(apps, pinned, extra_traffic, initial_latencies)

    # -- the solve path ---------------------------------------------------

    def _solve(self, apps, pinned, extra_traffic,
               initial_latencies) -> MultiEquilibrium:
        """The one solve path behind :meth:`solve` and
        :meth:`solve_multi`: validate, look up the memoization cache,
        iterate on a miss, and store the :class:`MultiEquilibrium`."""
        if not apps:
            raise ConfigurationError(
                "at least one application group is required"
            )
        n = len(self._unloaded)
        # The read-only array this solver returned last was checked when
        # it was computed: it seeds without being read again.
        own_seed = (initial_latencies is not None
                    and initial_latencies is self._own_seed)
        warm = None
        if initial_latencies is not None and not own_seed:
            seed = np.asarray(initial_latencies, dtype=float)
            if seed.shape != (n,):
                raise ConfigurationError(
                    f"initial_latencies must have {n} entries, got shape "
                    f"{seed.shape}"
                )
            warm = seed.tolist()
            if not all(0.0 < latency < math.inf for latency in warm):
                raise ConfigurationError(
                    "initial_latencies must be finite and positive"
                )
        # A solve passed the last solve's very objects and copy streams
        # equal to its (validated) streams is its hit.
        last, self._last_solve = self._last_solve, None
        inputs = (*chain(*apps), *chain(*pinned))
        if (last is not None and len(inputs) == len(last[0])
                and all(map(is_, inputs, last[0]))
                and (last[1] is None if extra_traffic is None
                     else tuple(extra_traffic) == last[1])):
            __, __, key, equilibrium = self._last_solve = last
        else:
            terms = [self._app_terms(group, split) for group, split in apps]
            pinned_key, pinned_entries = self._pinned_terms(pinned)
            if extra_traffic is None:
                extra = None
                extra_key = self._no_extra_key
            else:
                extra = extra_key = _copy_streams(extra_traffic, n)
            key = equilibrium = None
            if self._cache_enabled:
                key = (tuple([app_terms[0] for app_terms in terms]),
                       pinned_key, extra_key)
                equilibrium = self._cache.get(key)
        self.last_was_cache_hit = equilibrium is not None
        self.last_hit_residual = None
        if equilibrium is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            if self._validate_cache_hits:
                problem = self._problem(terms, pinned_entries, extra)
                latencies = equilibrium.latencies_ns.tolist()
                check_lat, _ = self._evaluate(problem, latencies)
                self.last_hit_residual = _relative_residual(
                    check_lat, latencies)
            latencies_ns = equilibrium.latencies_ns
            if latencies_ns is not self._own_seed:
                self._own_seed, self._own_warm = latencies_ns, None
        else:
            problem = self._problem(terms, pinned_entries, extra)
            if own_seed:
                warm = (self._own_warm if self._own_warm is not None
                        else initial_latencies.tolist())
            latencies, state, iteration = self._iterate(problem, warm)
            app_states, wire, req, utils, beffs = state
            latencies_ns = np.array(latencies)
            latencies_ns.flags.writeable = False
            equilibrium = MultiEquilibrium(
                latencies_ns=latencies_ns,
                apps=tuple([
                    AppEquilibrium(avg_latency_ns=avg, read_rate=rate,
                                   split=app_terms[2],
                                   tier_read_rate=np.array(tier_read))
                    for (avg, rate, tier_read), app_terms
                    in zip(app_states, terms)
                ]),
                tier_wire_traffic=np.array(wire),
                tier_read_request_rate=np.array(req),
                utilizations=np.array(utils),
                effective_bandwidths=np.array(beffs),
                iterations=iteration,
            )
            self._own_seed, self._own_warm = latencies_ns, latencies
            self.cache_misses += 1
            if key is not None:
                self._cache[key] = equilibrium
                if len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        if (self._last_solve is None and key is not None
                and not self._validate_cache_hits
                and all(isinstance(split, np.ndarray)
                        and not split.flags.writeable
                        for _, split in apps)):
            self._last_solve = (inputs, key[2] if extra_traffic is not None
                                else None, key, equilibrium)
        return equilibrium

    def _problem(self, terms, pinned_entries, extra) -> _SolveProblem:
        """The :class:`_SolveProblem` of the applications' ``terms``."""
        return _SolveProblem(tuple([app_terms[1] for app_terms in terms]),
                             pinned_entries, extra, self._zeros)

    def _group_terms(self, group: CoreGroup) -> tuple:
        """``(key, coefficients)`` of a core group (:func:`_group_key`,
        :func:`_coefficients`), built once per group object."""
        entry = self._group_memo.get(id(group))
        if entry is None:
            if len(self._group_memo) >= _MEMO_SIZE:
                self._group_memo.clear()
            entry = self._group_memo[id(group)] = (
                group, (_group_key(group), _coefficients(group)))
        return entry[1]

    def _app_terms(self, group: CoreGroup, split) -> tuple:
        """``(key, sweep entry, split array)`` of one application: its
        part of the cache key (group key, normalized split bytes), its
        :class:`_SolveProblem` entry, and the normalized split the
        equilibrium keeps."""
        group_key, coefficients = self._group_terms(group)
        array, values, split_bytes = self._split_terms(group, split)
        return (group_key, split_bytes), (values, *coefficients), array

    def _split_terms(self, group: CoreGroup, split) -> tuple:
        """``(array, values, bytes)`` of the normalized split: the array
        the equilibrium keeps, its floats and its cache-key bytes. A
        float array split is normalized once per value, and its
        normalized array, shared by equal splits, is read-only."""
        memo_key = None
        if (type(split) is np.ndarray and split.dtype == np.float64
                and split.ndim == 1):
            memo_key = (group.n_cores > 0, split.tobytes())
            terms = self._split_memo.get(memo_key)
            if terms is not None:
                return terms
        array, values = self._normalize_split(group, split)
        terms = (array, values, array.tobytes())
        if memo_key is not None:
            array.flags.writeable = False
            if len(self._split_memo) >= _MEMO_SIZE:
                self._split_memo.clear()
            self._split_memo[memo_key] = terms
        return terms

    def _pinned_terms(self, pinned) -> tuple:
        """``(key, sweep entries)`` of the pinned groups: their part of
        the cache key and the :class:`_SolveProblem` entries of those
        with cores. A tuple of ``(group, int)`` pairs passed again is
        recognized by identity."""
        memo = self._pinned_memo
        if memo is not None and pinned is memo[0]:
            return memo[1]
        n = len(self._unloaded)
        key = []
        entries = []
        for group, tier_idx in pinned:
            tier_idx = int(tier_idx)
            if not 0 <= tier_idx < n:
                raise ConfigurationError(
                    f"pinned tier index {tier_idx} out of range"
                )
            group_key, coefficients = self._group_terms(group)
            key.append((group_key, tier_idx))
            if coefficients[0]:
                entries.append((tier_idx, *coefficients[1:]))
        terms = (tuple(key), tuple(entries))
        if type(pinned) is tuple and all(
                type(pair) is tuple and type(pair[1]) is int
                for pair in pinned):
            self._pinned_memo = (pinned, terms)
        return terms

    def _normalize_split(self, app: CoreGroup, split: Sequence[float]):
        """``(array, values)``: the normalized split as an array and as
        its floats.

        Per-tier floats give the values np.clip and the array division
        would (NaN propagates, -0.0 clips to 0.0), without numpy's
        per-call cost on two or three elements; two tiers are
        straight-line floats.
        """
        n = len(self._unloaded)
        split_arr = np.asarray(split, dtype=float)
        if split_arr.shape != (n,):
            raise ConfigurationError(
                f"split must have {n} entries, got shape {split_arr.shape}"
            )
        if n == 2:
            first, second = split_arr.tolist()
            if first < -1e-12 or second < -1e-12:
                raise ConfigurationError(
                    "split fractions must be non-negative")
            first = 0.0 if first <= 0.0 else first
            second = 0.0 if second <= 0.0 else second
            total_split = (0.0 + first) + second
            if app.n_cores > 0:
                if abs(total_split - 1.0) > 1e-6:
                    raise ConfigurationError(
                        f"split must sum to 1, got {total_split}"
                    )
                first /= total_split
                second /= total_split
            values = [first, second]
            return np.array(values), values
        values = split_arr.tolist()
        if any(v < -1e-12 for v in values):
            raise ConfigurationError("split fractions must be non-negative")
        values = [0.0 if v <= 0.0 else v for v in values]
        total_split = tier_sum(values)
        if app.n_cores > 0:
            if abs(total_split - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"split must sum to 1, got {total_split}"
                )
            values = [v / total_split for v in values]
        return np.array(values), values

    def _iterate(self, problem: _SolveProblem,
                 warm: Optional[List[float]]):
        """Safeguarded quasi-Newton iteration on ``F(L) = G(L) - L``.

        ``G`` is one :meth:`_evaluate` sweep and ``L`` the per-tier
        latency vector. Steps use an inverse Jacobian ``H``: carried from
        the last computed solve when ``warm`` is exactly its output,
        otherwise probed by forward differences, and refined by a Broyden
        update after each accepted step. A step from a carried or updated
        ``H`` that raises the residual (or leaves the positive orthant)
        is undone and retried with a fresh probe; a step from a fresh
        ``H`` that raises the residual switches the rest of the solve to
        damped updates. Returns ``(latencies, state, sweeps)``: the
        accepted ``G(L)`` and the state of that same sweep (see
        :meth:`_evaluate`), and the sweeps spent, Jacobian probes
        included.
        """
        n = self.n_tiers
        if warm is None:
            latencies = list(self._unloaded)
            inverse = None
        else:
            latencies = warm
            inverse = (self._carried_inverse
                       if latencies == self._carried_seed else None)
        new_latencies, state = self._evaluate(problem, latencies)
        residual = _relative_residual(new_latencies, latencies)
        sweeps = 1
        # Whether ``inverse`` was probed at ``latencies``.
        fresh = False
        newton = True
        damping = _INITIAL_DAMPING
        while not residual < SOLVER_RELATIVE_TOLERANCE:
            # A NaN or infinite residual means the accepted sweep
            # overflowed, and no step can bring it back.
            if not residual < math.inf:
                raise ConvergenceError(
                    f"equilibrium overflowed after {sweeps} sweeps "
                    f"(residual {residual:.3e})"
                )
            probe = newton and inverse is None
            if sweeps + (n + 1 if probe else 1) > _MAX_ITERATIONS:
                raise ConvergenceError(
                    f"equilibrium did not converge in {sweeps} sweeps "
                    f"(residual {residual:.3e})"
                )
            if probe:
                inverse = self._inverse_jacobian(problem, latencies,
                                                 new_latencies)
                sweeps += n
                fresh = True
            candidate = None
            if newton and inverse is not None:
                candidate = self._newton_point(latencies, new_latencies,
                                               inverse)
                if candidate is None and not fresh:
                    inverse = None
                    continue
            took_newton = candidate is not None
            if not took_newton:
                candidate = _damped_point(latencies, new_latencies, damping)
            candidate_new, candidate_state = self._evaluate(problem,
                                                            candidate)
            sweeps += 1
            candidate_residual = _relative_residual(candidate_new,
                                                    candidate)
            if candidate_residual > residual:
                if took_newton:
                    # Go back to the point before the step: re-probe
                    # there, or, if this Jacobian was fresh, finish with
                    # the damped update.
                    newton = not fresh
                    inverse = None
                    continue
                damping = max(_MIN_DAMPING, damping * 0.5)
            else:
                damping = min(_INITIAL_DAMPING, damping * 1.05)
            if inverse is not None:
                inverse = _broyden_update(inverse, latencies,
                                          new_latencies, candidate,
                                          candidate_new)
            fresh = False
            latencies, new_latencies, state, residual = (
                candidate, candidate_new, candidate_state,
                candidate_residual,
            )
        self._carried_seed = new_latencies
        self._carried_inverse = inverse
        # ``state`` holds the flows of the sweep that produced
        # ``new_latencies``, so no extra post-convergence sweep is needed.
        return new_latencies, state, sweeps

    def _inverse_jacobian(self, problem: _SolveProblem,
                          latencies: List[float],
                          new_latencies: List[float],
                          ) -> Optional[List[List[float]]]:
        """Inverse Jacobian of ``F`` at ``latencies`` by forward
        differences, one probe sweep per tier; None if it is singular.
        ``new_latencies`` is ``G(latencies)``."""
        n = len(latencies)
        columns = []
        for j in range(n):
            probe = list(latencies)
            probe[j] += _JACOBIAN_STEP * latencies[j]
            step = probe[j] - latencies[j]
            probed = self._evaluate(problem, probe)[0]
            columns.append([(g - f) / step
                            for g, f in zip(probed, new_latencies)])
        try:
            return np.linalg.inv(np.array(columns).T - np.eye(n)).tolist()
        except np.linalg.LinAlgError:
            return None

    def _newton_point(self, latencies: List[float],
                      new_latencies: List[float],
                      inverse: List[List[float]]) -> Optional[List[float]]:
        """The Newton iterate ``L - H F(L)`` from ``latencies``, where
        ``new_latencies`` is ``G(latencies)`` and ``inverse`` is ``H``;
        None unless it is finite and positive.

        Two tiers are straight-line floats, bit for bit what
        :func:`_newton_point_n` gives: a two-term ``sum`` is
        ``(0.0 + a) + b``.
        """
        if len(latencies) == 2:
            old0, old1 = latencies
            res0 = old0 - new_latencies[0]
            res1 = old1 - new_latencies[1]
            (h00, h01), (h10, h11) = inverse
            first = old0 + ((0.0 + h00 * res0) + h01 * res1)
            second = old1 + ((0.0 + h10 * res0) + h11 * res1)
            # ``min > 0`` of two values is both > 0 (a NaN fails
            # either); a NaN or infinity makes the sum non-finite.
            if (first > 0.0 and second > 0.0
                    and math.isfinite((0.0 + first) + second)):
                return [first, second]
            return None
        return _newton_point_n(latencies, new_latencies, inverse)

    def _evaluate(self, problem: _SolveProblem,
                  latencies: Sequence[float]):
        """One sweep of the fixed-point map, in Python floats.

        Returns ``(new_latencies, state)`` where ``state`` carries the
        flows computed from the input latencies: ``(app_states,
        tier_wire_traffic, tier_read_request_rate, utilizations,
        effective_bandwidths)``, each per tier; ``app_states`` holds one
        ``(avg_latency, read_rate, tier_read_rate)`` triple per
        application group, in input order.

        Two tiers are straight-line floats, bit for bit what
        :meth:`_evaluate_n` gives.
        """
        if len(latencies) != 2:
            return self._evaluate_n(problem, latencies)
        lat0, lat1 = latencies
        # Per-tier aggregates in historical addition order: extra
        # classes (pre-summed), then the application classes in input
        # order, then pinned groups.
        total0, total1 = problem.extra_total
        rand0, rand1 = problem.extra_rand
        write0, write1 = problem.extra_write
        read0, read1 = problem.extra_read
        req0, req1 = problem.extra_req
        app_states = []
        for split, has_cores, demand, mult, rand, wrf, one_minus_wrf in \
                problem.apps:
            share0, share1 = split
            if has_cores:
                app_avg_latency = (0.0 + share0 * lat0) + share1 * lat1
                app_read_rate = demand / app_avg_latency
            else:
                app_avg_latency = lat0
                app_read_rate = 0.0
            tier_read0 = app_read_rate * share0
            tier_read1 = app_read_rate * share1
            bw = tier_read0 * mult
            total0 += bw
            rand0 += bw * rand
            write0 += bw * one_minus_wrf
            read0 += bw * wrf
            req0 += tier_read0 / CACHELINE_BYTES
            bw = tier_read1 * mult
            total1 += bw
            rand1 += bw * rand
            write1 += bw * one_minus_wrf
            read1 += bw * wrf
            req1 += tier_read1 / CACHELINE_BYTES
            app_states.append((app_avg_latency, app_read_rate,
                               [tier_read0, tier_read1]))
        for tier_idx, demand, mult, rand, wrf, one_minus_wrf in \
                problem.pinned:
            if tier_idx == 0:
                rate = demand / lat0
                bw = rate * mult
                total0 += bw
                rand0 += bw * rand
                write0 += bw * one_minus_wrf
                read0 += bw * wrf
                req0 += rate / CACHELINE_BYTES
            else:
                rate = demand / lat1
                bw = rate * mult
                total1 += bw
                rand1 += bw * rand
                write1 += bw * one_minus_wrf
                read1 += bw * wrf
                req1 += rate / CACHELINE_BYTES
        consts0, consts1 = self._tier_consts
        new0, util0, beff0 = _tier_latency(consts0, total0, rand0, write0,
                                           read0)
        new1, util1, beff1 = _tier_latency(consts1, total1, rand1, write1,
                                           read1)
        state = (app_states, [total0, total1], [req0, req1],
                 [util0, util1], [beff0, beff1])
        return [new0, new1], state

    def _evaluate_n(self, problem: _SolveProblem,
                    latencies: Sequence[float]):
        """:meth:`_evaluate` for any tier count."""
        total = list(problem.extra_total)
        rand_sum = list(problem.extra_rand)
        write_sum = list(problem.extra_write)
        read_sum = list(problem.extra_read)
        req = list(problem.extra_req)
        app_states = []
        for split, has_cores, demand, mult, rand, wrf, one_minus_wrf in \
                problem.apps:
            if has_cores:
                app_avg_latency = sum(map(mul, split, latencies))
                app_read_rate = demand / app_avg_latency
            else:
                app_avg_latency = latencies[0]
                app_read_rate = 0.0
            app_tier_read = [app_read_rate * share for share in split]
            for i, tier_read in enumerate(app_tier_read):
                bw = tier_read * mult
                total[i] += bw
                rand_sum[i] += bw * rand
                write_sum[i] += bw * one_minus_wrf
                read_sum[i] += bw * wrf
                req[i] += tier_read / CACHELINE_BYTES
            app_states.append((app_avg_latency, app_read_rate,
                               app_tier_read))
        for tier_idx, demand, mult, rand, wrf, one_minus_wrf in \
                problem.pinned:
            rate = demand / latencies[tier_idx]
            bw = rate * mult
            total[tier_idx] += bw
            rand_sum[tier_idx] += bw * rand
            write_sum[tier_idx] += bw * one_minus_wrf
            read_sum[tier_idx] += bw * wrf
            req[tier_idx] += rate / CACHELINE_BYTES
        new_latencies = []
        utils = []
        beffs = []
        for i, consts in enumerate(self._tier_consts):
            new, util, beff = _tier_latency(consts, total[i], rand_sum[i],
                                            write_sum[i], read_sum[i])
            new_latencies.append(new)
            utils.append(util)
            beffs.append(beff)
        state = (app_states, total, req, utils, beffs)
        return new_latencies, state


def _tier_latency(consts: tuple, tier_total: float, rand_sum: float,
                  write_sum: float, read_sum: float):
    """One tier's ``(latency, utilization, effective bandwidth)`` from its
    summed wire traffic: total, randomness-weighted, write and read."""
    curve, eff_seq, eff_delta, rw_penalty, theo_bw, duplex = consts
    if tier_total > 0.0:
        mean_rand = rand_sum / tier_total
        write_share = write_sum / tier_total
    else:
        mean_rand = write_share = 0.0
    pattern_eff = eff_seq + mean_rand * eff_delta
    # write_share of 0.5 corresponds to a 1:1 read/write mix -> full
    # penalty.
    rw_eff = 1.0 - rw_penalty * min(1.0, 2.0 * write_share)
    beff = theo_bw * pattern_eff * rw_eff
    load = max(read_sum, write_sum) if duplex else tier_total
    util = load / beff if beff > 0.0 else 0.0
    return curve(util), util, beff
