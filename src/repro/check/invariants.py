"""The invariant checker the simulation loop drives.

Each check method validates one family of invariants. All methods
raise :class:`~repro.errors.InvariantViolation` on failure, after
recording the violation and (when a tracer is attached) emitting an
``invariant_violation`` event — so a trace of a failed ``--check`` run
documents exactly what broke and when.

The loop's :class:`~repro.runtime.observers.InvariantObserver` invokes
the checks when the run's options say ``check``:

========================  =====================================================
``check_equilibrium``     latencies out of the solver are finite and positive,
                          throughput and measured ``p`` are sane (post-solve)
``check_solver_cache``    memoized equilibria still satisfy the fixed point
                          within the solver tolerance (post-solve, on cache
                          hits, when the solver validates hits)
``check_shift``           Algorithm 2 watermark ordering, [0, 1] bounds, and
                          bracket-contains-target (post-decision)
``check_migration``       page-count conservation, byte accounting against the
                          placement ground truth, capacity respected, and
                          migration bytes never exceeding the dynamic limit
                          (post-execute, against a pre-execute snapshot)
``check_placement_flows`` the executor's applied-move record forms a
                          conserving tier×tier flow matrix: row/column sums
                          match the per-tier copy-read/copy-write bytes, and
                          the matrix's net per-tier byte delta reproduces the
                          placement's tier-byte deltas (post-execute, against
                          the same pre-execute snapshot)
``check_colocation``      cross-tenant conservation: per tier, the tenants'
                          placed bytes (and their arbitrated grants) sum to at
                          most the machine tier's capacity, and each tenant
                          stays within its own grant (colocated loop,
                          post-migration each quantum)
========================  =====================================================
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.errors import InvariantViolation
from repro.obs.tracer import NULL_TRACER

class NullChecker:
    """Disabled checker: every operation is a no-op.

    Mirrors :class:`~repro.obs.tracer.NullTracer` — the hot path's only
    interaction with a disabled checker is reading :attr:`enabled`.
    """

    __slots__ = ()

    enabled = False

    def check_equilibrium(self, *args, **kwargs) -> None:
        """No-op."""

    def check_solver_cache(self, *args, **kwargs) -> None:
        """No-op."""

    def check_shift(self, *args, **kwargs) -> None:
        """No-op."""

    def placement_snapshot(self, *args, **kwargs) -> None:
        """No-op (returns None; check_migration ignores it)."""

    def check_placement_flows(self, *args, **kwargs) -> None:
        """No-op."""

    def check_migration(self, *args, **kwargs) -> None:
        """No-op."""

    def check_colocation(self, *args, **kwargs) -> None:
        """No-op."""


#: Shared disabled checker used as the default wherever one is threaded.
NULL_CHECKER = NullChecker()


class Checker:
    """Runtime invariant checker (see module docstring for the table).

    Args:
        tracer: Optional tracer; violations are emitted as
            ``invariant_violation`` events before the exception is
            raised, so traces of failed runs are self-documenting.

    Attributes:
        violations: Structured records of every violation observed
            (normally at most one, since violations raise).
        checks_run: Number of check-method invocations that ran — lets
            tests assert checking was actually active.
    """

    enabled = True

    def __init__(self, tracer=None) -> None:
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.violations: List[dict] = []
        self.checks_run = 0

    # -- violation plumbing ----------------------------------------------

    def _violate(self, invariant: str, message: str, time_s: float,
                 **details) -> None:
        record = {
            "invariant": invariant,
            "message": message,
            "time_s": float(time_s),
            "details": {k: _plain(v) for k, v in details.items()},
        }
        self.violations.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "invariant_violation",
                invariant=invariant,
                message=message,
                details=record["details"],
            )
        raise InvariantViolation(invariant, message, time_s=time_s,
                                 details=record["details"])

    # -- hardware-model outputs ------------------------------------------

    def check_equilibrium(self, time_s: float, latencies_ns,
                          throughput: float,
                          measured_p: float) -> None:
        """Solver outputs must be physical: finite positive latencies,
        non-negative throughput, ``p`` a probability."""
        self.checks_run += 1
        # Python floats: the same tests as numpy's, without its per-call
        # cost on a handful of values.
        latencies = np.asarray(latencies_ns, dtype=float).ravel().tolist()
        if not all(math.isfinite(x) and x > 0 for x in latencies):
            self._violate(
                "memhw.latency_physical",
                "equilibrium latencies must be finite and positive",
                time_s, latencies_ns=latencies,
            )
        if not math.isfinite(throughput) or throughput < 0:
            self._violate(
                "memhw.throughput_nonnegative",
                "equilibrium throughput must be finite and non-negative",
                time_s, throughput=float(throughput),
            )
        if not 0.0 <= measured_p <= 1.0 + 1e-9:
            self._violate(
                "memhw.measured_p_bounded",
                "CHA-visible default-tier share must lie in [0, 1]",
                time_s, measured_p=float(measured_p),
            )

    def check_solver_cache(self, time_s: float,
                           residual: Optional[float]) -> None:
        """A cached equilibrium must still satisfy the fixed point.

        The solver (with ``validate_cache_hits``) re-evaluates one sweep
        at the cached latencies and reports the relative residual; a
        fresh solve converged below ``SOLVER_RELATIVE_TOLERANCE``, so a
        cached result drifting far beyond that bound means the cache
        returned an equilibrium for a different system (key corruption
        or mutated inputs). ``residual`` of None (validation disabled on
        the solver) is a no-op.
        """
        self.checks_run += 1
        if residual is None:
            return
        from repro.memhw.fixedpoint import SOLVER_RELATIVE_TOLERANCE

        if not np.isfinite(residual) or \
                residual > 100.0 * SOLVER_RELATIVE_TOLERANCE:
            self._violate(
                "memhw.solver_cache_consistent",
                "cached equilibrium no longer satisfies the fixed point",
                time_s, residual=float(residual),
                tolerance=float(SOLVER_RELATIVE_TOLERANCE),
            )

    # -- Algorithm 2 watermarks ------------------------------------------

    def check_shift(self, time_s: float, shift) -> None:
        """Algorithm 2 bracket invariants (§3.2, Figure 4).

        Watermarks stay in [0, 1] always. With dynamic resets enabled
        (the paper's configuration) the post-update ordering
        ``p_lo <= p_hi`` also holds — a collapsed-or-crossed bracket is
        exactly what a reset repairs — and hence the steered target
        (the midpoint) lies inside the bracket. With resets disabled
        (the Figure 4c ablation) a crossed bracket is a *documented
        failure mode*, so ordering is not enforced.
        """
        self.checks_run += 1
        p_lo, p_hi = float(shift.p_lo), float(shift.p_hi)
        if not (0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0):
            self._violate(
                "shift.watermark_bounds",
                "watermarks must lie in [0, 1]",
                time_s, p_lo=p_lo, p_hi=p_hi,
            )
        if shift.enable_resets:
            if p_hi < p_lo:
                self._violate(
                    "shift.watermark_ordering",
                    "p_lo <= p_hi must hold when resets are enabled",
                    time_s, p_lo=p_lo, p_hi=p_hi,
                )
            target = float(shift.target_p())
            if not p_lo <= target <= p_hi:
                self._violate(
                    "shift.bracket_contains_target",
                    "the steered target must lie inside the bracket",
                    time_s, p_lo=p_lo, p_hi=p_hi, target=target,
                )

    # -- migration / placement -------------------------------------------

    def placement_snapshot(self, placement) -> dict:
        """Capture the placement ground truth before a migration batch."""
        pages = placement.pages
        tier = pages.tier
        uniform = pages.min_page_bytes == pages.max_page_bytes
        counts = []
        tier_bytes = []
        for t in range(placement.n_tiers):
            in_tier = tier == t
            count = int(np.count_nonzero(in_tier))
            counts.append(count)
            # Uniform pages (the usual case) need no masked sum.
            tier_bytes.append(
                count * pages.min_page_bytes if uniform
                else int(pages.sizes_bytes[in_tier].sum()))
        return {
            "n_pages": len(tier),
            "placed_pages": sum(counts),
            "tier_bytes": np.array(tier_bytes, dtype=np.int64),
            "total_bytes": sum(tier_bytes),
        }

    def check_migration(self, time_s: float, placement, result,
                        budget_bytes: Optional[int],
                        before: dict) -> None:
        """Conservation and budget invariants around one executed plan.

        * no page appears or disappears (count and byte conservation);
        * the per-tier byte accounting matches a recount of the page
          table, and no tier exceeds its capacity;
        * the executed bytes never exceed the dynamic migration limit
          the tiering system supplied (Algorithm 1, line 10), and the
          executor's own move bookkeeping is internally consistent.
        """
        self.checks_run += 1
        after = self.placement_snapshot(placement)
        if after["n_pages"] != before["n_pages"] or (
                after["placed_pages"] != before["placed_pages"]):
            self._violate(
                "pages.count_conservation",
                "migration must neither create nor destroy pages",
                time_s,
                pages_before=before["placed_pages"],
                pages_after=after["placed_pages"],
            )
        if after["total_bytes"] != before["total_bytes"]:
            self._violate(
                "pages.byte_conservation",
                "total placed bytes must be conserved across migration",
                time_s,
                bytes_before=before["total_bytes"],
                bytes_after=after["total_bytes"],
            )
        for t, recount in enumerate(after["tier_bytes"].tolist()):
            used = placement.used_bytes(t)
            if recount != used:
                self._violate(
                    "pages.accounting_consistent",
                    f"tier {t} used-bytes accounting drifted from the "
                    "page table",
                    time_s, tier=t, recount=recount, accounted=used,
                )
            if used > placement.capacity_bytes(t):
                self._violate(
                    "pages.capacity_respected",
                    f"tier {t} is over capacity after migration",
                    time_s, tier=t, used=used,
                    capacity=placement.capacity_bytes(t),
                )
        if budget_bytes is not None and result.bytes_moved > budget_bytes:
            self._violate(
                "migration.dynamic_limit",
                "executed bytes exceed the dynamic migration limit",
                time_s, bytes_moved=int(result.bytes_moved),
                budget_bytes=int(budget_bytes),
            )
        if result.bytes_moved < 0 or result.moves_applied < 0:
            self._violate(
                "migration.nonnegative",
                "executor counters must be non-negative",
                time_s, bytes_moved=int(result.bytes_moved),
                moves_applied=int(result.moves_applied),
            )

    def check_placement_flows(self, time_s: float, placement, result,
                              before: dict) -> None:
        """Flow-matrix conservation around one executed plan.

        The executor's applied-move record (``moved_pages`` /
        ``moved_src_tiers`` / ``moved_dst_tiers``) is the ground truth
        the placement observability layer builds its tier×tier flow
        matrix from; this check proves the record conserving:

        * the matrix's row sums equal the executor's per-tier copy-read
          bytes and its column sums the copy-write bytes;
        * per tier, the pre-execute snapshot's bytes plus inflow minus
          outflow reproduce the placement's current bytes.
        """
        self.checks_run += 1
        moved_pages = result.moved_pages
        if moved_pages is None:
            return
        n_tiers = placement.n_tiers
        sizes = placement.pages.sizes_bytes
        flows = np.zeros((n_tiers, n_tiers), dtype=np.int64)
        if len(moved_pages):
            np.add.at(
                flows,
                (result.moved_src_tiers, result.moved_dst_tiers),
                sizes[moved_pages],
            )
        out_bytes = flows.sum(axis=1)
        in_bytes = flows.sum(axis=0)
        for t in range(n_tiers):
            if int(out_bytes[t]) != int(result.read_bytes_per_tier[t]):
                self._violate(
                    "pages.flow_conservation",
                    f"tier-{t} flow-matrix outflow disagrees with the "
                    "executor's copy-read bytes",
                    time_s, tier=t, outflow=int(out_bytes[t]),
                    copy_read=int(result.read_bytes_per_tier[t]),
                )
            if int(in_bytes[t]) != int(result.write_bytes_per_tier[t]):
                self._violate(
                    "pages.flow_conservation",
                    f"tier-{t} flow-matrix inflow disagrees with the "
                    "executor's copy-write bytes",
                    time_s, tier=t, inflow=int(in_bytes[t]),
                    copy_write=int(result.write_bytes_per_tier[t]),
                )
            expected = (int(before["tier_bytes"][t])
                        + int(in_bytes[t]) - int(out_bytes[t]))
            actual = int(sizes[placement.pages.tier == t].sum())
            if expected != actual:
                self._violate(
                    "pages.flow_conservation",
                    f"tier-{t} bytes after migration disagree with the "
                    "flow matrix's net delta",
                    time_s, tier=t, expected=expected, actual=actual,
                    before=int(before["tier_bytes"][t]),
                )

    # -- colocation -------------------------------------------------------

    def check_colocation(self, time_s: float, machine_capacities,
                         tenants) -> None:
        """Cross-tenant conservation over one machine's tiers.

        Tenant placements enforce their own grants quantum by quantum;
        this check closes the loop at the machine level: per tier, the
        granted bytes sum to at most the physical capacity and every
        tenant's placed bytes stay within its own grant — so no
        combination of per-tenant migrations (each within its own
        budget) can over-commit the hardware.

        Args:
            time_s: Simulated time of the check.
            machine_capacities: Physical per-tier capacities in bytes.
            tenants: ``(name, placement)`` pairs; each placement's
                capacities are that tenant's arbitrated grant.
        """
        self.checks_run += 1
        capacities = np.asarray(machine_capacities, dtype=np.int64)
        n_tiers = len(capacities)
        for t in range(n_tiers):
            granted = 0
            used = 0
            for name, placement in tenants:
                grant = placement.capacity_bytes(t)
                placed = placement.used_bytes(t)
                granted += grant
                used += placed
                if placed > grant:
                    self._violate(
                        "colocation.tenant_within_grant",
                        f"tenant {name!r} exceeds its tier-{t} grant",
                        time_s, tenant=name, tier=t, used=placed,
                        grant=grant,
                    )
            if granted > int(capacities[t]):
                self._violate(
                    "colocation.grants_within_capacity",
                    f"tier-{t} grants exceed the machine capacity",
                    time_s, tier=t, granted=granted,
                    capacity=int(capacities[t]),
                )
            if used > int(capacities[t]):
                self._violate(
                    "colocation.bytes_conserved",
                    f"tenants' tier-{t} bytes exceed the machine "
                    "capacity",
                    time_s, tier=t, used=used,
                    capacity=int(capacities[t]),
                )


def _plain(value):
    """Coerce numpy scalars/arrays to plain JSON-safe values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def find_shift_computer(system) -> Optional[object]:
    """The system's :class:`~repro.core.shift.ShiftComputer`, if any.

    The three Colloid integrations expose it via their controller
    (``_ColloidMixin``); baselines and the multi-tier balancer have no
    bracket to check and return None.
    """
    controller = getattr(system, "_controller", None)
    return getattr(controller, "shift", None)


__all__ = [
    "Checker",
    "NULL_CHECKER",
    "NullChecker",
    "find_shift_computer",
]
