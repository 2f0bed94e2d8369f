"""Quantum observers: everything a run watches, behind one seam.

:class:`~repro.runtime.loop.QuantumLoop` builds its observers once, from
its :class:`~repro.options.RunOptions` and tracer, and calls each at
four points of every quantum: after the shared solve, after a tenant's
decision, after its plan executed, and after the aggregate record. A
tenant carries its ``index`` and this quantum's inputs (``probs``,
``split``, ``shifted``, ``charged``). Observers write only their own
state and the tracer, so no option can change a simulated number; with
every option off and no tracer there are none.
"""

from __future__ import annotations

import numpy as np

from repro.check.invariants import Checker, find_shift_computer
from repro.memhw.fixedpoint import EquilibriumSolver
from repro.obs.placement import PlacementObserver
from repro.obs.profile import Counters


class QuantumObserver:
    """Base observer: every hook is a no-op."""

    __slots__ = ()

    def post_solve(self, t, equilibrium, solver) -> None:
        pass

    def post_decision(self, t, tenant) -> None:
        pass

    def post_execute(self, t, tenant, decision, result) -> None:
        pass

    def end_of_quantum(self, t, record) -> None:
        pass


class InvariantObserver(QuantumObserver):
    """Drives the :class:`~repro.check.Checker` (see its module table).

    The loop's checker takes the machine-level checks; a colocated
    loop's tenants each get their own checker on their tenant tracer,
    a single tenant shares the loop's.
    """

    __slots__ = ("loop", "_checkers", "_before")

    def __init__(self, loop) -> None:
        self.loop = loop
        tenants = loop._tenants
        self._checkers = ([loop.checker] if len(tenants) == 1 else
                          [Checker(tracer=t.tracer) for t in tenants])
        self._before = None

    def post_solve(self, t, equilibrium, solver) -> None:
        checker = self.loop.checker
        checker.check_equilibrium(t, equilibrium.latencies_ns,
                                  equilibrium.total_read_rate,
                                  equilibrium.measured_p)
        if solver.last_was_cache_hit:
            checker.check_solver_cache(t, solver.last_hit_residual)

    def post_decision(self, t, tenant) -> None:
        checker = self._checkers[tenant.index]
        shift = find_shift_computer(tenant.spec.system)
        if shift is not None:
            checker.check_shift(t, shift)
        # Snapshot after the decision: systems may legitimately reshape
        # the page table (MEMTIS hugepage splits); only the executor's
        # moves must conserve pages.
        self._before = checker.placement_snapshot(tenant.placement)

    def post_execute(self, t, tenant, decision, result) -> None:
        checker = self._checkers[tenant.index]
        checker.check_migration(t, tenant.placement, result,
                                decision.budget_bytes, self._before)
        checker.check_placement_flows(t, tenant.placement, result,
                                      self._before)

    def end_of_quantum(self, t, record) -> None:
        loop = self.loop
        loop.checker.check_colocation(
            t, loop._capacities,
            [(tenant.name, tenant.placement) for tenant in loop._tenants],
        )


class PlacementAudit(QuantumObserver):
    """One :class:`~repro.obs.placement.PlacementObserver` per tenant
    (samples go through the tenant's tracer) sharing one private audit
    solver: the probe solves never touch the loop's solver or warm
    starts, so audited runs are bit-identical to unaudited ones."""

    __slots__ = ("loop", "observers", "solver", "_warm", "_probes")

    def __init__(self, loop, period: int) -> None:
        self.loop = loop
        n_tiers = len(loop._capacities)
        self.observers = [
            PlacementObserver(n_tiers=n_tiers, tracer=tenant.tracer,
                              audit_period=period)
            for tenant in loop._tenants
        ]
        self.solver = (EquilibriumSolver(
            loop.machine.tiers, use_cache=loop.options.solver_cache)
            if n_tiers == 2 else None)
        self._warm = [None] * len(loop._tenants)
        # Per tenant: the last probe and the input objects it was built
        # from (the antagonist, then each tenant's core group and split).
        self._probes = [None] * len(loop._tenants)

    def _evaluate(self, index: int, apps, antagonist):
        """Misplacement-audit callback for tenant ``index``: varies only
        its split, every other tenant's (and the antagonist) held —
        "given everybody else this quantum, where should *this*
        tenant's pages sit?" — warm-starting per tenant."""
        from repro.runtime.loop import _solve_apps

        def evaluate(p: float):
            probe = [(group, [p, 1.0 - p] if j == index else split)
                     for j, (group, split) in enumerate(apps)]
            eq = _solve_apps(self.solver, probe, pinned=[(antagonist, 0)],
                             initial_latencies=self._warm[index])
            self._warm[index] = eq.latencies_ns
            return eq.latencies_ns, eq.apps[index].read_rate

        return evaluate

    def _probe(self, index: int):
        """Tenant ``index``'s audit ``(evaluate, audit_key)``, reused
        while the antagonist and every core group and read-only split
        are the objects it was built from."""
        apps = self.loop._apps
        antagonist = self.loop._antagonist
        inputs = (antagonist, *[item for app in apps for item in app])
        last = self._probes[index]
        if (last is not None and len(inputs) == len(last[0])
                and all(a is b for a, b in zip(inputs, last[0]))):
            return last[1]
        # The probe equilibrium holds every *other* tenant's split
        # fixed; the audited tenant's own split is the probe variable
        # and must stay out of the key.
        probe = self._evaluate(index, apps, antagonist), (
            tuple((group, None if j == index else tuple(map(float, split)))
                  for j, (group, split) in enumerate(apps)),
            antagonist)
        self._probes[index] = (inputs, probe) if all(
            isinstance(split, np.ndarray) and not split.flags.writeable
            for _, split in apps) else None
        return probe

    def post_execute(self, t, tenant, decision, result) -> None:
        i = tenant.index
        observer = self.observers[i]
        evaluate = None
        audit_key = None
        if self.solver is not None and observer.audit_due():
            evaluate, audit_key = self._probe(i)
        observer.observe_quantum(
            access_probs=tenant.probs,
            placement=tenant.placement,
            result=result,
            p_actual=tenant.split[0],
            evaluate=evaluate,
            probs_changed=tenant.shifted,
            audit_key=audit_key,
        )


class RunCounters(QuantumObserver):
    """The runtime counters ``run_end`` reports (built only with a
    tracer, the event's one reader)."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters = Counters()

    def post_solve(self, t, equilibrium, solver) -> None:
        inc = self.counters.inc
        inc("quanta")
        if solver.last_was_cache_hit:
            inc("solver_cache_hits")
        else:
            inc("solver_cache_misses")
            inc("solver_iterations", equilibrium.iterations)

    def post_execute(self, t, tenant, decision, result) -> None:
        inc = self.counters.inc
        inc("migrated_bytes", tenant.charged)
        inc("moves_applied", result.moves_applied)
        inc("moves_deferred", result.moves_deferred)
        inc("moves_skipped", result.moves_skipped)


def build_observers(loop) -> tuple:
    """The loop's observers, from its options and tracer."""
    options = loop.options
    observers = []
    if options.check:
        observers.append(InvariantObserver(loop))
    if options.placement_audit is not None and loop.tracer.enabled:
        observers.append(PlacementAudit(loop, options.placement_audit))
    if loop.tracer.enabled:
        observers.append(RunCounters())
    return tuple(observers)


__all__ = ["InvariantObserver", "PlacementAudit", "QuantumObserver",
           "RunCounters", "build_observers"]
