"""The quantum-driven simulation loop.

One pipeline serves every run: a single application is colocation with
one tenant. A tenant is a (workload, tiering system, placement, page
array) tuple with its own controller, and every tenant loads the same
hardware. Each quantum the loop:

1. advances every tenant's workload (possibly changing its
   distribution) and the antagonist schedule;
2. derives each tenant's tier split from its placement and true access
   distribution;
3. solves one shared hardware equilibrium over every tenant's demand —
   including last quantum's migration traffic — and integrates each
   tenant's CHA/MBM counters;
4. hands each tiering system its observables and collects a migration
   plan;
5. executes each plan under the applicable byte budget, remembering the
   copy traffic for the next solve;
6. records per-tenant metrics and their aggregate.

Migration traffic deliberately lands in the *next* quantum's equilibrium:
the copies decided at the end of quantum k physically overlap the
application traffic of quantum k+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.check.invariants import (
    NULL_CHECKER,
    Checker,
    checks_enabled,
    find_shift_computer,
)
from repro.errors import ConfigurationError
from repro.memhw.antagonist import antagonist_core_group
from repro.memhw.cha import ChaCounters
from repro.memhw.corestate import CoreGroup
from repro.memhw.fixedpoint import EquilibriumSolver, tier_sum
from repro.memhw.latency import TrafficClass
from repro.memhw.mbm import MbmMonitor
from repro.memhw.topology import Machine
from repro.obs.events import TRACE_SCHEMA_VERSION
from repro.obs.metrics import METRICS
from repro.obs.placement import PlacementObserver, placement_audit_enabled
from repro.obs.profile import Counters, PhaseProfiler
from repro.obs.tracer import NULL_TRACER
from repro.pages.migration import MigrationExecutor
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first
from repro.runtime.metrics import MetricsRecorder, QuantumRecord
from repro.tiering.base import QuantumContext, TieringSystem
from repro.tracking.feed import AccessFeed
from repro.units import mib, ms_to_ns
from repro.workloads.base import Workload

#: Default static migration limit: 25 MiB per 10 ms quantum (2.5 GiB/s),
#: in line with the rate limits the evaluated systems configure.
DEFAULT_MIGRATION_LIMIT_PER_QUANTUM = 25 * mib(1)

ContentionSchedule = Union[int, Callable[[float], int]]


def coerce_intensity(value, time_s: Optional[float] = None) -> int:
    """Validate one contention-schedule value to a non-negative int.

    Schedules are user-supplied callables, so their returns are hostile
    input: anything that is not cleanly a non-negative integer (None,
    NaN, infinities, fractional floats, arbitrary objects) raises
    :class:`ConfigurationError` naming the simulated time, instead of
    silently truncating into a wrong antagonist intensity.
    """
    if type(value) is int and value >= 0:  # the per-quantum common case
        return value
    where = ("in the contention schedule" if time_s is None
             else f"from the contention schedule at t={time_s:.3f}s")
    try:
        intensity = int(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(
            f"got {value!r} {where}; expected a non-negative integer "
            "intensity"
        ) from error
    if isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(
            f"got non-integer {value!r} {where}; expected a "
            "non-negative integer intensity"
        )
    if intensity < 0:
        raise ConfigurationError(
            f"got negative intensity {value!r} {where}; expected a "
            "non-negative integer"
        )
    return intensity


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a run.

    Attributes:
        name: Unique tenant label — appears on every tenant-scoped trace
            event, metric series, and report section of a colocated run.
        workload: The tenant's workload instance (owns its page count
            and access distribution).
        system: The tenant's tiering system instance (owns its
            controller state; must not be shared between tenants).
        weight: Optional capacity-arbitration weight; None means the
            tenant's working-set bytes (footprint-proportional grants).
    """

    name: str
    workload: Workload
    system: TieringSystem
    weight: Optional[float] = None


@dataclass
class _Tenant:
    """Runtime state of one tenant (private to the loop).

    Besides the tenant's components it holds what the loop caches across
    quanta (see :meth:`tier_split` and :meth:`app_core_group`) and the
    copy debt, per tier, as Python floats.
    """

    spec: TenantSpec
    tracer: object
    checker: object
    rng: np.random.Generator
    cha: ChaCounters
    mbm: MbmMonitor
    placement: PlacementState
    executor: MigrationExecutor
    copy_read_debt: List[float]
    copy_write_debt: List[float]
    metrics: MetricsRecorder = field(default_factory=MetricsRecorder)
    placement_obs: Optional[PlacementObserver] = None
    audit_warm: Optional[np.ndarray] = None
    # Tier-split cache: the split, and the page-table version and the
    # very probability array it was computed from.
    _split: Optional[np.ndarray] = field(default=None, init=False)
    _split_version: int = field(default=-1, init=False)
    _split_probs: Optional[np.ndarray] = field(default=None, init=False)
    # Core-group memo: the workload's group, and (scale, scaled group).
    _group: Optional[CoreGroup] = field(default=None, init=False)
    _scaled: Optional[tuple] = field(default=None, init=False)

    @property
    def name(self) -> str:
        return self.spec.name

    def forget_distribution(self) -> None:
        """Drop everything derived from the workload's distribution (its
        ``advance`` reported a change, possibly made in place)."""
        self._split_probs = None
        self._group = None
        self._scaled = None

    def tier_split(self, probs: np.ndarray) -> np.ndarray:
        """The tenant's per-tier access split for ``probs``.

        Recomputed only when a page moved or resized (the page table's
        ``version``) or the workload handed out another probability
        array; an in-place change to the same array must go through
        :meth:`forget_distribution`. The cached array is shared
        across quanta and read-only.
        """
        version = self.placement.pages.version
        if probs is not self._split_probs or version != self._split_version:
            split = self.placement.tier_probabilities(probs)
            split.flags.writeable = False
            self._split = split
            self._split_version = version
            self._split_probs = probs
        return self._split

    def app_core_group(self) -> CoreGroup:
        """The tenant's core group with the system's throughput scale
        (e.g. MEMTIS hugepage-split TLB pressure) applied.

        The workload's group is built once per distribution, and the
        scaled group once per distinct scale.
        """
        if self._group is None:
            self._group = self.spec.workload.core_group()
        group = self._group
        scale = self.spec.system.throughput_scale()
        if scale == 1.0:
            return group
        if self._scaled is None or self._scaled[0] != scale:
            self._scaled = (scale, group.with_mlp(group.mlp * scale))
        return self._scaled[1]

    def drain_copy_debt(self, rate_limit: int, quantum_ns: float):
        """Charge up to one quantum's worth of copy traffic this quantum.

        Copy "debt" is migration traffic not yet charged to the hardware
        model: batched migrations (MEMTIS's 500 ms kmigrated) update
        placement instantly, but their copies stream at the tenant's
        migration rate over the following quanta.

        Returns:
            (per-tier traffic-class lists or None, bytes charged) — the
            migration bandwidth presented to the equilibrium solver and
            the amount recorded as this quantum's migration volume.
        """
        read_debt = self.copy_read_debt
        write_debt = self.copy_write_debt
        # Debts are never negative, so "no debt" is "all zero".
        if not (any(read_debt) or any(write_debt)):
            return None, 0
        # Reads and writes of one copy happen together; scale both sides
        # by the same factor so the rate limit covers moved bytes (the
        # read side), matching the executor's accounting.
        moved_debt = tier_sum(read_debt)
        fraction = min(1.0, rate_limit / max(moved_debt, 1.0))
        charged_read = [debt * fraction for debt in read_debt]
        charged_write = [debt * fraction for debt in write_debt]
        traffic = []
        for t, (read, write) in enumerate(zip(charged_read,
                                              charged_write)):
            read_debt[t] -= read
            write_debt[t] -= write
            classes = []
            if read > 0:
                classes.append(TrafficClass(
                    bandwidth=read / quantum_ns,
                    randomness=0.3, read_fraction=1.0,
                ))
            if write > 0:
                classes.append(TrafficClass(
                    bandwidth=write / quantum_ns,
                    randomness=0.3, read_fraction=0.0,
                ))
            traffic.append(classes)
        return traffic, int(tier_sum(charged_read))

    def add_copy_debt(self, result) -> None:
        """Owe the copies of an executed migration batch."""
        for t, (read, write) in enumerate(zip(
                result.read_bytes_per_tier.tolist(),
                result.write_bytes_per_tier.tolist())):
            self.copy_read_debt[t] += read
            self.copy_write_debt[t] += write


def _solve_apps(solver: EquilibriumSolver, apps, **inputs):
    """One shared solve over ``apps``: ``solve`` for one application,
    ``solve_multi`` for several.

    Both wrap the solver's one solve path and cache, so the answer is
    the same either way; the entry point keeps per-method
    instrumentation counting single- and multi-application solves.
    """
    if len(apps) == 1:
        return solver.solve(*apps[0], **inputs)
    return solver.solve_multi(apps, **inputs)


class QuantumLoop:
    """The per-quantum pipeline over a tuple of tenants.

    Built only through :class:`SimulationLoop` (one tenant) or
    :class:`~repro.runtime.colocation.ColocatedLoop` (N tenants): they
    differ in what they build (RNG seeds, tracer, per-tenant capacity,
    ``run_start`` fields), never in what :meth:`step` does.

    * The per-quantum solve is one solve over all tenant core groups
      (:func:`_solve_apps`), so every tenant's demand loads the same
      tiers and every tenant's latency reflects everybody's traffic.
    * Each tenant's CHA sample integrates the *machine* equilibrium
      (total request rates, shared loaded latencies — exactly what the
      hardware counters show any observer), while its MBM sample and
      access feed are scoped to its own traffic, as resource-monitoring
      IDs scope MBM on real hardware.
    * Each tenant migrates only its own pages, inside a private
      :class:`~repro.pages.placement.PlacementState` through a private
      executor; copy traffic is summed across tenants in declaration
      order.
    * :meth:`step` returns the aggregate
      :class:`~repro.runtime.metrics.QuantumRecord` (summed throughput,
      shared latencies, demand-weighted default-tier share); with one
      tenant it is that tenant's record. Per-tenant series live in
      :attr:`tenant_metrics`.
    """

    def _setup(self, machine: Machine, quantum_ms: float,
               contention: ContentionSchedule, cha_noise_sigma: float,
               migration_limit_bytes: int, tracer, profile: bool,
               checker) -> None:
        """State every constructor shares, before tenants are added."""
        if quantum_ms <= 0:
            raise ConfigurationError("quantum must be positive")
        self.machine = machine
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Invariant checking: an explicit checker wins; otherwise honor
        # the process-wide REPRO_CHECK switch (the CLI's --check).
        if checker is None:
            checker = (Checker(tracer=self.tracer) if checks_enabled()
                       else NULL_CHECKER)
        self.checker = checker
        self.profiler = PhaseProfiler(enabled=profile)
        self.counters = Counters()
        # Fleet metrics (REPRO_METRICS / --metrics). Metric handles are
        # resolved once here; the per-step cost when disabled is a
        # single attribute check on the module-level registry.
        if METRICS.enabled:
            self._m_quantum_wall = METRICS.histogram(
                "repro_quantum_wall_ns", start=1e3, factor=2.0,
                n_buckets=24,
                help="wall-clock nanoseconds per simulation quantum",
            )
            self._m_tier_latency = [
                METRICS.histogram(
                    f"repro_tier{i}_loaded_latency_ns", start=50.0,
                    factor=1.5, n_buckets=24,
                    help=f"CPU-observed loaded latency of tier {i} (ns)",
                )
                for i in range(len(machine.tiers))
            ]
            self._m_quanta = METRICS.counter(
                "repro_quanta_total", help="simulation quanta executed")
            self._m_migrated = METRICS.counter(
                "repro_migrated_bytes_total",
                help="bytes charged to the hardware model as migration "
                     "traffic",
            )
        self.quantum_ns = ms_to_ns(quantum_ms)
        self.quantum_s = quantum_ms / 1e3
        if callable(contention):
            self._contention = contention
        else:
            level = coerce_intensity(contention)
            self._contention = lambda _t: level
        self.solver = EquilibriumSolver(
            machine.tiers, validate_cache_hits=self.checker.enabled
        )
        # Warm start: the previous quantum's solved latencies seed the
        # next solve (the system sits at a steady state between quanta).
        self._warm_latencies: Optional[np.ndarray] = None
        self._capacities = tuple(t.capacity_bytes for t in machine.tiers)
        self._quantum_ms = quantum_ms
        self._cha_noise_sigma = cha_noise_sigma
        self._migration_limit_bytes = migration_limit_bytes
        self._tenants: List[_Tenant] = []
        self._audit_solver: Optional[EquilibriumSolver] = None
        self.metrics = MetricsRecorder()
        self.time_s = 0.0
        self._epoch = 0
        # Last antagonist intensity observed; a change mid-run is the
        # paper's Fig. 4c dynamism and opens a new diagnostics epoch.
        self._last_intensity: Optional[int] = None
        # The antagonist's core group at that intensity.
        self._antagonist: Optional[CoreGroup] = None

    def _add_tenant(self, spec: TenantSpec, placement: PlacementState,
                    tracer, checker, rng: np.random.Generator,
                    cha_rng: np.random.Generator) -> _Tenant:
        """Build one tenant's runtime state and attach its system."""
        n_tiers = len(self._capacities)
        action_period_s = getattr(spec.system, "action_period_s", None)
        if action_period_s:
            burst_quanta = max(2, int(round(action_period_s * 1e3
                                            / self._quantum_ms)))
        else:
            burst_quanta = 2
        tenant = _Tenant(
            spec=spec,
            tracer=tracer,
            checker=checker,
            rng=rng,
            cha=ChaCounters(n_tiers=n_tiers,
                            noise_sigma=self._cha_noise_sigma, rng=cha_rng),
            mbm=MbmMonitor(
                n_tiers=n_tiers,
                traffic_multiplier=(
                    spec.workload.core_group().traffic_multiplier()),
            ),
            placement=placement,
            executor=MigrationExecutor(
                placement, self._migration_limit_bytes,
                burst_quanta=burst_quanta, tracer=tracer,
            ),
            copy_read_debt=[0.0] * n_tiers,
            copy_write_debt=[0.0] * n_tiers,
        )
        self._tenants.append(tenant)
        spec.system.attach(placement)
        spec.system.on_configure(self.machine, self._migration_limit_bytes,
                                 self.quantum_ns)
        return tenant

    def _start(self, system: str, workload: str, **run_start) -> None:
        """Finish construction: placement observers and ``run_start``."""
        n_tiers = len(self._capacities)
        # Placement observability (REPRO_PLACEMENT_AUDIT /
        # --placement-audit): one observer per tenant (samples go through
        # the tenant's tracer) sharing one private audit solver — the
        # probe solves never touch the loop's solver or warm-start
        # state, so audited runs are bit-identical to unaudited ones.
        if placement_audit_enabled() and self.tracer.enabled:
            for tenant in self._tenants:
                tenant.placement_obs = PlacementObserver(
                    n_tiers=n_tiers, tracer=tenant.tracer,
                )
            if n_tiers == 2:
                self._audit_solver = EquilibriumSolver(self.machine.tiers)
        if self.tracer.enabled:
            self.tracer.emit(
                "run_start",
                schema_version=TRACE_SCHEMA_VERSION,
                system=system,
                workload=workload,
                n_tiers=n_tiers,
                quantum_ms=self._quantum_ms,
                migration_limit_bytes=int(self._migration_limit_bytes),
                **run_start,
            )

    # -- introspection ----------------------------------------------------

    @property
    def tenant_names(self) -> List[str]:
        """Tenant names in declaration (and solve) order."""
        return [t.name for t in self._tenants]

    @property
    def tenant_metrics(self) -> Dict[str, MetricsRecorder]:
        """Per-tenant metrics recorders, keyed by tenant name."""
        return {t.name: t.metrics for t in self._tenants}

    @property
    def tenant_placements(self) -> Dict[str, PlacementState]:
        """Per-tenant placements, keyed by tenant name."""
        return {t.name: t.placement for t in self._tenants}

    @property
    def tenant_systems(self) -> Dict[str, TieringSystem]:
        """Per-tenant tiering systems, keyed by tenant name."""
        return {t.name: t.spec.system for t in self._tenants}

    @property
    def tenant_grants(self) -> Dict[str, tuple]:
        """Per-tier byte grants (each tenant's placement capacities),
        keyed by tenant name."""
        return {t.name: tuple(t.placement.capacity_bytes(i)
                              for i in range(len(self._capacities)))
                for t in self._tenants}

    # -- per-quantum cycle ------------------------------------------------

    def _audit_evaluate(self, index: int, apps, antagonist,
                        tenant: _Tenant):
        """Misplacement-audit callback for one tenant.

        Varies only tenant ``index``'s split while holding every other
        tenant's current split (and the antagonist) fixed — the audit
        asks "given everybody else's behavior this quantum, where should
        *this* tenant's pages sit?". Solved on the private audit solver
        with per-tenant warm-start chaining; the loop's solver, cache,
        and warm latencies are never touched.
        """
        solver = self._audit_solver

        def evaluate(p: float):
            probe = [
                (group, [p, 1.0 - p] if j == index else split)
                for j, (group, split) in enumerate(apps)
            ]
            eq = _solve_apps(
                solver, probe, pinned=[(antagonist, 0)],
                initial_latencies=tenant.audit_warm,
            )
            tenant.audit_warm = eq.latencies_ns
            return eq.latencies_ns, eq.apps[index].read_rate

        return evaluate

    def step(self) -> QuantumRecord:
        """Advance every tenant by one quantum; returns the aggregate."""
        t = self.time_s
        tracer = self.tracer
        profiler = self.profiler
        counters = self.counters
        tenants = self._tenants
        metered = METRICS.enabled
        if metered:
            wall_start = perf_counter_ns()
        if tracer.enabled:
            tracer.time_s = t
        profiler.start()

        # 1. Advance workloads and the antagonist schedule.
        tenant_probs = []
        tenant_splits = []
        tenant_shifted = []
        for tenant in tenants:
            shifted = bool(tenant.spec.workload.advance(t))
            if shifted:
                # GUPS reshuffles its hot set in place: the probability
                # array is the same object with new contents.
                tenant.forget_distribution()
                # Dynamic workloads report hot-set reshuffles; the event
                # is what lets repro.obs.diagnose segment the run into
                # epochs and judge per-epoch (re)convergence.
                if tracer.enabled:
                    self._epoch += 1
                    tenant.tracer.emit("workload_shift", epoch=self._epoch)
            probs = tenant.spec.workload.access_probabilities()
            split = tenant.tier_split(probs)
            # Hardware-managed systems (memory mode) steer traffic
            # without moving pages; they publish the split they produce.
            override_fn = getattr(tenant.spec.system,
                                  "traffic_split_override", None)
            if override_fn is not None:
                override = override_fn()
                if override is not None:
                    split = override
            tenant_probs.append(probs)
            tenant_splits.append(split)
            tenant_shifted.append(shifted)
        intensity = coerce_intensity(self._contention(t), time_s=t)
        if intensity != self._last_intensity:
            self._antagonist = antagonist_core_group(
                intensity, self.machine.antagonist)
            previous = self._last_intensity
            self._last_intensity = intensity
            if previous is not None and tracer.enabled:
                self._epoch += 1
                tracer.emit(
                    "contention_change",
                    intensity=intensity,
                    previous=previous,
                    epoch=self._epoch,
                )
        antagonist = self._antagonist
        dt_workload = profiler.lap("workload_advance")

        # 2. One shared solve over every tenant's demand plus the summed
        # migration traffic (tenant order keeps the sum deterministic).
        combined_traffic = None
        tenant_charged = []
        for tenant in tenants:
            traffic, charged = tenant.drain_copy_debt(
                self._migration_limit_bytes, self.quantum_ns)
            tenant_charged.append(charged)
            if combined_traffic is None:
                combined_traffic = traffic
            elif traffic is not None:
                for tier, classes in enumerate(traffic):
                    combined_traffic[tier].extend(classes)
        apps = [(tenant.app_core_group(), split)
                for tenant, split in zip(tenants, tenant_splits)]
        equilibrium = _solve_apps(
            self.solver, apps,
            pinned=[(antagonist, 0)],
            extra_traffic=combined_traffic,
            initial_latencies=self._warm_latencies,
        )
        self._warm_latencies = equilibrium.latencies_ns
        for tenant, app_eq in zip(tenants, equilibrium.apps):
            tenant.cha.observe(equilibrium, self.quantum_ns)
            tenant.mbm.observe_rates(app_eq.tier_read_rate, self.quantum_ns)
        if self.checker.enabled:
            self.checker.check_equilibrium(
                t, equilibrium.latencies_ns, equilibrium.total_read_rate,
                equilibrium.measured_p,
            )
            if self.solver.last_was_cache_hit:
                self.checker.check_solver_cache(
                    t, self.solver.last_hit_residual
                )
        dt_solve = profiler.lap("equilibrium_solve")
        if tracer.enabled:
            tracer.emit(
                "solver_converged",
                iterations=equilibrium.iterations,
                latencies_ns=equilibrium.latencies_ns,
                app_read_rate=equilibrium.total_read_rate,
                measured_p=equilibrium.measured_p,
                cached=self.solver.last_was_cache_hit,
            )
        counters.inc("quanta")
        if self.solver.last_was_cache_hit:
            counters.inc("solver_cache_hits")
        else:
            counters.inc("solver_cache_misses")
            counters.inc("solver_iterations", equilibrium.iterations)
        latencies_ns = equilibrium.latencies_ns + self.machine.cpu_to_cha_ns

        # 3. Per-tenant observe/decide/migrate with tenant-scoped state.
        dt_decide = 0
        dt_migrate = 0
        records = []
        for i, tenant in enumerate(tenants):
            app_eq = equilibrium.apps[i]
            feed = AccessFeed(
                access_probs=tenant_probs[i],
                request_rate=app_eq.read_rate / 64.0,
                quantum_ns=self.quantum_ns,
                rng=tenant.rng,
            )
            ctx = QuantumContext(
                time_s=t,
                quantum_ns=self.quantum_ns,
                placement=tenant.placement,
                cha=tenant.cha.sample_and_reset(),
                mbm=tenant.mbm.sample_and_reset(),
                feed=feed,
                rng=tenant.rng,
                tracer=tenant.tracer,
            )
            decision = tenant.spec.system.quantum(ctx)
            dt_decide += profiler.lap("tiering_decision")
            checker = tenant.checker
            if checker.enabled:
                shift = find_shift_computer(tenant.spec.system)
                if shift is not None:
                    checker.check_shift(t, shift)
                # Snapshot after the decision: systems may legitimately
                # reshape the page table (MEMTIS hugepage splits); only
                # the executor's moves must conserve pages.
                snapshot = checker.placement_snapshot(tenant.placement)
            result = tenant.executor.execute(
                decision.plan, self.quantum_ns, decision.budget_bytes
            )
            if checker.enabled:
                checker.check_migration(
                    t, tenant.placement, result, decision.budget_bytes,
                    snapshot,
                )
                checker.check_placement_flows(
                    t, tenant.placement, result, snapshot
                )
            if result.bytes_moved > 0:
                tenant.add_copy_debt(result)
            dt_migrate += profiler.lap("migration_execute")
            if tenant.placement_obs is not None:
                evaluate = None
                audit_key = None
                if (self._audit_solver is not None
                        and tenant.placement_obs.audit_due()):
                    evaluate = self._audit_evaluate(i, apps, antagonist,
                                                    tenant)
                    # The probe equilibrium holds every *other* tenant's
                    # split fixed; the audited tenant's own split is the
                    # probe variable and must stay out of the key.
                    audit_key = (
                        tuple(
                            (group,
                             None if j == i else tuple(map(float, split)))
                            for j, (group, split) in enumerate(apps)
                        ),
                        antagonist,
                    )
                tenant.placement_obs.observe_quantum(
                    access_probs=tenant_probs[i],
                    placement=tenant.placement,
                    result=result,
                    p_actual=float(tenant_splits[i][0]),
                    evaluate=evaluate,
                    probs_changed=tenant_shifted[i],
                    audit_key=audit_key,
                )
                # Placement observation belongs to no phase.
                profiler.start()

            record = QuantumRecord(
                time_s=t,
                throughput=app_eq.read_rate,
                latencies_ns=latencies_ns,
                p_true=float(tenant_splits[i][0]),
                p_measured=equilibrium.measured_p,
                app_tier_bandwidth=(
                    app_eq.tier_read_rate * apps[i][0].traffic_multiplier()
                ),
                migration_bytes=tenant_charged[i],
                antagonist_intensity=intensity,
            )
            tenant.metrics.record(record)
            records.append(record)
            counters.inc("migrated_bytes", tenant_charged[i])
            counters.inc("moves_applied", result.moves_applied)
            counters.inc("moves_deferred", result.moves_deferred)
            counters.inc("moves_skipped", result.moves_skipped)

        # 4. Cross-tenant conservation: the machine-level invariant.
        if self.checker.enabled:
            self.checker.check_colocation(
                t, self._capacities,
                [(tenant.name, tenant.placement) for tenant in tenants],
            )
        if profiler.enabled and tracer.enabled:
            tracer.emit(
                "phase_timing",
                phases={
                    "workload_advance": dt_workload,
                    "equilibrium_solve": dt_solve,
                    "tiering_decision": dt_decide,
                    "migration_execute": dt_migrate,
                },
            )

        # 5. Aggregate record: summed throughput/bandwidth, shared
        # latencies, demand-weighted true default-tier share. One
        # tenant's record is its own aggregate.
        if len(records) == 1:
            aggregate = records[0]
        else:
            total_rate = sum(r.throughput for r in records)
            if total_rate > 0:
                p_true = sum(r.throughput * r.p_true
                             for r in records) / total_rate
            else:
                p_true = float(np.mean([r.p_true for r in records]))
            aggregate = QuantumRecord(
                time_s=t,
                throughput=total_rate,
                latencies_ns=latencies_ns,
                p_true=p_true,
                p_measured=equilibrium.measured_p,
                app_tier_bandwidth=sum(r.app_tier_bandwidth
                                       for r in records),
                migration_bytes=sum(tenant_charged),
                antagonist_intensity=intensity,
            )
        self.metrics.record(aggregate)
        if metered:
            self._m_quantum_wall.observe(perf_counter_ns() - wall_start)
            for tier, hist in enumerate(self._m_tier_latency):
                hist.observe(float(latencies_ns[tier]))
            self._m_quanta.inc()
            self._m_migrated.inc(aggregate.migration_bytes)
        self.time_s = t + self.quantum_s
        return aggregate

    def run(self, duration_s: float) -> MetricsRecorder:
        """Run for ``duration_s`` of simulated time; returns the
        aggregate metrics."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        n_quanta = int(round(duration_s / self.quantum_s))
        for __ in range(max(1, n_quanta)):
            self.step()
        return self.metrics

    def emit_run_end(self) -> None:
        """Emit the ``run_end`` trace event with the runtime counters.

        Called by drivers when a run is complete (the loop itself never
        knows — ``run``/``step`` can be called repeatedly). No-op with
        a disabled tracer.
        """
        if not self.tracer.enabled:
            return
        self.tracer.time_s = self.time_s
        self.tracer.emit(
            "run_end",
            simulated_s=self.time_s,
            n_quanta=len(self.metrics),
            counters=self.counters.snapshot(),
        )


class SimulationLoop(QuantumLoop):
    """Binds machine, workload, and tiering system into a running sim:
    the one-tenant :class:`QuantumLoop`.

    The tenant draws its access samples from ``seed`` and its CHA noise
    from ``seed + 1``, traces through the raw tracer (no tenant labels),
    and places pages in the machine's full tier capacities, default tier
    first unless ``initial_placement`` (one tier index per page) says
    otherwise. ``workload``, ``system``, ``placement`` and ``executor``
    are the tenant's.
    """

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        system: TieringSystem,
        quantum_ms: float = 10.0,
        contention: ContentionSchedule = 0,
        cha_noise_sigma: float = 0.01,
        migration_limit_bytes: int = DEFAULT_MIGRATION_LIMIT_PER_QUANTUM,
        initial_placement: Optional[np.ndarray] = None,
        seed: int = 1234,
        tracer=None,
        profile: bool = False,
        checker=None,
    ) -> None:
        self._setup(machine, quantum_ms, contention, cha_noise_sigma,
                    migration_limit_bytes, tracer, profile, checker)
        pages = PageArray.uniform(workload.n_pages, workload.page_bytes)
        placement = PlacementState(pages, self._capacities)
        if initial_placement is None:
            fill_default_first(placement)
        else:
            placement_arr = np.asarray(initial_placement, dtype=np.int64)
            if placement_arr.shape != (pages.n_pages,):
                raise ConfigurationError("initial placement length mismatch")
            for tier in range(len(self._capacities)):
                placement.move(np.nonzero(placement_arr == tier)[0], tier)
        tenant = self._add_tenant(
            TenantSpec(name=workload.name, workload=workload,
                       system=system),
            placement, self.tracer, self.checker,
            rng=np.random.default_rng(seed),
            cha_rng=np.random.default_rng(seed + 1),
        )
        self.workload = workload
        self.system = system
        self.placement = placement
        self.executor = tenant.executor
        self._start(system=system.name, workload=workload.name)

    # Bound in this body (not inherited) so per-class instrumentation can
    # wrap each constructor's entry points separately.
    step = QuantumLoop.step
    run = QuantumLoop.run
