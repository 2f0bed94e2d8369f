"""Multi-tenant colocation: N applications sharing one machine.

:class:`ColocatedLoop` builds the N-tenant
:class:`~repro.runtime.loop.QuantumLoop` — the same per-quantum pipeline
a single-app :class:`~repro.runtime.loop.SimulationLoop` runs, with one
shared equilibrium solve over every tenant's demand, so every tenant's
latency reflects everybody's traffic (the paper's contention story with
real co-runners instead of the antagonist). What the constructor adds:

* Each tenant places its pages inside a private
  :class:`~repro.pages.placement.PlacementState` whose per-tier
  capacities are the tenant's grant from the
  :class:`~repro.pages.placement.CapacityArbiter`; migration budgets are
  enforced per tenant by private executors. The machine-level
  ``check_colocation`` invariant closes the loop: grants and placed
  bytes can never over-commit a physical tier.
* All tenant-scoped events are emitted through per-tenant
  :class:`~repro.obs.tracer.TenantTracer` views (and checked by
  per-tenant checkers), so traces are tenant-labeled without any
  controller knowing about colocation.
* Tenant i derives its random streams from ``[seed, i]`` and
  ``[seed + 1, i]``, so adding a tenant never perturbs the others.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.memhw.topology import Machine
from repro.obs.tracer import TenantTracer
from repro.options import RunOptions
from repro.pages.pagestate import PageArray
from repro.pages.placement import (
    CapacityArbiter,
    PlacementState,
    fill_default_first,
)
from repro.runtime.loop import (
    DEFAULT_MIGRATION_LIMIT_PER_QUANTUM,
    ContentionSchedule,
    QuantumLoop,
    TenantSpec,
)


class ColocatedLoop(QuantumLoop):
    """Drives N tenants through the shared per-quantum cycle: the
    N-tenant :class:`~repro.runtime.loop.QuantumLoop`, so drivers such
    as :func:`~repro.runtime.experiment.run_steady_state` run it
    unchanged. Per-tenant series live in :attr:`tenant_metrics`.

    Args:
        machine: The shared machine.
        tenants: Tenant declarations; order is the solve and capacity
            arbitration order and must stay stable for determinism.
        quantum_ms: Runtime quantum.
        contention: Optional antagonist schedule on top of the tenants
            (intensity as int or callable of time; validated like the
            single-app loop's).
        cha_noise_sigma: Lognormal noise on each tenant's CHA samples
            (independent per-tenant realizations of the same machine
            state, seeded from ``seed`` and the tenant index).
        migration_limit_bytes: Static per-quantum migration budget,
            enforced *per tenant* (each tenant has its own executor and
            token bucket, as each real tenant's kernel threads would).
        seed: Base seed; tenant i derives its streams from
            ``[seed, i]`` so adding a tenant never perturbs others.
        tracer: Optional shared tracer; tenant-scoped events are
            labeled via :class:`~repro.obs.tracer.TenantTracer`.
        profile: Enable the phase profiler (phases aggregate across
            tenants).
        options: What the run observes
            (:class:`~repro.options.RunOptions`); None takes the
            environment defaults.
    """

    def __init__(
        self,
        machine: Machine,
        tenants: Sequence[TenantSpec],
        quantum_ms: float = 10.0,
        contention: ContentionSchedule = 0,
        cha_noise_sigma: float = 0.01,
        migration_limit_bytes: int = DEFAULT_MIGRATION_LIMIT_PER_QUANTUM,
        seed: int = 1234,
        tracer=None,
        profile: bool = False,
        options: Optional[RunOptions] = None,
    ) -> None:
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant names must be unique, got {names}"
            )
        systems = [id(spec.system) for spec in tenants]
        if len(set(systems)) != len(systems):
            raise ConfigurationError(
                "tenants must not share tiering-system instances"
            )
        self._setup(machine, quantum_ms, contention, cha_noise_sigma,
                    migration_limit_bytes, tracer, profile, options)

        # Arbitrate the shared capacity once, up front: grants are the
        # tenants' placement capacities for the whole run.
        working_sets = [
            spec.workload.n_pages * spec.workload.page_bytes
            for spec in tenants
        ]
        if any(spec.weight is not None for spec in tenants):
            weights = [
                float(spec.weight) if spec.weight is not None
                else float(ws)
                for spec, ws in zip(tenants, working_sets)
            ]
        else:
            weights = None
        grants = CapacityArbiter(self._capacities).grant(working_sets,
                                                         weights=weights)
        for i, (spec, grant) in enumerate(zip(tenants, grants)):
            tenant_tracer = TenantTracer(self.tracer, spec.name)
            placement = PlacementState(
                PageArray.uniform(spec.workload.n_pages,
                                  spec.workload.page_bytes),
                grant,
            )
            fill_default_first(placement)
            self._add_tenant(
                spec, placement, tenant_tracer,
                rng=np.random.default_rng([seed, i]),
                cha_rng=np.random.default_rng([seed + 1, i]),
            )
        self._start(
            system="colocation",
            workload="+".join(spec.workload.name for spec in tenants),
            tenants=[
                {
                    "tenant": spec.name,
                    "workload": spec.workload.name,
                    "system": spec.system.name,
                }
                for spec in tenants
            ],
        )

    # Bound in this body (not inherited) so per-class instrumentation can
    # wrap each constructor's entry points separately.
    step = QuantumLoop.step
    run = QuantumLoop.run


__all__ = ["ColocatedLoop", "TenantSpec"]
