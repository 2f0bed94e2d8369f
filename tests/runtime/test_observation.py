"""Observation never perturbs: one test over every way to watch a run.

Each option a run can be observed with — invariant checks,
diagnostics, the placement audit, a tracer (with its ``run_end``
counters) and the phase profiler — runs the same one-tenant and
two-tenant loops as the all-off run, and every
:class:`~repro.runtime.metrics.QuantumRecord` field, of the aggregate
and of each tenant, must be equal bit for bit. The loops carry a Silo
(Zipfian) tenant under Colloid through a contention step: unlike GUPS's
uniform hot set, which pages a sample picks shows in the records, so an
observer that so much as draws from a tenant's random stream fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.factories import make_system
from repro.experiments.common import scaled_machine
from repro.obs.diagnose import diagnose_events
from repro.obs.tracer import Tracer
from repro.options import RunOptions
from repro.runtime.colocation import ColocatedLoop, TenantSpec
from repro.runtime.loop import SimulationLoop
from repro.workloads.gups import GupsWorkload
from repro.workloads.silo import SiloYcsbWorkload
from tests.conftest import FAST_SCALE

N_QUANTA = 120

#: QuantumRecord fields, in declaration order.
FIELDS = ("time_s", "throughput", "latencies_ns", "p_true", "p_measured",
          "app_tier_bandwidth", "migration_bytes", "antagonist_intensity")


def _step_contention(t: float) -> int:
    return 0 if t < 0.6 else 3


def _one_tenant(**kwargs):
    return SimulationLoop(
        machine=scaled_machine(FAST_SCALE),
        workload=SiloYcsbWorkload(scale=FAST_SCALE, seed=5),
        system=make_system("hemem+colloid"),
        contention=_step_contention, seed=5, **kwargs,
    )


def _two_tenants(**kwargs):
    half = FAST_SCALE / 2
    tenants = [
        TenantSpec(name="gups", workload=GupsWorkload(scale=half, seed=5),
                   system=make_system("hemem+colloid")),
        TenantSpec(name="silo",
                   workload=SiloYcsbWorkload(scale=half, seed=6),
                   system=make_system("hemem+colloid")),
    ]
    return ColocatedLoop(machine=scaled_machine(FAST_SCALE),
                         tenants=tenants, contention=_step_contention,
                         seed=5, **kwargs)


LOOPS = {"one-tenant": _one_tenant, "two-tenant": _two_tenants}

#: Observation -> (options, traced, profiled).
OBSERVATIONS = {
    "check": (RunOptions(check=True), False, False),
    "diagnose": (RunOptions(diagnose=True), True, False),
    "placement_audit": (RunOptions(placement_audit=1), True, False),
    "tracer": (RunOptions(), True, False),
    "profile": (RunOptions(), False, True),
}


def run(build, options, traced=False, profiled=False):
    """Step ``N_QUANTA`` quanta; returns every recorder's records."""
    tracer = Tracer(ring_size=N_QUANTA * 64) if traced else None
    loop = build(options=options, tracer=tracer, profile=profiled)
    for __ in range(N_QUANTA):
        loop.step()
    loop.emit_run_end()
    if traced:
        check_run_end(tracer, loop.metrics.records)
    if options.diagnose:
        diagnose_events(tracer.events())
    if options.placement_audit is not None:
        assert any(e.get("type") == "placement_sample"
                   for e in tracer.events())
    return [loop.metrics.records] + [
        m.records for m in loop.tenant_metrics.values()]


def check_run_end(tracer, records):
    """The ``run_end`` counters agree with the run's own records: one
    solve per quantum, and the migration bytes the records charged."""
    [end] = [e for e in tracer.events() if e.get("type") == "run_end"]
    counters = end["counters"]
    assert end["n_quanta"] == counters["quanta"] == N_QUANTA
    assert (counters.get("solver_cache_hits", 0)
            + counters.get("solver_cache_misses", 0)) == N_QUANTA
    assert counters.get("migrated_bytes", 0) == sum(
        r.migration_bytes for r in records)


@pytest.fixture(scope="module")
def plain():
    """The all-off run of each loop, computed once."""
    return {name: run(build, RunOptions()) for name, build in LOOPS.items()}


@pytest.mark.parametrize("loop_name", sorted(LOOPS))
@pytest.mark.parametrize("observation", sorted(OBSERVATIONS))
def test_observation_never_perturbs(observation, loop_name, plain):
    options, traced, profiled = OBSERVATIONS[observation]
    observed = run(LOOPS[loop_name], options, traced, profiled)
    expected = plain[loop_name]
    assert len(observed) == len(expected)
    for got, want in zip(observed, expected):
        assert len(got) == len(want) == N_QUANTA
        for name in FIELDS:
            np.testing.assert_array_equal(
                np.array([getattr(r, name) for r in got]),
                np.array([getattr(r, name) for r in want]),
                err_msg=f"{observation} changed {name}",
            )
