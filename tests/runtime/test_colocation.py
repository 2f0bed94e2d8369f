"""Tests for the multi-tenant colocated loop."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec.factories import make_system
from repro.options import RunOptions
from repro.runtime.colocation import ColocatedLoop, TenantSpec
from repro.runtime.loop import QuantumLoop, SimulationLoop
from repro.tiering.static import StaticPlacementSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE

HALF = FAST_SCALE / 2.0


def make_tenants(systems=("hemem+colloid", "hemem+colloid")):
    return [
        TenantSpec(
            name=f"t{i}",
            workload=GupsWorkload(scale=HALF, seed=4 + i),
            system=make_system(name),
        )
        for i, name in enumerate(systems)
    ]


def make_coloc(small_machine, tenants=None, **kwargs):
    if tenants is None:
        tenants = make_tenants()
    return ColocatedLoop(
        machine=small_machine, tenants=tenants, seed=4, **kwargs
    )


class TestConstruction:
    def test_needs_at_least_one_tenant(self, small_machine):
        with pytest.raises(ConfigurationError, match="at least one"):
            ColocatedLoop(machine=small_machine, tenants=[])

    def test_rejects_duplicate_names(self, small_machine):
        tenants = make_tenants()
        dup = TenantSpec(name="t0", workload=tenants[1].workload,
                         system=tenants[1].system)
        with pytest.raises(ConfigurationError, match="unique"):
            ColocatedLoop(machine=small_machine,
                          tenants=[tenants[0], dup])

    def test_rejects_shared_system_instances(self, small_machine):
        system = make_system("hemem")
        tenants = [
            TenantSpec(name=f"t{i}",
                       workload=GupsWorkload(scale=HALF, seed=4 + i),
                       system=system)
            for i in range(2)
        ]
        with pytest.raises(ConfigurationError, match="share"):
            ColocatedLoop(machine=small_machine, tenants=tenants)

    def test_rejects_bad_quantum(self, small_machine):
        with pytest.raises(ConfigurationError, match="quantum"):
            make_coloc(small_machine, quantum_ms=0)

    def test_grants_cover_working_sets_within_capacity(
            self, small_machine):
        loop = make_coloc(small_machine)
        capacities = [t.capacity_bytes for t in small_machine.tiers]
        grants = loop.tenant_grants
        for tier in range(len(capacities)):
            assert (sum(g[tier] for g in grants.values())
                    <= capacities[tier])
        for tenant in loop._tenants:
            workload = tenant.spec.workload
            assert (sum(grants[tenant.name])
                    >= workload.n_pages * workload.page_bytes)


class TestStep:
    def test_aggregate_record_and_per_tenant_series(self, small_machine):
        loop = make_coloc(small_machine)
        record = loop.step()
        assert record.time_s == 0.0
        assert record.throughput > 0
        assert len(loop.metrics) == 1
        assert set(loop.tenant_metrics) == {"t0", "t1"}
        for metrics in loop.tenant_metrics.values():
            assert len(metrics) == 1
            assert metrics.throughput[0] > 0

    def test_aggregate_throughput_sums_tenants(self, small_machine):
        loop = make_coloc(small_machine)
        loop.run(duration_s=0.2)
        total = loop.metrics.throughput
        parts = sum(m.throughput for m in loop.tenant_metrics.values())
        np.testing.assert_allclose(total, parts, rtol=1e-9)

    def test_tenants_share_one_equilibrium(self, small_machine):
        loop = make_coloc(small_machine)
        loop.run(duration_s=0.1)
        # CPU-observed latencies differ per tenant (each has its own
        # noise stream) but track the same machine state.
        series = [m.latencies_ns for m in loop.tenant_metrics.values()]
        np.testing.assert_allclose(series[0], series[1], rtol=0.2)

    def test_migrations_touch_only_own_pages(self, small_machine):
        loop = make_coloc(small_machine)
        loop.run(duration_s=0.5)
        for tenant in loop._tenants:
            n_pages = tenant.spec.workload.n_pages
            assert len(tenant.placement.pages.tier) == n_pages

    def test_contention_drops_aggregate_throughput(self, small_machine):
        quiet = make_coloc(small_machine).run(0.2)
        loud = make_coloc(small_machine, contention=3).run(0.2)
        assert loud.throughput.mean() < quiet.throughput.mean()


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, small_machine):
        a = make_coloc(small_machine).run(0.3)
        b = make_coloc(small_machine).run(0.3)
        np.testing.assert_array_equal(a.throughput, b.throughput)
        np.testing.assert_array_equal(a.latencies_ns, b.latencies_ns)

    def test_tenant_streams_decorrelated_from_seed(self, small_machine):
        a = make_coloc(small_machine, contention=2).run(0.5)
        b = ColocatedLoop(machine=small_machine, tenants=make_tenants(),
                          seed=5, contention=2).run(0.5)
        assert not np.array_equal(a.throughput, b.throughput)


class TestDuckCompatibility:
    def test_run_steady_state_drives_colocated_loop(self, small_machine):
        from repro.runtime.experiment import run_steady_state

        result = run_steady_state(make_coloc(small_machine),
                                  min_duration_s=0.2, max_duration_s=1.0)
        assert result.throughput > 0
        assert result.duration_s <= 1.0

    def test_introspection_properties(self, small_machine):
        loop = make_coloc(small_machine, tenants=make_tenants(
            ("hemem", "hemem+colloid")))
        assert loop.tenant_names == ["t0", "t1"]
        assert loop.tenant_systems["t0"].name == "hemem"
        assert set(loop.tenant_placements) == {"t0", "t1"}


class TestContentionValidation:
    """Contention-schedule returns are hostile input (satellite:
    validated on both loops)."""

    @pytest.mark.parametrize("bad", [None, -1, 1.5, float("nan"),
                                     float("inf"), "x"])
    def test_colocated_loop_rejects_bad_callable_return(
            self, small_machine, bad):
        loop = make_coloc(small_machine, contention=lambda t: bad)
        with pytest.raises(ConfigurationError, match="contention"):
            loop.step()

    @pytest.mark.parametrize("bad", [None, -1, 1.5, float("nan"),
                                     float("inf"), "x"])
    def test_simulation_loop_rejects_bad_callable_return(
            self, small_machine, bad):
        loop = SimulationLoop(
            machine=small_machine,
            workload=GupsWorkload(scale=FAST_SCALE, seed=4),
            system=StaticPlacementSystem(),
            contention=lambda t: bad,
            seed=4,
        )
        with pytest.raises(ConfigurationError, match="contention"):
            loop.step()

    def test_bad_constant_rejected_at_construction(self, small_machine):
        with pytest.raises(ConfigurationError, match="contention"):
            make_coloc(small_machine, contention=-2)

    def test_integral_float_return_accepted(self, small_machine):
        loop = make_coloc(small_machine, contention=lambda t: 2.0)
        record = loop.step()
        assert record.antagonist_intensity == 2


class TestOnePipeline:
    """Single-app and colocated runs share one per-quantum pipeline."""

    def test_one_tenant_aggregate_is_the_tenant_record(self, small_machine):
        tenants = [TenantSpec(name="solo",
                              workload=GupsWorkload(scale=FAST_SCALE,
                                                    seed=4),
                              system=make_system("hemem+colloid"))]
        loop = make_coloc(small_machine, tenants=tenants, contention=2)
        loop.run(0.3)
        solo = loop.tenant_metrics["solo"]
        for name in ("p_true", "throughput", "latencies_ns",
                     "app_tier_bandwidth", "migration_bytes"):
            np.testing.assert_array_equal(getattr(loop.metrics, name),
                                          getattr(solo, name))

    def test_one_tenant_colocated_loop_is_the_simulation_loop(self):
        """With the single-app loop's seed mapping (access samples from
        ``seed``, CHA noise from ``seed + 1``), a one-tenant colocated
        run is the single-app run bit for bit, record for record. The
        colocated solver is driven through ``solve_multi`` and the
        single-app one through ``solve``, so the two entry points are
        pinned to each other along the way."""
        from repro.experiments.common import scaled_machine
        from repro.memhw.fixedpoint import EquilibriumSolver

        seed, n_quanta = 7, 300

        def workload():
            return GupsWorkload(scale=FAST_SCALE, seed=seed)

        single = SimulationLoop(
            machine=scaled_machine(FAST_SCALE), workload=workload(),
            system=make_system("hemem+colloid"), contention=2, seed=seed)
        coloc = ColocatedLoop(
            machine=scaled_machine(FAST_SCALE),
            tenants=[TenantSpec(name="solo", workload=workload(),
                                system=make_system("hemem+colloid"))],
            contention=2, seed=seed)
        tenant = coloc._tenants[0]
        tenant.rng = np.random.default_rng(seed)
        tenant.cha._rng = np.random.default_rng(seed + 1)
        solver = coloc.solver
        multi_calls = [0]

        def solve_as_multi(app, split, **inputs):
            multi_calls[0] += 1
            return EquilibriumSolver.solve_multi(solver, [(app, split)],
                                                 **inputs)

        solver.solve = solve_as_multi
        migrated = 0
        for __ in range(n_quanta):
            expected = single.step()
            got = coloc.step()
            for field in dataclasses.fields(expected):
                np.testing.assert_array_equal(
                    getattr(got, field.name), getattr(expected, field.name),
                    err_msg=f"{field.name} at t={expected.time_s}")
                assert (np.asarray(getattr(got, field.name)).tobytes()
                        == np.asarray(getattr(expected,
                                              field.name)).tobytes())
            migrated += expected.migration_bytes
        assert multi_calls[0] == n_quanta
        assert migrated > 100 * 2**20  # the placement really moved
        for counter in ("cache_hits", "cache_misses"):
            assert (getattr(solver, counter)
                    == getattr(single.solver, counter))

    def test_colocated_metrics_record_quantum_histograms(
            self, small_machine):
        from repro.obs.metrics import METRICS

        saved = (METRICS._counters, METRICS._gauges, METRICS._histograms)
        METRICS._counters = {}
        METRICS._gauges = {}
        METRICS._histograms = {}
        try:
            make_coloc(small_machine,
                       options=RunOptions(metrics=True)).run(0.05)
            snapshot = METRICS.snapshot()
        finally:
            METRICS._counters, METRICS._gauges, METRICS._histograms = saved
        histograms = snapshot.histograms
        assert histograms["repro_quantum_wall_ns"]["count"] == 5
        for tier in range(len(small_machine.tiers)):
            name = f"repro_tier{tier}_loaded_latency_ns"
            assert histograms[name]["count"] == 5
        assert snapshot.counters["repro_quanta_total"] == 5

    @pytest.mark.parametrize("cls", [SimulationLoop, ColocatedLoop])
    def test_entry_points_bound_in_each_class_body(self, cls):
        # Per-class instrumentation wraps these by name; an inherited
        # binding would be missing from the class dict.
        for name in ("step", "run"):
            assert cls.__dict__[name] is QuantumLoop.__dict__[name]

    def test_single_app_loop_exposes_its_one_tenant(self, small_machine):
        workload = GupsWorkload(scale=FAST_SCALE, seed=4)
        system = make_system("hemem")
        loop = SimulationLoop(machine=small_machine, workload=workload,
                              system=system, seed=4)
        loop.run(0.05)
        assert loop.tenant_systems == {workload.name: system}
        assert loop.tenant_placements == {workload.name: loop.placement}
        assert loop.tenant_grants[workload.name] == tuple(
            t.capacity_bytes for t in small_machine.tiers)
        np.testing.assert_array_equal(
            loop.tenant_metrics[workload.name].p_true, loop.metrics.p_true)
