"""Exec-layer tests for colocated (multi-tenant) specs."""

import pytest

from repro.exec.execute import build_loop, execute_spec
from repro.exec.result import CellResult
from repro.exec.runner import Runner
from repro.exec.spec import (
    COLOCATION_SYSTEM,
    MachineSpec,
    RunSpec,
    TenantCellSpec,
    WorkloadSpec,
    static_contention,
)

SCALE = 0.03


def colocated_spec(**overrides) -> RunSpec:
    half = SCALE / 2.0
    kwargs = dict(
        system=COLOCATION_SYSTEM,
        workload=WorkloadSpec.make("gups", scale=half, seed=7),
        machine=MachineSpec(scale=SCALE),
        mode="steady",
        contention=static_contention(0),
        seed=7,
        min_duration_s=0.5,
        max_duration_s=1.0,
        tenants=(
            TenantCellSpec.make(
                "a", WorkloadSpec.make("gups", scale=half, seed=7),
                "hemem+colloid"),
            TenantCellSpec.make(
                "b", WorkloadSpec.make("gups", scale=half, seed=8),
                "hemem"),
        ),
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestBuildLoop:
    def test_tenant_spec_builds_colocated_loop(self):
        from repro.runtime.colocation import ColocatedLoop

        loop = build_loop(colocated_spec())
        assert isinstance(loop, ColocatedLoop)
        assert loop.tenant_names == ["a", "b"]
        assert loop.tenant_systems["a"].name == "hemem+colloid"
        assert loop.tenant_systems["b"].name == "hemem"

    def test_single_tenant_spec_builds_simulation_loop(self):
        from repro.runtime.loop import SimulationLoop

        spec = colocated_spec(system="hemem", tenants=())
        assert isinstance(build_loop(spec), SimulationLoop)


class TestExecuteColocated:
    def test_result_carries_tenant_payload(self):
        result = execute_spec(colocated_spec())
        assert result.tenants is not None
        assert set(result.tenants) == {"a", "b"}
        for payload in result.tenants.values():
            assert payload["throughput"] > 0
            assert len(payload["tail_latencies_ns"]) == 2
            assert 0.0 <= payload["tail_default_share"] <= 1.0
            assert payload["migration_bytes_total"] >= 0
        # Tenant-prefixed CPU-work attribution.
        assert any(key.startswith("a.") for key in result.cpu_work)
        assert any(key.startswith("b.") for key in result.cpu_work)

    def test_result_roundtrips_with_tenants(self):
        result = execute_spec(colocated_spec())
        again = CellResult.from_dict(result.to_dict())
        assert again == result

    def test_single_tenant_result_has_no_tenants_key(self):
        spec = colocated_spec(system="hemem", tenants=())
        result = execute_spec(spec)
        assert result.tenants is None
        assert "tenants" not in result.to_dict()
        assert result.cpu_work
        assert not any("." in key for key in result.cpu_work)

    def test_execution_is_deterministic(self):
        a = execute_spec(colocated_spec())
        b = execute_spec(colocated_spec())
        assert a == b


class TestRunnerAggregation:
    def test_aggregated_cell_merges_tenant_payloads(self):
        runner = Runner()
        grid = runner.run_grid({"cell": colocated_spec()}, n_runs=2)
        cell = grid["cell"]
        assert len(cell.runs) == 2
        tenants = cell.tenants
        assert set(tenants) == {"a", "b"}
        expected = sum(
            run.tenants["a"]["throughput"] for run in cell.runs
        ) / len(cell.runs)
        assert tenants["a"]["throughput"] == pytest.approx(expected)

    def test_single_tenant_cells_have_no_tenants(self):
        runner = Runner()
        spec = colocated_spec(system="hemem", tenants=())
        grid = runner.run_grid({"cell": spec}, n_runs=1)
        assert grid["cell"].tenants is None
