"""RunSpec value semantics: hashing, round-trips, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.spec import (
    BEST_CASE_SYSTEM,
    MachineSpec,
    RunSpec,
    WorkloadSpec,
    static_contention,
)


def make_spec(**overrides) -> RunSpec:
    kwargs = dict(
        system="hemem",
        workload=WorkloadSpec.make("gups", scale=0.0625, seed=7),
        machine=MachineSpec(scale=0.0625),
        mode="steady",
        contention=static_contention(1),
        seed=7,
        max_duration_s=5.0,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestHashing:
    def test_kwarg_order_does_not_matter(self):
        a = WorkloadSpec.make("gups", scale=0.0625, seed=7, n_cores=5)
        b = WorkloadSpec.make("gups", n_cores=5, seed=7, scale=0.0625)
        assert a == b
        assert (make_spec(workload=a).content_hash()
                == make_spec(workload=b).content_hash())

    def test_equal_specs_hash_equal(self):
        assert make_spec() == make_spec()
        assert make_spec().content_hash() == make_spec().content_hash()

    @pytest.mark.parametrize("change", [
        {"system": "hemem+colloid"},
        {"seed": 8},
        {"contention": static_contention(2)},
        {"max_duration_s": 6.0},
        {"quantum_ms": 20.0},
        {"machine": MachineSpec(scale=0.0625, alt_latency_ratio=2.7)},
        {"system_kwargs": (("delta", 0.05),)},
    ])
    def test_any_field_change_changes_hash(self, change):
        assert make_spec(**change).content_hash() != (
            make_spec().content_hash()
        )

    def test_hash_is_stable_hex_sha256(self):
        digest = make_spec().content_hash()
        assert len(digest) == 64
        int(digest, 16)  # valid hex


class TestRoundTrip:
    def test_dict_round_trip_preserves_identity(self):
        spec = make_spec(
            system_kwargs=(("delta", 0.05), ("epsilon", 0.01)),
            machine=MachineSpec(scale=0.5, default_tier_ws_divisor=3),
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_trace_round_trip(self):
        spec = make_spec(mode="trace", max_duration_s=None,
                         duration_s=12.0,
                         contention=((0.0, 0), (5.0, 3)))
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_workload_with_shifts_round_trips(self):
        w = WorkloadSpec.make("gups", hot_shift_times_s=(9.0,),
                              scale=0.1, seed=3)
        assert WorkloadSpec.from_dict(w.to_dict()) == w


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(mode="warp")

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.make("fortran")

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.make("gups", sizes=[1, 2])

    def test_shifts_only_for_gups(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.make("silo", hot_shift_times_s=(5.0,))

    def test_contention_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            make_spec(contention=((1.0, 3),))

    def test_contention_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            make_spec(contention=((0.0, 0), (9.0, 3), (4.0, 1)))

    def test_steady_needs_duration_cap(self):
        with pytest.raises(ConfigurationError):
            make_spec(max_duration_s=None)

    def test_trace_needs_duration(self):
        with pytest.raises(ConfigurationError):
            make_spec(mode="trace", max_duration_s=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_machine_scale_rejected(self, value):
        with pytest.raises(ConfigurationError):
            MachineSpec(scale=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    @pytest.mark.parametrize("overrides", [
        lambda v: {"min_duration_s": v},
        lambda v: {"max_duration_s": v},
        lambda v: {"mode": "trace", "max_duration_s": None,
                   "duration_s": v},
        lambda v: {"duration_s": v},
        lambda v: {"quantum_ms": v},
    ], ids=["min_duration_s", "max_duration_s", "trace_duration_s",
            "steady_duration_s", "quantum_ms"])
    def test_non_finite_durations_rejected(self, value, overrides):
        with pytest.raises(ConfigurationError):
            make_spec(**overrides(value))

    @pytest.mark.parametrize("overrides", [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"contention": ((0.0, 2.5),)},
        {"contention": ((0.0, -1),)},
        {"contention": ((0.0, 1), (4.0, 2.5))},
        {"min_duration_s": 3.0, "max_duration_s": 2.0},
        {"cha_noise_sigma": -0.1},
        {"migration_limit_bytes": 0},
    ], ids=["seed_negative", "seed_fractional", "seed_bool",
            "contention_fractional", "contention_negative",
            "contention_step_fractional", "min_above_max",
            "cha_noise_negative", "migration_limit_zero"])
    def test_invalid_field_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigurationError):
            make_spec(**overrides)


class TestDerivedViews:
    def test_single_entry_contention_is_plain_int(self):
        assert make_spec().contention_input() == 1

    def test_schedule_becomes_step_function(self):
        level = make_spec(
            contention=((0.0, 0), (10.0, 3))
        ).contention_input()
        assert level(0.0) == 0
        assert level(9.99) == 0
        assert level(10.0) == 3
        assert level(25.0) == 3

    def test_min_duration_floor(self):
        assert make_spec(max_duration_s=30.0).resolved_min_duration_s() == (
            21.0
        )
        assert make_spec(max_duration_s=2.0).resolved_min_duration_s() == (
            3.0
        )
        assert make_spec(min_duration_s=1.5).resolved_min_duration_s() == (
            1.5
        )

    def test_with_seed(self):
        assert make_spec().with_seed(99).seed == 99
        assert make_spec().with_seed(99) != make_spec()

    def test_repeatable_only_for_steady(self):
        assert make_spec().repeatable
        best = make_spec(system=BEST_CASE_SYSTEM, mode="best_case",
                         max_duration_s=None)
        assert not best.repeatable


class TestTenantCellSpec:
    def make_tenant(self, name="a", **overrides):
        from repro.exec.spec import TenantCellSpec

        kwargs = dict(
            workload=WorkloadSpec.make("gups", scale=0.03, seed=1),
            system="hemem+colloid",
        )
        kwargs.update(overrides)
        return TenantCellSpec.make(name, **kwargs)

    def make_colocated(self, tenants=None):
        from repro.exec.spec import COLOCATION_SYSTEM

        if tenants is None:
            tenants = (self.make_tenant("a"),
                       self.make_tenant("b", system="hemem"))
        return make_spec(system=COLOCATION_SYSTEM,
                         tenants=tuple(tenants))

    def test_round_trips(self):
        from repro.exec.spec import TenantCellSpec

        tenant = self.make_tenant(weight=2.0, n_bins=7)
        again = TenantCellSpec.from_dict(tenant.to_dict())
        assert again == tenant

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make_tenant(name="")
        with pytest.raises(ConfigurationError):
            self.make_tenant(system="")
        with pytest.raises(ConfigurationError):
            self.make_tenant(weight=0.0)
        with pytest.raises(ConfigurationError):
            self.make_tenant(weight=-1.0)

    def test_runspec_rejects_duplicate_tenant_names(self):
        with pytest.raises(ConfigurationError, match="unique"):
            self.make_colocated(tenants=(self.make_tenant("a"),
                                         self.make_tenant("a")))

    def test_runspec_rejects_best_case_with_tenants(self):
        with pytest.raises(ConfigurationError, match="best.case"):
            make_spec(system=BEST_CASE_SYSTEM, mode="best_case",
                      max_duration_s=None,
                      tenants=(self.make_tenant("a"),))

    def test_colocated_spec_round_trips(self):
        spec = self.make_colocated()
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_describe_names_tenants(self):
        assert "[a+b]" in self.make_colocated().describe()


class TestTenantHashCompatibility:
    """Colocation must not disturb any pre-existing spec hash: the
    content hash keys the on-disk result cache and the golden
    fixtures."""

    def test_single_tenant_dict_omits_tenants_key(self):
        assert "tenants" not in make_spec().to_dict()

    def test_single_tenant_hash_uses_pre_colocation_schema(self):
        import json

        from repro.exec.spec import _SINGLE_TENANT_SCHEMA_VERSION

        spec = make_spec()
        payload = {
            "schema": _SINGLE_TENANT_SCHEMA_VERSION,
            "spec": spec.to_dict(),
        }
        import hashlib

        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True,
                       separators=(",", ":")).encode()
        ).hexdigest()
        assert spec.content_hash() == expected

    def test_known_single_tenant_hash_is_stable(self):
        # Pinned from the pre-colocation schema: changing it silently
        # invalidates every cached result and golden fixture.
        assert make_spec().content_hash() == (
            "5d66ee38ec8e43147fb372fa97930c33"
            "ad20efc9517aa363e36ba86facf9ea21")

    def test_colocated_spec_hashes_differently(self):
        from repro.exec.spec import COLOCATION_SYSTEM, TenantCellSpec

        tenant = TenantCellSpec.make(
            "a", WorkloadSpec.make("gups", scale=0.03, seed=1), "hemem")
        spec = make_spec(system=COLOCATION_SYSTEM, tenants=(tenant,))
        assert spec.content_hash() != make_spec().content_hash()
        assert "tenants" in spec.to_dict()
