"""The repro.check invariant layer: detection, structure, loop wiring."""

import numpy as np
import pytest

from repro.check import NULL_CHECKER, Checker, InvariantViolation
from repro.check.invariants import find_shift_computer
from repro.core.integrate import HememColloidSystem
from repro.core.shift import ShiftComputer
from repro.errors import ReproError
from repro.obs.report import format_summary
from repro.obs.timeline import build_timeline
from repro.obs.tracer import Tracer
from repro.options import CHECK_ENV_VAR, RunOptions
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState, fill_default_first
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.workloads.gups import GupsWorkload

SCALE = 0.03


def make_loop(options=None, tracer=None, system=None, seed=11):
    from repro.experiments.common import scaled_machine

    return SimulationLoop(
        machine=scaled_machine(SCALE),
        workload=GupsWorkload(scale=SCALE, seed=seed),
        system=system if system is not None else HememColloidSystem(),
        contention=1,
        seed=seed,
        options=options,
        tracer=tracer,
    )


class TestEnablement:
    def test_suite_runs_with_checks_always_on(self):
        # tests/conftest.py sets the check default for the whole suite.
        assert RunOptions.from_env().check

    def test_loop_defaults_to_env_driven_checker(self):
        loop = make_loop()
        assert loop.options.check and loop.checker.enabled

    def test_env_off_means_null_checker(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        assert not RunOptions.from_env().check
        assert make_loop().checker is NULL_CHECKER

    def test_falsey_values_disable(self, monkeypatch):
        for value in ("0", "false", "off", ""):
            monkeypatch.setenv(CHECK_ENV_VAR, value)
            assert not RunOptions.from_env().check

    def test_explicit_checker_wins_over_env(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        assert make_loop(options=RunOptions(check=True)).checker.enabled
        monkeypatch.setenv(CHECK_ENV_VAR, "1")
        assert make_loop(options=RunOptions()).checker is NULL_CHECKER


class TestViolationStructure:
    def test_carries_invariant_time_and_details(self):
        error = InvariantViolation(
            "pages.count_conservation", "a page vanished",
            time_s=1.25, details={"pages_before": 10, "pages_after": 9},
        )
        assert error.invariant == "pages.count_conservation"
        assert error.time_s == 1.25
        assert error.details["pages_after"] == 9
        text = str(error)
        assert "t=1.250s" in text and "a page vanished" in text

    def test_is_a_repro_error(self):
        assert issubclass(InvariantViolation, ReproError)


class TestEquilibriumChecks:
    def test_clean_values_pass(self):
        checker = Checker()
        checker.check_equilibrium(0.0, [100.0, 300.0], 5.0, 0.8)
        assert checker.checks_run == 1
        assert checker.violations == []

    @pytest.mark.parametrize("latencies", [[0.0, 300.0], [-5.0, 300.0],
                                           [float("nan"), 300.0],
                                           [float("inf"), 300.0]])
    def test_unphysical_latency_raises(self, latencies):
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_equilibrium(2.0, latencies, 5.0, 0.8)
        assert excinfo.value.invariant == "memhw.latency_physical"
        assert excinfo.value.time_s == 2.0

    def test_negative_throughput_raises(self):
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_equilibrium(0.0, [100.0], -1.0, 0.5)
        assert excinfo.value.invariant == "memhw.throughput_nonnegative"

    def test_p_out_of_bounds_raises(self):
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_equilibrium(0.0, [100.0], 1.0, 1.5)
        assert excinfo.value.invariant == "memhw.measured_p_bounded"


class TestShiftChecks:
    def test_healthy_bracket_passes(self):
        shift = ShiftComputer()
        shift.compute(0.9, 200.0, 100.0)
        Checker().check_shift(0.0, shift)

    def test_out_of_bounds_watermark_raises(self):
        shift = ShiftComputer()
        shift.p_hi = 1.5
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_shift(0.0, shift)
        assert excinfo.value.invariant == "shift.watermark_bounds"

    def test_crossed_bracket_raises_with_resets_enabled(self):
        shift = ShiftComputer()
        shift.p_lo, shift.p_hi = 0.8, 0.2
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_shift(0.0, shift)
        assert excinfo.value.invariant == "shift.watermark_ordering"

    def test_crossed_bracket_tolerated_without_resets(self):
        # The Figure 4c ablation documents the stuck/crossed bracket as
        # its failure mode; the checker must not flag the ablation.
        shift = ShiftComputer(enable_resets=False)
        shift.p_lo, shift.p_hi = 0.8, 0.2
        Checker().check_shift(0.0, shift)

    def test_find_shift_computer(self):
        loop = make_loop()
        assert find_shift_computer(loop.system) is (
            loop.system.controller.shift
        )
        assert find_shift_computer(HememSystem()) is None


class TestMigrationChecks:
    def make_placement(self, n_pages=8, page_bytes=64,
                       capacities=(256, 512)):
        pages = PageArray.uniform(n_pages, page_bytes)
        placement = PlacementState(pages, list(capacities))
        fill_default_first(placement)
        return placement

    def result(self, bytes_moved=0, applied=0):
        from repro.pages.migration import MigrationResult

        return MigrationResult(
            bytes_moved=bytes_moved, moves_applied=applied,
            moves_skipped=0, moves_deferred=0,
            read_bytes_per_tier=np.zeros(2),
            write_bytes_per_tier=np.zeros(2),
        )

    def test_untouched_placement_passes(self):
        checker = Checker()
        placement = self.make_placement()
        before = checker.placement_snapshot(placement)
        checker.check_migration(0.0, placement, self.result(), None, before)

    def test_vanished_page_detected(self):
        checker = Checker()
        placement = self.make_placement()
        before = checker.placement_snapshot(placement)
        placement.pages.tier[0] = -1  # corrupt behind the accounting
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_migration(0.0, placement, self.result(),
                                    None, before)
        assert excinfo.value.invariant == "pages.count_conservation"

    def test_accounting_drift_detected(self):
        checker = Checker()
        placement = self.make_placement()
        before = checker.placement_snapshot(placement)
        # Teleport a page between tiers without updating _used.
        placement.pages.set_tier(np.array([0]), 1)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_migration(0.0, placement, self.result(),
                                    None, before)
        assert excinfo.value.invariant == "pages.accounting_consistent"

    def test_budget_overrun_detected(self):
        checker = Checker()
        placement = self.make_placement()
        before = checker.placement_snapshot(placement)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_migration(
                0.0, placement, self.result(bytes_moved=4096, applied=1),
                budget_bytes=1024, before=before,
            )
        assert excinfo.value.invariant == "migration.dynamic_limit"


class TestTraceIntegration:
    def test_violation_emits_trace_event_then_raises(self):
        tracer = Tracer()
        checker = Checker(tracer=tracer)
        with pytest.raises(InvariantViolation):
            checker.check_equilibrium(1.0, [-1.0], 1.0, 0.5)
        events = [e for e in tracer.events()
                  if e["type"] == "invariant_violation"]
        assert len(events) == 1
        assert events[0]["invariant"] == "memhw.latency_physical"
        assert checker.violations[0]["message"] == events[0]["message"]

    def test_report_surfaces_violations(self):
        tracer = Tracer()
        checker = Checker(tracer=tracer)
        with pytest.raises(InvariantViolation):
            checker.check_equilibrium(1.0, [-1.0], 1.0, 0.5)
        timeline = build_timeline(tracer.events())
        assert len(timeline.invariant_violations) == 1
        text = format_summary(timeline)
        assert "INVARIANT VIOLATIONS" in text
        assert "memhw.latency_physical" in text

    def test_clean_report_has_no_violation_section(self):
        tracer = Tracer()
        loop = make_loop(tracer=tracer)
        for __ in range(20):
            loop.step()
        timeline = build_timeline(tracer.events())
        assert timeline.invariant_violations == []
        assert "INVARIANT VIOLATIONS" not in format_summary(timeline)


class TestLoopIntegration:
    def test_checked_steady_run_is_clean_and_counts_checks(self):
        loop = make_loop()
        for __ in range(50):
            loop.step()
        assert loop.checker.violations == []
        # equilibrium + shift + migration checks each quantum.
        assert loop.checker.checks_run >= 3 * 50

    def test_baseline_system_checked_without_shift(self):
        loop = make_loop(system=HememSystem())
        for __ in range(30):
            loop.step()
        assert loop.checker.violations == []


class TestSolverCacheChecks:
    def test_small_residual_passes(self):
        checker = Checker()
        checker.check_solver_cache(1.0, 5e-11)
        assert checker.checks_run == 1
        assert checker.violations == []

    def test_none_residual_is_noop(self):
        checker = Checker()
        checker.check_solver_cache(1.0, None)
        assert checker.checks_run == 1
        assert checker.violations == []

    @pytest.mark.parametrize("residual", [1e-3, float("nan"),
                                          float("inf")])
    def test_drifted_cached_equilibrium_raises(self, residual):
        with pytest.raises(InvariantViolation) as excinfo:
            Checker().check_solver_cache(2.0, residual)
        assert excinfo.value.invariant == "memhw.solver_cache_consistent"
        assert excinfo.value.time_s == 2.0

    def test_loop_validates_cache_hits_when_checked(self):
        """A checked loop turns on hit validation in its solver, and
        steady-state cache hits pass the invariant."""
        loop = make_loop()
        assert loop.checker.enabled
        assert loop.solver._validate_cache_hits
        loop.run(duration_s=2.0)
        assert loop.solver.cache_hits > 0
        assert loop.checker.violations == []

    def test_unchecked_loop_skips_hit_validation(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
        loop = make_loop()
        assert not loop.solver._validate_cache_hits


class TestColocationChecks:
    def placements(self, grants, used):
        """Build (name, placement) pairs with given grants and usage."""
        pairs = []
        for i, (grant, usage) in enumerate(zip(grants, used)):
            n_pages = sum(usage) // 100
            pages = PageArray.uniform(n_pages, 100)
            placement = PlacementState(pages, list(grant))
            # Place usage[t] bytes on each tier, pages are 100 B.
            idx = 0
            for tier, byte_count in enumerate(usage):
                n = byte_count // 100
                placement.move(np.arange(idx, idx + n), tier)
                idx += n
            pairs.append((f"t{i}", placement))
        return pairs

    def test_clean_grants_pass(self):
        from repro.check.invariants import Checker

        checker = Checker()
        tenants = self.placements(
            grants=[(500, 500), (500, 1500)],
            used=[(500, 300), (400, 1000)],
        )
        checker.check_colocation(0.0, [1000, 2000], tenants)
        assert checker.checks_run == 1
        assert not checker.violations

    def test_grants_over_capacity_raise(self):
        from repro.check.invariants import Checker

        tenants = self.placements(
            grants=[(800, 500), (500, 500)],  # tier-0 grants: 1300
            used=[(100, 100), (100, 100)],
        )
        with pytest.raises(InvariantViolation,
                           match="grants_within_capacity"):
            Checker().check_colocation(0.0, [1000, 2000], tenants)

    def test_tenant_over_its_grant_raises(self):
        from repro.check.invariants import Checker

        # Build a placement whose capacities exceed its recorded grant
        # by lying about the grant passed to the checker: simplest is a
        # placement using more than the grant the checker sees.
        pages = PageArray.uniform(6, 100)
        placement = PlacementState(pages, [600, 600])
        placement.move(np.arange(6), 0)  # 600 B on tier 0

        class Shrunk:
            """Placement view reporting a smaller grant than is used."""

            def capacity_bytes(self, tier):
                return 500 if tier == 0 else 600

            def used_bytes(self, tier):
                return placement.used_bytes(tier)

        with pytest.raises(InvariantViolation,
                           match="tenant_within_grant"):
            Checker().check_colocation(0.0, [2000, 2000],
                                       [("t0", Shrunk())])

    def test_colocated_loop_runs_machine_checks(self):
        from repro.exec.factories import make_system
        from repro.experiments.common import scaled_machine
        from repro.runtime.colocation import ColocatedLoop, TenantSpec

        half = SCALE / 2.0
        loop = ColocatedLoop(
            machine=scaled_machine(SCALE),
            tenants=[
                TenantSpec(name=f"t{i}",
                           workload=GupsWorkload(scale=half, seed=11 + i),
                           system=make_system("hemem+colloid"))
                for i in range(2)
            ],
            seed=11,
        )
        loop.run(duration_s=0.2)
        assert loop.checker.checks_run > 0
        assert not loop.checker.violations
