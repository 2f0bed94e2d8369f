"""Tests for Algorithm 2 (ComputeShift) — exact semantics and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shift import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ShiftComputer,
    trace_shift,
)
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer


def events_of(tracer, kind):
    """The tracer's ring events of one kind, oldest first."""
    return [e for e in tracer.events() if e["type"] == kind]


class TestAlgorithmSemantics:
    def test_paper_defaults(self):
        shift = ShiftComputer()
        assert shift.delta == DEFAULT_DELTA == 0.05
        assert shift.epsilon == DEFAULT_EPSILON == 0.01

    def test_initial_watermarks(self):
        shift = ShiftComputer()
        assert shift.p_lo == 0.0
        assert shift.p_hi == 1.0

    def test_dead_band_returns_zero(self):
        """Line 2: |L_D - L_A| < delta * L_D -> no shift."""
        shift = ShiftComputer(delta=0.05)
        assert shift.compute(0.5, 100.0, 103.0) == 0.0
        # Watermarks untouched inside the dead band.
        assert shift.p_lo == 0.0 and shift.p_hi == 1.0

    def test_default_faster_raises_lower_watermark(self):
        """Line 4, L_D < L_A branch: p_lo <- p."""
        shift = ShiftComputer()
        dp = shift.compute(0.4, 100.0, 200.0)
        assert shift.p_lo == 0.4
        assert shift.p_hi == 1.0
        # Shift toward midpoint (0.4+1)/2 = 0.7.
        assert dp == pytest.approx(0.3)

    def test_default_slower_lowers_upper_watermark(self):
        """Line 4, L_D > L_A branch: p_hi <- p."""
        shift = ShiftComputer()
        dp = shift.compute(0.8, 300.0, 150.0)
        assert shift.p_hi == 0.8
        assert shift.p_lo == 0.0
        assert dp == pytest.approx(abs(0.4 - 0.8))

    def test_reset_high_watermark_when_collapsed(self):
        """Lines 5-6: collapsed bracket + default still faster -> p_hi=1."""
        shift = ShiftComputer(epsilon=0.05)
        shift.p_lo, shift.p_hi = 0.60, 0.62
        shift.compute(0.61, 100.0, 200.0)
        assert shift.p_hi == 1.0
        assert shift.resets == 1

    def test_reset_low_watermark_when_collapsed(self):
        shift = ShiftComputer(epsilon=0.05)
        shift.p_lo, shift.p_hi = 0.60, 0.62
        shift.compute(0.61, 300.0, 100.0)
        assert shift.p_lo == 0.0
        assert shift.resets == 1

    def test_target_is_midpoint(self):
        shift = ShiftComputer()
        shift.p_lo, shift.p_hi = 0.2, 0.6
        assert shift.target_p() == pytest.approx(0.4)

    def test_manual_reset(self):
        shift = ShiftComputer()
        shift.compute(0.5, 100.0, 200.0)
        shift.reset()
        assert shift.p_lo == 0.0 and shift.p_hi == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShiftComputer(delta=0.0)
        with pytest.raises(ConfigurationError):
            ShiftComputer(epsilon=1.0)

    def test_rejects_bad_inputs(self):
        shift = ShiftComputer()
        with pytest.raises(ConfigurationError):
            shift.compute(1.5, 100.0, 200.0)
        with pytest.raises(ConfigurationError):
            shift.compute(0.5, -1.0, 200.0)


class TestShiftTracing:
    def test_reset_side_recorded(self):
        shift = ShiftComputer(epsilon=0.05)
        shift.p_lo, shift.p_hi = 0.60, 0.62
        shift.compute(0.61, 100.0, 200.0)
        assert shift.last_reset_side == "hi"
        shift.compute(0.61, 103.0, 100.0)  # dead band: no reset
        assert shift.last_reset_side is None

    def test_trace_shift_emits_init_once(self):
        tracer = Tracer()
        shift = ShiftComputer()
        for __ in range(3):
            dp = shift.compute(0.5, 100.0, 200.0)
            trace_shift(tracer, shift, 0.5, dp, 100.0, 200.0)
        resets = events_of(tracer, "watermark_reset")
        assert len(resets) == 1
        assert resets[0]["side"] == "init"
        assert len(events_of(tracer, "compute_shift")) == 3

    def test_trace_shift_emits_dynamic_reset(self):
        tracer = Tracer()
        shift = ShiftComputer(epsilon=0.05)
        shift.init_traced = True  # skip the init announcement
        shift.p_lo, shift.p_hi = 0.60, 0.62
        dp = shift.compute(0.61, 300.0, 100.0)
        trace_shift(tracer, shift, 0.61, dp, 300.0, 100.0)
        (reset,) = events_of(tracer, "watermark_reset")
        assert reset["side"] == "lo"
        assert reset["resets"] == 1
        (event,) = events_of(tracer, "compute_shift")
        assert event["p_lo"] == 0.0
        assert event["dp"] == pytest.approx(dp)

    def test_manual_reset_reannounces_init(self):
        tracer = Tracer()
        shift = ShiftComputer()
        dp = shift.compute(0.5, 100.0, 200.0)
        trace_shift(tracer, shift, 0.5, dp, 100.0, 200.0)
        shift.reset()
        dp = shift.compute(0.5, 100.0, 200.0)
        trace_shift(tracer, shift, 0.5, dp, 100.0, 200.0)
        sides = [e["side"] for e in events_of(tracer, "watermark_reset")]
        assert sides == ["init", "init"]


def converge(shift: ShiftComputer, p_star: float, p0: float,
             quanta: int = 100) -> float:
    """Drive the computer against a toy latency model crossing at p_star."""
    p = p0
    for __ in range(quanta):
        l_d = 150.0 + 300.0 * (p - p_star)
        l_a = 150.0 - 60.0 * (p - p_star)
        dp = shift.compute(p, max(l_d, 1.0), max(l_a, 1.0))
        if dp > 0:
            direction = 1.0 if l_d < l_a else -1.0
            p = float(np.clip(p + direction * dp, 0.0, 1.0))
    return p


class TestConvergence:
    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_converges_to_equilibrium_from_anywhere(self, p_star, p0):
        """Figure 4(a): static workloads converge to p*."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        p = converge(shift, p_star, p0)
        assert p == pytest.approx(p_star, abs=0.08)

    def test_bracket_contains_p_throughout(self):
        """Invariant: p_lo <= p <= p_hi at every quantum (static case)."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        p, p_star = 0.95, 0.4
        for __ in range(60):
            l_d = 150.0 + 300.0 * (p - p_star)
            l_a = 150.0 - 60.0 * (p - p_star)
            dp = shift.compute(p, max(l_d, 1.0), max(l_a, 1.0))
            assert shift.p_lo - 1e-9 <= p <= shift.p_hi + 1e-9
            if dp > 0:
                direction = 1.0 if l_d < l_a else -1.0
                p = float(np.clip(p + direction * dp, 0.0, 1.0))

    def test_recovers_from_p_jump(self):
        """Figure 4(b): a jump in p is absorbed without a reset."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        p = converge(shift, 0.5, 0.9, quanta=40)
        p = converge(shift, 0.5, 0.05, quanta=60)  # p jumped to 0.05
        assert p == pytest.approx(0.5, abs=0.08)

    def test_recovers_from_p_star_jump_via_reset(self):
        """Figure 4(c): a jump in p* triggers a watermark reset."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        p = converge(shift, 0.3, 0.9, quanta=60)
        assert p == pytest.approx(0.3, abs=0.08)
        resets_before = shift.resets
        p = converge(shift, 0.8, p, quanta=120)
        assert shift.resets > resets_before
        assert p == pytest.approx(0.8, abs=0.08)

    def test_converges_to_boundary_when_no_interior_equilibrium(self):
        """If L_D < L_A even at p=1, Colloid should pack everything
        (the existing-systems behaviour, §3.2)."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        p = 0.3
        for __ in range(80):
            dp = shift.compute(p, 100.0, 250.0)  # default always faster
            p = float(np.clip(p + dp, 0.0, 1.0))
        assert p > 0.97

    def test_disabled_resets_miss_moved_equilibrium(self):
        """Ablation flag: without resets, a p* jump outside the bracket
        is never recovered (Figure 4c's failure mode)."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01,
                              enable_resets=False)
        p = converge(shift, 0.3, 0.9, quanta=60)
        p = converge(shift, 0.8, p, quanta=200)
        assert abs(p - 0.8) > 0.2
        assert shift.resets == 0

    def test_page_hotter_than_every_dp_is_unmovable(self):
        """Documented edge case (EXPERIMENTS.md): Algorithm 2's shift is
        |midpoint - p| <= (1 - p)/2 in promotion mode, so a single page
        carrying more probability than that can never be selected — the
        system stalls below the balance point. Realistic workloads keep
        per-page probabilities far below this threshold."""
        shift = ShiftComputer(delta=0.02, epsilon=0.01)
        giant_page = 0.55   # one page holding 55% of all accesses
        p = 0.2             # giant page currently in the alternate tier
        for __ in range(200):
            l_d, l_a = 100.0, 300.0  # promotion strongly indicated
            dp = shift.compute(p, l_d, l_a)
            # The finder can only move the giant page if dp allows it.
            if dp >= giant_page:
                p = min(1.0, p + giant_page)
            # (Other pages are colder than anything in the default tier,
            # so no other move changes p.)
        assert p == pytest.approx(0.2)  # stuck: dp never reaches 0.55

    def test_epsilon_controls_reset_sensitivity(self):
        """Larger epsilon detects p* changes faster (paper trade-off)."""
        slow = ShiftComputer(delta=0.02, epsilon=0.005)
        fast = ShiftComputer(delta=0.02, epsilon=0.1)
        for shift in (slow, fast):
            converge(shift, 0.3, 0.9, quanta=50)
        quanta_to_reset = {}
        for name, shift in (("slow", slow), ("fast", fast)):
            p = 0.3
            count = 0
            while shift.resets == 0 and count < 200:
                l_d = 150.0 + 300.0 * (p - 0.8)
                l_a = 150.0 - 60.0 * (p - 0.8)
                dp = shift.compute(p, max(l_d, 1.0), max(l_a, 1.0))
                if dp > 0:
                    direction = 1.0 if l_d < l_a else -1.0
                    p = float(np.clip(p + direction * dp, 0.0, 1.0))
                count += 1
            quanta_to_reset[name] = count
        assert quanta_to_reset["fast"] <= quanta_to_reset["slow"]


class TestFindEquilibriumP:
    def test_p_star_balances_latencies(self):
        from repro.core.shift import find_equilibrium_p
        from repro.memhw.antagonist import antagonist_core_group
        from repro.memhw.corestate import CoreGroup
        from repro.memhw.fixedpoint import EquilibriumSolver
        from repro.memhw.topology import paper_testbed

        machine = paper_testbed()
        solver = EquilibriumSolver(machine.tiers)
        app = CoreGroup("app", 15, 7.0, randomness=1.0,
                        read_fraction=0.5)
        ant = antagonist_core_group(1, machine.antagonist)
        p_star = find_equilibrium_p(solver, app, pinned=[(ant, 0)],
                                    tolerance=1e-5)
        assert 0.0 < p_star < 1.0
        eq = solver.solve(app, [p_star, 1.0 - p_star],
                          pinned=[(ant, 0)])
        gap = abs(eq.latencies_ns[0] - eq.latencies_ns[1])
        assert gap < 0.01 * eq.latencies_ns[1]

    def test_heavy_contention_degenerates_to_zero(self):
        from repro.core.shift import find_equilibrium_p
        from repro.memhw.antagonist import antagonist_core_group
        from repro.memhw.corestate import CoreGroup
        from repro.memhw.fixedpoint import EquilibriumSolver
        from repro.memhw.topology import paper_testbed

        machine = paper_testbed()
        solver = EquilibriumSolver(machine.tiers)
        app = CoreGroup("app", 15, 7.0, randomness=1.0,
                        read_fraction=0.5)
        ant = antagonist_core_group(3, machine.antagonist)
        # The antagonist alone makes the default tier slower than the
        # alternate at every split: all traffic belongs off-tier.
        assert find_equilibrium_p(solver, app,
                                  pinned=[(ant, 0)]) == 0.0

    def test_idle_app_degenerates_to_one(self):
        from repro.core.shift import find_equilibrium_p
        from repro.memhw.corestate import CoreGroup
        from repro.memhw.fixedpoint import EquilibriumSolver
        from repro.memhw.topology import paper_testbed

        solver = EquilibriumSolver(paper_testbed().tiers)
        idle = CoreGroup("idle", 0, 7.0)
        # With no traffic at all the default tier (65 ns) is faster at
        # every split, so the balance point is all-default.
        assert find_equilibrium_p(solver, idle) == 1.0

    def test_two_tier_only(self):
        import dataclasses

        from repro.core.shift import find_equilibrium_p
        from repro.memhw.corestate import CoreGroup
        from repro.memhw.fixedpoint import EquilibriumSolver
        from repro.memhw.topology import paper_testbed

        base = paper_testbed()
        third = dataclasses.replace(base.tiers[1], name="third")
        solver = EquilibriumSolver(base.tiers + (third,))
        with pytest.raises(ConfigurationError):
            find_equilibrium_p(solver, CoreGroup("app", 15, 7.0))
