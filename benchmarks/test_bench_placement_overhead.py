"""Overhead guard for the placement audit.

The placement observability layer promises that an audited run costs at
most 10% more wall time per step than the same traced run without it.
The steady-state design that makes this hold:

- the occupancy ledger reuses its arrays across quanta where no page
  moved or resized (``PageArray.version``) and its hotness deciles
  across quanta where the workload distribution did not shift;
- the misplacement audit's bisection probes a deterministic grid, so
  the private solver's memoization absorbs repeat audits within a
  contention regime, and a whole-audit memo skips even the cache-hit
  solves when nothing about the equilibrium changed.

Measurement protocol: the plain and audited loops advance in short
alternating chunks so host-load drift hits both sides equally, the
warmup runs past the colloid convergence transient (the audit pays its
one-time cold solves there, bounded by the regime count rather than
per-step), and the collector is disabled inside the timed region as
pytest-benchmark does — the guard bounds the code's cost, not allocator
heuristics. The solver-work test pins the memoization behavior the
timing relies on, so a cache regression fails deterministically instead
of flaking the timing assertion.
"""

from __future__ import annotations

import gc
from time import perf_counter

from repro.core.integrate import HememColloidSystem
from repro.experiments.common import scaled_machine
from repro.obs.tracer import Tracer
from repro.options import RunOptions
from repro.runtime.loop import SimulationLoop
from repro.runtime.observers import PlacementAudit
from repro.workloads.gups import GupsWorkload

#: The ISSUE's budget: audited-run overhead versus the same traced run.
MAX_AUDIT_OVERHEAD_FRACTION = 0.10

_SCALE = 0.03
_AUDIT_PERIOD = 10
#: Past the colloid convergence transient at this scale, so the timed
#: region exercises the steady-state (memoized) audit path.
_WARMUP_STEPS = 120
_CHUNK_STEPS = 10
_CHUNKS = 40


def _make_loop(audit_period: int | None) -> SimulationLoop:
    return SimulationLoop(
        machine=scaled_machine(_SCALE),
        workload=GupsWorkload(scale=_SCALE, seed=21),
        system=HememColloidSystem(),
        contention=1,
        seed=21,
        tracer=Tracer(ring_size=16384),
        options=RunOptions(placement_audit=audit_period),
    )


def _audit(loop: SimulationLoop) -> PlacementAudit | None:
    """The loop's placement-audit observer, if it has one."""
    return next((o for o in loop.observers
                 if isinstance(o, PlacementAudit)), None)


class TestPlacementAuditOverhead:
    def test_audited_run_fits_the_overhead_budget(self):
        plain = _make_loop(None)
        audited = _make_loop(_AUDIT_PERIOD)
        assert _audit(plain) is None
        assert _audit(audited) is not None
        for __ in range(_WARMUP_STEPS):
            plain.step()
            audited.step()
        assert _audit(audited).observers[0].audits_run > 0

        plain_s = audited_s = 0.0
        gc.collect()
        gc.disable()
        try:
            for __ in range(_CHUNKS):
                t0 = perf_counter()
                for __ in range(_CHUNK_STEPS):
                    plain.step()
                t1 = perf_counter()
                for __ in range(_CHUNK_STEPS):
                    audited.step()
                t2 = perf_counter()
                plain_s += t1 - t0
                audited_s += t2 - t1
        finally:
            gc.enable()

        steps = _CHUNKS * _CHUNK_STEPS
        overhead = audited_s / plain_s - 1.0
        assert overhead < MAX_AUDIT_OVERHEAD_FRACTION, (
            f"placement audit costs {overhead:.1%} of a "
            f"{plain_s / steps * 1e6:.0f} us traced step "
            f"(audited: {audited_s / steps * 1e6:.0f} us); budget is "
            f"{MAX_AUDIT_OVERHEAD_FRACTION:.0%}"
        )

    def test_steady_state_audits_do_no_solver_work(self):
        """The memoization contract behind the timing guard: once the
        placement and contention regime are stable, audits reuse the
        previous result and never reach the private solver."""
        loop = _make_loop(_AUDIT_PERIOD)
        for __ in range(_WARMUP_STEPS):
            loop.step()
        audit = _audit(loop)
        solver = audit.solver
        hits = solver.cache_hits
        misses = solver.cache_misses
        audits_before = audit.observers[0].audits_run
        for __ in range(10 * _AUDIT_PERIOD):
            loop.step()
        assert audit.observers[0].audits_run >= audits_before + 10
        assert solver.cache_hits == hits
        assert solver.cache_misses == misses

    def test_steady_state_audits_reuse_their_probe(self, monkeypatch):
        """An audit quantum whose inputs are the objects of the last
        audit reuses its ``evaluate`` callback and memo key: neither is
        rebuilt once the run is steady."""
        built = []
        build = PlacementAudit._evaluate

        def counting(self, index, apps, antagonist):
            built.append(index)
            return build(self, index, apps, antagonist)

        monkeypatch.setattr(PlacementAudit, "_evaluate", counting)
        loop = _make_loop(_AUDIT_PERIOD)
        for __ in range(_WARMUP_STEPS):
            loop.step()
        assert built, "the warmup audits built no probe"
        audit = _audit(loop)
        audits_before = audit.observers[0].audits_run
        built.clear()
        for __ in range(10 * _AUDIT_PERIOD):
            loop.step()
        assert audit.observers[0].audits_run >= audits_before + 10
        assert built == []
