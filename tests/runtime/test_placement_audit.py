"""Loop-level placement audit: the audit period, the audited
contention-step acceptance scenario, colocated per-tenant samples, and
that an audited run is bit-identical to a plain one (every observer is
pinned the same way in ``test_observation.py``)."""

import numpy as np
import pytest

from repro.core.integrate import HememColloidSystem
from repro.errors import ConfigurationError
from repro.experiments.common import scaled_machine
from repro.obs.diagnose import diagnose_events
from repro.obs.tracer import Tracer
from repro.options import RunOptions
from repro.runtime.loop import SimulationLoop
from repro.tiering.hemem import HememSystem
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE

#: Audit every 5 quanta (50 ms of simulated time) so short runs still
#: record a gap trajectory.
AUDIT_PERIOD = 5

#: Antagonist steps to intensity 2 at this simulated time.
STEP_S = 1.0


def run_traced(system, duration_s=3.0, contention=None, seed=7,
               audit=AUDIT_PERIOD):
    tracer = Tracer(ring_size=4096)
    loop = SimulationLoop(
        machine=scaled_machine(FAST_SCALE),
        workload=GupsWorkload(scale=FAST_SCALE, seed=seed),
        system=system,
        contention=(contention if contention is not None
                    else (lambda t: 2 if t >= STEP_S else 0)),
        seed=seed,
        tracer=tracer,
        options=RunOptions(check=True, placement_audit=audit),
    )
    metrics = loop.run(duration_s=duration_s)
    loop.emit_run_end()
    return metrics, tracer.events()


def audit_gaps(events, after_s=0.0):
    return [e["gap_balance"] for e in events
            if e.get("type") == "placement_sample"
            and "gap_balance" in e and e["time_s"] >= after_s]


def samples(events):
    return [e for e in events if e.get("type") == "placement_sample"]


class TestObservationNeutrality:
    def test_audited_run_is_bit_identical(self):
        """Enabling the audit must not change a single simulated number."""
        plain, plain_events = run_traced(HememColloidSystem(),
                                         duration_s=1.5, audit=None)
        assert not audit_gaps(plain_events)
        audited, audited_events = run_traced(HememColloidSystem(),
                                             duration_s=1.5)
        assert audit_gaps(audited_events)
        assert np.array_equal(plain.throughput, audited.throughput)
        assert np.array_equal(plain.latencies_ns, audited.latencies_ns)
        assert np.array_equal(plain.migration_bytes,
                              audited.migration_bytes)

    def test_disabled_audit_emits_no_samples(self):
        __, events = run_traced(HememSystem(), duration_s=0.5, audit=None)
        assert not samples(events)


class TestAuditPeriod:
    def test_period_one_audits_every_quantum(self):
        __, events = run_traced(HememColloidSystem(), duration_s=0.3,
                                audit=1)
        every = samples(events)
        assert len(every) == 30
        assert all("gap_balance" in e for e in every)

    def test_period_sets_the_audit_spacing(self):
        __, events = run_traced(HememColloidSystem(), duration_s=0.3,
                                audit=3)
        audited = [i for i, e in enumerate(samples(events))
                   if "gap_balance" in e]
        assert audited == list(range(0, 30, 3))

    @pytest.mark.parametrize("period", [0, -5, 2.5, "10", True])
    def test_invalid_periods_are_rejected(self, period):
        with pytest.raises(ConfigurationError, match="placement-audit"):
            RunOptions(placement_audit=period)


class TestMisplacementAcceptance:
    """The paper's §2–§3 story as one assertion pair: after a contention
    step, Colloid's latency-balance placement closes the gap while the
    packing-driven baseline stays misplaced."""

    def test_colloid_gap_shrinks_hemem_gap_sticks(self):
        __, colloid_events = run_traced(HememColloidSystem())
        __, hemem_events = run_traced(HememSystem())

        colloid_gaps = audit_gaps(colloid_events, after_s=STEP_S)
        hemem_gaps = audit_gaps(hemem_events, after_s=STEP_S)
        assert len(colloid_gaps) >= 10 and len(hemem_gaps) >= 10

        # Both start misplaced right after the step...
        assert colloid_gaps[0] > 0.1
        # ...Colloid converges to the balance placement, HeMem does not.
        assert colloid_gaps[-1] < 0.02
        assert hemem_gaps[-1] > 0.15
        assert max(colloid_gaps[-3:]) < min(hemem_gaps[-3:])

        # The diagnose layer reaches the same verdict: a sticky
        # misplacement-gap finding for hemem, none for hemem+colloid.
        sticky = [f for f in diagnose_events(hemem_events).findings
                  if f.detector == "misplacement-gap"]
        assert sticky and sticky[0].severity in ("warning", "critical")
        clean = [f for f in diagnose_events(colloid_events).findings
                 if f.detector == "misplacement-gap"]
        assert not clean

    def test_occupancy_ledger_tracks_the_migration(self):
        __, events = run_traced(HememColloidSystem())
        samples = [e for e in events
                   if e.get("type") == "placement_sample"]
        assert len(samples) >= 250
        first, last = samples[0], samples[-1]
        # Colloid balances under contention by shifting hot-decile
        # bytes out of the loaded default tier.
        hot_default_first = first["tier_bytes"][0][0]
        hot_default_last = last["tier_bytes"][0][0]
        assert hot_default_last < hot_default_first
        # Ledger bytes always account for the whole working set.
        total = sum(map(sum, first["tier_bytes"]))
        assert total == sum(map(sum, last["tier_bytes"]))
        # Flow matrices picked up actual migrations at some point.
        moved = sum(
            s["flow_bytes"][0][1] + s["flow_bytes"][1][0]
            for s in samples
        )
        assert moved > 0


class TestColocatedAudit:
    def test_per_tenant_samples_and_audits(self):
        from repro.runtime.colocation import ColocatedLoop, TenantSpec

        tracer = Tracer(ring_size=4096)
        machine = scaled_machine(FAST_SCALE)
        tenants = [
            TenantSpec(name="a",
                       workload=GupsWorkload(scale=FAST_SCALE / 2,
                                             seed=3),
                       system=HememColloidSystem()),
            TenantSpec(name="b",
                       workload=GupsWorkload(scale=FAST_SCALE / 2,
                                             seed=4),
                       system=HememSystem()),
        ]
        loop = ColocatedLoop(machine=machine, tenants=tenants,
                             contention=1, seed=5, tracer=tracer,
                             options=RunOptions(
                                 check=True, placement_audit=AUDIT_PERIOD))
        loop.run(duration_s=1.0)
        events = tracer.events()
        by_tenant = {}
        for event in events:
            if event.get("type") != "placement_sample":
                continue
            by_tenant.setdefault(event.get("tenant"), []).append(event)
        assert set(by_tenant) == {"a", "b"}
        for name, samples in by_tenant.items():
            assert len(samples) == 100
            audited = [s for s in samples if "gap_balance" in s]
            assert len(audited) == 20
            for event in audited:
                assert 0.0 <= event["gap_balance"] <= 1.0
