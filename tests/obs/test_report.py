"""Tests for the trace-report subsystem."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.diagnose import diagnose_events
from repro.obs.report import format_summary, report_from_file
from repro.obs.timeline import build_timeline, tenant_names_of, tenant_view


def events_of(tracer, kind):
    """The tracer's ring events of one kind, oldest first."""
    return [e for e in tracer.events() if e["type"] == kind]


def shift_event(time_s, dp, l_d=300.0, l_a=150.0, p_lo=0.0, p_hi=1.0,
                p=0.5):
    return {"type": "compute_shift", "time_s": time_s, "p": p,
            "p_lo": p_lo, "p_hi": p_hi, "dp": dp,
            "latency_default_ns": l_d, "latency_alternate_ns": l_a}


def migration_event(time_s, planned, executed, deferred=0, skipped=0):
    return {"type": "migration_executed", "time_s": time_s,
            "planned_moves": 4, "planned_bytes": planned,
            "executed_bytes": executed, "budget_bytes": executed,
            "moves_applied": 2, "moves_skipped": skipped,
            "moves_deferred": deferred}


META = {"type": "run_start", "time_s": 0.0, "system": "hemem+colloid",
        "workload": "gups", "n_tiers": 2, "quantum_ms": 10.0,
        "migration_limit_bytes": 1 << 20}


def write_trace(tmp_path, events):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


def balanced(n, start=0):
    """``n`` quanta of a controller holding L_D == L_A."""
    return [shift_event((start + i) / 100, dp=0.0, l_d=150.0, l_a=150.0)
            for i in range(n)]


class TestSummarize:
    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            build_timeline([])

    def test_convergence_time_and_quantum(self, tmp_path):
        # The report's one convergence answer is diagnose's.
        events = [META,
                  shift_event(0.00, dp=0.2, p=0.1),
                  shift_event(0.01, dp=0.1, p=0.3)] + balanced(6, start=2)
        summary = diagnose_events(events).summary
        assert summary.convergence_quanta == (2,)
        text = report_from_file(write_trace(tmp_path, events))
        assert "epoch 0       : converged in 2 quanta" in text
        assert "converged at" not in text

    def test_never_converged(self, tmp_path):
        events = [META, shift_event(0.0, dp=0.1, p=0.2),
                  shift_event(0.01, dp=0.1, p=0.5)]
        assert diagnose_events(events).summary.convergence_quanta == (None,)
        text = report_from_file(write_trace(tmp_path, events))
        assert "epoch 0       : did not converge" in text

    def test_always_balanced_converges_immediately(self):
        events = [META] + balanced(6, start=5)
        assert diagnose_events(events).summary.convergence_quanta == (0,)

    def test_latency_balance_error_uses_tail(self):
        # Tail = last quarter of 8 quanta = the last 2 (l_d=200,
        # l_a=100): |L_D - L_A| / L_A = 100%, QuantumSample.imbalance.
        events = [META]
        events += [shift_event(i / 100, dp=0.1, l_d=1000.0, l_a=100.0)
                   for i in range(6)]
        events += [shift_event((6 + i) / 100, dp=0.1, l_d=200.0,
                               l_a=100.0) for i in range(2)]
        text = format_summary(build_timeline(events))
        assert "latency imbalance (tail): 100.00% |L_D - L_A| / L_A" in text

    def test_migration_efficiency(self):
        events = [META,
                  migration_event(0.0, planned=100, executed=60,
                                  deferred=2),
                  migration_event(0.01, planned=100, executed=100)]
        timeline = build_timeline(events)
        assert timeline.total("planned_bytes") == 200
        assert timeline.total("executed_bytes") == 160
        assert timeline.total("moves_deferred") == 2
        text = format_summary(timeline)
        assert "executed      : 160 B (80.0% of planned)" in text
        assert "clipped       : 1 quanta hit the budget" in text

    def test_init_resets_not_counted_as_dynamic(self):
        events = [META,
                  {"type": "watermark_reset", "time_s": 0.0,
                   "side": "init", "p": 0.5, "resets": 0},
                  {"type": "watermark_reset", "time_s": 0.5,
                   "side": "hi", "p": 0.2, "resets": 1}]
        timeline = build_timeline(events)
        assert timeline.total("watermark_resets") == 1
        assert timeline.event_counts["watermark_reset"] == 2

    def test_phase_totals_merged(self):
        events = [META,
                  {"type": "phase_timing", "time_s": 0.0,
                   "phases": {"equilibrium_solve": 100, "other": 10}},
                  {"type": "phase_timing", "time_s": 0.01,
                   "phases": {"equilibrium_solve": 50}}]
        timeline = build_timeline(events)
        assert timeline.phase_totals_ns["equilibrium_solve"] == 150

    def test_unknown_kinds_skipped_and_counted(self):
        # A trace written by newer code must still summarize.
        events = [META, shift_event(0.0, dp=0.0),
                  {"type": "future_event", "time_s": 0.0, "x": 1},
                  {"type": "future_event", "time_s": 0.01, "x": 2},
                  {"type": "other_future", "time_s": 0.01}]
        timeline = build_timeline(events)
        assert timeline.unknown_event_counts == \
            {"future_event": 2, "other_future": 1}
        assert timeline.n_quanta == 1
        text = format_summary(timeline)
        assert "unknown kinds : 3 event(s) skipped" in text
        assert "future_event=2" in text

    def test_malformed_phase_timing_skipped_and_counted(self):
        events = [META,
                  {"type": "phase_timing", "time_s": 0.0,
                   "phases": {"equilibrium_solve": 100}},
                  {"type": "phase_timing", "time_s": 0.01,
                   "phases": "not-a-mapping"},
                  {"type": "phase_timing", "time_s": 0.02}]
        timeline = build_timeline(events)
        assert timeline.malformed_events == 2
        assert timeline.phase_totals_ns == {"equilibrium_solve": 100}
        assert "malformed     : 2 event(s) skipped" in \
            format_summary(timeline)

    def test_clean_trace_reports_no_skips(self):
        timeline = build_timeline([META, shift_event(0.0, dp=0.0)])
        assert timeline.unknown_event_counts == {}
        assert timeline.malformed_events == 0
        text = format_summary(timeline)
        assert "unknown kinds" not in text
        assert "malformed" not in text


class TestFormat:
    def test_report_sections_present(self):
        events = [META,
                  shift_event(0.00, dp=0.2),
                  shift_event(0.01, dp=0.0, l_d=150.0),
                  migration_event(0.0, planned=100, executed=80,
                                  deferred=1),
                  {"type": "phase_timing", "time_s": 0.0,
                   "phases": {"equilibrium_solve": 1000}}]
        text = format_summary(build_timeline(events))
        assert "-- controller --" in text
        assert "final bracket : [0.0000, 1.0000]" in text
        assert "migration efficiency" in text
        assert "80.0% of planned" in text
        assert "phase-time breakdown" in text
        assert "equilibrium_solve" in text

    def test_report_without_optional_sections(self):
        text = format_summary(build_timeline([META]))
        assert "no compute_shift events" in text
        assert "no migrations planned" in text
        assert "--profile" in text


class TestEndToEnd:
    def test_traced_loop_report(self, small_machine, tmp_path):
        from repro.core.integrate import HememColloidSystem
        from repro.obs.tracer import Tracer
        from repro.runtime.loop import SimulationLoop
        from repro.workloads.gups import GupsWorkload
        from tests.conftest import FAST_SCALE

        path = tmp_path / "trace.jsonl"
        with Tracer(jsonl_path=path) as tracer:
            loop = SimulationLoop(
                machine=small_machine,
                workload=GupsWorkload(scale=FAST_SCALE, seed=11),
                system=HememColloidSystem(),
                contention=3,
                seed=11,
                tracer=tracer,
                profile=True,
            )
            loop.run(duration_s=0.5)
        text = report_from_file(path)
        assert "hemem+colloid / gups" in text
        assert "phase-time breakdown" in text
        assert "equilibrium_solve" in text
        assert "migration efficiency" in text


class TestRunEndAndProgress:
    def test_run_end_counters_parsed_and_rendered(self):
        events = [META,
                  {"type": "run_end", "time_s": 0.5, "simulated_s": 0.5,
                   "n_quanta": 50,
                   "counters": {"quanta": 50, "migrated_bytes": 4096}}]
        timeline = build_timeline(events)
        assert timeline.runtime_counters == {"quanta": 50,
                                            "migrated_bytes": 4096}
        text = format_summary(timeline)
        assert "runtime counters" in text
        assert "quanta" in text
        assert "4,096" in text

    def test_last_run_end_wins(self):
        events = [META,
                  {"type": "run_end", "time_s": 0.1, "simulated_s": 0.1,
                   "n_quanta": 10, "counters": {"quanta": 10}},
                  {"type": "run_end", "time_s": 0.5, "simulated_s": 0.5,
                   "n_quanta": 50, "counters": {"quanta": 50}}]
        assert build_timeline(events).runtime_counters == {"quanta": 50}

    def test_fleet_progress_parsed_and_rendered(self):
        events = [META,
                  {"type": "run_progress", "time_s": 0.0, "completed": 3,
                   "total": 12, "label": "hemem i0",
                   "wall_elapsed_s": 6.0, "cells_per_s": 0.5,
                   "eta_s": 18.0}]
        timeline = build_timeline(events)
        assert timeline.progress["completed"] == 3
        assert timeline.progress["total"] == 12
        text = format_summary(timeline)
        assert "fleet progress" in text
        assert "3/12" in text

    def test_no_run_end_sections_absent(self):
        timeline = build_timeline([META])
        assert timeline.runtime_counters == {}
        assert timeline.progress is None
        text = format_summary(timeline)
        assert "runtime counters" not in text
        assert "fleet progress" not in text

    def test_fleet_faults_parsed_and_rendered(self):
        # Traces written before fleet retries were retired carry
        # cell_retried/cell_failed events; they parse as unknown kinds
        # and the report still renders, without a fleet-faults section.
        events = [
            META,
            {"type": "cell_retried", "time_s": 0.0, "label": "hemem i0",
             "attempt": 0, "error_type": "InjectedCrash",
             "error": "injected crash", "backoff_s": 0.1},
            {"type": "cell_retried", "time_s": 0.1, "label": "hemem i1",
             "attempt": 0, "error_type": "InjectedCrash",
             "error": "injected crash", "backoff_s": 0.1},
            {"type": "cell_failed", "time_s": 0.2, "label": "hemem i0",
             "attempts": 2, "error_type": "InjectedCrash",
             "error": "injected crash"},
        ]
        timeline = build_timeline(events)
        assert timeline.unknown_event_counts == {"cell_retried": 2,
                                                "cell_failed": 1}
        text = format_summary(timeline)
        assert "unknown kinds : 3 event(s) skipped" in text
        assert "fleet faults" not in text

    def test_no_faults_section_absent(self):
        timeline = build_timeline([META])
        assert timeline.unknown_event_counts == {}
        text = format_summary(timeline)
        assert "fleet faults" not in text
        assert "unknown kinds" not in text

    def test_loop_emit_run_end(self, small_machine):
        from repro.obs.tracer import Tracer
        from repro.runtime.loop import SimulationLoop
        from repro.tiering.hemem import HememSystem
        from repro.workloads.gups import GupsWorkload
        from tests.conftest import FAST_SCALE

        tracer = Tracer()
        loop = SimulationLoop(
            machine=small_machine,
            workload=GupsWorkload(scale=FAST_SCALE, seed=3),
            system=HememSystem(),
            contention=1,
            seed=3,
            tracer=tracer,
        )
        loop.run(duration_s=0.3)
        loop.emit_run_end()
        (event,) = events_of(tracer, "run_end")
        assert event["n_quanta"] == len(loop.metrics)
        assert event["simulated_s"] == pytest.approx(loop.time_s)
        assert event["counters"]["quanta"] == len(loop.metrics)
        assert event["counters"]["migrated_bytes"] >= 0


class TestTenantViews:
    def events(self):
        return [
            dict(META),
            {**shift_event(0.1, 0.02), "tenant": "a"},
            {**shift_event(0.1, 0.01), "tenant": "b"},
            {**migration_event(0.2, 100, 100), "tenant": "a"},
            {**shift_event(0.3, 0.0), "tenant": "a"},
        ]

    def test_tenant_names_in_first_appearance_order(self):
        assert tenant_names_of(self.events()) == ["a", "b"]
        assert tenant_names_of([dict(META)]) == []

    def test_tenant_view_keeps_own_and_unlabeled_events(self):
        view = tenant_view(self.events(), "a")
        assert len(view) == 4  # run_start + 3 'a' events
        assert all(e.get("tenant", "a") == "a" for e in view)
        view_b = tenant_view(self.events(), "b")
        assert len(view_b) == 2

    def test_per_tenant_summaries_differ(self):
        events = self.events()
        timeline_a = build_timeline(tenant_view(events, "a"))
        timeline_b = build_timeline(tenant_view(events, "b"))
        assert sum(timeline_a.event_counts.values()) == 4
        assert sum(timeline_b.event_counts.values()) == 2
