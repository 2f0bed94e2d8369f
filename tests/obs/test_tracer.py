"""Tests for the tracer, counters, and phase profiler."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_SCHEMAS, TRACE_SCHEMA_VERSION, describe_schema
from repro.obs.profile import Counters, PhaseProfiler
from repro.obs.timeline import build_timeline
from repro.obs.tracer import (
    NULL_TRACER,
    JsonList,
    NullTracer,
    Tracer,
    load_events,
)


def events_of(tracer, kind):
    """The tracer's ring events of one kind, oldest first."""
    return [e for e in tracer.events() if e["type"] == kind]


class TestTracer:
    def test_emit_stamps_type_and_time(self):
        tracer = Tracer()
        tracer.time_s = 1.25
        tracer.emit("hemem_cooling", coolings=1, total_coolings=3)
        (event,) = tracer.events()
        assert event["type"] == "hemem_cooling"
        assert event["time_s"] == 1.25
        assert event["total_coolings"] == 3

    def test_unknown_event_type_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.emit("definitely_not_an_event")

    def test_ring_buffer_keeps_newest(self):
        tracer = Tracer(ring_size=3)
        for i in range(5):
            tracer.emit("hemem_cooling", coolings=i, total_coolings=i)
        events = tracer.events()
        assert len(events) == 3
        assert [e["coolings"] for e in events] == [2, 3, 4]
        # Lifetime counts are not limited by the ring.
        assert tracer.counts == {"hemem_cooling": 5}

    def test_events_filter_by_type(self):
        tracer = Tracer()
        tracer.emit("hemem_cooling", coolings=1, total_coolings=1)
        tracer.emit("memtis_split", n_split=7)
        assert len(events_of(tracer, "memtis_split")) == 1

    def test_json_list_is_stored_as_given(self):
        """A field already made of JSON values is shared, not copied;
        a plain list is copied value by value."""
        tracer = Tracer()
        shared = JsonList([[1, 2], [3, 4]])
        plain = [[1, 2], [3, 4]]
        tracer.emit("placement_sample", tier_pages=shared,
                    tier_bytes=plain)
        (event,) = tracer.events()
        assert event["tier_pages"] is shared
        assert event["tier_bytes"] == plain
        assert event["tier_bytes"] is not plain

    def test_rejects_bad_ring_size(self):
        with pytest.raises(ConfigurationError):
            Tracer(ring_size=0)

    def test_numpy_values_serialize(self, tmp_path):
        import numpy as np

        path = tmp_path / "t.jsonl"
        with Tracer(jsonl_path=path) as tracer:
            tracer.emit(
                "solver_converged",
                iterations=np.int64(12),
                latencies_ns=np.array([100.0, 130.0]),
                app_read_rate=np.float64(55.5),
                measured_p=0.5,
            )
        (event,) = load_events(path)
        assert event["iterations"] == 12
        assert event["latencies_ns"] == [100.0, 130.0]
        assert isinstance(event["app_read_rate"], float)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(jsonl_path=path)
        tracer.emit("memtis_split", n_split=4)
        tracer.emit("hemem_cooling", coolings=1, total_coolings=1)
        tracer.close()
        events = load_events(path)
        assert [e["type"] for e in events] == [
            "memtis_split", "hemem_cooling",
        ]
        assert events[0]["n_split"] == 4

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_events(tmp_path / "nope.jsonl")

    def test_load_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "memtis_split"}\nnot json\n')
        with pytest.raises(ConfigurationError):
            load_events(path)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("anything_at_all", junk=1)  # no validation, no-op
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.counts == {}
        NULL_TRACER.close()

    def test_context_manager(self):
        with NullTracer() as tracer:
            tracer.emit("hemem_cooling")


class TestSchema:
    def test_every_type_documented(self):
        for etype, fields in EVENT_SCHEMAS.items():
            assert fields, f"{etype} has no documented fields"

    def test_describe_schema_lists_all_types(self):
        text = describe_schema()
        assert f"trace schema v{TRACE_SCHEMA_VERSION}" in text
        for etype in EVENT_SCHEMAS:
            assert etype in text


class TestCounters:
    def test_inc_and_get(self):
        counters = Counters()
        counters.inc("quanta")
        counters.inc("quanta", 4)
        assert counters.get("quanta") == 5
        assert counters.get("missing") == 0
        assert counters.snapshot() == {"quanta": 5}


class TestPhaseProfiler:
    def test_disabled_laps_return_zero(self):
        profiler = PhaseProfiler(enabled=False)
        profiler.start()
        assert profiler.lap("solve") == 0
        assert profiler.summary() == {}

    def test_enabled_accumulates(self):
        profiler = PhaseProfiler(enabled=True)
        for __ in range(3):
            profiler.start()
            sum(range(1000))
            profiler.lap("work")
        summary = profiler.summary()
        assert summary["work"]["count"] == 3
        assert summary["work"]["total_ns"] > 0
        assert summary["work"]["mean_ns"] == pytest.approx(
            summary["work"]["total_ns"] / 3
        )

    def test_format_summary_has_shares(self):
        profiler = PhaseProfiler(enabled=True)
        profiler.start()
        profiler.lap("a")
        text = profiler.format_summary(wall_ns=profiler.phases["a"] * 2)
        assert "a" in text and "share" in text

    def test_reset_clears(self):
        profiler = PhaseProfiler(enabled=True)
        profiler.start()
        profiler.lap("a")
        profiler.reset()
        assert profiler.summary() == {}

    def test_merge_phase_events(self):
        # Phase totals are the sum of the timeline samples' phases_ns.
        timeline = build_timeline([
            {"type": "phase_timing", "time_s": 0.0,
             "phases": {"a": 10, "b": 5}},
            {"type": "phase_timing", "time_s": 0.01, "phases": {"a": 2}},
        ])
        assert timeline.phase_totals_ns == {"a": 12, "b": 5}

    def test_merge_rejects_malformed(self):
        timeline = build_timeline([
            {"type": "phase_timing", "time_s": 0.0, "phases": {"a": 1}},
            {"type": "phase_timing", "time_s": 0.01},
        ])
        assert timeline.phase_totals_ns == {"a": 1}
        assert timeline.malformed_events == 1


class TestLoopIntegration:
    def test_traced_run_emits_expected_types(self, small_machine,
                                             tmp_path):
        from repro.core.integrate import HememColloidSystem
        from repro.runtime.loop import SimulationLoop
        from repro.workloads.gups import GupsWorkload
        from tests.conftest import FAST_SCALE

        path = tmp_path / "run.jsonl"
        tracer = Tracer(jsonl_path=path)
        loop = SimulationLoop(
            machine=small_machine,
            workload=GupsWorkload(scale=FAST_SCALE, seed=5),
            system=HememColloidSystem(),
            contention=3,
            seed=5,
            tracer=tracer,
            profile=True,
        )
        loop.run(duration_s=0.5)
        tracer.close()
        types = {e["type"] for e in load_events(path)}
        assert {"run_start", "solver_converged", "compute_shift",
                "watermark_reset", "migration_executed",
                "phase_timing"} <= types
        meta = events_of(tracer, "run_start") or [
            e for e in load_events(path) if e["type"] == "run_start"
        ]
        assert meta[0]["system"] == "hemem+colloid"

    def test_untraced_run_identical_to_traced(self, small_machine):
        """Tracing must observe, never perturb, the simulation."""
        from repro.runtime.loop import SimulationLoop
        from repro.tiering.hemem import HememSystem
        from repro.workloads.gups import GupsWorkload
        from tests.conftest import FAST_SCALE

        def run(tracer):
            loop = SimulationLoop(
                machine=small_machine,
                workload=GupsWorkload(scale=FAST_SCALE, seed=9),
                system=HememSystem(),
                contention=2,
                seed=9,
                tracer=tracer,
            )
            return loop.run(duration_s=0.3)

        plain = run(None)
        traced = run(Tracer())
        assert plain.throughput.tolist() == traced.throughput.tolist()
        assert plain.migration_bytes.tolist() == (
            traced.migration_bytes.tolist()
        )


class TestGzipTraces:
    def events_round_trip(self, path):
        with Tracer(jsonl_path=path) as tracer:
            tracer.time_s = 0.5
            tracer.emit("hemem_cooling", coolings=1, total_coolings=1)
            tracer.emit("hemem_cooling", coolings=2, total_coolings=3)
        return load_events(path)

    def test_gz_suffix_writes_gzip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        events = self.events_round_trip(path)
        # Really compressed on disk, not just renamed.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert [e["coolings"] for e in events] == [1, 2]
        assert events[0]["time_s"] == 0.5

    def test_renamed_gzip_still_loads(self, tmp_path):
        gz = tmp_path / "trace.jsonl.gz"
        self.events_round_trip(gz)
        renamed = tmp_path / "trace.jsonl"
        renamed.write_bytes(gz.read_bytes())
        events = load_events(renamed)
        assert [e["coolings"] for e in events] == [1, 2]

    def test_plain_file_named_gz_still_loads(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        self.events_round_trip(plain)
        disguised = tmp_path / "disguised.jsonl.gz"
        disguised.write_bytes(plain.read_bytes())
        assert [e["coolings"] for e in load_events(disguised)] == [1, 2]

    def test_gzip_matches_plain_content(self, tmp_path):
        plain = self.events_round_trip(tmp_path / "a.jsonl")
        compressed = self.events_round_trip(tmp_path / "b.jsonl.gz")
        assert plain == compressed


class TestTenantTracer:
    def test_labels_every_event(self):
        from repro.obs.tracer import TenantTracer

        tracer = Tracer(ring_size=16)
        view = TenantTracer(tracer, "gups")
        tracer.time_s = 0.5
        view.emit("compute_shift", p=0.5, p_lo=0.0, p_hi=1.0, dp=0.01,
                  latency_default_ns=300.0, latency_alternate_ns=150.0)
        (event,) = tracer.events()
        assert event["tenant"] == "gups"
        assert event["type"] == "compute_shift"
        assert event["time_s"] == 0.5

    def test_underlying_events_stay_unlabeled(self):
        from repro.obs.tracer import TenantTracer

        tracer = Tracer(ring_size=16)
        TenantTracer(tracer, "gups")  # label only through the view
        tracer.emit("contention_change", intensity=2)
        (event,) = tracer.events()
        assert "tenant" not in event

    def test_delegates_enabled_and_time(self):
        from repro.obs.tracer import TenantTracer

        view = TenantTracer(NULL_TRACER, "gups")
        assert not view.enabled
        view.emit("contention_change", intensity=1)  # inert, no error
