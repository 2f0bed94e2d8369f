"""PhaseProfiler nested-span edge cases — the Chrome-trace exporter
relies on this exact contract (depth, auto-close, ordering)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.profile import PhaseProfiler


class TestNestedSpans:
    def test_reentrant_same_name_records_distinct_depths(self):
        profiler = PhaseProfiler(enabled=True)
        profiler.push("solve")
        profiler.push("solve")
        profiler.pop()
        profiler.pop()
        spans = profiler.drain_spans()
        assert [(s.name, s.depth) for s in spans] == \
            [("solve", 0), ("solve", 1)]
        assert not any(s.unclosed for s in spans)
        # Both spans are charged to the one named total.
        assert profiler.summary()["solve"]["count"] == 2

    def test_inner_span_nested_within_outer(self):
        profiler = PhaseProfiler(enabled=True)
        with profiler.span("step"):
            with profiler.span("migrate"):
                pass
        outer, inner = profiler.drain_spans()
        assert (outer.name, inner.name) == ("step", "migrate")
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns
        assert inner.duration_ns <= outer.duration_ns

    def test_pop_without_push_raises(self):
        profiler = PhaseProfiler(enabled=True)
        with pytest.raises(ConfigurationError):
            profiler.pop()

    def test_unclosed_spans_flagged_and_charged_at_drain(self):
        profiler = PhaseProfiler(enabled=True)
        profiler.push("outer")
        profiler.push("inner")
        assert profiler.open_depth == 2
        spans = profiler.drain_spans()
        assert profiler.open_depth == 0
        assert all(s.unclosed for s in spans)
        # Sorted by (start, depth): outer first despite LIFO close.
        assert [s.name for s in spans] == ["outer", "inner"]
        # Auto-close charges totals, keeping phases consistent with
        # what the exporter renders.
        assert set(profiler.phases) == {"outer", "inner"}

    def test_drain_clears_spans(self):
        profiler = PhaseProfiler(enabled=True)
        with profiler.span("once"):
            pass
        assert len(profiler.drain_spans()) == 1
        assert profiler.drain_spans() == []

    def test_disabled_profiler_is_inert(self):
        profiler = PhaseProfiler(enabled=False)
        profiler.push("ignored")
        assert profiler.pop() == 0  # no ConfigurationError either
        with profiler.span("ignored"):
            pass
        assert profiler.drain_spans() == []
        assert profiler.phases == {}


class TestLapTimer:
    def test_lap_accumulates_totals_and_counts(self):
        profiler = PhaseProfiler(enabled=True)
        for _ in range(3):
            profiler.start()
            profiler.lap("solve")
        summary = profiler.summary()
        assert summary["solve"]["count"] == 3
        assert summary["solve"]["total_ns"] >= 0

    def test_reset_clears_everything(self):
        profiler = PhaseProfiler(enabled=True)
        profiler.start()
        profiler.lap("solve")
        profiler.push("open")
        profiler.reset()
        assert profiler.phases == {}
        assert profiler.open_depth == 0
        assert profiler.drain_spans() == []


class TestFormatSummary:
    def test_rows_add_up_to_the_wall_time(self, monkeypatch):
        clock = iter([0, 600_000, 900_000])
        monkeypatch.setattr("repro.obs.profile.perf_counter_ns",
                            lambda: next(clock))
        profiler = PhaseProfiler(enabled=True)
        profiler.start()
        profiler.lap("solve")
        profiler.lap("migrate")
        lines = profiler.format_summary(wall_ns=1_000_000).splitlines()
        rows = {line.split()[0]: line for line in lines[1:]}
        assert list(rows) == ["solve", "migrate", "unattributed", "total"]
        assert rows["unattributed"].split()[1:] == ["0.10", "10.0%"]
        assert rows["total"].split() == ["total", "(wall)", "1.00",
                                         "100.0%"]
