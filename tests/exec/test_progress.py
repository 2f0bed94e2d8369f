"""FleetProgress rendering, tracing, and Runner integration."""

import io
import math

from repro.exec.progress import FleetProgress
from repro.exec.runner import Runner
from repro.experiments.common import ExperimentConfig, best_case_spec
from repro.obs.tracer import Tracer

TINY = ExperimentConfig(scale=0.03, seed=7)


class FakeClock:
    """Monotonic clock advancing a fixed amount per reading."""

    def __init__(self, tick_s: float = 1.0) -> None:
        self.now = 0.0
        self.tick_s = tick_s

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick_s
        return value


class TtyStream(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestRendering:
    def test_non_tty_line_per_cell(self):
        stream = io.StringIO()
        progress = FleetProgress(stream=stream, clock=FakeClock())
        progress.begin(2)
        progress.cell_start("a")  # non-TTY: starts are silent
        progress.cell_done("cell-a")
        progress.cell_done("cell-b")
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/2]  50% cell-a")
        assert "cells/s" in lines[0]
        assert "eta" in lines[0]
        # The last cell has no remaining work, so no ETA.
        assert lines[1].startswith("[2/2] 100% cell-b")
        assert "eta" not in lines[1]

    def test_tty_refreshes_in_place_and_pads(self):
        stream = TtyStream()
        progress = FleetProgress(stream=stream, clock=FakeClock())
        progress.begin(2)
        progress.cell_done("a-much-longer-label")
        progress.cell_done("b")
        progress.finish()
        output = stream.getvalue()
        assert output.count("\r") == 2
        # Second render pads over the first, longer line.
        first, second = output.split("\r")[1:]
        assert len(second.rstrip("\n")) >= len(first)
        assert output.endswith("\n")

    def test_empty_batch_is_silent(self):
        stream = io.StringIO()
        progress = FleetProgress(stream=stream, clock=FakeClock())
        progress.begin(0)
        progress.finish()
        assert stream.getvalue() == ""

    def test_eta_formatting_scales(self):
        from repro.exec.progress import _format_eta

        assert _format_eta(5.0) == "5s"
        assert _format_eta(150.0) == "2m30s"
        assert _format_eta(7200.0) == "2h00m"

    def test_zero_elapsed_clamped_no_inf_or_garbage(self):
        # Sub-millisecond cells (warm caches, tiny grids) used to
        # divide by ~0 elapsed: astronomical cells/s and a garbage ETA.
        from repro.exec.progress import MIN_RATE_ELAPSED_S

        stream = io.StringIO()
        tracer = Tracer()
        progress = FleetProgress(stream=stream, tracer=tracer,
                                 clock=FakeClock(tick_s=0.0))
        progress.begin(3)
        progress.cell_done("instant-a")
        progress.cell_done("instant-b")
        progress.finish()
        events = tracer.events("run_progress")
        for event in events:
            assert event["wall_elapsed_s"] >= MIN_RATE_ELAPSED_S
            assert math.isfinite(event["cells_per_s"])
            assert event["eta_s"] is None or \
                math.isfinite(event["eta_s"])
        output = stream.getvalue()
        assert "inf" not in output and "nan" not in output
        # A clamped rate still yields a (tiny, finite) ETA for the
        # remaining cell.
        assert "eta" in output.splitlines()[-1]


class TestTraceEvents:
    def test_run_progress_events_emitted(self):
        tracer = Tracer()
        progress = FleetProgress(stream=io.StringIO(), tracer=tracer,
                                 clock=FakeClock())
        progress.begin(2)
        progress.cell_done("first")
        progress.cell_done("second")
        progress.finish()
        events = tracer.events("run_progress")
        assert [e["completed"] for e in events] == [1, 2]
        assert all(e["total"] == 2 for e in events)
        assert events[0]["label"] == "first"
        assert events[0]["cells_per_s"] > 0
        assert events[1]["eta_s"] == 0.0


class TestCellStart:
    def test_cell_start_emits_trace_event(self):
        tracer = Tracer()
        progress = FleetProgress(stream=io.StringIO(), tracer=tracer,
                                 clock=FakeClock())
        progress.begin(2)
        progress.cell_start("a")
        progress.cell_done("a")
        progress.cell_start("b")
        progress.finish()
        events = tracer.events("cell_start")
        assert [e["label"] for e in events] == ["a", "b"]
        assert [e["completed"] for e in events] == [0, 1]
        assert all(e["total"] == 2 for e in events)


class TestFinish:
    def test_finish_is_idempotent_on_tty(self):
        stream = TtyStream()
        progress = FleetProgress(stream=stream, clock=FakeClock())
        progress.begin(1)
        progress.cell_done("a")
        progress.finish()
        progress.finish()
        assert stream.getvalue().count("\n") == 1

    def test_finish_without_begin_is_noop(self):
        stream = TtyStream()
        FleetProgress(stream=stream, clock=FakeClock()).finish()
        assert stream.getvalue() == ""

    def test_raising_fleet_still_terminates_line(self, monkeypatch):
        # Regression: an exception mid-batch used to skip finish(),
        # leaving the TTY refresh line unterminated.
        from repro.errors import ConfigurationError

        monkeypatch.setattr(
            "repro.exec.runner.execute_spec",
            lambda spec: (_ for _ in ()).throw(
                ConfigurationError("boom")),
        )
        stream = TtyStream()
        reporter = FleetProgress(stream=stream, clock=FakeClock())
        runner = Runner(reporter=reporter)
        import pytest

        with pytest.raises(ConfigurationError):
            runner.run([best_case_spec(0, TINY)])
        assert not reporter._active
        assert stream.getvalue().endswith("\n")


class TestRunnerIntegration:
    def test_runner_reports_each_executed_cell(self):
        stream = io.StringIO()
        reporter = FleetProgress(stream=stream, clock=FakeClock())
        runner = Runner(reporter=reporter)
        runner.run([best_case_spec(0, TINY), best_case_spec(1, TINY)])
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("[2/2] 100%")

    def test_deduped_cells_not_reported(self):
        stream = io.StringIO()
        reporter = FleetProgress(stream=stream, clock=FakeClock())
        runner = Runner(reporter=reporter)
        spec = best_case_spec(0, TINY)
        runner.run([spec, spec])
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[1/1]")
