"""The Runner's failure contract and completion-order consumption.

A cell that raises anything but a ``ReproError`` stops the batch with a
``CellError`` naming it; a ``ReproError`` passes through unchanged. The
parallel cases rely on the pool forking its workers after the
monkeypatch, so the patched ``repro.exec.execute._execute_best_case`` is
what ``execute_spec`` calls inside each worker (``execute_spec`` itself
stays unpatched, because the pool pickles it by name).
"""

import os
import time

import pytest

import repro.exec.execute as execute
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.runner import CellError, Runner
from repro.experiments.common import ExperimentConfig, best_case_spec

SCALE = 0.03


def spec_with_seed(seed: int):
    """A distinct fast cell per seed (best-case cells run in ~70 ms)."""
    return best_case_spec(0, ExperimentConfig(scale=SCALE, seed=seed))


def on_cell(monkeypatch, victim, action):
    """Make a best-case cell call ``action()`` before running ``victim``,
    in the parent (serial path) and in forked workers alike."""
    original = execute._execute_best_case

    def patched(spec, options):
        if spec == victim:
            action()
        return original(spec, options)

    monkeypatch.setattr(execute, "_execute_best_case", patched)


def boom():
    raise RuntimeError("boom")


class TestCellError:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plain_exception_names_the_cell(self, monkeypatch, jobs):
        victim = spec_with_seed(0)
        on_cell(monkeypatch, victim, boom)
        with pytest.raises(CellError) as err:
            Runner(jobs=jobs).run([victim, spec_with_seed(1)])
        assert err.value.spec == victim
        assert victim.describe() in str(err.value)
        assert "RuntimeError: boom" in str(err.value)
        assert isinstance(err.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repro_error_passes_through_unwrapped(self, monkeypatch, jobs):
        victim = spec_with_seed(0)

        def bug():
            raise ConfigurationError("deterministic bug")

        on_cell(monkeypatch, victim, bug)
        with pytest.raises(ConfigurationError, match="deterministic bug"):
            Runner(jobs=jobs).run([victim, spec_with_seed(1)])

    def test_batch_stops_at_once_and_completed_cells_are_cached(
            self, monkeypatch, tmp_path):
        done, victim, never = (spec_with_seed(s) for s in range(3))
        on_cell(monkeypatch, victim, boom)
        runner = Runner(cache=ResultCache(tmp_path))
        with pytest.raises(CellError):
            runner.run([done, victim, never])
        assert runner.stats.executed == 1
        resumed = ResultCache(tmp_path)
        assert resumed.get(done) is not None
        assert resumed.get(never) is None

    def test_dead_worker_surfaces_as_cell_error(self, monkeypatch):
        victim = spec_with_seed(0)
        on_cell(monkeypatch, victim, lambda: os._exit(1))
        with pytest.raises(CellError) as err:
            Runner(jobs=2).run([victim, spec_with_seed(1)])
        assert "BrokenProcessPool" in str(err.value)


class TestCompletionOrder:
    def test_slow_first_cell_does_not_head_of_line_block(
            self, monkeypatch):
        # Regression: pool.map consumed results in submission order, so
        # a slow first cell froze progress/metrics until it finished
        # even as later cells completed. With completion-order
        # consumption the fast cells report first.
        slow = spec_with_seed(0)
        fast = [spec_with_seed(s) for s in range(1, 4)]
        on_cell(monkeypatch, slow, lambda: time.sleep(1.5))
        notes = []
        runner = Runner(jobs=2, progress=notes.append)
        runner.run([slow] + fast)
        completions = [n for n in notes if n.startswith("[")]
        assert len(completions) == 4
        assert slow.describe() not in completions[0]
        assert slow.describe() in completions[-1]
