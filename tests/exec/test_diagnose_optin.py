"""Per-cell diagnostics opt-in (``RunOptions.diagnose``) in the exec
layer."""

import os

from repro.exec.cache import ResultCache
from repro.exec.execute import execute_spec
from repro.exec.journal import FleetJournal
from repro.exec.result import CellResult
from repro.exec.runner import Runner
from repro.experiments.common import ExperimentConfig, steady_cell_spec
from repro.options import DIAGNOSE_ENV_VAR, RunOptions

TINY = ExperimentConfig(scale=0.03, seed=7)


def tiny_spec():
    return steady_cell_spec("hemem+colloid", 1, TINY,
                            max_duration_s=4.0)


class TestExecuteOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(DIAGNOSE_ENV_VAR, raising=False)
        result = execute_spec(tiny_spec())
        assert result.diagnostics is None

    def test_enabled_attaches_summary(self):
        result = execute_spec(tiny_spec(), RunOptions(diagnose=True))
        assert isinstance(result.diagnostics, dict)
        quanta = result.diagnostics["convergence_quanta"]
        assert quanta and all(q is not None for q in quanta)
        assert result.diagnostics["oscillation_score"] < 0.35


class TestStoredResults:
    """A cached or journaled result lacking the diagnostics the options
    ask for is a miss: the cell runs again and its entry is replaced."""

    def test_plain_cache_entry_is_a_miss_for_a_diagnosed_run(
            self, tmp_path):
        spec = tiny_spec()
        Runner(cache=ResultCache(tmp_path),
               options=RunOptions()).run_one(spec)
        diagnosed = Runner(cache=ResultCache(tmp_path),
                           options=RunOptions(diagnose=True))
        assert diagnosed.run_one(spec).diagnostics is not None
        assert diagnosed.stats.executed == 1
        assert diagnosed.stats.cache_hits == 0
        # The entry was replaced: now a hit for diagnosed runs too.
        again = Runner(cache=ResultCache(tmp_path),
                       options=RunOptions(diagnose=True))
        assert again.run_one(spec).diagnostics is not None
        assert (again.stats.cache_hits, again.stats.executed) == (1, 0)

    def test_env_default_diagnoses_past_a_plain_cache_entry(
            self, tmp_path, monkeypatch):
        spec = tiny_spec()
        monkeypatch.delenv(DIAGNOSE_ENV_VAR, raising=False)
        Runner(cache=ResultCache(tmp_path)).run_one(spec)
        monkeypatch.setenv(DIAGNOSE_ENV_VAR, "1")
        result = Runner(cache=ResultCache(tmp_path)).run_one(spec)
        assert result.diagnostics is not None

    def test_plain_journal_entry_is_a_miss_on_resume(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "fleet.jsonl"
        with FleetJournal(path) as journal:
            Runner(journal=journal, options=RunOptions()).run_one(spec)
        with FleetJournal(path, resume=True) as journal:
            resumed = Runner(journal=journal,
                             options=RunOptions(diagnose=True))
            assert resumed.run_one(spec).diagnostics is not None
            assert resumed.stats.journal_hits == 0
            assert resumed.stats.executed == 1
        with FleetJournal(path, resume=True) as journal:
            again = Runner(journal=journal,
                           options=RunOptions(diagnose=True))
            assert again.run_one(spec).diagnostics is not None
            assert (again.stats.journal_hits, again.stats.executed) == (
                1, 0)

    def test_spec_hash_is_unchanged_by_options(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec)
        Runner(cache=cache, options=RunOptions(diagnose=True)).run_one(
            spec)
        assert cache.path_for(spec) == path and path.exists()


class TestWorkers:
    def test_pool_workers_diagnose_from_pickled_options(
            self, monkeypatch):
        for name in [n for n in os.environ
                     if n.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        specs = [tiny_spec(), steady_cell_spec("hemem+colloid", 0, TINY,
                                               max_duration_s=4.0)]
        runner = Runner(jobs=2, options=RunOptions(diagnose=True))
        results = runner.run(specs)
        assert runner.stats.executed == 2
        assert all(r.diagnostics is not None for r in results.values())


def make_result(**overrides):
    fields = dict(mode="steady", throughput=1.5, converged=True,
                  duration_s=2.0, tail_latencies_ns=(150.0, 100.0),
                  tail_default_share=0.7, cpu_work={"scan": 3.0})
    fields.update(overrides)
    return CellResult(**fields)


class TestResultRoundTrip:
    def test_diagnostics_survive_serialization(self):
        result = make_result(
            diagnostics={"convergence_quanta": [4],
                         "oscillation_score": 0.0})
        clone = CellResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.diagnostics["convergence_quanta"] == [4]

    def test_pre_diagnostics_payload_loads_as_none(self):
        # Undiagnosed results serialize without the key at all (the
        # golden fixtures pin that shape), and older payloads without
        # it load as None.
        data = make_result().to_dict()
        assert "diagnostics" not in data
        loaded = CellResult.from_dict(data)
        assert loaded.diagnostics is None
