"""Result cache round-trips, invalidation, corruption handling, and
resuming a killed fleet from it."""

import json

from repro.exec import cache as cache_mod
from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.result import CellResult, TraceSeries
from repro.exec.runner import Runner
from repro.exec.spec import MachineSpec, RunSpec, WorkloadSpec
from repro.experiments.common import ExperimentConfig, best_case_spec


def make_spec(seed: int = 7) -> RunSpec:
    return RunSpec(
        system="hemem",
        workload=WorkloadSpec.make("gups", scale=0.0625, seed=seed),
        machine=MachineSpec(scale=0.0625),
        seed=seed,
        max_duration_s=5.0,
    )


def make_result() -> CellResult:
    return CellResult(
        mode="steady",
        throughput=64.25,
        converged=True,
        duration_s=5.0,
        tail_latencies_ns=(92.5, 141.25),
        tail_default_share=0.85,
        cpu_work={"plans": 500.0},
    )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, make_result())
        got = cache.get(spec)
        assert got == make_result()
        assert len(cache) == 1

    def test_trace_series_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        series = TraceSeries(
            times_s=(0.0, 1.0), throughput=(10.0, 11.0),
            migration_bytes=(0.0, 4096.0),
            quantum_times_s=(0.01, 0.02), quantum_throughput=(9.9, 10.1),
        )
        result = CellResult(
            mode="trace", throughput=10.5, converged=None,
            duration_s=2.0, tail_latencies_ns=(90.0, 140.0),
            tail_default_share=0.5, cpu_work={}, series=series,
        )
        cache.put(spec, result)
        assert cache.get(spec) == result

    def test_floats_are_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        value = 64.15041440451904  # repr round-trip must be lossless
        cache.put(spec, CellResult(
            mode="steady", throughput=value, converged=True,
            duration_s=5.0, tail_latencies_ns=(), tail_default_share=0.0,
            cpu_work={},
        ))
        assert cache.get(spec).throughput == value


class TestMisses:
    def test_absent_entry_misses(self, tmp_path):
        assert ResultCache(tmp_path).get(make_spec()) is None

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_spec(seed=7), make_result())
        assert cache.get(make_spec(seed=8)) is None

    def test_corrupt_entry_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, make_result())
        cache.path_for(spec).write_text("{ not json")
        assert cache.get(spec) is None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, make_result())
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION",
                            cache_mod.CACHE_SCHEMA_VERSION + 1)
        assert cache.get(spec) is None

    def test_hash_mismatch_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        path = cache.put(spec, make_result())
        payload = json.loads(path.read_text())
        payload["spec_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None


class TestHousekeeping:
    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_spec(7), make_result())
        cache.put(make_spec(8), make_result())
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get(make_spec(7)) is None

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV_VAR, str(tmp_path))
        assert default_cache_dir() == tmp_path
        assert ResultCache().root == tmp_path

    def test_entries_fan_out_by_hash_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        path = cache.put(spec, make_result())
        key = spec.content_hash()
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"


class TestStaleTmpSweep:
    """A SIGKILL'd worker dies between mkstemp and os.replace: the
    BaseException cleanup in ``put`` never runs and the ``*.tmp``
    orphan used to live forever."""

    @staticmethod
    def orphan(tmp_path, age_s: float):
        import os
        import time

        bucket = tmp_path / "ab"
        bucket.mkdir(parents=True, exist_ok=True)
        orphan = bucket / "tmp_killed.tmp"
        orphan.write_text("{partial")
        stamp = time.time() - age_s
        os.utime(orphan, (stamp, stamp))
        return orphan

    def test_stale_orphan_swept_on_init(self, tmp_path):
        orphan = self.orphan(tmp_path, age_s=7200.0)
        cache = ResultCache(tmp_path)
        assert not orphan.exists()
        # Real entries are untouched.
        spec = make_spec()
        cache.put(spec, make_result())
        assert ResultCache(tmp_path).get(spec) == make_result()

    def test_fresh_tmp_left_for_live_writers(self, tmp_path):
        orphan = self.orphan(tmp_path, age_s=1.0)
        ResultCache(tmp_path)
        assert orphan.exists()

    def test_sweep_reports_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.orphan(tmp_path, age_s=7200.0)
        assert cache.sweep_stale_tmp() == 1
        assert cache.sweep_stale_tmp() == 0


class TestResume:
    """The cache is the resume store: each completed ``put`` survives a
    SIGKILL (temp file, fsync, rename), so a fleet re-run over the same
    cache executes only the cells that are missing."""

    TINY = ExperimentConfig(scale=0.03, seed=7)

    def specs(self, n):
        return [best_case_spec(i, self.TINY) for i in range(n)]

    def test_resume_executes_only_missing_cells(self, tmp_path):
        batch = self.specs(3)
        baseline = Runner(jobs=1).run(batch)
        # A fleet killed after one completion left one entry behind.
        ResultCache(tmp_path).put(batch[0], baseline[batch[0]])

        runner = Runner(cache=ResultCache(tmp_path))
        assert runner.run(batch) == baseline
        assert (runner.stats.cache_hits, runner.stats.executed) == (1, 2)
        assert runner.stats.cache_misses == 2
        assert runner.stats.per_mode == {"best_case": 2}
        assert runner.stats.summary() == (
            "cells: 1 cache hits, 0 deduplicated, new cells executed: 2")

        # The resumed run stored the cells it executed, so a second
        # resume executes nothing.
        again = Runner(cache=ResultCache(tmp_path))
        assert again.run(batch) == baseline
        assert (again.stats.cache_hits, again.stats.executed) == (3, 0)

    def test_full_resume_executes_nothing(self, tmp_path):
        batch = self.specs(2)
        baseline = Runner(jobs=2, cache=ResultCache(tmp_path)).run(batch)
        runner = Runner(jobs=2, cache=ResultCache(tmp_path))
        assert runner.run(batch) == baseline
        assert (runner.stats.cache_hits, runner.stats.executed) == (2, 0)

    def test_orphaned_tmp_file_is_not_a_hit(self, tmp_path):
        # A put killed before its rename leaves only a temp file, which
        # may be cut short: the cell is a miss and runs again.
        spec = self.specs(1)[0]
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        (path.parent / "tmpkilled.tmp").write_text('{"cache_schema": 1, "sp')
        assert cache.get(spec) is None
        runner = Runner(cache=ResultCache(tmp_path))
        result = runner.run_one(spec)
        assert (runner.stats.cache_hits, runner.stats.executed) == (0, 1)
        assert ResultCache(tmp_path).get(spec) == result

    def test_put_syncs_the_entry_before_renaming_it(self, tmp_path,
                                                   monkeypatch):
        calls = []
        real_fsync, real_replace = cache_mod.os.fsync, cache_mod.os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "fsync", fsync)
        monkeypatch.setattr(cache_mod.os, "replace", replace)
        cache = ResultCache(tmp_path)
        cache.put(make_spec(), make_result())
        assert calls == ["fsync", "replace"]
        assert cache.get(make_spec()) == make_result()
