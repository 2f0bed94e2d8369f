"""Cross-process metrics: executor sampling and pool-snapshot merge."""

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import Runner
from repro.experiments.common import (
    ExperimentConfig,
    best_case_spec,
    steady_cell_spec,
)
from repro.obs.metrics import METRICS
from repro.options import METRICS_ENV_VAR, RunOptions

TINY = ExperimentConfig(scale=0.03, seed=7)


@pytest.fixture
def fleet_metrics(monkeypatch):
    """Metrics on in the environment's run options, over a registry with
    clean state, restored after; each ``Runner`` switches the registry
    from its options."""
    monkeypatch.setenv(METRICS_ENV_VAR, "1")
    saved = (METRICS._counters, METRICS._gauges, METRICS._histograms)
    METRICS._counters = {}
    METRICS._gauges = {}
    METRICS._histograms = {}
    yield METRICS
    METRICS._counters, METRICS._gauges, METRICS._histograms = saved


def counters(registry):
    return registry.snapshot().counters


class TestSerialSampling:
    def test_cells_counted_per_mode(self, fleet_metrics):
        Runner().run([best_case_spec(0, TINY), best_case_spec(1, TINY)])
        snapshot = fleet_metrics.snapshot()
        assert snapshot.counters["repro_cells_best_case_total"] == 2
        assert snapshot.histograms["repro_cell_wall_seconds"]["count"] == 2

    def test_cache_hits_and_misses_counted(self, fleet_metrics, tmp_path):
        specs = [best_case_spec(0, TINY), best_case_spec(2, TINY)]
        Runner(cache=ResultCache(tmp_path)).run(specs)
        assert counters(fleet_metrics)["repro_cache_misses_total"] == 2
        assert counters(fleet_metrics)["repro_cache_puts_total"] == 2
        Runner(cache=ResultCache(tmp_path)).run(specs)
        assert counters(fleet_metrics)["repro_cache_hits_total"] == 2

    def test_entry_without_requested_payload_counts_as_a_miss(
            self, fleet_metrics, tmp_path):
        spec = steady_cell_spec("hemem+colloid", 1, TINY,
                                max_duration_s=4.0)
        Runner(cache=ResultCache(tmp_path)).run([spec])
        diagnosed = Runner(cache=ResultCache(tmp_path),
                           options=RunOptions(metrics=True, diagnose=True))
        diagnosed.run([spec])
        assert "repro_cache_hits_total" not in counters(fleet_metrics)
        assert counters(fleet_metrics)["repro_cache_misses_total"] == 2
        assert diagnosed.stats.cache_misses == 1

    def test_in_process_runner_records_leaf_metrics(self, fleet_metrics,
                                                    tmp_path):
        """Nothing but the options switches the registry: an in-process
        run records the solver's, executor's, cache puts' and placement
        observer's metrics, and leaves the registry off as it was."""
        assert not METRICS.enabled
        spec = steady_cell_spec("hemem+colloid", 1, TINY,
                                max_duration_s=4.0)
        Runner(cache=ResultCache(tmp_path),
               options=RunOptions(metrics=True, placement_audit=5)
               ).run([spec])
        assert not METRICS.enabled
        snapshot = fleet_metrics.snapshot()
        assert snapshot.counters["repro_cache_puts_total"] == 1
        assert snapshot.histograms["repro_solver_iterations"]["count"] > 0
        # The executor registers its histogram only with the registry on.
        assert "repro_migration_plan_bytes" in snapshot.histograms
        assert snapshot.counters["repro_placement_audits_total"] > 0

    def test_disabled_registry_records_nothing(self):
        assert not METRICS.enabled  # tests run with metrics off
        before = counters(METRICS)
        Runner().run([best_case_spec(3, TINY)])
        assert counters(METRICS) == before


class TestPoolMerge:
    def test_parallel_counters_match_serial(self, fleet_metrics):
        specs = [best_case_spec(i, TINY) for i in range(3)]
        Runner(jobs=1).run(specs)
        serial = counters(fleet_metrics)
        fleet_metrics.reset()
        Runner(jobs=2).run(specs)
        parallel = counters(fleet_metrics)
        assert parallel == serial
        assert parallel["repro_cells_best_case_total"] == 3

    def test_parallel_histograms_merge_bucketwise(self, fleet_metrics):
        specs = [best_case_spec(i, TINY) for i in range(3)]
        Runner(jobs=2).run(specs)
        hist = fleet_metrics.snapshot().histograms[
            "repro_cell_wall_seconds"]
        assert hist["count"] == 3
        assert (sum(hist["counts"]) + hist["underflow"]
                + hist["overflow"]) == 3
